"""Tests for the materialized sample view facade and differential updates."""

from collections import Counter

import numpy as np
import pytest

from repro.acetree import AceBuildParams, build_ace_tree
from repro.acetree.geometry import choose_height
from repro.core.errors import SchemaError, SortError
from repro.storage import CostModel, HeapFile, SimulatedDisk
from repro.view import MaterializedSampleView, create_sample_view
from repro.workloads.sale import generate_sale_1d

from ..conftest import make_kv_records


def make_sale_rows(n, seed):
    """``n`` records in the SALE 1-D layout (day, cust, part, supp, pad)."""
    rng = np.random.default_rng(seed)
    return [(int(day), 1, 2, 3, b"") for day in rng.integers(0, 10**9, n)]


def _refreshable_view(disk, schema, n=5000):
    """A view over ``n`` records whose source heap is already freed, with a
    50-record delta waiting for a refresh."""
    heap = HeapFile.bulk_load(disk, schema, make_kv_records(n, seed=5))
    v = create_sample_view("leak", heap, index_on=("k",), seed=3)
    heap.free()
    v.insert(make_kv_records(50, seed=6))
    return v


@pytest.fixture
def view(disk, kv_schema):
    records = make_kv_records(2500, seed=31)
    heap = HeapFile.bulk_load(disk, kv_schema, records)
    return records, create_sample_view("mysam", heap, index_on=("k",), seed=2)


def multiset(records):
    return Counter((r[0], r[1]) for r in records)


class TestBasics:
    def test_metadata(self, view):
        records, v = view
        assert v.name == "mysam"
        assert v.key_fields == ("k",)
        assert v.num_records == len(records)
        assert v.delta_size == 0

    def test_sampling_without_delta_is_tree_stream(self, view):
        records, v = view
        q = v.query((100_000, 500_000))
        got = [r for b in v.sample(q, seed=1) for r in b.records]
        expected = [r for r in records if 100_000 <= r[0] <= 500_000]
        assert multiset(got) == multiset(expected)

    def test_estimate_count(self, view):
        records, v = view
        q = v.query((100_000, 500_000))
        true = sum(1 for r in records if 100_000 <= r[0] <= 500_000)
        assert v.estimate_count(q) == pytest.approx(true, rel=0.1)


class TestDelta:
    def test_insert_validates_schema(self, view):
        _records, v = view
        with pytest.raises(SchemaError):
            v.insert([("bad", 1.0, b"")])

    def test_insert_visible_in_counts(self, view):
        records, v = view
        v.insert([(123, 1.0, b""), (456, 2.0, b"")])
        assert v.num_records == len(records) + 2
        assert v.delta_size == 2

    def test_merged_sampling_complete(self, view):
        records, v = view
        fresh = [(200_000 + i, -float(i), b"") for i in range(150)]
        v.insert(fresh)
        q = v.query((100_000, 500_000))
        got = [r for b in v.sample(q, seed=4) for r in b.records]
        expected = [r for r in records if 100_000 <= r[0] <= 500_000] + fresh
        assert multiset(got) == multiset(expected)

    def test_delta_records_interleaved_not_appended(self, view):
        """Hypergeometric merging: delta records appear spread through the
        stream, not clumped at either end."""
        records, v = view
        fresh = [(250_000 + i, -float(i), b"") for i in range(200)]
        v.insert(fresh)
        q = v.query((100_000, 500_000))
        positions = []
        pos = 0
        for batch in v.sample(q, seed=6):
            for record in batch.records:
                if record[1] < 0:  # a delta record
                    positions.append(pos)
                pos += 1
        assert positions, "no delta records sampled"
        total = pos
        mean_pos = float(np.mean(positions)) / total
        # Uniform interleaving puts the mean position near 0.5.
        assert 0.3 < mean_pos < 0.7

    def test_prefix_unbiased_between_base_and_delta(self, view):
        """In early prefixes, delta records appear at a rate proportional to
        their share of the matching population."""
        records, v = view
        fresh = [(300_000 + (i % 1000), -float(i + 1), b"") for i in range(400)]
        v.insert(fresh)
        q = v.query((100_000, 500_000))
        base_matching = sum(1 for r in records if 100_000 <= r[0] <= 500_000)
        share = 400 / (base_matching + 400)
        delta_seen = 0
        taken = 0
        for batch in v.sample(q, seed=8):
            for record in batch.records:
                taken += 1
                delta_seen += record[1] < 0
                if taken >= 300:
                    break
            if taken >= 300:
                break
        expected = 300 * share
        sigma = (300 * share * (1 - share)) ** 0.5
        assert abs(delta_seen - expected) < 5 * sigma


class TestRefresh:
    def test_refresh_rebuilds_and_clears_delta(self, view):
        records, v = view
        fresh = [(777_777, 9.0, b"")] * 5
        v.insert(fresh)
        v.refresh()
        assert v.delta_size == 0
        assert v.num_records == len(records) + 5
        q = v.query((777_777, 777_777))
        got = [r for b in v.sample(q, seed=1) for r in b.records]
        assert len(got) == 5

    def test_refresh_noop_without_delta(self, view):
        _records, v = view
        tree_before = v.tree
        v.refresh()
        assert v.tree is tree_before

    def test_failed_refresh_frees_the_merged_heap(self, disk, kv_schema):
        v = _refreshable_view(disk, kv_schema)
        tree_before = v.tree
        pages_before = disk.allocated_pages
        everything = v.query(None)
        visible = multiset(r for b in v.sample(everything, seed=1)
                           for r in b.records)
        with pytest.raises(SortError):
            v.refresh(memory_pages=2)
        assert disk.allocated_pages == pages_before
        assert v.tree is tree_before
        assert v.delta_size == 50
        assert multiset(r for b in v.sample(everything, seed=1)
                        for r in b.records) == visible

        v.refresh()
        clean_disk = SimulatedDisk(page_size=2048, cost=CostModel.scaled(2048))
        clean = _refreshable_view(clean_disk, kv_schema)
        clean.refresh()
        assert disk.allocated_pages == clean_disk.allocated_pages
        assert v.delta_size == 0
        assert v.num_records == 5050

    def test_explicit_height_survives_refreshes(self, disk):
        source = generate_sale_1d(disk, 20_000, seed=1)
        v = create_sample_view("v", source, index_on=("day",), height=6, seed=1)
        assert (v.tree.height, v.tree.num_leaves) == (6, 32)
        for round_no in range(2):
            v.insert(make_sale_rows(100, seed=round_no))
            v.refresh()
            assert (v.tree.height, v.tree.num_leaves) == (6, 32)
        assert v.num_records == 20_200

    def test_arity_survives_refresh(self, disk, kv_schema):
        records = make_kv_records(2000, seed=8)
        heap = HeapFile.bulk_load(disk, kv_schema, records)
        tree = build_ace_tree(
            heap, AceBuildParams(key_fields=("k",), arity=3, seed=2)
        )
        v = MaterializedSampleView(name="k3", tree=tree, seed=2)
        fresh = make_kv_records(50, seed=9)
        v.insert(fresh)
        v.refresh()
        assert v.tree.geometry.arity == 3
        assert v.tree.height == choose_height(2050, 100, disk.page_size, arity=3)
        everything = v.query(None)
        assert multiset(r for b in v.sample(everything, seed=1)
                        for r in b.records) == multiset(records + fresh)

    def test_auto_height_is_rechosen(self, view):
        records, v = view
        assert v.height is None
        assert v.tree.height == choose_height(2500, 100, 2048)
        v.insert(make_kv_records(2500, seed=12))
        v.refresh()
        assert v.tree.height == choose_height(5000, 100, 2048)
        assert v.tree.height != choose_height(2500, 100, 2048)
