"""Tests for the SALE workload generators and query generators."""

import numpy as np
import pytest

from repro.core import Box
from repro.core.rng import derive
from repro.storage import CostModel, HeapFile, SimulatedDisk
from repro.workloads import (
    DAY_DOMAIN,
    generate_sale_1d,
    generate_sale_2d,
    queries_1d,
    queries_2d,
    sale_schema_1d,
    sale_schema_2d,
)
from repro.workloads import sale


@pytest.fixture
def disk():
    return SimulatedDisk(page_size=4096, cost=CostModel.scaled(4096))


class TestSchemas:
    def test_record_sizes(self):
        assert sale_schema_1d(100).record_size == 100
        assert sale_schema_2d(100).record_size == 100
        assert sale_schema_1d(32).record_size == 32

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            sale_schema_1d(16)
        with pytest.raises(ValueError):
            sale_schema_2d(16)

    def test_field_names(self):
        names = [f.name for f in sale_schema_1d().fields]
        assert names[:4] == ["day", "cust", "part", "supp"]
        names2 = [f.name for f in sale_schema_2d().fields]
        assert names2[:2] == ["day", "amount"]


class TestGenerators:
    def test_1d_count_and_domain(self, disk):
        heap = generate_sale_1d(disk, 3000, seed=1)
        records = list(heap.scan())
        assert len(records) == 3000
        assert all(0 <= r[0] < DAY_DOMAIN for r in records)

    def test_1d_deterministic(self, disk):
        a = [r[0] for r in generate_sale_1d(disk, 500, seed=2).scan()]
        b = [r[0] for r in generate_sale_1d(disk, 500, seed=2).scan()]
        c = [r[0] for r in generate_sale_1d(disk, 500, seed=3).scan()]
        assert a == b
        assert a != c

    def test_1d_keys_roughly_uniform(self, disk):
        heap = generate_sale_1d(disk, 20_000, seed=4)
        keys = np.array([r[0] for r in heap.scan()], dtype=float) / DAY_DOMAIN
        assert abs(keys.mean() - 0.5) < 0.02
        hist, _edges = np.histogram(keys, bins=10, range=(0, 1))
        assert hist.min() > 0.8 * 2000

    def test_2d_bivariate_uniform(self, disk):
        heap = generate_sale_2d(disk, 20_000, seed=5)
        points = np.array([(r[0], r[1]) for r in heap.scan()])
        assert points.min() >= 0.0
        assert points.max() < 1.0
        assert abs(points[:, 0].mean() - 0.5) < 0.02
        assert abs(points[:, 1].mean() - 0.5) < 0.02
        # Independence: correlation near zero.
        corr = np.corrcoef(points[:, 0], points[:, 1])[0, 1]
        assert abs(corr) < 0.05

    def test_generation_spans_batches(self, disk):
        """More records than one internal generation batch still works."""
        heap = generate_sale_1d(disk, 70_000, seed=6)
        assert heap.num_records == 70_000


def _sale_per_element(disk, num_records, seed, record_size, two_d):
    """Reference generator: one numpy scalar indexed per field."""
    schema = (sale_schema_2d if two_d else sale_schema_1d)(record_size)
    has_pad = len(schema.fields) == 5

    def records():
        rng = derive(seed, "sale-2d" if two_d else "sale-1d")
        remaining = num_records
        while remaining > 0:
            batch = min(remaining, sale._GEN_BATCH)
            if two_d:
                points = rng.random(size=(batch, 2))
                others = rng.integers(0, 1_000_000, size=(batch, 2))
            else:
                days = rng.integers(0, DAY_DOMAIN, size=batch)
                others = rng.integers(0, 1_000_000, size=(batch, 3))
            for i in range(batch):
                if two_d:
                    base = (float(points[i, 0]), float(points[i, 1]),
                            int(others[i, 0]), int(others[i, 1]))
                else:
                    base = (int(days[i]), int(others[i, 0]),
                            int(others[i, 1]), int(others[i, 2]))
                yield base + (b"",) if has_pad else base
            remaining -= batch

    return HeapFile.bulk_load(disk, schema, records(), name="sale")


class TestGeneratorsMatchPerElementLoop:
    """Zipping ``tolist`` columns writes the same pages as indexing one numpy
    scalar per field."""

    @pytest.mark.parametrize("two_d", [False, True])
    @pytest.mark.parametrize("record_size", [32, 100])
    @pytest.mark.parametrize("num_records", [1, 40, 41, 250])
    def test_same_pages_and_clock(self, monkeypatch, two_d, record_size,
                                  num_records):
        # Batches of 7 records straddle every page boundary.
        monkeypatch.setattr(sale, "_GEN_BATCH", 7)
        generate = generate_sale_2d if two_d else generate_sale_1d

        def pages(heap):
            disk = heap.disk
            with disk.unmetered():
                return [disk.read_page(pid) for pid in heap.page_ids]

        got_disk = SimulatedDisk(page_size=4096, cost=CostModel.scaled(4096))
        want_disk = SimulatedDisk(page_size=4096, cost=CostModel.scaled(4096))
        got = generate(got_disk, num_records, seed=9, record_size=record_size,
                       name="sale")
        want = _sale_per_element(want_disk, num_records, 9, record_size, two_d)
        assert repr(got_disk.clock) == repr(want_disk.clock)
        assert got_disk.stats == want_disk.stats
        assert got.page_ids == want.page_ids
        assert got._extents == want._extents
        assert got.num_records == want.num_records == num_records
        assert pages(got) == pages(want)
        assert list(got.scan()) == list(want.scan())


class TestQueryGenerators:
    @pytest.mark.parametrize("selectivity", [0.0025, 0.025, 0.25])
    def test_1d_queries_hit_target_selectivity(self, disk, selectivity):
        heap = generate_sale_1d(disk, 30_000, seed=7)
        keys = [r[0] for r in heap.scan()]
        for query in queries_1d(selectivity, 5, seed=1):
            matched = sum(1 for k in keys if query.contains_point((k,)))
            assert matched / len(keys) == pytest.approx(selectivity, rel=0.35)

    @pytest.mark.parametrize("selectivity", [0.0025, 0.025, 0.25])
    def test_2d_queries_hit_target_selectivity(self, disk, selectivity):
        heap = generate_sale_2d(disk, 30_000, seed=8)
        points = [(r[0], r[1]) for r in heap.scan()]
        for query in queries_2d(selectivity, 5, seed=2):
            matched = sum(1 for p in points if query.contains_point(p))
            assert matched / len(points) == pytest.approx(selectivity, rel=0.4)

    def test_queries_stay_in_domain(self):
        for query in queries_1d(0.25, 20, seed=3):
            assert query.sides[0].lo >= 0
            assert query.sides[0].hi <= DAY_DOMAIN
        for query in queries_2d(0.25, 20, seed=4):
            for side in query.sides:
                assert side.lo >= 0.0
                assert side.hi <= 1.0

    def test_distinct_queries(self):
        boxes = queries_1d(0.025, 10, seed=5)
        assert len({box.sides[0].lo for box in boxes}) == 10

    def test_bad_selectivity(self):
        with pytest.raises(ValueError):
            queries_1d(0.0, 1)
        with pytest.raises(ValueError):
            queries_2d(1.5, 1)

    def test_returns_boxes(self):
        assert all(isinstance(q, Box) for q in queries_1d(0.1, 3))
        assert all(q.dims == 2 for q in queries_2d(0.1, 3))
