"""Unit tests for ACE Tree bulk construction (Phases 1 and 2)."""

import random

import pytest

from repro.acetree import AceBuildParams, build_ace_tree
from repro.acetree.build import _splits_by_rank
from repro.acetree.geometry import choose_height
from repro.core import Box, Field, Schema
from repro.core.errors import IndexBuildError
from repro.storage import CostModel, HeapFile, SimulatedDisk

from ..conftest import leaf_views, make_kv_records, make_xy_records


@pytest.fixture
def disk():
    return SimulatedDisk(page_size=2048, cost=CostModel.scaled(2048))


@pytest.fixture
def kv_schema():
    return Schema([Field("k", "i8"), Field("v", "f8"), Field("pad", "bytes", 84)])


def build_small(disk, kv_schema, n=2000, height=None, seed=0):
    heap = HeapFile.bulk_load(disk, kv_schema, make_kv_records(n, seed=seed))
    return heap, build_ace_tree(
        heap, AceBuildParams(key_fields=("k",), height=height, seed=seed)
    )


class TestParams:
    def test_string_key_normalized(self):
        params = AceBuildParams(key_fields="k")
        assert params.key_fields == ("k",)

    def test_empty_keys_rejected(self):
        with pytest.raises(IndexBuildError):
            AceBuildParams(key_fields=())


class TestBuildBasics:
    def test_empty_relation_rejected(self, disk, kv_schema):
        heap = HeapFile.bulk_load(disk, kv_schema, [])
        with pytest.raises(IndexBuildError):
            build_ace_tree(heap, AceBuildParams(key_fields=("k",)))

    def test_height_one_rejected(self, disk, kv_schema):
        heap = HeapFile.bulk_load(disk, kv_schema, make_kv_records(10))
        with pytest.raises(IndexBuildError):
            build_ace_tree(heap, AceBuildParams(key_fields=("k",), height=1))

    def test_auto_height(self, disk, kv_schema):
        _heap, tree = build_small(disk, kv_schema, n=2000)
        # Expected leaf (all sections) should fit ~0.7 of a 2 KB page.
        expected_leaf_bytes = 2000 / tree.num_leaves * 100
        assert expected_leaf_bytes <= 0.7 * 2048

    def test_explicit_height(self, disk, kv_schema):
        _heap, tree = build_small(disk, kv_schema, n=500, height=4)
        assert tree.height == 4
        assert tree.num_leaves == 8
        assert tree.leaf_store.num_leaves == 8

    def test_source_left_intact(self, disk, kv_schema):
        heap, _tree = build_small(disk, kv_schema, n=500, height=4)
        assert heap.num_records == 500
        assert len(list(heap.scan())) == 500

    def test_report(self, disk, kv_schema):
        _heap, tree = build_small(disk, kv_schema, n=500, height=4)
        report = tree.build_report
        assert report.num_records == 500
        assert report.height == 4
        assert report.num_leaves == 8
        assert report.mean_section_size == pytest.approx(500 / (4 * 8))
        assert report.build_seconds > 0
        assert report.io.page_writes > 0


class TestRecordPlacement:
    """Every record must land in a (leaf, section) cell consistent with the
    geometry: its key inside the section's range, and the leaf below the
    record's level-s ancestor (paper Phase 2, Figure 9)."""

    def test_all_records_stored_exactly_once(self, disk, kv_schema):
        heap, tree = build_small(disk, kv_schema, n=1500, height=5)
        stored = []
        for leaf in leaf_views(tree.leaf_store):
            stored.extend(leaf.page.records)
        assert sorted(r[:2] for r in stored) == sorted(
            r[:2] for r in heap.scan()
        )

    def test_section_ranges_respected(self, disk, kv_schema):
        _heap, tree = build_small(disk, kv_schema, n=1500, height=5)
        geom = tree.geometry
        for leaf in leaf_views(tree.leaf_store):
            for s in range(1, tree.height + 1):
                box = geom.section_box(leaf.index, s)
                for record in leaf.section_records(s):
                    assert box.contains_point((record[0],)), (
                        f"leaf {leaf.index} section {s}: key {record[0]} "
                        f"outside {box}"
                    )

    def test_cell_counts_exact(self, disk, kv_schema):
        heap, tree = build_small(disk, kv_schema, n=1200, height=5)
        geom = tree.geometry
        expected = [0] * geom.num_leaves
        for record in heap.scan():
            expected[geom.locate_leaf((record[0],))] += 1
        actual = [geom.cell_count(i) for i in range(geom.num_leaves)]
        assert actual == expected

    def test_domain_covers_all_keys(self, disk, kv_schema):
        heap, tree = build_small(disk, kv_schema, n=800, height=4)
        domain = tree.geometry.domain
        for record in heap.scan():
            assert domain.contains_point((record[0],))


class TestMedianSplits:
    def test_splits_balance_the_data(self, disk, kv_schema):
        """Root split should put ~half the records on each side."""
        heap, tree = build_small(disk, kv_schema, n=2000, height=5)
        root_key = tree.geometry.split_key(1, 0)
        left = sum(1 for r in heap.scan() if r[0] < root_key)
        assert abs(left - 1000) <= 20  # ties / rank rounding slack

    def test_exponentiality_of_node_counts(self, disk, kv_schema):
        """|records in L.R_i| ~ 2 x |records in L.R_{i+1}| (Section IV.C)."""
        _heap, tree = build_small(disk, kv_schema, n=4000, height=5)
        geom = tree.geometry
        for leaf in range(0, geom.num_leaves, 3):
            for s in range(1, tree.height - 1):
                outer = geom.node_count(s, geom.ancestor(leaf, s))
                inner = geom.node_count(s + 1, geom.ancestor(leaf, s + 1))
                assert outer == pytest.approx(2 * inner, rel=0.25)

    def test_duplicate_keys_tolerated(self, disk, kv_schema):
        """Heavy duplication degenerates splits but must not break the build."""
        records = [(5, float(i), b"") for i in range(300)]
        records += [(9, float(i), b"") for i in range(100)]
        heap = HeapFile.bulk_load(disk, kv_schema, records)
        tree = build_ace_tree(heap, AceBuildParams(key_fields=("k",), height=4))
        stored = sum(leaf.num_records for leaf in leaf_views(tree.leaf_store))
        assert stored == 400

    def test_single_record(self, disk, kv_schema):
        heap = HeapFile.bulk_load(disk, kv_schema, [(42, 1.0, b"")])
        tree = build_ace_tree(heap, AceBuildParams(key_fields=("k",), height=2))
        stored = [r for leaf in leaf_views(tree.leaf_store) for r in leaf.page.records]
        assert len(stored) == 1
        assert stored[0][0] == 42


def _splits_by_rank_per_page(sorted_file, key_of, height, arity=2):
    """Reference Phase 1 pick-up: every needed page tests every wanted rank."""
    n = sorted_file.num_records
    wanted = {0, n - 1}
    for level in range(1, height):
        for j in range(arity ** (level - 1)):
            for i in range(1, arity):
                wanted.add(((j * arity + i) * n) // arity ** level)
    per_page = sorted_file.records_per_page
    keys_at_rank = {}
    for page_index in sorted({rank // per_page for rank in wanted}):
        records = sorted_file.read_page_records(page_index)
        base = page_index * per_page
        for rank in wanted:
            if base <= rank < base + len(records):
                keys_at_rank[rank] = key_of(records[rank - base])
    domain = Box.closed([keys_at_rank[0]], [keys_at_rank[n - 1]])
    splits = []
    for level in range(1, height):
        level_splits = []
        for j in range(arity ** (level - 1)):
            level_splits.append(tuple(
                keys_at_rank[((j * arity + i) * n) // arity ** level]
                for i in range(1, arity)
            ))
        splits.append(level_splits)
    return domain, splits


#: kv_schema on a 2 KB page holds 20 records.
_PER_PAGE = 20


def _sorted_keys(case):
    rng = random.Random(17)
    if case == "one":
        return [42]
    if case == "short_page":
        count = _PER_PAGE - 1
    elif case == "page_multiple":
        count = 13 * _PER_PAGE
    elif case == "partial_last_page":
        count = 13 * _PER_PAGE + 7
    else:  # duplicates
        return sorted(rng.randrange(6) for _ in range(9 * _PER_PAGE + 3))
    return sorted(rng.randrange(1_000_000) for _ in range(count))


class TestSplitsByRank:
    """The grouped pick-up reads the same pages in the same order, yields the
    same keys and makes the same charges as the reference loop."""

    @pytest.mark.parametrize("arity", [2, 3, 4])
    @pytest.mark.parametrize("height", [None, 2, 5])
    @pytest.mark.parametrize(
        "case",
        ["one", "short_page", "page_multiple", "partial_last_page",
         "duplicates"],
    )
    def test_matches_per_page_loop(self, kv_schema, arity, height, case):
        keys = _sorted_keys(case)
        records = [(k, float(i), b"") for i, k in enumerate(keys)]
        if height is None:
            height = choose_height(
                len(records), kv_schema.record_size, 2048, arity=arity
            )

        def run(pick_up):
            disk = SimulatedDisk(page_size=2048, cost=CostModel.scaled(2048))
            heap = HeapFile.bulk_load(disk, kv_schema, records)
            assert heap.records_per_page == _PER_PAGE
            read = []
            read_page_records = heap.read_page_records

            def spy(index):
                read.append(index)
                return read_page_records(index)

            heap.read_page_records = spy
            result = pick_up(heap, kv_schema.key_getter("k"), height, arity)
            return result, read, repr(disk.clock), disk.stats

        got, got_reads, got_clock, got_stats = run(_splits_by_rank)
        want, want_reads, want_clock, want_stats = run(
            _splits_by_rank_per_page
        )
        assert got == want
        assert got_reads == want_reads
        assert got_clock == want_clock
        assert got_stats == want_stats


class TestDeterminism:
    def test_same_seed_same_tree(self, kv_schema):
        def build(seed):
            disk = SimulatedDisk(page_size=2048, cost=CostModel.scaled(2048))
            heap = HeapFile.bulk_load(disk, kv_schema, make_kv_records(600, seed=1))
            tree = build_ace_tree(
                heap, AceBuildParams(key_fields=("k",), height=4, seed=seed)
            )
            return [
                tuple(
                    tuple(r[:2] for r in leaf.section_records(s))
                    for s in range(1, leaf.height + 1)
                )
                for leaf in leaf_views(tree.leaf_store)
            ]

        assert build(5) == build(5)
        assert build(5) != build(6)


class TestKdBuild:
    def test_2d_build_places_all_records(self):
        disk = SimulatedDisk(page_size=2048, cost=CostModel.scaled(2048))
        schema = Schema([Field("x", "f8"), Field("y", "f8"), Field("tag", "i8")])
        heap = HeapFile.bulk_load(disk, schema, make_xy_records(1000, seed=2))
        tree = build_ace_tree(
            heap, AceBuildParams(key_fields=("x", "y"), height=5)
        )
        assert tree.dims == 2
        stored = [r for leaf in leaf_views(tree.leaf_store) for r in leaf.page.records]
        assert sorted(r[2] for r in stored) == list(range(1000))

    def test_2d_section_boxes_respected(self):
        disk = SimulatedDisk(page_size=2048, cost=CostModel.scaled(2048))
        schema = Schema([Field("x", "f8"), Field("y", "f8"), Field("tag", "i8")])
        heap = HeapFile.bulk_load(disk, schema, make_xy_records(1000, seed=4))
        tree = build_ace_tree(
            heap, AceBuildParams(key_fields=("x", "y"), height=5)
        )
        geom = tree.geometry
        for leaf in leaf_views(tree.leaf_store):
            for s in range(1, tree.height + 1):
                box = geom.section_box(leaf.index, s)
                for record in leaf.section_records(s):
                    assert box.contains_point((record[0], record[1]))

    def test_dims_exceed_height_rejected(self):
        disk = SimulatedDisk(page_size=2048, cost=CostModel.scaled(2048))
        schema = Schema([Field("x", "f8"), Field("y", "f8"), Field("tag", "i8")])
        heap = HeapFile.bulk_load(disk, schema, make_xy_records(100))
        with pytest.raises(IndexBuildError):
            build_ace_tree(heap, AceBuildParams(key_fields=("x", "y"), height=2))
