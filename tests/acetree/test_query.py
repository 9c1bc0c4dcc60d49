"""Unit tests for the Shuttle/Combine query algorithm."""

from collections import Counter

import pytest

from repro.acetree import AceBuildParams, build_ace_tree
from repro.core import Field, Schema
from repro.core.errors import QueryError
from repro.storage import CostModel, HeapFile, SimulatedDisk

from ..conftest import make_kv_records


@pytest.fixture
def disk():
    return SimulatedDisk(page_size=2048, cost=CostModel.scaled(2048))


@pytest.fixture
def kv_schema():
    return Schema([Field("k", "i8"), Field("v", "f8"), Field("pad", "bytes", 84)])


@pytest.fixture
def built(disk, kv_schema):
    records = make_kv_records(3000, seed=13)
    heap = HeapFile.bulk_load(disk, kv_schema, records)
    tree = build_ace_tree(heap, AceBuildParams(key_fields=("k",), height=6, seed=3))
    return records, tree


def matching_of(records, lo, hi):
    return [r for r in records if lo <= r[0] <= hi]


def multiset(records):
    return Counter((r[0], r[1]) for r in records)


class TestQueryBox:
    def test_query_builder(self, built):
        _records, tree = built
        box = tree.query((100, 200))
        assert box.contains_point((100,))
        assert box.contains_point((200,))
        assert not box.contains_point((201,))

    def test_query_arity_checked(self, built):
        _records, tree = built
        with pytest.raises(QueryError):
            tree.query((1, 2), (3, 4))

    def test_query_reversed_bounds(self, built):
        _records, tree = built
        with pytest.raises(QueryError):
            tree.query((5, 1))

    def test_query_none_unbounded(self, built):
        _records, tree = built
        box = tree.query(None)
        assert box == tree.geometry.domain

    def test_sample_wrong_dims_rejected(self, built):
        from repro.core import Box, Interval

        _records, tree = built
        with pytest.raises(QueryError):
            tree.sample(Box.of(Interval(0, 1), Interval(0, 1)))


class TestCompleteness:
    """Run to exhaustion, the stream returns exactly the matching records."""

    @pytest.mark.parametrize("lo,hi", [
        (100_000, 300_000),     # mid-selectivity
        (0, 1_000_000),         # everything
        (500_000, 505_000),     # narrow
        (999_990, 999_999),     # domain edge
    ])
    def test_exhaustive_equals_matching(self, built, lo, hi):
        records, tree = built
        stream = tree.sample(tree.query((lo, hi)), seed=1)
        got = [r for batch in stream for r in batch.records]
        assert multiset(got) == multiset(matching_of(records, lo, hi))

    def test_empty_query(self, built):
        records, tree = built
        # A range between two adjacent keys that matches nothing.
        stream = tree.sample(tree.query((2, 2)), seed=1)
        got = [r for batch in stream for r in batch.records]
        assert got == matching_of(records, 2, 2)

    def test_query_outside_domain(self, built):
        _records, tree = built
        stream = tree.sample(tree.query((2_000_000, 3_000_000)), seed=1)
        assert list(stream) == []
        assert stream.exhausted


class TestNoDuplicates:
    def test_without_replacement(self, built):
        records, tree = built
        stream = tree.sample(tree.query((100_000, 600_000)), seed=5)
        seen = Counter()
        for batch in stream:
            for record in batch.records:
                seen[(record[0], record[1])] += 1
        expected = multiset(matching_of(records, 100_000, 600_000))
        assert seen == expected  # equality implies no over-delivery


class TestOnlineProperties:
    def test_all_prefix_records_match_query(self, built):
        records, tree = built
        stream = tree.sample(tree.query((250_000, 400_000)), seed=2)
        got = stream.take(100)
        assert len(got) == 100
        assert all(250_000 <= r[0] <= 400_000 for r in got)

    def test_batches_carry_monotone_clock(self, built):
        _records, tree = built
        stream = tree.sample(tree.query((100_000, 500_000)), seed=2)
        clocks = [batch.clock for batch in stream]
        assert clocks == sorted(clocks)

    def test_leaves_read_monotone(self, built):
        _records, tree = built
        stream = tree.sample(tree.query((100_000, 500_000)), seed=2)
        reads = [batch.leaves_read for batch in stream]
        assert reads == sorted(reads)

    def test_final_flush_only_ever_last(self, built):
        """A flush batch appears only when leftovers remain after the last
        leaf, and then only as the very last batch."""
        _records, tree = built
        batches = list(tree.sample(tree.query((100_000, 500_000)), seed=2))
        assert not any(b.is_final_flush for b in batches[:-1])
        assert batches[-1].buffered_records == 0

    def test_buffered_counter_drains_to_zero(self, built):
        _records, tree = built
        batches = list(tree.sample(tree.query((100_000, 500_000)), seed=2))
        assert batches[-1].buffered_records == 0
        assert any(b.buffered_records > 0 for b in batches)

    def test_stats(self, built):
        _records, tree = built
        stream = tree.sample(tree.query((100_000, 500_000)), seed=2)
        total = sum(len(b.records) for b in stream)
        assert stream.stats.records_emitted == total
        assert stream.stats.leaves_read == tree.num_leaves
        assert stream.stats.buffered_records == 0

    def test_take_more_than_available(self, built):
        records, tree = built
        matching = matching_of(records, 100_000, 110_000)
        stream = tree.sample(tree.query((100_000, 110_000)), seed=2)
        got = stream.take(10 ** 6)
        assert len(got) == len(matching)

    def test_take_zero_does_not_step_the_stream(self, built):
        _records, tree = built
        stream = tree.sample(tree.query((100_000, 500_000)), seed=2)
        clock = tree.disk.clock
        assert stream.take(0) == []
        assert tree.disk.clock == clock
        assert stream.stats.leaves_read == 0
        # The untouched stream still starts from its first batch.
        fresh = tree.sample(tree.query((100_000, 500_000)), seed=2)
        assert stream.take(50) == fresh.take(50)

    def test_take_negative_rejected(self, built):
        _records, tree = built
        stream = tree.sample(tree.query((100_000, 120_000)), seed=2)
        with pytest.raises(QueryError, match="n >= 0"):
            stream.take(-1)
        assert stream.stats.leaves_read == 0


class TestShuttleTraversal:
    def test_visits_each_leaf_once(self, built):
        _records, tree = built
        stream = tree.sample(tree.query((100_000, 500_000)), seed=2)
        leaves = []
        for batch in stream:
            if not batch.is_final_flush:
                leaves.append(batch.leaves_read)
        assert leaves == list(range(1, tree.num_leaves + 1))

    def test_overlapping_leaves_first(self, built):
        """The shuttle is greedy on query-relevant leaves: every leaf whose
        own box overlaps the query is read before any leaf whose box does
        not (overlap-priority rule)."""
        _records, tree = built
        query = tree.query((200_000, 260_000))
        geom = tree.geometry
        overlapping = set(geom.overlapping_nodes(tree.height, query))
        stream = tree.sample(query, seed=4)
        first_leaves = []
        for _ in range(len(overlapping)):
            leaf_index = stream._stab()
            stream._mark_done(leaf_index)
            first_leaves.append(leaf_index)
        assert set(first_leaves) == overlapping

    def test_alternation_spreads_early_stabs(self, built):
        """For a full-domain query the first two stabs land in different
        halves of the tree (the Figure 10 toggle behaviour)."""
        _records, tree = built
        stream = tree.sample(tree.query(None), seed=2)
        first = stream._stab()
        stream._mark_done(first)
        second = stream._stab()
        half = tree.num_leaves // 2
        assert (first < half) != (second < half)


class TestCombineSemantics:
    def test_solo_sections_emit_immediately(self, disk, kv_schema):
        """With a query covered by one leaf-level cell, every section of
        every visited leaf is solo-combinable, so nothing stays buffered
        except cells whose interval set spans several nodes."""
        records = make_kv_records(2000, seed=3)
        heap = HeapFile.bulk_load(disk, kv_schema, records)
        tree = build_ace_tree(heap, AceBuildParams(key_fields=("k",), height=4, seed=1))
        geom = tree.geometry
        # Pick a query strictly inside leaf cell 5.
        cell_box = geom.leaf_box(5).sides[0]
        width = cell_box.width
        lo = cell_box.lo + width * 0.25
        hi = cell_box.lo + width * 0.5
        query = tree.query((lo, hi))
        assert geom.overlapping_nodes(tree.height, query) == [5]
        batches = list(tree.sample(query, seed=2))
        # Every batch except the flush should have zero buffered records:
        # all section ranges contain the single-cell query.
        for batch in batches:
            assert batch.buffered_records == 0

    def test_first_leaf_emits_records_for_wide_query(self, built):
        records, tree = built
        query = tree.query((0, 1_000_000))
        stream = tree.sample(query, seed=7)
        first = next(stream)
        # Section 1 (and, for a domain-wide query, every solo level) emits.
        assert len(first.records) > 0


class TestAlternationFlag:
    def test_no_alternation_still_complete(self, built):
        """Disabling the Figure-10 toggle is a pure performance ablation:
        the stream still returns exactly the matching records."""
        records, tree = built
        query = tree.query((100_000, 500_000))
        got = [
            r
            for batch in tree.sample(query, seed=2, alternate=False)
            for r in batch.records
        ]
        assert multiset(got) == multiset(matching_of(records, 100_000, 500_000))

    def test_no_alternation_descends_leftmost(self, built):
        _records, tree = built
        stream = tree.sample(tree.query(None), seed=2, alternate=False)
        first = stream._stab()
        stream._mark_done(first)
        second = stream._stab()
        assert first == 0
        assert second == 1  # strictly left-to-right drain
