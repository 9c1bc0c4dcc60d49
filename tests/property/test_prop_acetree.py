"""Property-based tests for the ACE Tree's core invariants."""

import math
from collections import Counter

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.acetree import TreeGeometry
from repro.core import Box, Interval
from repro.testkit.generators import build_ace as build
from repro.testkit.generators import int_ranges, key_lists

from ..conftest import leaf_views

keys_strategy = key_lists()
range_strategy = int_ranges()


class TestBuildInvariants:
    @given(keys_strategy, st.integers(2, 5), st.integers(0, 10))
    @settings(max_examples=30, deadline=None)
    def test_every_record_stored_once_in_consistent_cell(self, keys, height, seed):
        records, tree = build(keys, height, seed)
        geom = tree.geometry
        stored = []
        for leaf in leaf_views(tree.leaf_store):
            for s in range(1, height + 1):
                box = geom.section_box(leaf.index, s)
                for record in leaf.section_records(s):
                    stored.append(record)
                    assert box.contains_point((record[0],))
        assert Counter(r[1] for r in stored) == Counter(r[1] for r in records)

    @given(keys_strategy, st.integers(2, 5), st.integers(0, 10))
    @settings(max_examples=20, deadline=None)
    def test_cell_counts_consistent(self, keys, height, seed):
        records, tree = build(keys, height, seed)
        geom = tree.geometry
        total = sum(geom.cell_count(i) for i in range(geom.num_leaves))
        assert total == len(records)
        # Node counts aggregate consistently at every level.
        for level in range(1, height):
            level_total = sum(
                geom.node_count(level, j) for j in range(geom.num_nodes(level))
            )
            assert level_total == len(records)

    @given(keys_strategy, st.integers(2, 4), st.integers(0, 5))
    @settings(max_examples=20, deadline=None)
    def test_section_ranges_nested(self, keys, height, seed):
        _records, tree = build(keys, height, seed)
        geom = tree.geometry
        for leaf in range(geom.num_leaves):
            for s in range(1, height):
                assert geom.section_box(leaf, s).contains(
                    geom.section_box(leaf, s + 1)
                )


class TestQueryInvariants:
    @given(keys_strategy, range_strategy, st.integers(0, 5))
    @settings(max_examples=30, deadline=None)
    def test_completeness_without_replacement(self, keys, bounds, seed):
        lo, hi = bounds
        records, tree = build(keys, 3, seed)
        stream = tree.sample(tree.query((lo, hi)), seed=seed)
        got = [r for batch in stream for r in batch.records]
        expected = [r for r in records if lo <= r[0] <= hi]
        assert Counter(r[1] for r in got) == Counter(r[1] for r in expected)

    @given(keys_strategy, range_strategy, st.integers(0, 5))
    @settings(max_examples=30, deadline=None)
    def test_prefix_subset_of_matching(self, keys, bounds, seed):
        lo, hi = bounds
        records, tree = build(keys, 3, seed)
        stream = tree.sample(tree.query((lo, hi)), seed=seed)
        prefix = stream.take(10)
        matching_values = {r[1] for r in records if lo <= r[0] <= hi}
        assert all(r[1] in matching_values for r in prefix)

    @given(keys_strategy, st.integers(0, 5))
    @settings(max_examples=15, deadline=None)
    def test_full_domain_query_returns_everything(self, keys, seed):
        records, tree = build(keys, 3, seed)
        stream = tree.sample(tree.query(None), seed=seed)
        got = [r for batch in stream for r in batch.records]
        assert Counter(r[1] for r in got) == Counter(r[1] for r in records)

    @given(keys_strategy, range_strategy, st.integers(0, 5))
    @settings(max_examples=20, deadline=None)
    def test_buffered_counter_never_negative_and_drains(self, keys, bounds, seed):
        lo, hi = bounds
        _records, tree = build(keys, 3, seed)
        last = None
        for batch in tree.sample(tree.query((lo, hi)), seed=seed):
            assert batch.buffered_records >= 0
            last = batch
        if last is not None:
            assert last.buffered_records == 0


class TestKaryPropertyInvariants:
    @given(keys_strategy, range_strategy, st.integers(3, 4), st.integers(0, 3))
    @settings(max_examples=20, deadline=None)
    def test_kary_completeness(self, keys, bounds, arity, seed):
        lo, hi = bounds
        records, tree = build(keys, 3, seed, arity=arity)
        stream = tree.sample(tree.query((lo, hi)), seed=seed)
        got = [r for batch in stream for r in batch.records]
        expected = [r for r in records if lo <= r[0] <= hi]
        assert Counter(r[1] for r in got) == Counter(r[1] for r in expected)


# -- population estimate -------------------------------------------------------

#: Split keys and query bounds: whole values (often repeated, so cells
#: collapse to empty), fractional values, and the infinities.
key_value = st.one_of(
    st.integers(-10, 110).map(float),
    st.floats(-10.0, 110.0, allow_nan=False),
    st.sampled_from([-math.inf, math.inf]),
)


@st.composite
def geometries_1d(draw):
    """1-D geometries with counts: nested (build-shaped) or arbitrary splits.

    Arbitrary splits are clamped into their parent's box at construction,
    which yields runs of empty cells that still carry counts.
    """
    arity = draw(st.sampled_from([2, 2, 3]))
    height = draw(st.integers(2, 6 if arity == 2 else 4))
    lo = draw(st.one_of(st.just(-math.inf), st.floats(-20.0, 40.0)))
    hi = draw(st.one_of(st.just(math.inf), st.floats(60.0, 120.0)))
    leaves = arity ** (height - 1)
    if draw(st.booleans()):
        keys = sorted(draw(st.lists(key_value, min_size=leaves - 1,
                                    max_size=leaves - 1)))
        splits = [
            [
                tuple(keys[(j * arity + c + 1) * arity ** (height - 2 - s) - 1]
                      for c in range(arity - 1))
                for j in range(arity ** s)
            ]
            for s in range(height - 1)
        ]
    else:
        pool = draw(st.lists(key_value, min_size=1, max_size=6))
        splits = [
            [
                tuple(sorted(draw(st.sampled_from(pool))
                             for _ in range(arity - 1)))
                for _ in range(arity ** s)
            ]
            for s in range(height - 1)
        ]
    # Large counts make float rounding in the running total observable.
    count = st.one_of(st.integers(0, 1000), st.integers(0, 2 ** 53))
    counts = draw(st.lists(count, min_size=leaves, max_size=leaves))
    return TreeGeometry(Box.of(Interval(lo, hi)), splits, cell_counts=counts,
                        arity=arity)


query_bounds = st.tuples(
    st.one_of(key_value, st.floats(-1e3, 1e3, allow_nan=False)),
    st.one_of(key_value, st.floats(-1e3, 1e3, allow_nan=False)),
).map(sorted)


def box_loop_estimate(geometry, query):
    """The k-d ``estimate_count``: one ``Box`` per overlapped leaf cell."""
    total = 0.0
    for leaf in range(geometry.num_leaves):
        box = geometry.leaf_box(leaf)
        if not box.overlaps(query):
            continue
        count = geometry.cell_count(leaf)
        if query.contains(box):
            total += count
        else:
            part = box.intersect(query)
            volume = box.volume()
            if volume > 0 and math.isfinite(volume):
                total += count * part.volume() / volume
            else:
                total += count
    return total


class TestEstimateCount1D:
    @given(geometries_1d(), st.lists(query_bounds, min_size=1, max_size=20))
    @example(  # a whole cell whose count * width / width is not its count
        TreeGeometry(Box.of(Interval(0.0, 100.0)), [[59.138], [48.39, 80.0]],
                     cell_counts=[1, 914, 1, 1]),
        [(48.39, 59.138)],
    )
    @settings(max_examples=250, deadline=None)
    def test_equals_box_loop(self, geometry, bounds):
        for lo, hi in bounds:
            query = Box.of(Interval(lo, hi))
            assert geometry.estimate_count(query) == box_loop_estimate(
                geometry, query
            )
