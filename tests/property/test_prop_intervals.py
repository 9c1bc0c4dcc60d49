"""Property-based tests for interval/box algebra."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Box, Interval

finite = st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
)


@st.composite
def intervals(draw):
    # Two finite draws, ordered: every lo <= hi pair, with no rejection
    # (a ``v >= lo`` filter rejects most draws once lo nears 1e9).
    a, b = draw(finite), draw(finite)
    return Interval(min(a, b), max(a, b))


@st.composite
def boxes(draw, dims=2):
    return Box(tuple(draw(intervals()) for _ in range(dims)))


class TestIntervalProperties:
    @given(intervals(), intervals())
    def test_overlap_symmetric(self, a, b):
        assert a.overlaps(b) == b.overlaps(a)

    @given(intervals())
    def test_self_overlap_iff_nonempty(self, a):
        assert a.overlaps(a) == (not a.is_empty)

    @given(intervals(), intervals())
    def test_intersection_within_both(self, a, b):
        got = a.intersect(b)
        if not got.is_empty:
            assert a.contains(got)
            assert b.contains(got)

    @given(intervals(), intervals())
    def test_intersection_nonempty_iff_overlap(self, a, b):
        assert (not a.intersect(b).is_empty) == a.overlaps(b)

    @given(intervals(), finite)
    def test_split_partitions_points(self, iv, point):
        if not (iv.lo <= point <= iv.hi):
            return
        low, high = iv.split_at(point)
        for value in (iv.lo, point, (iv.lo + iv.hi) / 2):
            if iv.contains_value(value):
                assert low.contains_value(value) != high.contains_value(value)

    @given(intervals(), intervals(), intervals())
    def test_contains_transitive(self, a, b, c):
        if a.contains(b) and b.contains(c):
            assert a.contains(c)

    @given(intervals())
    def test_contains_value_consistent_with_contains(self, a):
        if not a.is_empty:
            assert a.contains_value(a.lo)


class TestBoxProperties:
    @given(boxes(), boxes())
    def test_overlap_symmetric(self, a, b):
        assert a.overlaps(b) == b.overlaps(a)

    @given(boxes(), boxes())
    def test_intersection_within_both(self, a, b):
        got = a.intersect(b)
        if not got.is_empty:
            assert a.contains(got)
            assert b.contains(got)

    @given(boxes(), boxes())
    def test_contains_implies_overlap(self, a, b):
        if a.contains(b) and not b.is_empty:
            assert a.overlaps(b)

    @given(boxes(), st.integers(0, 1), finite)
    @settings(max_examples=60)
    def test_split_covers_box(self, box, axis, boundary):
        side = box.sides[axis]
        if not (side.lo <= boundary <= side.hi):
            return
        low, high = box.split_at(axis, boundary)
        # Union of children's side spans equals the parent's.
        assert low.sides[axis].lo == side.lo
        assert high.sides[axis].hi == side.hi
        assert low.sides[axis].hi == high.sides[axis].lo

    @given(st.lists(st.tuples(finite, finite), min_size=1, max_size=30))
    def test_bounding_contains_all_points(self, points):
        box = Box.bounding(points)
        for point in points:
            assert box.contains_point(point)
