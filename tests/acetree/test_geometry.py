"""Unit tests for the ACE Tree split-key geometry."""

import math
import random

import numpy as np
import pytest

from repro.core import Box, Interval
from repro.core.errors import IndexBuildError, QueryError
from repro.acetree import TreeGeometry, choose_height


def paper_geometry(with_counts=True):
    """The example tree of the paper's Figure 2: domain 0-100, height 4.

    Splits: root 50; level 2: 25 / 75; level 3: 12 / 37 / 62 / 88.
    """
    counts = [4] * 8 if with_counts else None
    return TreeGeometry(
        domain=Box.of(Interval(0.0, 101.0)),
        splits=[[50.0], [25.0, 75.0], [12.0, 37.0, 62.0, 88.0]],
        cell_counts=counts,
    )


class TestConstruction:
    def test_shape(self):
        geom = paper_geometry()
        assert geom.height == 4
        assert geom.num_leaves == 8
        assert geom.dims == 1

    def test_num_nodes_per_level(self):
        geom = paper_geometry()
        assert [geom.num_nodes(s) for s in (1, 2, 3, 4)] == [1, 2, 4, 8]

    def test_needs_one_internal_level(self):
        with pytest.raises(IndexBuildError):
            TreeGeometry(Box.of(Interval(0.0, 1.0)), splits=[])

    def test_wrong_split_count_rejected(self):
        with pytest.raises(IndexBuildError):
            TreeGeometry(
                Box.of(Interval(0.0, 1.0)), splits=[[0.5], [0.25]]  # level 2 needs 2
            )

    def test_wrong_cell_count_length_rejected(self):
        with pytest.raises(IndexBuildError):
            TreeGeometry(
                Box.of(Interval(0.0, 1.0)), splits=[[0.5]], cell_counts=[1, 2, 3]
            )


class TestBoxes:
    def test_root_box_is_domain(self):
        geom = paper_geometry()
        assert geom.node_box(1, 0) == geom.domain

    def test_level2_boxes(self):
        geom = paper_geometry()
        assert geom.node_box(2, 0).sides[0] == Interval(0.0, 50.0)
        assert geom.node_box(2, 1).sides[0] == Interval(50.0, 101.0)

    def test_leaf_boxes_tile_domain(self):
        geom = paper_geometry()
        edges = []
        for leaf in range(8):
            side = geom.leaf_box(leaf).sides[0]
            edges.append((side.lo, side.hi))
        # Contiguous, increasing, covering the domain.
        assert edges[0][0] == 0.0
        assert edges[-1][1] == 101.0
        for (lo1, hi1), (lo2, hi2) in zip(edges, edges[1:]):
            assert hi1 == lo2

    def test_bad_level_rejected(self):
        geom = paper_geometry()
        with pytest.raises(QueryError):
            geom.node_box(0, 0)
        with pytest.raises(QueryError):
            geom.node_box(5, 0)

    def test_bad_index_rejected(self):
        geom = paper_geometry()
        with pytest.raises(QueryError):
            geom.node_box(2, 2)


class TestAncestryAndSections:
    def test_ancestor_shifts(self):
        geom = paper_geometry()
        # Leaf 3 (0-indexed) is the paper's L4: path 0-100, 0-50, 26-50, 38-50.
        assert geom.ancestor(3, 1) == 0
        assert geom.ancestor(3, 2) == 0
        assert geom.ancestor(3, 3) == 1
        assert geom.ancestor(3, 4) == 3

    def test_section_boxes_are_nested(self):
        """L.R1 ⊃ L.R2 ⊃ ... ⊃ L.Rh for every leaf (paper Section III.A)."""
        geom = paper_geometry()
        for leaf in range(8):
            boxes = [geom.section_box(leaf, s) for s in range(1, 5)]
            for outer, inner in zip(boxes, boxes[1:]):
                assert outer.contains(inner)

    def test_section1_is_domain(self):
        geom = paper_geometry()
        for leaf in range(8):
            assert geom.section_box(leaf, 1) == geom.domain

    def test_paper_example_l4_ranges(self):
        """Figure 2: L4's ranges are 0-100, 0-50, 26-50, 38-50."""
        geom = paper_geometry()
        sides = [geom.section_box(3, s).sides[0] for s in (1, 2, 3, 4)]
        assert (sides[0].lo, sides[0].hi) == (0.0, 101.0)
        assert (sides[1].lo, sides[1].hi) == (0.0, 50.0)
        assert (sides[2].lo, sides[2].hi) == (25.0, 50.0)
        assert (sides[3].lo, sides[3].hi) == (37.0, 50.0)


class TestDescend:
    def test_locate_leaf(self):
        geom = paper_geometry()
        assert geom.locate_leaf((0.0,)) == 0
        assert geom.locate_leaf((11.0,)) == 0
        assert geom.locate_leaf((12.0,)) == 1
        assert geom.locate_leaf((49.0,)) == 3
        assert geom.locate_leaf((50.0,)) == 4
        assert geom.locate_leaf((100.0,)) == 7

    def test_descend_partial(self):
        geom = paper_geometry()
        assert geom.descend((30.0,), 0) == 0
        assert geom.descend((30.0,), 1) == 0  # 30 < 50: left
        assert geom.descend((30.0,), 2) == 1  # 30 >= 25: right

    def test_descend_validates_levels(self):
        geom = paper_geometry()
        with pytest.raises(QueryError):
            geom.descend((1.0,), 4)

    def test_descend_consistent_with_ancestor(self):
        geom = paper_geometry()
        for value in (3.0, 17.0, 42.0, 55.0, 80.0, 95.0):
            leaf = geom.locate_leaf((value,))
            for s in range(1, 5):
                assert geom.descend((value,), s - 1) == geom.ancestor(leaf, s)


def geometry_1d(splits, lo=-1e18, hi=1e18, arity=2):
    return TreeGeometry(
        domain=Box.of(Interval(lo, hi)), splits=splits, arity=arity
    )


def assert_locators_agree(geom, keys, kind):
    """``array_leaf_locator`` matches ``scalar_leaf_locator`` key by key."""
    locate = geom.array_leaf_locator(kind)
    assert locate is not None
    dtype = np.int64 if kind == "i8" else np.float64
    got = locate(np.array(keys, dtype=dtype)).tolist()
    scalar = geom.scalar_leaf_locator()
    assert got == [scalar(key) for key in keys]


def inorder_splits(level_values, height):
    """Per-level split lists whose in-order walk is ``level_values``."""
    return [
        level_values[2 ** (height - level - 1) - 1::2 ** (height - level)]
        for level in range(1, height)
    ]


class TestArrayLeafLocator:
    def test_paper_tree(self):
        geom = paper_geometry()
        keys = list(range(-5, 106)) + [12, 25, 37, 50, 62, 75, 88]
        assert_locators_agree(geom, keys, "i8")
        assert_locators_agree(geom, [k + 0.5 for k in keys] + keys, "f8")

    def test_duplicate_split_keys(self):
        geom = geometry_1d([[5.0], [5.0, 5.0], [2.0, 5.0, 5.0, 9.0]])
        keys = [-1, 1, 2, 3, 4, 5, 6, 8, 9, 10]
        assert_locators_agree(geom, keys, "i8")
        assert_locators_agree(geom, [4.999, 5.0, 5.001] + keys, "f8")

    def test_half_integer_splits_with_int_keys(self):
        geom = geometry_1d([[2.5], [1.5, 3.5], [0.5, 2.0, 3.0, 4.5]])
        assert_locators_agree(geom, list(range(-2, 8)), "i8")
        # float64(2**53 + 3) rounds up to the split; the int key is below it.
        big = geometry_1d([[float(2**53 + 4)]], hi=1e19)
        assert_locators_agree(big, [2**53 + 3, 2**53 + 4, 2**53 + 5], "i8")

    def test_minus_inf_splits(self):
        geom = geometry_1d([[-math.inf], [-math.inf, 10.0]], lo=-math.inf)
        assert_locators_agree(geom, [-2**63, -1, 0, 9, 10, 2**63 - 1], "i8")
        assert_locators_agree(
            geom, [-math.inf, -1e308, 0.0, 10.0, math.inf, math.nan], "f8"
        )

    def test_nan_and_infinite_float_keys(self):
        geom = paper_geometry()
        keys = [math.nan, math.inf, -math.inf, 50.0, -0.0]
        assert_locators_agree(geom, keys, "f8")
        assert geom.array_leaf_locator("f8")(np.array([math.nan]))[0] == 0

    def test_plus_inf_split(self):
        geom = geometry_1d([[math.inf], [0.0, math.inf]], hi=math.inf)
        assert_locators_agree(geom, [math.inf, 1e308, -1.0, 0.0, math.nan], "f8")
        assert geom.array_leaf_locator("i8") is None  # no int threshold

    def test_decreasing_inorder_splits_rejected(self):
        # In-order walk: 7, 5, 9 — the descent and a search disagree.
        geom = geometry_1d([[5.0], [7.0, 9.0]])
        assert geom.array_leaf_locator("i8") is None
        assert geom.array_leaf_locator("f8") is None

    def test_only_binary_1d_and_numeric_kinds(self):
        assert paper_geometry().array_leaf_locator("bytes") is None
        kary = geometry_1d([[(3.0, 6.0)]], arity=3)
        assert kary.array_leaf_locator("i8") is None

    def test_random_geometries_agree_with_descent(self):
        rng = random.Random(19)
        for _ in range(60):
            height = rng.randint(2, 6)
            values = [rng.randint(-6, 6) / 2 for _ in range(2 ** (height - 1) - 1)]
            if rng.random() < 0.7:
                values.sort()
            geom = geometry_1d(inorder_splits(values, height))
            int_keys = list(range(-8, 9))
            float_keys = [k / 4 for k in range(-32, 33)] + [math.nan, math.inf]
            if values == sorted(values):
                assert_locators_agree(geom, int_keys, "i8")
                assert_locators_agree(geom, float_keys, "f8")
            else:
                assert geom.array_leaf_locator("i8") is None


class TestOverlappingNodes:
    def test_query_inside_one_half(self):
        geom = paper_geometry()
        query = Box.of(Interval.closed(30.0, 45.0))
        assert geom.overlapping_nodes(1, query) == [0]
        assert geom.overlapping_nodes(2, query) == [0]
        assert geom.overlapping_nodes(3, query) == [1]
        assert geom.overlapping_nodes(4, query) == [2, 3]

    def test_straddling_query(self):
        geom = paper_geometry()
        query = Box.of(Interval.closed(30.0, 65.0))  # the paper's example Q
        assert geom.overlapping_nodes(2, query) == [0, 1]
        assert geom.overlapping_nodes(3, query) == [1, 2]
        assert geom.overlapping_nodes(4, query) == [2, 3, 4, 5]

    def test_no_overlap(self):
        geom = paper_geometry()
        query = Box.of(Interval(200.0, 300.0))
        assert geom.overlapping_nodes(4, query) == []

    def test_overlap_flags_mark_exactly_the_overlapping_nodes(self):
        """One 0/1 flag per node and level, set exactly on the nodes whose
        boxes overlap the query (checked node by node with ``Box.overlaps``,
        and against ``overlapping_nodes``): 1-D (with empty node boxes from
        duplicated splits, and empty queries) and 2-D."""
        geometries = [
            paper_geometry(),
            TreeGeometry(
                domain=Box.of(Interval(0.0, 101.0)),
                splits=[[50.0], [50.0, 75.0], [50.0, 50.0, 62.0, 88.0]],
            ),
            TreeGeometry(
                domain=Box.of(Interval(0.0, 100.0), Interval(0.0, 100.0)),
                splits=[[50.0], [25.0, 75.0], [12.0, 37.0, 62.0, 88.0]],
            ),
        ]
        rng = random.Random(7)
        for geom in geometries:
            for _ in range(200):
                sides = []
                for _ in range(geom.dims):
                    lo = rng.choice((-10.0, 0.0, 50.0, rng.uniform(-10, 110)))
                    sides.append(Interval(lo, lo + rng.choice((0.0, 1.0, 30.0, 200.0))))
                query = Box.of(*sides)
                flags = geom.overlap_flags(query)
                assert len(flags) == geom.height
                for level in range(1, geom.height + 1):
                    assert len(flags[level - 1]) == geom.num_nodes(level)
                    marked = [j for j, f in enumerate(flags[level - 1]) if f]
                    scanned = [
                        j for j in range(geom.num_nodes(level))
                        if geom.node_box(level, j).overlaps(query)
                    ]
                    assert marked == scanned
                    assert marked == geom.overlapping_nodes(level, query)
                    assert set(flags[level - 1]) <= {0, 1}


class TestCounts:
    def test_node_count_aggregates_cells(self):
        geom = TreeGeometry(
            domain=Box.of(Interval(0.0, 101.0)),
            splits=[[50.0], [25.0, 75.0], [12.0, 37.0, 62.0, 88.0]],
            cell_counts=[1, 2, 3, 4, 5, 6, 7, 8],
        )
        assert geom.node_count(4, 0) == 1
        assert geom.node_count(3, 0) == 3
        assert geom.node_count(2, 0) == 10
        assert geom.node_count(1, 0) == 36

    def test_counts_unavailable(self):
        geom = paper_geometry(with_counts=False)
        assert not geom.has_counts
        with pytest.raises(QueryError):
            geom.node_count(1, 0)
        with pytest.raises(QueryError):
            geom.estimate_count(Box.of(Interval(0.0, 10.0)))

    def test_attach_counts(self):
        geom = paper_geometry(with_counts=False)
        geom.attach_counts([2] * 8)
        assert geom.node_count(1, 0) == 16

    def test_attach_twice_rejected(self):
        geom = paper_geometry()
        with pytest.raises(IndexBuildError):
            geom.attach_counts([1] * 8)

    def test_attach_wrong_length_rejected(self):
        geom = paper_geometry(with_counts=False)
        with pytest.raises(IndexBuildError):
            geom.attach_counts([1, 2])

    def test_estimate_full_domain(self):
        geom = paper_geometry()
        estimate = geom.estimate_count(Box.of(Interval(0.0, 101.0)))
        assert estimate == pytest.approx(32.0)

    def test_estimate_partial_cell_interpolates(self):
        geom = paper_geometry()
        # Half of leaf 0's cell [0, 12): 4 records uniform -> ~2.
        estimate = geom.estimate_count(Box.of(Interval(0.0, 6.0)))
        assert estimate == pytest.approx(2.0)


class TestChooseHeight:
    def test_expected_leaf_fits_budget(self):
        h = choose_height(num_records=100_000, record_size=100, page_size=8192,
                          target_fill=0.7)
        expected_leaf_bytes = 100_000 / 2 ** (h - 1) * 100
        assert expected_leaf_bytes <= 0.7 * 8192
        # Minimal: one level less would overflow.
        overflow = 100_000 / 2 ** (h - 2) * 100
        assert overflow > 0.7 * 8192

    def test_small_relation_min_height(self):
        assert choose_height(10, 100, 8192) == 2

    def test_empty_rejected(self):
        with pytest.raises(IndexBuildError):
            choose_height(0, 100, 8192)

    def test_bad_fill_rejected(self):
        with pytest.raises(IndexBuildError):
            choose_height(100, 100, 8192, target_fill=0.0)


class TestKdGeometry:
    def test_axis_cycles(self):
        geom = TreeGeometry(
            domain=Box.of(Interval(0.0, 1.0), Interval(0.0, 1.0)),
            splits=[[0.5], [0.5, 0.5], [0.5, 0.5, 0.5, 0.5]],
        )
        assert geom.axis(1) == 0
        assert geom.axis(2) == 1
        assert geom.axis(3) == 0

    def test_kd_locate(self):
        geom = TreeGeometry(
            domain=Box.of(Interval(0.0, 1.0), Interval(0.0, 1.0)),
            splits=[[0.5], [0.5, 0.5]],
        )
        # Level 1 splits x, level 2 splits y -> quadrants.
        assert geom.locate_leaf((0.1, 0.1)) == 0
        assert geom.locate_leaf((0.1, 0.9)) == 1
        assert geom.locate_leaf((0.9, 0.1)) == 2
        assert geom.locate_leaf((0.9, 0.9)) == 3

    def test_kd_leaf_boxes(self):
        geom = TreeGeometry(
            domain=Box.of(Interval(0.0, 1.0), Interval(0.0, 1.0)),
            splits=[[0.5], [0.5, 0.5]],
        )
        assert geom.leaf_box(0).contains_point((0.2, 0.2))
        assert geom.leaf_box(3).contains_point((0.8, 0.8))
        assert not geom.leaf_box(0).contains_point((0.8, 0.2))
