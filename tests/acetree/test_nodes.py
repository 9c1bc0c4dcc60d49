"""Unit tests for leaf / internal node views."""

import pytest

from repro.acetree import InternalNodeView, TreeGeometry
from repro.acetree.nodes import LeafView
from repro.core import Box, Field, Interval, Schema

SCHEMA = Schema([Field("k", "i8"), Field("v", "f8")])


@pytest.fixture
def geometry():
    return TreeGeometry(
        domain=Box.of(Interval(0.0, 101.0)),
        splits=[[50.0], [25.0, 75.0], [12.0, 37.0, 62.0, 88.0]],
        cell_counts=[1, 2, 3, 4, 5, 6, 7, 8],
    )


def leaf_view(index, sections):
    """A ``LeafView`` over ``sections`` (per-section ``(k, v)`` records)."""
    return LeafView(
        index=index,
        schema=SCHEMA,
        payload=b"".join(SCHEMA.pack_many(section) for section in sections),
        counts=tuple(len(section) for section in sections),
    )


class TestLeafView:
    def test_basic_accessors(self):
        leaf = leaf_view(2, [[(1, 0.0)], [(2, 0.0), (3, 0.0)], [], [(4, 0.0)]])
        assert leaf.index == 2
        assert leaf.height == 4
        assert leaf.num_records == 4
        assert leaf.counts == (1, 2, 0, 1)
        assert leaf.section_records(1) == ((1, 0.0),)
        assert leaf.section_records(2) == ((2, 0.0), (3, 0.0))
        assert leaf.section_records(3) == ()
        assert leaf.page.records == [(1, 0.0), (2, 0.0), (3, 0.0), (4, 0.0)]

    def test_section_bounds_checked(self):
        leaf = leaf_view(0, [[(1, 0.0)], []])
        with pytest.raises(IndexError):
            leaf.section_records(0)
        with pytest.raises(IndexError):
            leaf.section_records(3)


class TestInternalNodeView:
    def test_root_view(self, geometry):
        view = InternalNodeView.from_geometry(geometry, 1, 0)
        assert view.key == 50.0
        assert view.count_left == 10   # cells 1+2+3+4
        assert view.count_right == 26  # cells 5+6+7+8
        assert view.count == 36
        assert view.box == geometry.domain

    def test_level2_view(self, geometry):
        view = InternalNodeView.from_geometry(geometry, 2, 1)
        assert view.key == 75.0
        assert view.count_left == 11  # cells 5+6
        assert view.count_right == 15  # cells 7+8
