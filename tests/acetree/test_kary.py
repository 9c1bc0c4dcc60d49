"""Tests for the k-ary ACE Tree variant (paper Section III.D).

The paper describes the k-ary generalization and argues the binary tree is
the better choice for fast-first sampling; these tests pin down that the
generalization is *correct* (the performance comparison lives in
``benchmarks/test_ablations.py``).
"""

import random
from collections import Counter

import pytest

from repro.acetree import AceBuildParams, TreeGeometry, build_ace_tree
from repro.core import Box, Field, Interval, Schema
from repro.core.errors import IndexBuildError
from repro.storage import CostModel, HeapFile, SimulatedDisk

from ..conftest import leaf_views

SCHEMA = Schema([Field("k", "i8"), Field("v", "f8")])


def build(n, height, arity, seed=0, key_range=100_000):
    disk = SimulatedDisk(page_size=1024, cost=CostModel.scaled(1024))
    rng = random.Random(seed)
    records = [(rng.randrange(key_range), float(i)) for i in range(n)]
    heap = HeapFile.bulk_load(disk, SCHEMA, records)
    tree = build_ace_tree(
        heap,
        AceBuildParams(key_fields=("k",), height=height, arity=arity, seed=seed),
    )
    return records, tree


class TestKaryGeometry:
    def test_ternary_shape(self):
        geom = TreeGeometry(
            domain=Box.of(Interval(0.0, 90.0)),
            splits=[[(30.0, 60.0)], [(10.0, 20.0), (40.0, 50.0), (70.0, 80.0)]],
            arity=3,
        )
        assert geom.height == 3
        assert geom.num_leaves == 9
        assert geom.num_nodes(2) == 3

    def test_ternary_boxes_tile(self):
        geom = TreeGeometry(
            domain=Box.of(Interval(0.0, 90.0)),
            splits=[[(30.0, 60.0)], [(10.0, 20.0), (40.0, 50.0), (70.0, 80.0)]],
            arity=3,
        )
        edges = [geom.leaf_box(i).sides[0] for i in range(9)]
        assert edges[0].lo == 0.0
        assert edges[-1].hi == 90.0
        for a, b in zip(edges, edges[1:]):
            assert a.hi == b.lo

    def test_ternary_locate(self):
        geom = TreeGeometry(
            domain=Box.of(Interval(0.0, 90.0)),
            splits=[[(30.0, 60.0)], [(10.0, 20.0), (40.0, 50.0), (70.0, 80.0)]],
            arity=3,
        )
        assert geom.locate_leaf((5.0,)) == 0
        assert geom.locate_leaf((15.0,)) == 1
        assert geom.locate_leaf((25.0,)) == 2
        assert geom.locate_leaf((45.0,)) == 4
        assert geom.locate_leaf((85.0,)) == 8

    def test_ancestor_base_arity(self):
        geom = TreeGeometry(
            domain=Box.of(Interval(0.0, 90.0)),
            splits=[[(30.0, 60.0)], [(10.0, 20.0), (40.0, 50.0), (70.0, 80.0)]],
            arity=3,
        )
        assert geom.ancestor(8, 2) == 2
        assert geom.ancestor(4, 2) == 1
        assert geom.ancestor(4, 1) == 0

    def test_children(self):
        geom = TreeGeometry(
            domain=Box.of(Interval(0.0, 90.0)),
            splits=[[(30.0, 60.0)], [(10.0, 20.0), (40.0, 50.0), (70.0, 80.0)]],
            arity=3,
        )
        assert geom.children(1, 0) == [(2, 0), (2, 1), (2, 2)]
        assert geom.children(2, 2) == [(3, 6), (3, 7), (3, 8)]

    def test_wrong_boundary_count_rejected(self):
        with pytest.raises(IndexBuildError):
            TreeGeometry(
                domain=Box.of(Interval(0.0, 90.0)),
                splits=[[(30.0,)]],  # ternary needs 2 boundaries
                arity=3,
            )

    def test_descending_boundaries_rejected(self):
        with pytest.raises(IndexBuildError):
            TreeGeometry(
                domain=Box.of(Interval(0.0, 90.0)),
                splits=[[(60.0, 30.0)]],
                arity=3,
            )

    def test_arity_one_rejected(self):
        with pytest.raises(IndexBuildError):
            TreeGeometry(
                domain=Box.of(Interval(0.0, 1.0)), splits=[[0.5]], arity=1
            )


class TestKaryBuild:
    @pytest.mark.parametrize("arity", [3, 4])
    def test_all_records_stored_consistently(self, arity):
        records, tree = build(2000, height=4, arity=arity, seed=1)
        geom = tree.geometry
        stored = []
        for leaf in leaf_views(tree.leaf_store):
            for s in range(1, tree.height + 1):
                box = geom.section_box(leaf.index, s)
                for record in leaf.section_records(s):
                    stored.append(record)
                    assert box.contains_point((record[0],))
        assert Counter(r[1] for r in stored) == Counter(r[1] for r in records)

    def test_quantile_splits_balance(self):
        records, tree = build(3000, height=3, arity=3, seed=2)
        counts = [tree.geometry.node_count(2, j) for j in range(3)]
        for count in counts:
            assert count == pytest.approx(1000, abs=30)

    def test_exponentiality_base_arity(self):
        """Node populations shrink by ~arity per level."""
        _records, tree = build(4000, height=4, arity=3, seed=3)
        geom = tree.geometry
        for leaf in range(0, geom.num_leaves, 5):
            for s in range(1, tree.height - 1):
                outer = geom.node_count(s, geom.ancestor(leaf, s))
                inner = geom.node_count(s + 1, geom.ancestor(leaf, s + 1))
                assert outer == pytest.approx(3 * inner, rel=0.35)

    def test_arity_validated(self):
        with pytest.raises(IndexBuildError):
            AceBuildParams(key_fields=("k",), arity=1)


class TestKaryQuery:
    @pytest.mark.parametrize("arity", [3, 4])
    @pytest.mark.parametrize("bounds", [(20_000, 60_000), (0, 100_000),
                                        (99_000, 99_500)])
    def test_completeness(self, arity, bounds):
        lo, hi = bounds
        records, tree = build(3000, height=4, arity=arity, seed=4)
        got = [
            r
            for batch in tree.sample(tree.query((lo, hi)), seed=1)
            for r in batch.records
        ]
        expected = [r for r in records if lo <= r[0] <= hi]
        assert Counter(r[1] for r in got) == Counter(r[1] for r in expected)

    def test_round_robin_spreads_stabs(self):
        """For a domain-wide query, the first three stabs of a ternary tree
        land under three different root children."""
        _records, tree = build(2000, height=4, arity=3, seed=5)
        stream = tree.sample(tree.query(None), seed=1)
        thirds = set()
        per_subtree = tree.num_leaves // 3
        for _ in range(3):
            leaf = stream._stab()
            stream._mark_done(leaf)
            thirds.add(leaf // per_subtree)
        assert thirds == {0, 1, 2}

    def test_without_replacement(self):
        records, tree = build(2000, height=4, arity=3, seed=6)
        got = [
            r
            for batch in tree.sample(tree.query((10_000, 90_000)), seed=2)
            for r in batch.records
        ]
        assert len(set(r[1] for r in got)) == len(got)

    def test_kd_ternary(self):
        """Arity and dimensionality compose."""
        disk = SimulatedDisk(page_size=1024, cost=CostModel.scaled(1024))
        rng = random.Random(7)
        schema = Schema([Field("x", "f8"), Field("y", "f8"), Field("tag", "i8")])
        records = [(rng.random(), rng.random(), i) for i in range(1500)]
        heap = HeapFile.bulk_load(disk, schema, records)
        tree = build_ace_tree(
            heap,
            AceBuildParams(key_fields=("x", "y"), height=4, arity=3, seed=1),
        )
        query = tree.query((0.2, 0.7), (0.3, 0.8))
        got = [r for batch in tree.sample(query, seed=1) for r in batch.records]
        expected = [
            r for r in records if 0.2 <= r[0] <= 0.7 and 0.3 <= r[1] <= 0.8
        ]
        assert Counter(r[2] for r in got) == Counter(r[2] for r in expected)
