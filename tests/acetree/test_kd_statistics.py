"""Statistical checks for the k-d and k-ary variants: the uniformity
guarantees must survive the Section VII and Section III.D generalizations."""

import random

import numpy as np
import pytest

from repro.acetree import AceBuildParams, build_ace_tree
from repro.core import Field, Schema
from repro.storage import CostModel, HeapFile, SimulatedDisk
from repro.testkit.stats import assert_uniform

from ..conftest import leaf_views

XY_SCHEMA = Schema([Field("x", "f8"), Field("y", "f8"), Field("tag", "i8")])
KV_SCHEMA = Schema([Field("k", "i8"), Field("v", "f8")])


def build_2d(records, height, seed):
    disk = SimulatedDisk(page_size=1024, cost=CostModel.scaled(1024))
    heap = HeapFile.bulk_load(disk, XY_SCHEMA, records)
    return build_ace_tree(
        heap, AceBuildParams(key_fields=("x", "y"), height=height, seed=seed)
    )


def build_kary(records, height, arity, seed):
    disk = SimulatedDisk(page_size=1024, cost=CostModel.scaled(1024))
    heap = HeapFile.bulk_load(disk, KV_SCHEMA, records)
    return build_ace_tree(
        heap,
        AceBuildParams(key_fields=("k",), height=height, arity=arity, seed=seed),
    )


class Test2dPrefixUniformity:
    def test_prefix_balanced_over_quadrants(self):
        """First-K 2-D samples are spatially unbiased within the query box."""
        rng = random.Random(3)
        records = [(rng.random(), rng.random(), i) for i in range(700)]
        x_lo, x_hi, y_lo, y_hi = 0.1, 0.9, 0.1, 0.9
        x_mid, y_mid = 0.5, 0.5
        matching = [
            r for r in records
            if x_lo <= r[0] <= x_hi and y_lo <= r[1] <= y_hi
        ]
        quadrant_sizes = np.zeros(4)
        for r in matching:
            quadrant_sizes[2 * (r[0] >= x_mid) + (r[1] >= y_mid)] += 1

        counts = np.zeros(4)
        builds, k_prefix = 40, 60
        for seed in range(builds):
            tree = build_2d(records, height=5, seed=seed)
            query = tree.query((x_lo, x_hi), (y_lo, y_hi))
            prefix = tree.sample(query, seed=seed).take(k_prefix)
            for r in prefix:
                counts[2 * (r[0] >= x_mid) + (r[1] >= y_mid)] += 1
        expected = counts.sum() * quadrant_sizes / quadrant_sizes.sum()
        assert_uniform(counts, expected, label="2-D prefix quadrants")


class TestKaryStatistics:
    def test_ternary_sections_uniform(self):
        rng = random.Random(5)
        records = [(rng.randrange(100_000), float(i)) for i in range(3000)]
        tree = build_kary(records, height=4, arity=3, seed=7)
        counts = np.zeros(4)
        for leaf in leaf_views(tree.leaf_store):
            counts += leaf.counts
        assert_uniform(counts, len(records) / 4, label="ternary section counts")

    def test_ternary_prefix_mean_unbiased(self):
        rng = random.Random(6)
        records = [(rng.randrange(100_000), float(i)) for i in range(1500)]
        lo, hi = 10_000, 80_000
        matching = [r[0] for r in records if lo <= r[0] <= hi]
        true_mean = float(np.mean(matching))
        spread = float(np.std(matching))
        estimates = []
        builds, k_prefix = 25, 60
        for seed in range(builds):
            tree = build_kary(records, height=4, arity=3, seed=100 + seed)
            prefix = tree.sample(tree.query((lo, hi)), seed=seed).take(k_prefix)
            estimates.append(float(np.mean([r[0] for r in prefix])))
        grand = float(np.mean(estimates))
        assert abs(grand - true_mean) < 5 * spread / np.sqrt(k_prefix * builds)

    def test_lemma2_holds_for_ternary(self):
        from repro.acetree import expected_section_size

        rng = random.Random(8)
        records = [(rng.randrange(100_000), float(i)) for i in range(2700)]
        tree = build_kary(records, height=4, arity=3, seed=9)
        sizes = [count for leaf in leaf_views(tree.leaf_store) for count in leaf.counts]
        assert np.mean(sizes) == pytest.approx(
            expected_section_size(2700, 4, arity=3)
        )
