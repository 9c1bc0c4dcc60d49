"""Statistical validation of the ACE Tree's sampling guarantees.

These tests check the paper's central claim — "at all times, the set of
records returned ... constitutes a statistically random sample of the
database records satisfying the relational selection predicate" — by
repeating small builds under different construction seeds and testing the
emitted prefixes for uniformity.  All randomness is seeded, so the tests
are deterministic; thresholds are generous enough that a correct
implementation never trips them, while a biased one fails by orders of
magnitude.
"""

import random
from collections import Counter

import numpy as np
import pytest

from repro.acetree import AceBuildParams, build_ace_tree
from repro.core import Field, Schema
from repro.storage import CostModel, HeapFile, SimulatedDisk
from repro.testkit.stats import assert_uniform

from ..conftest import leaf_views

SCHEMA = Schema([Field("k", "i8"), Field("v", "f8")])


def build_tree(records, height, seed):
    disk = SimulatedDisk(page_size=1024, cost=CostModel.scaled(1024))
    heap = HeapFile.bulk_load(disk, SCHEMA, records)
    return build_ace_tree(
        heap, AceBuildParams(key_fields=("k",), height=height, seed=seed)
    )


def fixed_records(n, seed=0):
    rng = random.Random(seed)
    # Distinct keys so records are identifiable.
    keys = rng.sample(range(10 * n), n)
    return [(k, float(i)) for i, k in enumerate(keys)]


class TestPrefixUniformity:
    """Each matching record is equally likely to appear in the first K
    emitted samples, over the construction randomness."""

    def test_first_k_inclusion_balanced_by_key_quartile(self):
        n, height, k_prefix, builds = 800, 5, 60, 60
        records = fixed_records(n, seed=1)
        lo, hi = 1000, 5000
        matching = sorted(r[0] for r in records if lo <= r[0] <= hi)
        assert len(matching) > 150
        quartile_edges = [
            matching[len(matching) // 4],
            matching[len(matching) // 2],
            matching[3 * len(matching) // 4],
        ]

        def quartile(key):
            for q, edge in enumerate(quartile_edges):
                if key < edge:
                    return q
            return 3

        quartile_sizes = Counter(quartile(key) for key in matching)
        counts = np.zeros(4)
        for build_seed in range(builds):
            tree = build_tree(records, height, seed=build_seed)
            prefix = tree.sample(tree.query((lo, hi)), seed=build_seed).take(k_prefix)
            for record in prefix:
                counts[quartile(record[0])] += 1
        total = counts.sum()
        expected = np.array(
            [total * quartile_sizes[q] / len(matching) for q in range(4)]
        )
        assert_uniform(counts, expected,
                       label=f"first-{k_prefix} inclusion across key quartiles")

    def test_first_record_uniform_over_halves(self):
        """The very first emitted sample is unbiased between the two halves
        of the query range."""
        n, height, builds = 600, 4, 120
        records = fixed_records(n, seed=2)
        lo, hi = 0, 6000
        matching = [r[0] for r in records if lo <= r[0] <= hi]
        mid = sorted(matching)[len(matching) // 2]
        below = 0
        for build_seed in range(builds):
            tree = build_tree(records, height, seed=1000 + build_seed)
            first = tree.sample(tree.query((lo, hi)), seed=build_seed).take(1)
            assert first, "first batch emitted nothing for a wide query"
            below += first[0][0] < mid
        # Binomial(120, ~0.5): 4-sigma band.
        assert 38 <= below <= 82, f"first-sample bias: {below}/{builds} below median"

    def test_prefix_mean_estimates_population_mean(self):
        """Averages over sample prefixes converge to the matching-population
        mean (the property online aggregation depends on)."""
        n, height, k_prefix, builds = 800, 5, 80, 40
        records = fixed_records(n, seed=3)
        lo, hi = 500, 4500
        matching = [r[0] for r in records if lo <= r[0] <= hi]
        true_mean = float(np.mean(matching))
        spread = float(np.std(matching))
        estimates = []
        for build_seed in range(builds):
            tree = build_tree(records, height, seed=2000 + build_seed)
            prefix = tree.sample(tree.query((lo, hi)), seed=build_seed).take(k_prefix)
            estimates.append(float(np.mean([r[0] for r in prefix])))
        grand = float(np.mean(estimates))
        # Std error of the grand mean ~ spread / sqrt(k * builds); 5 sigma.
        tolerance = 5 * spread / np.sqrt(k_prefix * builds)
        assert abs(grand - true_mean) < tolerance, (
            f"prefix mean {grand:.1f} vs population {true_mean:.1f} "
            f"(tolerance {tolerance:.1f})"
        )


class TestSectionAssignmentDistribution:
    def test_sections_uniform(self):
        """Every record picks its section uniformly in 1..h (Phase 2 step 1)."""
        n, height = 2000, 5
        records = fixed_records(n, seed=4)
        tree = build_tree(records, height, seed=9)
        counts = np.zeros(height)
        for leaf in leaf_views(tree.leaf_store):
            counts += leaf.counts
        assert_uniform(counts, n / height, label="section counts")

    def test_leaf_choice_uniform_within_ancestor(self):
        """Given section s, the leaf is uniform among the 2^(h-s) leaves
        below the record's level-s ancestor (Phase 2 step 2)."""
        n, height = 4000, 4
        records = fixed_records(n, seed=5)
        tree = build_tree(records, height, seed=11)
        # Section 1 records may land in any of the 8 leaves, uniformly.
        counts = np.array(
            [leaf.counts[0] for leaf in leaf_views(tree.leaf_store)],
            dtype=float,
        )
        assert_uniform(counts, label="section-1 leaf spread")


class TestAppendabilityCombinability:
    def test_same_index_sections_append_to_bernoulli_sample(self):
        """Union of the section-2 cells of the two level-2 subtrees is an
        unbiased sample of the whole relation: the fraction of records it
        captures is the same on both sides (paper Section IV.B)."""
        n, height, builds = 1200, 4, 40
        records = fixed_records(n, seed=6)
        tree0 = build_tree(records, height, seed=0)
        root_key = tree0.geometry.split_key(1, 0)
        left_total = sum(1 for r in records if r[0] < root_key)
        right_total = n - left_total
        left_captured = right_captured = 0
        for build_seed in range(builds):
            tree = build_tree(records, height, seed=3000 + build_seed)
            key = tree.geometry.split_key(1, 0)
            for leaf in leaf_views(tree.leaf_store):
                for record in leaf.section_records(2):
                    if record[0] < key:
                        left_captured += 1
                    else:
                        right_captured += 1
        # Section 2 captures 1/h of each side in expectation.
        left_rate = left_captured / (left_total * builds)
        right_rate = right_captured / (right_total * builds)
        assert left_rate == pytest.approx(1 / height, rel=0.15)
        assert right_rate == pytest.approx(1 / height, rel=0.15)

    def test_combined_emission_is_uniform_over_subranges(self):
        """Records emitted before the final flush (i.e., via genuine
        combine-sets) are spatially unbiased within the query range."""
        n, height, builds = 1000, 5, 50
        records = fixed_records(n, seed=7)
        lo, hi = 1000, 9000
        matching = sorted(r[0] for r in records if lo <= r[0] <= hi)
        mid = matching[len(matching) // 2]
        below_total = total = 0
        for build_seed in range(builds):
            tree = build_tree(records, height, seed=4000 + build_seed)
            stream = tree.sample(tree.query((lo, hi)), seed=build_seed)
            for batch in stream:
                if batch.is_final_flush:
                    break
                for record in batch.records:
                    total += 1
                    below_total += record[0] < mid
                if total >= (build_seed + 1) * 50:
                    break
        assert total > 1000
        fraction = below_total / total
        assert 0.44 < fraction < 0.56, (
            f"combine-set emission spatially biased: {fraction:.3f} below median"
        )


class TestExponentialityStatistics:
    def test_range_populations_halve(self):
        """Counts under the nodes on a root-to-leaf path halve per level
        in aggregate (exponentiality, Section IV.C)."""
        n, height = 4000, 5
        records = fixed_records(n, seed=8)
        tree = build_tree(records, height, seed=13)
        geom = tree.geometry
        ratios = []
        for leaf in range(geom.num_leaves):
            for s in range(1, height - 1):
                outer = geom.node_count(s, geom.ancestor(leaf, s))
                inner = geom.node_count(s + 1, geom.ancestor(leaf, s + 1))
                if inner:
                    ratios.append(outer / inner)
        assert np.mean(ratios) == pytest.approx(2.0, rel=0.1)
