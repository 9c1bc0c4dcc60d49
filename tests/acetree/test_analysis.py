"""Tests for the Lemma 1 / Lemma 2 analysis helpers, checked against the
actual behaviour of built trees."""

import math
import random

import numpy as np
import pytest

from repro.acetree import (
    AceBuildParams,
    build_ace_tree,
    expected_section_size,
    lemma1_applicability_limit,
    lemma1_lower_bound,
)
from repro.core import Field, Schema
from repro.storage import CostModel, HeapFile, SimulatedDisk

from ..conftest import leaf_views

SCHEMA = Schema([Field("k", "i8"), Field("v", "f8")])


def build_tree(n, height, seed=0, key_range=100_000):
    disk = SimulatedDisk(page_size=1024, cost=CostModel.scaled(1024))
    rng = random.Random(seed)
    records = [(rng.randrange(key_range), float(i)) for i in range(n)]
    heap = HeapFile.bulk_load(disk, SCHEMA, records)
    tree = build_ace_tree(
        heap, AceBuildParams(key_fields=("k",), height=height, seed=seed)
    )
    return tree


class TestFormulas:
    def test_expected_section_size_formula(self):
        # |R| / (h * 2^(h-1))
        assert expected_section_size(1000, 4) == pytest.approx(1000 / (4 * 8))
        assert expected_section_size(0, 4) == 0.0

    def test_expected_section_size_validation(self):
        with pytest.raises(ValueError):
            expected_section_size(-1, 4)
        with pytest.raises(ValueError):
            expected_section_size(10, 0)

    def test_lemma1_bound_monotone(self):
        values = [lemma1_lower_bound(m, 10.0) for m in range(1, 20)]
        assert values == sorted(values)
        assert values[0] == 0.0  # log2(1) term absent

    def test_lemma1_bound_closed_form_at_powers_of_two(self):
        # sum_{k=2..m} log2 k <= m log2 m, and close for powers of two.
        for m in (8, 16, 64):
            bound = lemma1_lower_bound(m, 2.0)
            closed = 0.5 * 2.0 * m * math.log2(m)
            assert bound <= closed
            assert bound >= 0.55 * closed

    def test_lemma1_validation(self):
        with pytest.raises(ValueError):
            lemma1_lower_bound(-1, 1.0)
        with pytest.raises(ValueError):
            lemma1_lower_bound(1, -1.0)

    def test_applicability_limit(self):
        assert lemma1_applicability_limit(0.25, 100) == 52
        assert lemma1_applicability_limit(0.0, 100) == 2
        with pytest.raises(ValueError):
            lemma1_applicability_limit(1.5, 100)
        with pytest.raises(ValueError):
            lemma1_applicability_limit(0.5, 0)


class TestLemma2AgainstBuiltTrees:
    def test_mean_section_size_matches(self):
        n, height = 3000, 5
        tree = build_tree(n, height, seed=1)
        sizes = [count for leaf in leaf_views(tree.leaf_store) for count in leaf.counts]
        assert np.mean(sizes) == pytest.approx(expected_section_size(n, height))

    def test_cell_sizes_concentrate(self):
        """No (leaf, section) cell should be wildly off its expectation."""
        n, height = 4000, 4
        tree = build_tree(n, height, seed=2)
        mu = expected_section_size(n, height)
        sizes = [count for leaf in leaf_views(tree.leaf_store) for count in leaf.counts]
        # Binomial concentration: max should stay within ~5 sigma + mean.
        sigma = math.sqrt(mu)
        assert max(sizes) < mu + 6 * sigma


class TestLemma1AgainstBuiltTrees:
    def test_sampling_rate_beats_lower_bound(self):
        """Measured samples after m leaf reads must respect Lemma 1's
        expectation bound (averaged over several builds)."""
        n, height = 4000, 5
        selectivity = 0.5
        mu = expected_section_size(n, height)
        num_leaves = 2 ** (height - 1)
        m_limit = lemma1_applicability_limit(selectivity, num_leaves)
        builds = 10
        m_values = [m for m in (2, 4, 8) if m <= m_limit]
        assert m_values, "test parameters leave no valid m"
        totals = {m: 0.0 for m in m_values}
        for seed in range(builds):
            tree = build_tree(n, height, seed=seed)
            lo = 0
            hi = int(100_000 * selectivity)
            stream = tree.sample(tree.query((lo, hi)), seed=seed)
            emitted = 0
            per_leaf = {}
            for batch in stream:
                if batch.is_final_flush:
                    break
                emitted += len(batch.records)
                per_leaf[batch.leaves_read] = emitted
            for m in m_values:
                totals[m] += per_leaf.get(m, 0)
        for m in m_values:
            measured = totals[m] / builds
            bound = lemma1_lower_bound(m, mu)
            assert measured >= 0.8 * bound, (
                f"after {m} leaves: measured {measured:.1f} < "
                f"Lemma 1 bound {bound:.1f}"
            )


class TestFixedLeafUtilization:
    def test_per_section_much_worse_than_per_leaf(self):
        from repro.acetree.analysis import fixed_leaf_utilization

        per_leaf = fixed_leaf_utilization(2**19, 12)
        per_section = fixed_leaf_utilization(2**19, 12, per_section=True)
        assert per_section < per_leaf < 1.0
        assert per_section < 0.6  # substantial waste, the paper's point

    def test_tiny_cells_waste_most_space(self):
        """Small expected cell sizes (the paper's regime) drive utilization
        toward the paper's 'less than 15%' estimate."""
        from repro.acetree.analysis import fixed_leaf_utilization

        # mu ~ 1 record per section cell.
        tiny = fixed_leaf_utilization(2**14, 12, per_section=True)
        assert tiny < 0.25

    def test_variable_scheme_packs_pages_full(self):
        """The adopted variable-size layout wastes almost nothing: measure
        actual bytes stored vs pages used on a real build."""
        import random

        from repro.acetree import AceBuildParams, build_ace_tree
        from repro.core import Field, Schema
        from repro.storage import CostModel, HeapFile, SimulatedDisk

        schema = Schema([Field("k", "i8"), Field("v", "f8")])
        disk = SimulatedDisk(page_size=1024, cost=CostModel.scaled(1024))
        rng = random.Random(0)
        records = [(rng.randrange(10**6), float(i)) for i in range(6000)]
        heap = HeapFile.bulk_load(disk, schema, records)
        tree = build_ace_tree(heap, AceBuildParams(key_fields=("k",), height=6))
        payload = 6000 * schema.record_size
        stored = tree.leaf_store.num_data_pages * disk.page_size
        assert payload / stored > 0.85

    def test_validation(self):
        import pytest as _pytest

        from repro.acetree.analysis import fixed_leaf_utilization

        with _pytest.raises(ValueError):
            fixed_leaf_utilization(0, 4)
        with _pytest.raises(ValueError):
            fixed_leaf_utilization(100, 4, overflow_probability=0.0)
