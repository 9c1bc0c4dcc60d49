"""Tests for the skewed workload generators and the skew-robustness of the
ACE Tree (extension beyond the paper's uniform-only evaluation)."""

from collections import Counter

import numpy as np
import pytest

from repro.acetree import AceBuildParams, build_ace_tree
from repro.storage import CostModel, SimulatedDisk
from repro.workloads import (
    equi_depth_queries,
    generate_sale_lognormal,
    generate_sale_zipf,
)

from ..conftest import leaf_views


@pytest.fixture
def disk():
    return SimulatedDisk(page_size=2048, cost=CostModel.scaled(2048))


class TestZipfGenerator:
    def test_count_and_determinism(self, disk):
        heap = generate_sale_zipf(disk, 2000, seed=1)
        assert heap.num_records == 2000
        again = generate_sale_zipf(disk, 2000, seed=1)
        assert [r[0] for r in heap.scan()] == [r[0] for r in again.scan()]

    def test_heavy_head(self, disk):
        heap = generate_sale_zipf(disk, 10_000, alpha=1.3, seed=2)
        keys = [r[0] for r in heap.scan()]
        counts = Counter(keys)
        # The hottest key carries a macroscopic share of the relation.
        assert counts.most_common(1)[0][1] > 0.1 * len(keys)

    def test_alpha_validated(self, disk):
        with pytest.raises(ValueError):
            generate_sale_zipf(disk, 10, alpha=1.0)


class TestLognormalGenerator:
    def test_right_skew(self, disk):
        heap = generate_sale_lognormal(disk, 10_000, sigma=1.0, seed=3)
        keys = np.array([r[0] for r in heap.scan()], dtype=float)
        assert np.mean(keys) > np.median(keys) * 1.2  # mean pulled right


class TestEquiDepthQueries:
    def test_target_selectivity_under_skew(self, disk):
        heap = generate_sale_zipf(disk, 10_000, seed=4)
        keys = [r[0] for r in heap.scan()]
        for query in equi_depth_queries(keys, 0.1, 5, seed=1):
            matched = sum(1 for k in keys if query.contains_point((k,)))
            # Duplicated hot keys make exact targeting impossible; stay loose.
            assert matched / len(keys) == pytest.approx(0.1, rel=0.9)

    def test_validation(self):
        with pytest.raises(ValueError):
            equi_depth_queries([1, 2, 3], 0.0, 1)
        with pytest.raises(ValueError):
            equi_depth_queries([], 0.1, 1)


class TestAceUnderSkew:
    """The paper's guarantees are distribution-free because splits are
    medians; these tests run the core invariants under heavy skew."""

    @pytest.mark.parametrize("generator", [generate_sale_zipf,
                                           generate_sale_lognormal])
    def test_completeness_under_skew(self, disk, generator):
        heap = generator(disk, 4000, seed=5)
        tree = build_ace_tree(
            heap, AceBuildParams(key_fields=("day",), height=5, seed=1)
        )
        records = list(heap.scan())
        keys = [r[0] for r in records]
        query = equi_depth_queries(keys, 0.2, 1, seed=2)[0]
        got = [r for batch in tree.sample(query, seed=1) for r in batch.records]
        expected = [r for r in records if query.contains_point((r[0],))]
        assert Counter((r[0], r[1]) for r in got) == Counter(
            (r[0], r[1]) for r in expected
        )

    def test_median_splits_stay_balanced_under_lognormal(self, disk):
        heap = generate_sale_lognormal(disk, 8000, seed=6)
        tree = build_ace_tree(
            heap, AceBuildParams(key_fields=("day",), height=5, seed=1)
        )
        geom = tree.geometry
        counts = [geom.node_count(3, j) for j in range(geom.num_nodes(3))]
        # Equi-depth splits: all level-3 quarters hold ~n/4 (smooth skew).
        for count in counts:
            assert count == pytest.approx(2000, rel=0.1)

    def test_leaf_sizes_bounded_under_zipf(self, disk):
        """Even with a huge duplicate head (which no value-split can divide),
        leaf *storage* stays balanced because Phase 2 assigns leaves
        randomly among each record's feasible set."""
        heap = generate_sale_zipf(disk, 6000, alpha=1.3, seed=7)
        tree = build_ace_tree(
            heap, AceBuildParams(key_fields=("day",), height=5, seed=1)
        )
        sizes = [leaf.num_records for leaf in leaf_views(tree.leaf_store)]
        mean = float(np.mean(sizes))
        assert max(sizes) < 3.5 * mean

    def test_prefix_uniform_under_skew(self, disk):
        """Prefix unbiasedness holds under skew: the mean of early samples
        tracks the matching-population mean."""
        heap = generate_sale_zipf(disk, 6000, seed=8)
        records = list(heap.scan())
        keys = [r[0] for r in records]
        query = equi_depth_queries(keys, 0.3, 1, seed=3)[0]
        matching = [r[0] for r in records if query.contains_point((r[0],))]
        true_mean = float(np.mean(matching))
        spread = float(np.std(matching))
        estimates = []
        for seed in range(12):
            tree = build_ace_tree(
                heap, AceBuildParams(key_fields=("day",), height=5, seed=seed)
            )
            prefix = tree.sample(query, seed=seed).take(80)
            estimates.append(float(np.mean([r[0] for r in prefix])))
            tree.free()
        grand = float(np.mean(estimates))
        assert abs(grand - true_mean) < 5 * spread / np.sqrt(80 * 12)
