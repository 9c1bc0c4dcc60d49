"""Validate the closed-form performance models against the simulator.

Each test builds real structures on the simulated disk, runs a race, and
checks the measured curve against the analytic prediction.  Tight
agreement for the permuted file (its model is exact), banded agreement for
the B+-Tree (its model ignores rank-duplicate draws), and bound-bracketing
for the ACE Tree (Lemma 1 below, the in-span mass estimate above).
"""

import pytest

from repro.acetree import AceBuildParams, build_ace_tree
from repro.baselines import build_bplus_tree, build_permuted_file
from repro.bench import run_race
from repro.bench.model import ExperimentModel
from repro.storage import CostModel, SimulatedDisk
from repro.workloads import generate_sale_1d, queries_1d

N = 2**16
PAGE = 4096
HEIGHT = 9


@pytest.fixture(scope="module")
def world():
    cost = CostModel.scaled(PAGE)
    disk = SimulatedDisk(page_size=PAGE, cost=cost)
    sale = generate_sale_1d(disk, N, seed=0)
    tree = build_ace_tree(
        sale, AceBuildParams(key_fields=("day",), height=HEIGHT, seed=1)
    )
    bplus = build_bplus_tree(sale, "day", leaf_cache_pages=4096)
    permuted = build_permuted_file(sale, ("day",), seed=1)
    return disk, sale, tree, bplus, permuted, cost


def model_for(cost, selectivity):
    return ExperimentModel(
        num_records=N,
        record_size=100,
        page_size=PAGE,
        cost=cost,
        selectivity=selectivity,
        height=HEIGHT,
    )


class TestGeometryAgreement:
    def test_scan_seconds_matches_heapfile(self, world):
        _disk, sale, _tree, _bplus, _permuted, cost = world
        model = model_for(cost, 0.025)
        assert model.scan_seconds == pytest.approx(sale.scan_seconds(), rel=0.01)
        assert model.relation_pages == sale.num_pages

    def test_leaf_read_cost_matches_store(self, world):
        disk, _sale, tree, _bplus, _permuted, cost = world
        model = model_for(cost, 0.025)
        disk.reset_clock()
        before = disk.clock
        tree.leaf_store.read_leaf_view(tree.num_leaves // 2)
        measured = disk.clock - before
        assert measured == pytest.approx(model.leaf_read_seconds(), rel=0.35)

    def test_num_leaves(self, world):
        _disk, _sale, tree, _bplus, _permuted, cost = world
        assert model_for(cost, 0.1).num_leaves == tree.num_leaves


class TestPermutedModel:
    @pytest.mark.parametrize("selectivity", [0.0025, 0.025, 0.25])
    def test_linear_rate(self, world, selectivity):
        disk, _sale, _tree, _bplus, permuted, cost = world
        model = model_for(cost, selectivity)
        query = queries_1d(selectivity, 1, seed=4)[0]
        window = 0.05 * model.scan_seconds
        start = disk.clock
        curve = run_race("perm", permuted.sample(query), start,
                         time_limit=window)
        for fraction in (0.4, 0.8):
            t = fraction * window
            predicted = model.permuted_records_at(t)
            measured = curve.count_at(t)
            assert measured == pytest.approx(predicted, rel=0.35, abs=15)

    def test_completion_time(self, world):
        disk, _sale, _tree, _bplus, permuted, cost = world
        model = model_for(cost, 0.025)
        query = queries_1d(0.025, 1, seed=5)[0]
        start = disk.clock
        curve = run_race("perm", permuted.sample(query), start)
        assert curve.completed
        assert curve.end_time == pytest.approx(
            model.permuted_completion_seconds(), rel=0.05
        )


class TestBplusModel:
    def test_tracks_simulation(self, world):
        disk, _sale, _tree, bplus, _permuted, cost = world
        selectivity = 0.01
        model = model_for(cost, selectivity)
        query = queries_1d(selectivity, 1, seed=6)[0]
        bplus.reset_caches()
        start = disk.clock
        window = 0.3 * model.scan_seconds
        curve = run_race("bplus", bplus.sample(query, seed=1), start,
                         time_limit=window)
        for fraction in (0.3, 0.6, 1.0):
            t = fraction * window
            predicted = model.bplus_records_at(t)
            measured = curve.count_at(t)
            # The model ignores duplicate rank draws; allow a wide band.
            assert 0.4 * predicted - 10 <= measured <= 2.5 * predicted + 10, (
                f"t={t}: predicted {predicted}, measured {measured}"
            )

    def test_hockey_stick(self, world):
        """The model's defining shape: the rate accelerates sharply once
        the matching pages are resident."""
        _disk, _sale, _tree, _bplus, _permuted, cost = world
        model = model_for(cost, 0.005)
        io = cost.random_io_time(PAGE)
        warm = model.matching_pages * io  # roughly when caching completes
        early_rate = model.bplus_records_at(warm * 0.5) / (warm * 0.5)
        late_rate = (
            model.bplus_records_at(warm * 4) - model.bplus_records_at(warm * 2)
        ) / (warm * 2)
        assert late_rate > 3 * early_rate


class TestAceBounds:
    @pytest.mark.parametrize("selectivity", [0.025, 0.25])
    def test_measured_between_bounds(self, world, selectivity):
        disk, _sale, tree, _bplus, _permuted, cost = world
        model = model_for(cost, selectivity)
        total_measured = 0.0
        total_lower = 0.0
        total_upper = 0.0
        window = 0.06 * model.scan_seconds
        for i, query in enumerate(queries_1d(selectivity, 4, seed=7)):
            start = disk.clock
            curve = run_race("ace", tree.sample(query, seed=i), start,
                             time_limit=window)
            total_measured += curve.count_at(window)
            total_lower += model.ace_lower_bound_at(window)
            total_upper += model.ace_upper_bound_at(window)
        assert total_measured >= 0.5 * total_lower  # Lemma 1, averaged
        assert total_measured <= 1.6 * total_upper

    def test_completion_prediction(self, world):
        disk, _sale, tree, _bplus, _permuted, cost = world
        model = model_for(cost, 0.025)
        query = queries_1d(0.025, 1, seed=8)[0]
        start = disk.clock
        curve = run_race("ace", tree.sample(query, seed=0), start)
        assert curve.completed
        assert curve.end_time == pytest.approx(
            model.ace_completion_seconds(), rel=0.35
        )
