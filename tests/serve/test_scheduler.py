"""ServeScheduler unit tests: determinism, fairness, budgets, accounting."""

import gc
import weakref

import pytest

from repro.acetree import AceBuildParams, build_ace_tree
from repro.obs.quality import QualityConfig, QualitySession
from repro.serve.scheduler import (
    ServeConfig,
    ServeScheduler,
    percentile,
)
from repro.serve.workload import Workload, WorkloadSpec
from repro.storage import CostModel, HeapFile, SimulatedDisk
from repro.testkit import FaultPlan, FaultyDisk
from repro.testkit.generators import KV_SCHEMA, Scenario, make_records
from repro.testkit.serve import generate_serve_scenario


def _tree(n=500, height=4, page_size=512, seed=3, plan=None,
          key_range=1_000, distribution="uniform"):
    if plan is None:
        disk = SimulatedDisk(page_size=page_size,
                             cost=CostModel.scaled(page_size))
    else:
        disk = FaultyDisk(page_size=page_size,
                          cost=CostModel.scaled(page_size), plan=plan)
        disk.armed = False  # faults strike the serving, not the build
    records = make_records(Scenario(
        seed=seed, n=n, key_range=key_range, distribution=distribution,
        height=height, arity=2, page_size=page_size, queries=(),
    ))
    heap = HeapFile.bulk_load(disk, KV_SCHEMA, records)
    tree = build_ace_tree(heap, AceBuildParams(
        key_fields=("k",), height=height, arity=2, seed=seed,
    ))
    disk.reset_clock()
    if plan is not None:
        disk.armed = True
    return tree


def _workload(tree, *, tenants=4, queries=2, shape="steady",
              closed_loop=False, mean_gap=0.001, seed=5, selectivity=0.5):
    domain = tree.geometry.domain.sides[0]
    spec = WorkloadSpec(
        shape=shape, tenants=tenants, queries_per_tenant=queries,
        closed_loop=closed_loop, mean_gap=mean_gap, selectivity=selectivity,
        key_lo=domain.lo, key_hi=domain.hi,
    )
    return Workload(spec, seed=seed)


def _run(tree=None, config=None, scheduler_cls=ServeScheduler, **wl):
    tree = tree if tree is not None else _tree()
    workload = _workload(tree, **wl)
    scheduler = scheduler_cls(
        tree, workload, config if config is not None else ServeConfig(),
    )
    return scheduler, scheduler.run()


class TestDeterminism:
    def test_same_seed_runs_produce_identical_reports(self):
        reports = [_run()[1].as_dict() for _ in range(2)]
        assert reports[0] == reports[1]

    def test_workload_seed_changes_the_run(self):
        a = _run(seed=1)[1].as_dict()
        b = _run(seed=2)[1].as_dict()
        assert a != b


class TestFairness:
    def test_move_to_back_wait_bound(self):
        # Move-to-back rotation: a runnable tenant advances one ring slot
        # per turn, so nobody waits more than ring size - 1 turns.
        tenants = 5
        scheduler, report = _run(tenants=tenants, queries=3)
        assert report.totals()["max_waiting"] <= tenants - 1
        assert scheduler.turns > tenants  # the ring actually rotated

    def test_unfair_pick_starves_the_victim(self):
        class Unfair(ServeScheduler):
            def _pick_index(self):
                for index, name in enumerate(self._ring):
                    if name != "t0":
                        return index
                return 0

        tenants = 5
        _, report = _run(tenants=tenants, queries=3, scheduler_cls=Unfair)
        victim = report.tenants["t0"]
        assert victim["max_waiting"] > tenants
        # Starved, not dropped: the victim still completes once alone.
        assert victim["completed"] == victim["admitted"]


class TestAccounting:
    def test_arrivals_conserve_and_everything_completes(self):
        _, report = _run(tenants=4, queries=3)
        for stats in report.tenants.values():
            assert stats["arrived"] == (
                stats["admitted"] + stats["rejected_queue"]
                + stats["rejected_budget"]
            )
            assert stats["completed"] == stats["admitted"]
        totals = report.totals()
        assert totals["arrived"] == 4 * 3
        assert totals["pages"] > 0

    def test_closed_loop_submits_after_completions(self):
        _, report = _run(tenants=3, queries=3, closed_loop=True)
        totals = report.totals()
        assert totals["arrived"] == totals["completed"] == 3 * 3

    def test_queue_cap_rejects_overflow(self):
        config = ServeConfig(queue_cap=1)
        _, report = _run(config=config, tenants=5, queries=3,
                         mean_gap=0.0001)
        totals = report.totals()
        assert totals["rejected_queue"] > 0
        assert totals["admitted"] + totals["rejected_queue"] == 5 * 3
        # Rejected requests never show up as completions.
        assert totals["completed"] == totals["admitted"]


class TestBudgets:
    def test_budget_stops_the_tenant_and_denies_its_backlog(self):
        config = ServeConfig(page_budget=6, target_epsilon=None,
                             max_samples=None)
        scheduler, report = _run(config=config, tenants=3, queries=3)
        exhausted = [s for s in report.tenants.values()
                     if s["budget_exhausted"]]
        assert exhausted, "a 6-page budget must exhaust on these drains"
        for stats in exhausted:
            assert stats["rejected_budget"] > 0 or stats["completed"] < stats["admitted"]
            assert stats["arrived"] == (
                stats["admitted"] + stats["rejected_queue"]
                + stats["rejected_budget"]
            )
        # The budget-stopped run is recorded with its terminal reason.
        reasons = {run.reason for state in scheduler.tenants.values()
                   for run in state.finished_runs}
        assert "budget" in reasons

    def test_unlimited_budget_never_exhausts(self):
        _, report = _run(config=ServeConfig(page_budget=None))
        assert not any(s["budget_exhausted"] for s in report.tenants.values())


class TestHorizon:
    def test_max_steps_abandons_in_flight_runs(self):
        config = ServeConfig(max_steps=3, target_epsilon=None,
                             max_samples=None)
        scheduler, report = _run(config=config, tenants=3, queries=2)
        assert report.steps >= 3
        reasons = {run.reason for state in scheduler.tenants.values()
                   for run in state.finished_runs}
        assert "horizon" in reasons
        # Nothing is left active after the horizon fires.
        assert all(state.active is None
                   for state in scheduler.tenants.values())


class TestCompletionReasons:
    def test_every_finished_run_has_a_terminal_reason(self):
        config = ServeConfig(target_epsilon=0.2)
        scheduler, _ = _run(config=config, tenants=3, queries=2)
        for state in scheduler.tenants.values():
            for run in state.finished_runs:
                assert run.finished
                assert run.reason in {
                    "target", "exhausted", "sample-cap", "budget", "horizon"
                }

    def test_tta_recorded_only_for_target_hits(self):
        _, report = _run(config=ServeConfig(target_epsilon=0.2))
        for stats in report.tenants.values():
            assert len(stats["tta"]) == stats["target_hits"]
            assert all(v >= 0 for v in stats["tta"])


class _Watched(ServeScheduler):
    """Keeps a weak reference to every stream it opens."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.stream_refs = []

    def _activate(self, state):
        opening = state.active is None and bool(state.backlog)
        run = super()._activate(state)
        if opening:
            self.stream_refs.append(weakref.ref(run.stream))
        return run


def _finished(scheduler):
    return [run for state in scheduler.tenants.values()
            for run in state.finished_runs]


class _RingChecked(ServeScheduler):
    """Checks at every turn that each tenant in the ring has work."""

    def _pick_index(self) -> int:
        idle = [name for name in self._ring
                if not self.tenants[name].has_work()]
        assert not idle, f"tenants without work in the ring: {idle}"
        return super()._pick_index()


class TestRingHoldsOnlyTenantsWithWork:
    """The ring needs no per-turn filter: no member is ever without work.

    A tenant joins the ring when it is admitted with a backlog and rejoins
    only if it still has work after its own quantum; the serve fuzz
    scenarios below also stop tenants on a page budget and cut runs at a
    step horizon.
    """

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("mode", ["open", "closed", "budget", "horizon"])
    def test_every_turn(self, seed, mode):
        scenario = generate_serve_scenario(seed, with_faults=False)
        tree = _tree(n=scenario.n, height=scenario.height,
                     page_size=scenario.page_size, seed=scenario.seed,
                     key_range=scenario.key_range,
                     distribution=scenario.distribution)
        workload = _workload(
            tree, tenants=scenario.tenants,
            queries=scenario.queries_per_tenant, shape=scenario.shape,
            closed_loop=mode != "open", mean_gap=scenario.mean_gap,
            seed=scenario.seed, selectivity=scenario.selectivity,
        )
        config = ServeConfig(
            quantum_pages=scenario.quantum_pages,
            page_budget=6 if mode == "budget" else None,
            target_epsilon=None, max_samples=None,
            max_steps=25 if mode == "horizon" else None,
        )
        scheduler = _RingChecked(tree, workload, config)
        report = scheduler.run()
        reasons = {run.reason for run in _finished(scheduler)}
        if mode == "budget":
            assert "budget" in reasons
        elif mode == "horizon":
            assert "horizon" in reasons
        else:
            assert report.totals()["completed"] == report.totals()["admitted"]


class TestFinishedRunsReleaseStreams:
    """A finished run keeps no stream: memory follows the queries in flight."""

    @pytest.mark.parametrize("config, reason", [
        (ServeConfig(), "target"),
        (ServeConfig(target_epsilon=None), "exhausted"),
        (ServeConfig(target_epsilon=0.01, max_samples=30), "sample-cap"),
        (ServeConfig(page_budget=20), "budget"),
        (ServeConfig(max_steps=15), "horizon"),
    ])
    def test_every_stream_is_released(self, config, reason):
        scheduler, _ = _run(config=config, scheduler_cls=_Watched)
        runs = _finished(scheduler)
        assert reason in {run.reason for run in runs}
        assert len(scheduler.stream_refs) == len(runs) > 0
        assert all(run.stream is None for run in runs)
        gc.collect()
        assert [ref() for ref in scheduler.stream_refs] == [None] * len(runs)

    def test_lost_leaf_runs_stay_degraded(self):
        tree = _tree(plan=FaultPlan(seed=1, rates={"read.transient": 0.5}))
        config = ServeConfig(target_epsilon=None)
        scheduler = ServeScheduler(tree, _workload(tree), config)
        scheduler.run()
        degraded = [run for run in _finished(scheduler) if run.degraded]
        assert degraded, "a 50% transient rate must lose leaves"
        assert all(run.monitor.degraded for run in degraded)
        flagged = {record["label"] for record in scheduler.session.records()
                   if record["degraded"]}
        assert {f"{run.request.tenant}/{run.request.query_id}"
                for run in degraded} <= flagged

    def test_clean_runs_are_not_degraded(self):
        scheduler, _ = _run(config=ServeConfig(target_epsilon=None))
        assert not any(run.degraded for run in _finished(scheduler))


class TestTargetValidation:
    """``target_epsilon`` must be a TTA target the monitors record."""

    def test_target_outside_the_monitor_targets_is_rejected(self):
        tree = _tree()
        with pytest.raises(ValueError, match="tta_targets"):
            ServeScheduler(tree, _workload(tree),
                           ServeConfig(target_epsilon=0.03))

    def test_target_checked_against_the_session_config(self):
        tree = _tree()
        session = QualitySession(config=QualityConfig(tta_targets=(0.1,)))
        with pytest.raises(ValueError, match="tta_targets"):
            ServeScheduler(tree, _workload(tree),
                           ServeConfig(target_epsilon=0.05), session=session)
        ServeScheduler(tree, _workload(tree),
                       ServeConfig(target_epsilon=0.1), session=session)

    @pytest.mark.parametrize("target", [None, 0.2, 0.1, 0.05, 0.02, 0.01])
    def test_none_and_every_monitor_target_are_accepted(self, target):
        tree = _tree()
        ServeScheduler(tree, _workload(tree),
                       ServeConfig(target_epsilon=target))


class TestPercentile:
    def test_nearest_rank(self):
        values = [4.0, 1.0, 3.0, 2.0]
        assert percentile(values, 0.50) == 2.0
        assert percentile(values, 0.99) == 4.0
        assert percentile(values, 1.0) == 4.0

    def test_empty_is_none(self):
        assert percentile([], 0.5) is None
