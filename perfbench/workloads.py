"""The benchmark's three workloads, driven through the package's public API.

Each workload has the same shape:

``setup(seed)``
    builds the data and index the timed phase runs against (timed as
    ``setup_s``; the build step alone is timed too).
``prepare(state)``
    untimed benchmark bookkeeping: the sorted key array exact counts are
    taken from, and the simulated clock zeroed.
``timed(state, seconds, tally)``
    the measured phase, bounded by wall time.
``fixed(state, tally)``
    a fixed amount of the same work, for the traced run; returns counts
    from the program's own counters, which must repeat exactly for a seed.

Program calls go through module attributes (``sale.generate_sale_1d``,
``online_agg.aggregate_stream``, ...) so the traced run's wrappers see them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path
from time import perf_counter

import numpy as np

import repro.acetree.build as build
import repro.apps.online_agg as online_agg
import repro.obs.export as obs_export
import repro.obs.report as obs_report
import repro.obs.slo as obs_slo
import repro.view.sampleview as sampleview
import repro.workloads.sale as sale
from repro.acetree import AceBuildParams
from repro.core.intervals import Box
from repro.obs import (
    COST,
    METRICS,
    QualitySession,
    StreamQualityMonitor,
    TraceRecorder,
    cost_record,
    exemplar_records,
)
from repro.serve.scheduler import ServeConfig, ServeScheduler
from repro.serve.workload import ServeRequest, WorkloadSpec
from repro.storage import CostModel, SampleCache, SimulatedDisk

import inputs
from checks import FIRST_K, Tap, check_answer, exact_count

__all__ = ["Tally", "make_workloads"]

#: Relative CI half-width at which an answer is good enough.
TARGET = 0.05
PAGE_SIZE = 4096


@dataclass
class Tally:
    """Everything one run measured and every check it failed."""

    #: ``(start, end)`` wall intervals (``perf_counter`` seconds).
    answers: list = field(default_factory=list)
    first_k: list = field(default_factory=list)
    refreshes: list = field(default_factory=list)
    #: Every timed operation: answers, inserts, refreshes, serve batches.
    busy: list = field(default_factory=list)
    tta_sim_s: list = field(default_factory=list)
    completed: int = 0
    attempted: int = 0
    failures: list = field(default_factory=list)
    #: The traced run's span tracer; answers stamp their query id on it.
    tracer: object = None

    def fail(self, message: str) -> None:
        self.failures.append(message)


def _disk() -> SimulatedDisk:
    return SimulatedDisk(page_size=PAGE_SIZE, cost=CostModel.scaled(PAGE_SIZE))


def _sorted_keys(heap, key_field: str) -> np.ndarray:
    """The key column of a heap file, sorted (benchmark-side, untimed)."""
    columns = [view.struct_array()[key_field] for view in heap.scan_page_views()]
    return np.sort(np.concatenate(columns))


def _build(source, seed: int):
    return build.build_ace_tree(
        source, AceBuildParams(key_fields=("day",), seed=seed)
    )


@dataclass
class _Answer:
    stream: object
    emitted: int


def answer(open_stream, population, query, schema, disk, exact: int,
           tally: Tally) -> _Answer:
    """One online-aggregation answer: AVG(cust) to the target half-width.

    Timed from opening the stream until the target is met or the stream
    is exhausted; the correctness check runs after the clock stops.
    """
    key_index = schema.field_index("day")
    value_of = itemgetter(schema.field_index("cust"))
    box = Box.from_bounds([query.lo], [query.hi])
    if tally.tracer is not None:
        tally.tracer.query = query.qid
    clock = disk.clock
    start = perf_counter()
    stream = open_stream(box, query.stream_seed)
    tap = Tap(stream)
    last = None
    for last in online_agg.aggregate_stream(
        tap, value_of, population(box), target_relative_width=TARGET
    ):
        pass
    end = perf_counter()
    if tally.tracer is not None:
        tally.tracer.query = None
    tally.attempted += 1
    tally.completed += 1
    tally.busy.append((start, end))
    tally.answers.append((start, end))
    tally.first_k.append((start, tap.first_k_at or end))
    tally.tta_sim_s.append((last.clock if last is not None else disk.clock) - clock)
    exhausted = tap.exhausted or bool(getattr(stream, "exhausted", False))
    problems = check_answer(tap.batches, query.lo, query.hi, key_index,
                            exhausted, exact)
    if problems:
        tally.fail(f"query {query.qid}: " + "; ".join(problems))
    return _Answer(stream, tap.count)


# ---------------------------------------------------------------------------
# agg-1d
# ---------------------------------------------------------------------------


@dataclass
class _TreeState:
    seed: int
    disk: SimulatedDisk
    source: object
    tree: object
    built: tuple  # wall interval of the index build
    keys: np.ndarray | None = None


class Agg1D:
    """One analyst, closed loop, over a tree larger than the leaf caches."""

    name = "agg-1d"
    records = 200_000
    tail = 0.95
    fixed_queries = 250

    def setup(self, seed: int) -> _TreeState:
        disk = _disk()
        source = sale.generate_sale_1d(disk, num_records=self.records, seed=seed)
        start = perf_counter()
        tree = _build(source, seed)
        built = (start, perf_counter())
        tree.attach_sample_cache(SampleCache())
        return _TreeState(seed, disk, source, tree, built)

    def prepare(self, state: _TreeState) -> None:
        state.keys = _sorted_keys(state.source, "day")
        state.source.free()
        state.disk.reset_clock()

    def _queries(self, seed: int, count: int):
        return inputs.agg_queries(seed, count, sale.DAY_DOMAIN)

    def _run(self, state: _TreeState, queries, tally: Tally, deadline=None):
        tree = state.tree
        totals = {"answers": 0, "leaves_read": 0, "cache_hit_leaves": 0,
                  "records_emitted": 0}
        for query in queries:
            if deadline is not None and perf_counter() >= deadline:
                break
            result = answer(
                lambda box, seed: tree.sample(box, seed=seed),
                tree.estimate_count, query, tree.schema, state.disk,
                exact_count(state.keys, query.lo, query.hi), tally,
            )
            stats = result.stream.stats
            totals["answers"] += 1
            totals["leaves_read"] += stats.leaves_read
            totals["cache_hit_leaves"] += stats.cache_hits
            totals["records_emitted"] += stats.records_emitted
        return totals

    def timed(self, state: _TreeState, seconds: float, tally: Tally) -> None:
        # Far more queries than any run can answer; the deadline ends it.
        queries = self._queries(state.seed, 20_000)
        self._run(state, queries, tally, deadline=perf_counter() + seconds)

    def fixed(self, state: _TreeState, tally: Tally) -> dict:
        reads = state.disk.stats.page_reads
        totals = self._run(state, self._queries(state.seed, self.fixed_queries),
                           tally)
        cache = state.tree.sample_cache.stats
        tree = state.tree
        return {
            **totals,
            **_build_counts(tree),
            "disk_page_reads": state.disk.stats.page_reads - reads,
            "cache_hits": cache.hits,
            "cache_misses": cache.misses,
            "cache_evictions": cache.evictions,
            "sim_s": round(sum(tally.tta_sim_s), 12),
        }

    def input_digest(self, seed: int) -> str:
        return inputs.digest(self._queries(seed, 200))


def _build_counts(tree) -> dict:
    io = tree.build_report.io
    user_bytes = tree.num_records * tree.schema.record_size
    return {
        "build_page_reads": io.page_reads,
        "build_page_writes": io.page_writes,
        "leaf_store_bytes": tree.leaf_store.total_bytes,
        "user_bytes": user_bytes,
    }


# ---------------------------------------------------------------------------
# serve-bursty
# ---------------------------------------------------------------------------


class _FixedWorkload:
    """The scheduler's workload interface over pre-generated arrivals."""

    def __init__(self, arrivals, tenants: int, per_tenant: int) -> None:
        self.spec = WorkloadSpec(shape="bursty", tenants=tenants,
                                 queries_per_tenant=per_tenant)
        self._by_tenant: dict[str, list[ServeRequest]] = {}
        for arrival in arrivals:
            query = arrival.query
            self._by_tenant.setdefault(arrival.tenant, []).append(ServeRequest(
                tenant=arrival.tenant, query_id=f"q{query.qid}",
                lo=query.lo, hi=query.hi, stream_seed=query.stream_seed,
                arrival=arrival.at,
            ))

    def tenant_names(self) -> list[str]:
        return list(self._by_tenant)

    def open_arrivals(self, tenant: str) -> list[ServeRequest]:
        return self._by_tenant[tenant]


class _TimedMonitor(StreamQualityMonitor):
    """A quality monitor that also notes the wall time of a query's
    first ``FIRST_K`` samples and of its answer (target met, or closed)."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.opened = perf_counter()
        self.first_k_at: float | None = None
        self.answered_at: float | None = None

    def observe_batch(self, records, clock: float) -> None:
        super().observe_batch(records, clock)
        if self.answered_at is None:
            estimator = self.estimator
            if self.first_k_at is None and estimator.count >= FIRST_K:
                self.first_k_at = perf_counter()
            if estimator.tta and estimator.tta[-1].epsilon <= TARGET + 1e-12:
                self.answered_at = perf_counter()

    def finalize(self) -> None:
        if self.answered_at is None:
            self.answered_at = perf_counter()
        super().finalize()


class _TimedSession(QualitySession):
    def monitor(self, label, key_of, lo, hi, **kwargs):
        kwargs.setdefault("config", self.config)
        kwargs.setdefault("metrics", self.metrics)
        mon = _TimedMonitor(label, key_of, lo, hi, **kwargs)
        self.monitors.append(mon)
        return mon


class ServeBursty:
    """``python -m repro serve``'s path after the build, one batch at a time."""

    name = "serve-bursty"
    records = 50_000
    tenants = 128
    per_tenant = 8
    burst_period = 2.0
    burst_spread = 0.05
    selectivity = 0.025
    tail = 0.99

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = out_dir

    def setup(self, seed: int) -> _TreeState:
        disk = _disk()
        source = sale.generate_sale_1d(disk, num_records=self.records, seed=seed)
        start = perf_counter()
        tree = _build(source, seed)
        return _TreeState(seed, disk, source, tree, (start, perf_counter()))

    def prepare(self, state: _TreeState) -> None:
        state.source.free()
        state.disk.reset_clock()

    def _arrivals(self, seed: int):
        return inputs.serve_arrivals(seed, self.tenants, self.per_tenant,
                                     sale.DAY_DOMAIN, self.burst_period,
                                     self.burst_spread, self.selectivity)

    def _batch(self, state: _TreeState, tally: Tally) -> dict:
        """One serve run: schedule, SLOs, audit, export, report."""
        state.disk.reset_clock()
        COST.reset()
        METRICS.reset()
        workload = _FixedWorkload(self._arrivals(state.seed), self.tenants,
                                  self.per_tenant)
        recorder = TraceRecorder(metrics=METRICS)
        session = _TimedSession(metrics=METRICS)
        jsonl = self.out_dir / "serve.jsonl"
        start = perf_counter()
        with recorder:
            report = ServeScheduler(state.tree, workload, ServeConfig(),
                                    session=session).run()
        quality = session.records()
        snapshot = METRICS.snapshot()
        report.slo = [s.as_dict() for s in obs_slo.evaluate_slos(
            quality=quality, metrics=snapshot)]
        cost = COST.snapshot()
        extra = exemplar_records(snapshot) + [cost_record(cost)]
        lines = obs_export.export_jsonl(recorder.spans, jsonl, quality=quality,
                                        metrics=snapshot, extra=extra)
        obs_export.export_chrome_trace(recorder.spans,
                                       jsonl.with_suffix(".chrome.json"),
                                       quality=quality)
        errors = obs_export.validate_jsonl(jsonl)
        obs_report.render_report(recorder.spans, recorder.metrics, top=12,
                                 quality=quality, cost=cost)
        end = perf_counter()

        data = report.as_dict()
        totals = data["totals"]
        rejected = totals["rejected_queue"] + totals["rejected_budget"]
        tally.attempted += totals["arrived"]
        tally.completed += totals["completed"]
        tally.busy.append((start, end))
        for mon in session.monitors:
            tally.answers.append((mon.opened, mon.answered_at))
            tally.first_k.append((mon.opened, mon.first_k_at or mon.answered_at))
        tally.tta_sim_s.extend(report.tta_values())
        if rejected:
            tally.fail(f"{rejected} queries refused by admission control")
        if totals["arrived"] != totals["admitted"] + rejected:
            tally.fail(f"arrived {totals['arrived']} != admitted "
                       f"{totals['admitted']} + rejected {rejected}")
        if not data["budget_audit"]["checked"] or not data["budget_audit"]["ok"]:
            tally.fail(f"budget audit not ok: {data['budget_audit']['ok']}")
        for error in errors:
            tally.fail(f"exported trace invalid: {error}")
        return {
            "steps": data["steps"],
            "turns": data["turns"],
            "pages": totals["pages"],
            "completed": totals["completed"],
            "target_hits": totals["target_hits"],
            "arrived": totals["arrived"],
            "exported_records": lines,
            "tta_digest": inputs.digest(report.tta_values()),
            "tta_p50_sim_s": data["tta_p50_sim_s"],
            "sim_clock": data["clock"],
        }

    def timed(self, state: _TreeState, seconds: float, tally: Tally) -> None:
        deadline = perf_counter() + seconds
        first = None
        while True:
            counts = self._batch(state, tally)
            # Every batch replays the same inputs, so it must repeat exactly.
            if first is None:
                first = counts
            elif counts != first:
                tally.fail(f"serve batch not deterministic: {counts} != {first}")
            if perf_counter() >= deadline:
                break

    def fixed(self, state: _TreeState, tally: Tally) -> dict:
        return {**self._batch(state, tally), **_build_counts(state.tree)}

    def input_digest(self, seed: int) -> str:
        return inputs.digest(self._arrivals(seed))


# ---------------------------------------------------------------------------
# view-refresh
# ---------------------------------------------------------------------------


@dataclass
class _ViewState:
    seed: int
    disk: SimulatedDisk
    source: object
    view: object
    built: tuple  # wall interval of the index build
    keys: np.ndarray | None = None
    round_no: int = 0


class ViewRefresh:
    """Inserts, delta-interleaved answers and rebuilds on one sample view."""

    name = "view-refresh"
    records = 50_000
    insert_batch = 2_500
    queries_per_round = 12
    cycle_rounds = 4
    tail = 0.90
    fixed_rounds = 2

    def setup(self, seed: int) -> _ViewState:
        disk = _disk()
        source = sale.generate_sale_1d(disk, num_records=self.records, seed=seed)
        start = perf_counter()
        view = sampleview.create_sample_view("bench", source, index_on=("day",),
                                             seed=seed)
        return _ViewState(seed, disk, source, view, (start, perf_counter()))

    def prepare(self, state: _ViewState) -> None:
        state.keys = _sorted_keys(state.source, "day")
        state.source.free()
        state.disk.reset_clock()

    def _round(self, state: _ViewState, tally: Tally) -> int:
        """Insert, answer, refresh; returns the records the answers emitted."""
        view, seed, r = state.view, state.seed, state.round_no
        state.round_no += 1
        rows = inputs.view_inserts(seed, r, self.insert_batch, sale.DAY_DOMAIN)
        start = perf_counter()
        view.insert(rows)
        tally.busy.append((start, perf_counter()))
        tally.attempted += 1
        state.keys = np.sort(np.concatenate(
            [state.keys, np.array([row[0] for row in rows], dtype=np.int64)]))
        emitted = 0
        for query in inputs.view_queries(seed, r, self.queries_per_round,
                                         sale.DAY_DOMAIN):
            result = answer(
                lambda box, s: view.sample(box, seed=s), view.estimate_count,
                query, view.tree.schema, view.tree.disk,
                exact_count(state.keys, query.lo, query.hi), tally,
            )
            emitted += result.emitted
        start = perf_counter()
        view.refresh()
        interval = (start, perf_counter())
        tally.busy.append(interval)
        tally.refreshes.append(interval)
        tally.attempted += 1
        if view.delta_size or view.num_records != len(state.keys):
            tally.fail(f"refresh left {view.delta_size} delta records, "
                       f"{view.num_records} visible != {len(state.keys)}")
        return emitted

    def timed(self, state: _ViewState, seconds: float, tally: Tally) -> None:
        deadline = perf_counter() + seconds
        while perf_counter() < deadline:
            if state.round_no and state.round_no % self.cycle_rounds == 0:
                self._restart(state)
            self._round(state, tally)

    def _restart(self, state: _ViewState) -> None:
        """A fresh view over the same base, untimed.

        The view grows by ``insert_batch`` records a round; restarting it
        every ``cycle_rounds`` rounds keeps the sizes a run measures the
        same however many rounds fit in its time.
        """
        fresh = self.setup(state.seed)
        self.prepare(fresh)
        state.disk, state.view, state.keys = fresh.disk, fresh.view, fresh.keys

    def fixed(self, state: _ViewState, tally: Tally) -> dict:
        disk = state.disk
        reads, writes = disk.stats.page_reads, disk.stats.page_writes
        emitted = sum(self._round(state, tally) for _ in range(self.fixed_rounds))
        return {
            "emitted": emitted,
            "answers": len(tally.answers),
            "disk_page_reads": disk.stats.page_reads - reads,
            "disk_page_writes": disk.stats.page_writes - writes,
            "sim_s": round(sum(tally.tta_sim_s), 12),
            **_build_counts(state.view.tree),
        }

    def input_digest(self, seed: int) -> str:
        return inputs.digest(
            [inputs.view_inserts(seed, 0, 50, sale.DAY_DOMAIN),
             inputs.view_queries(seed, 0, self.queries_per_round, sale.DAY_DOMAIN)]
        )


def make_workloads(out_dir: Path) -> dict:
    """Workload name -> instance."""
    return {w.name: w for w in (Agg1D(), ServeBursty(out_dir), ViewRefresh())}
