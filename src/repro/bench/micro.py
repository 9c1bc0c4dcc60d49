"""Wall-clock micro-benchmarks of the implementation itself.

Unlike the figure experiments, which report *simulated* I/O seconds, this
suite measures what the Python implementation costs in real seconds: codec
throughput (pack/unpack MB/s), external-sort and index-construction record
throughput, and a sampling path.  ``python -m repro bench --json`` emits the
results as JSON so optimization PRs can commit before/after baselines (see
``BENCH_PR1.json``); ``benchmarks/test_micro_components.py`` runs the same
workloads under pytest-benchmark.

Every timing is the best of ``repeat`` runs — on a shared machine the
minimum is the observation least polluted by scheduler noise — and each run
rebuilds its inputs so caches and allocator state are comparable across
runs.
"""

from __future__ import annotations

import sys
import time  # repro: allow[CLK001] micro-benchmarks measure real wall-clock seconds
from typing import Callable

from ..acetree import AceBuildParams, build_ace_tree
from ..core import Field, Schema
from ..core.intervals import Box, Interval
from ..core.rng import derive_random
from ..obs.metrics import METRICS
from ..obs.tracer import TRACER
from ..storage import CostModel, HeapFile, SimulatedDisk, external_sort

__all__ = ["MICRO_SCHEMA", "run_micro"]

#: The relation layout every micro-benchmark uses: an indexed int key, a
#: float payload, and padding up to a 100-byte record (the paper's scale
#: experiments use records of roughly this size).
MICRO_SCHEMA = Schema(  # repro: shared[confined] schema struct memos are engine-thread idempotent caches
    [Field("k", "i8"), Field("v", "f8"), Field("pad", "bytes", 84)]
)


def _fresh_relation(n: int) -> HeapFile:
    disk = SimulatedDisk(page_size=4096, cost=CostModel.scaled(4096))
    rng = derive_random(0, "micro-relation")
    records = ((rng.randrange(10**9), rng.random(), b"") for _ in range(n))
    return HeapFile.bulk_load(disk, MICRO_SCHEMA, records, name="bench")


def _best_of(repeat: int, setup: Callable, run: Callable) -> float:
    best = float("inf")
    for _ in range(repeat):
        state = setup()
        started = time.perf_counter()
        run(state)
        best = min(best, time.perf_counter() - started)
    return best


def _codec_benchmarks(n: int, repeat: int) -> dict:
    """pack_many / unpack_many / single-column throughput."""
    rng = derive_random(1, "micro-codec")
    records = [
        (rng.randrange(10**9), rng.random(), b"x" * 84) for _ in range(n)
    ]
    payload = MICRO_SCHEMA.pack_many(records)
    size = MICRO_SCHEMA.record_size
    mb = n * size / 1e6

    pack_s = _best_of(
        repeat, lambda: None, lambda _: MICRO_SCHEMA.pack_many(records)
    )
    unpack_s = _best_of(
        repeat, lambda: None, lambda _: MICRO_SCHEMA.unpack_many(payload, n)
    )
    column_s = _best_of(
        repeat, lambda: None, lambda _: MICRO_SCHEMA.unpack_column(payload, n, "k")
    )
    return {
        "record_size_bytes": size,
        "pack_many_mb_per_s": mb / pack_s,
        "unpack_many_mb_per_s": mb / unpack_s,
        "unpack_column_keys_per_s": n / column_s,
    }


def _sort_benchmarks(n: int, repeat: int) -> dict:
    """External sort throughput: declared key column vs opaque callable."""
    key_field_s = _best_of(
        repeat,
        lambda: _fresh_relation(n),
        lambda rel: external_sort(rel, memory_pages=64, key_field="k").free(),
    )
    callable_s = _best_of(
        repeat,
        lambda: _fresh_relation(n),
        lambda rel: external_sort(
            rel, key=lambda r: r[0], memory_pages=64
        ).free(),
    )
    # One untimed run for the *simulated* cost — a pure function of the
    # code and the seed, so bench regression tracking compares it exactly.
    rel = _fresh_relation(n)
    disk = rel.disk
    clock0, stats0 = disk.clock, disk.stats.snapshot()
    external_sort(rel, memory_pages=64, key_field="k").free()
    delta = disk.stats - stats0
    return {
        "key_field_records_per_s": n / key_field_s,
        "key_field_seconds": key_field_s,
        "callable_records_per_s": n / callable_s,
        "callable_seconds": callable_s,
        "sim_seconds": disk.clock - clock0,
        "page_reads": delta.page_reads,
        "page_writes": delta.page_writes,
    }


#: Build phases whose traced wall seconds are reported beside each build.
_BUILD_PHASES = (
    "ace_build.phase1",
    "ace_build.split_keys",
    "ace_build.phase2",
    "external_sort.run_generation",
    "external_sort.merge",
)


def _measure_build(
    n: int, repeat: int, params: AceBuildParams
) -> tuple[float, dict, dict]:
    """Best-of-``repeat`` build seconds, plus the phase seconds and the
    simulated cost of one more (untimed) build.

    That build runs under a :class:`~repro.obs.recorder.TraceRecorder`
    on a private registry, and its spans give the phase breakdown.
    Tracing only reads the simulated clock, so the cost equals an
    untraced build's; a final ``COST.reset()`` keeps the process-global
    ledger clean.
    """
    from ..obs.cost import COST
    from ..obs.metrics import MetricsRegistry
    from ..obs.recorder import TraceRecorder

    best = _best_of(
        repeat, lambda: _fresh_relation(n), lambda rel: build_ace_tree(rel, params)
    )
    rel = _fresh_relation(n)
    disk = rel.disk
    clock0, stats0 = disk.clock, disk.stats.snapshot()
    recorder = TraceRecorder(metrics=MetricsRegistry())
    with recorder:
        build_ace_tree(rel, params)
    COST.reset()
    delta = disk.stats - stats0
    breakdown = dict.fromkeys(_BUILD_PHASES, 0.0)
    for span in recorder.spans:
        if span.name in breakdown:
            breakdown[span.name] += span.wall_seconds
    sim = {
        "sim_seconds": disk.clock - clock0,
        "page_reads": delta.page_reads,
        "page_writes": delta.page_writes,
    }
    return best, breakdown, sim


def _build_benchmarks(n: int, repeat: int) -> dict:
    """ACE-Tree bulk construction throughput, with a phase breakdown."""
    best, breakdown, sim = _measure_build(
        n, repeat, AceBuildParams(key_fields=("k",), height=8, seed=3)
    )
    return {
        "records_per_s": n / best,
        "seconds": best,
        # Named as in the committed BENCH files, so they still compare.
        "best_run_profile_seconds": breakdown,
        **sim,
    }


def _auto_build_benchmarks(n: int, repeat: int) -> dict:
    """Bulk construction at the auto-chosen height.

    Leaves of about one page, as the figures, ``serve`` and the end-to-end
    benchmark build them, so Phase 1 picks up one split key per leaf: the
    real sizing of the pick-up, which the fixed height-8 row does not reach.
    """
    best, breakdown, sim = _measure_build(
        n, repeat, AceBuildParams(key_fields=("k",), seed=3)
    )
    return {
        "seconds": best,
        "split_keys_seconds": breakdown["ace_build.split_keys"],
        **sim,
    }


def _view_refresh_benchmarks(n: int, repeat: int) -> dict:
    """Differential refresh of a materialized sample view.

    A view over the micro relation takes ``n // 20`` inserted rows, then
    ``refresh()`` reloads base + delta into a heap file and rebuilds the
    tree (two external sorts).  ``seconds`` is the best-of-``repeat``
    refresh; the simulated cost comes from one more refresh on a fresh
    view, a pure function of the code and the seed.
    """
    from ..view import create_sample_view

    rng = derive_random(0, "micro-view-inserts")
    inserts = [(rng.randrange(10**9), rng.random(), b"") for _ in range(n // 20)]

    def fresh_view():
        relation = _fresh_relation(n)
        view = create_sample_view("micro", relation, index_on=("k",), seed=3)
        relation.free()
        view.insert(inserts)
        return view

    best = _best_of(repeat, fresh_view, lambda view: view.refresh())
    view = fresh_view()
    disk = view.tree.disk
    clock0, stats0 = disk.clock, disk.stats.snapshot()
    view.refresh()
    delta = disk.stats - stats0
    return {
        "seconds": best,
        "sim_seconds": disk.clock - clock0,
        "page_reads": delta.page_reads,
        "page_writes": delta.page_writes,
    }


def _query_benchmarks(n: int, repeat: int) -> dict:
    """Sampling-path throughput: first-k records of an ACE-Tree stream.

    The tree is built once outside the timed region; each run opens a fresh
    stream (fresh RNG + Shuttle state) over a ~10%-selectivity range.  This
    is the workload the tracing subsystem must not slow down when disabled
    (the ``span_overhead`` suite quantifies the per-span cost directly).
    """
    relation = _fresh_relation(n)
    tree = build_ace_tree(
        relation, AceBuildParams(key_fields=("k",), height=8, seed=3)
    )
    query = Box.of(Interval(0.0, 1e8))  # keys ~ U[0, 1e9) => ~10% match
    first_k = min(1_000, max(1, n // 10))
    seconds = _best_of(
        repeat,
        lambda: None,
        lambda _: tree.sample(query, seed=7).take(first_k),
    )
    # Simulated cost to the first k samples: iterate batches exactly as
    # ``take`` does so the clocks are identical to the timed runs.
    disk = relation.disk
    clock0 = disk.clock
    emitted = 0
    leaves_read = 0
    for batch in tree.sample(query, seed=7):
        emitted += len(batch.records)
        leaves_read = batch.leaves_read
        if emitted >= first_k:
            break
    return {
        "first_k": first_k,
        "seconds": seconds,
        "samples_per_s": first_k / seconds,
        "sim_seconds_to_first_k": disk.clock - clock0,
        "leaves_read": leaves_read,
    }


def _combine_batch_benchmarks(n: int, repeat: int) -> dict:
    """Batch Combine throughput: drain a whole stream as cell batches.

    Iterates every :class:`~repro.acetree.query.SampleBatch` of a full
    stream *without* touching ``batch.records`` — pure Shuttle + Combine
    cell movement on the columnar hot path, no record materialization.
    The stab and emission counts are pure functions of the seed, so they
    gate exactly.
    """
    relation = _fresh_relation(n)
    tree = build_ace_tree(
        relation, AceBuildParams(key_fields=("k",), height=8, seed=3)
    )
    query = Box.of(Interval(0.0, 1e8))

    def drain(_state) -> None:
        for _batch in tree.sample(query, seed=11):
            pass

    seconds = _best_of(repeat, lambda: None, drain)
    stream = tree.sample(query, seed=11)
    total = 0
    for batch in stream:
        total += batch.count
    return {
        "seconds": seconds,
        "cells_per_s": total / seconds,
        "stabs": stream.stats.stabs,
        "leaves_read": stream.stats.leaves_read,
        "samples": total,
    }


def _lazy_materialization_benchmarks(n: int, repeat: int) -> dict:
    """Lazy batch handles vs. materialized records, first-k workload.

    ``handles_seconds`` stops as soon as the batch *counts* reach k — the
    consumer never decodes a record tuple (an online aggregator reading
    pre-aggregated columns would behave like this).  ``materialized_seconds``
    is the same workload through ``take`` (decode + shuffle).  The gap is
    what lazy materialization saves.
    """
    relation = _fresh_relation(n)
    tree = build_ace_tree(
        relation, AceBuildParams(key_fields=("k",), height=8, seed=3)
    )
    query = Box.of(Interval(0.0, 1e8))
    first_k = min(1_000, max(1, n // 10))

    def handles(_state) -> None:
        got = 0
        for batch in tree.sample(query, seed=7):
            got += batch.count
            if got >= first_k:
                break

    handles_seconds = _best_of(repeat, lambda: None, handles)
    materialized_seconds = _best_of(
        repeat, lambda: None, lambda _: tree.sample(query, seed=7).take(first_k)
    )
    return {
        "first_k": first_k,
        "handles_seconds": handles_seconds,
        "materialized_seconds": materialized_seconds,
    }


def _sample_cache_benchmarks(n: int, repeat: int) -> tuple[dict, dict]:
    """Sample-reuse cache: miss-path vs. hit-path, wall and simulated.

    Returns ``(wall, deterministic)``: the wall section times a cold
    (empty-cache, populating) run against a warm (all-hits) run of the
    same query; the deterministic section records the cache counters and
    simulated clocks of one scripted cold-then-warm pass — pure functions
    of the seed, gated exactly under the ``sample_cache.*`` rule.
    """
    relation = _fresh_relation(n)
    tree = build_ace_tree(
        relation, AceBuildParams(key_fields=("k",), height=8, seed=3)
    )
    query = Box.of(Interval(0.0, 1e8))
    first_k = min(1_000, max(1, n // 10))

    def fresh_cache() -> None:
        tree.detach_sample_cache()
        tree.attach_sample_cache()

    def populated_cache() -> None:
        fresh_cache()
        tree.sample(query, seed=7).take(first_k)

    run = lambda _state: tree.sample(query, seed=7).take(first_k)
    cold_seconds = _best_of(repeat, fresh_cache, run)
    warm_seconds = _best_of(repeat, populated_cache, run)

    # One scripted cold-then-warm pass for the deterministic counters.
    tree.detach_sample_cache()
    cache = tree.attach_sample_cache()
    disk = tree.disk
    clock0, reads0 = disk.clock, disk.stats.page_reads
    tree.sample(query, seed=7).take(first_k)
    cold_sim = disk.clock - clock0
    cold_reads = disk.stats.page_reads - reads0
    clock1, reads1 = disk.clock, disk.stats.page_reads
    warm_stream = tree.sample(query, seed=7)
    warm_stream.take(first_k)
    warm_sim = disk.clock - clock1
    warm_reads = disk.stats.page_reads - reads1
    deterministic = dict(cache.stats.as_dict())
    deterministic.update(
        cold_sim_s=cold_sim,
        warm_sim_s=warm_sim,
        cold_reads=cold_reads,
        warm_reads=warm_reads,
        warm_leaf_hits=warm_stream.stats.cache_hits,
    )
    tree.detach_sample_cache()
    wall = {
        "first_k": first_k,
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
    }
    return wall, deterministic


def _serve_benchmarks(n: int, repeat: int) -> tuple[dict, dict, dict]:
    """Multi-tenant serve scheduler: wall throughput + deterministic totals.

    Returns ``(wall, deterministic, trace_export)``.  Like the cache
    section, the wall side times one full bursty 16-tenant run (arrivals,
    DRR quanta, quality monitors); the deterministic side records the
    run's simulated clock, step/turn counts, and page totals — pure
    functions of the seed, gated exactly under the ``serve.*`` rule so a
    scheduling-order change cannot land silently.  The third is
    :func:`_trace_export_benchmarks` over the same run.
    """
    from ..serve.scheduler import ServeConfig, ServeScheduler
    from ..serve.workload import Workload, WorkloadSpec

    relation = _fresh_relation(n)
    tree = build_ace_tree(
        relation, AceBuildParams(key_fields=("k",), height=8, seed=3)
    )
    domain = tree.geometry.domain.sides[0]
    spec = WorkloadSpec(
        shape="bursty", tenants=16, queries_per_tenant=3, mean_gap=0.001,
        selectivity=0.2, key_lo=domain.lo, key_hi=domain.hi,
    )
    config = ServeConfig(target_epsilon=0.05, max_samples=2_000)

    def serve_once(session=None):
        tree.disk.reset_clock()
        return ServeScheduler(
            tree, Workload(spec, seed=7), config, session=session
        ).run()

    wall_seconds = _best_of(repeat, lambda: None, lambda _state: serve_once())
    report = serve_once()
    totals = report.totals()
    as_dict = report.as_dict()
    wall = {
        "tenants": spec.tenants,
        "queries": spec.tenants * spec.queries_per_tenant,
        "wall_seconds": wall_seconds,
    }
    deterministic = {
        "clock_sim_s": report.clock,
        "steps": report.steps,
        "turns": report.turns,
        "pages": totals["pages"],
        "completed": totals["completed"],
        "target_hits": totals["target_hits"],
        "max_waiting": totals["max_waiting"],
        "tta_p50_sim_s": as_dict["tta_p50_sim_s"],
        "tta_p99_sim_s": as_dict["tta_p99_sim_s"],
    }
    return wall, deterministic, _trace_export_benchmarks(serve_once, repeat)


def _trace_export_benchmarks(serve_once: Callable, repeat: int) -> dict:
    """Writing one traced serve run's files: wall time and memory peak.

    The serve row's run, traced, is written as JSONL (spans, quality
    records, metrics snapshot) and as a Chrome trace, and the JSONL is
    validated: the three calls ``python -m repro serve`` makes after a
    run.  ``*_seconds`` are best-of-``repeat``; ``*_peak_kib`` are the
    tracemalloc peaks of one more call.  All are advisory.
    """
    import tempfile
    import tracemalloc
    from pathlib import Path

    from ..obs.cost import COST
    from ..obs.export import export_chrome_trace, export_jsonl, validate_jsonl
    from ..obs.metrics import MetricsRegistry
    from ..obs.quality import QualitySession
    from ..obs.recorder import TraceRecorder

    registry = MetricsRegistry()
    session = QualitySession(metrics=registry)
    with TraceRecorder(metrics=registry) as recorder:
        serve_once(session)
    COST.reset()
    spans, quality, snapshot = recorder.spans, session.records(), registry.snapshot()
    row = {}
    with tempfile.TemporaryDirectory() as tmp:
        jsonl = Path(tmp) / "serve.jsonl"
        calls = {
            "jsonl": lambda: export_jsonl(spans, jsonl, quality=quality,
                                          metrics=snapshot),
            "chrome": lambda: export_chrome_trace(
                spans, jsonl.with_suffix(".chrome.json"), quality=quality),
            "validate": lambda: validate_jsonl(jsonl),
        }
        for name, call in calls.items():
            row[f"{name}_seconds"] = _best_of(
                repeat, lambda: None, lambda _state: call()
            )
            tracemalloc.start()
            try:
                call()
                row[f"{name}_peak_kib"] = tracemalloc.get_traced_memory()[1] / 1024
            finally:
                tracemalloc.stop()
    return row


def _online_agg_benchmarks(n: int, repeat: int) -> dict:
    """Online aggregation: wall time per AVG-to-5% answer.

    Each run answers the same three queries (~1%, ~10% and ~50% of the
    keys) with :func:`~repro.apps.online_agg.aggregate_stream`: AVG(v) until
    the relative CI half-width reaches 5%, the population estimated from
    the tree's node counts.  ``answer_seconds`` is the best run's wall time
    per answer (advisory).  ``progress_sim_seconds`` (simulated time to
    each answer from a reset clock, summed) and ``samples`` are pure
    functions of the seed and gate exactly, so a change that moves where
    an answer crosses its target fails the gate.
    """
    from ..apps.online_agg import aggregate_stream

    relation = _fresh_relation(n)
    tree = build_ace_tree(
        relation, AceBuildParams(key_fields=("k",), height=8, seed=3)
    )
    queries = [Box.of(Interval(0.0, hi)) for hi in (1e7, 1e8, 5e8)]
    value_of = MICRO_SCHEMA.key_getter("v")

    def answer(index: int, query: Box) -> int:
        """One answer; returns its sample size."""
        samples = 0
        for point in aggregate_stream(
            tree.sample(query, seed=index), value_of,
            tree.estimate_count(query), target_relative_width=0.05,
        ):
            samples = point.sample_size
        return samples

    def answer_all(_state) -> None:
        for index, query in enumerate(queries):
            answer(index, query)

    seconds = _best_of(repeat, lambda: None, answer_all)
    sim_seconds = 0.0
    samples = 0
    for index, query in enumerate(queries):
        tree.disk.reset_clock()
        samples += answer(index, query)
        sim_seconds += tree.disk.clock
    return {
        "answers": len(queries),
        "answer_seconds": seconds / len(queries),
        "progress_sim_seconds": sim_seconds,
        "samples": samples,
    }


def _span_overhead_benchmarks(repeat: int) -> dict:
    """Per-span cost of ``TRACER.span`` with tracing off, in ns.

    The call returns the shared no-op singleton without touching any
    clock: what every instrumented site costs an untraced run.
    """
    spans = 50_000

    def loop(_state) -> None:
        span = TRACER.span
        for _ in range(spans):
            with span("micro.noop"):
                pass

    tracer_was = TRACER.enabled
    TRACER.disable()
    try:
        noop_s = _best_of(repeat, lambda: None, loop)
    finally:
        if tracer_was:
            TRACER.enable()
    return {
        "spans_per_run": spans,
        "noop_ns_per_span": noop_s / spans * 1e9,
    }


def _obs_analyze_benchmarks(repeat: int) -> dict:
    """Trace-analytics invariants plus the analyzer's own wall cost.

    Three small traced sampling runs over one tree: two clean same-seed
    runs (their diff must be empty — ``diff_identical`` gates exact) and
    one through the testkit's deliberately broken Shuttle (the diff must
    flag it — ``diff_detects_sabotage``).  The first run's cost ledger
    must conserve (attributed == charged page reads), its exemplar
    retention, critical-path length and flame-stack count are pure
    functions of the seed, and the diff/flame wall timings stay advisory
    under the generic rules.  A private registry and a final
    ``COST.reset()`` keep the process-global telemetry clean.
    """
    from ..obs.analyze import critical_path, diff_traces, exemplar_records, flamegraph_lines
    from ..obs.context import CONTEXT
    from ..obs.cost import COST
    from ..obs.metrics import MetricsRegistry
    from ..obs.recorder import TraceRecorder
    from ..testkit.harness import BrokenCombineStream

    relation = _fresh_relation(4000)
    tree = build_ace_tree(
        relation, AceBuildParams(key_fields=("k",), height=6, seed=3)
    )
    query = Box.of(Interval(0.0, 1e8))

    def traced_run(broken: bool = False):
        registry = MetricsRegistry()
        recorder = TraceRecorder(metrics=registry)
        # Same-seed runs must align on *absolute* simulated timestamps
        # (the diff's comparison basis), so each run starts from a zeroed
        # clock just like a fresh ``trace query`` process.
        relation.disk.reset_clock()
        with recorder:
            with CONTEXT.push(tenant="t0", query="q0"):
                stream = (
                    BrokenCombineStream(tree, query, seed=7) if broken
                    else tree.sample(query, seed=7)
                )
                stream.take(500)
        return recorder.spans, registry.snapshot(), COST.snapshot()

    spans_a, snapshot_a, cost_a = traced_run()
    spans_b, _, _ = traced_run()
    spans_c, _, _ = traced_run(broken=True)
    COST.reset()

    diff_same = diff_traces(spans_a, spans_b)
    diff_other = diff_traces(spans_a, spans_c)
    diff_wall = _best_of(
        repeat, lambda: None, lambda _: diff_traces(spans_a, spans_b)
    )
    flame_wall = _best_of(
        repeat, lambda: None, lambda _: flamegraph_lines(spans_a)
    )
    return {
        "diff_identical": int(diff_same.identical),
        "diff_detects_sabotage": int(not diff_other.identical),
        "cost_conserved": int(cost_a["conserved"]),
        "cost_attributed_reads": cost_a["attributed_reads"],
        "cost_charged_reads": cost_a["charged_reads"],
        "exemplar_count": len(exemplar_records(snapshot_a)),
        "critical_path_steps": len(critical_path(spans_a)),
        "flame_lines": len(flamegraph_lines(spans_a)),
        "diff_wall_seconds": diff_wall,
        "flame_wall_seconds": flame_wall,
    }


def _program_lint_benchmarks(repeat: int) -> dict:
    """Wall time of the whole-program analyzer over the live tree.

    ``python -m repro lint --program`` is a blocking CI job; this section
    keeps its cost visible so the pass stays inside its 5-second budget
    as the call graph grows.  The structural counts are recorded for
    context only (they move with every code change, so the regression
    rules ignore them); the timing gates under the generic wall rules.
    """
    from pathlib import Path

    from ..analysis.program import analyze_program

    root = Path(__file__).resolve().parents[1]
    report = analyze_program(root)
    wall_s = _best_of(repeat, lambda: None, lambda _: analyze_program(root))
    return {
        "wall_seconds": wall_s,
        "files": report.stats["files"],
        "functions": report.stats["functions"],
        "call_edges": report.stats["call_edges"],
        "findings": report.stats["findings"],
    }


def _slug(name: str) -> str:
    """Sampler display name -> JSON key (``"B+ Tree"`` -> ``"b_tree"``)."""
    import re

    return re.sub(r"[^a-z0-9]+", "_", name.lower()).strip("_")


def _figure_benchmarks() -> dict:
    """Deterministic figure-curve points (``fig12`` at small scale).

    Everything here is on the *simulated* clock — a pure function of the
    code and the seed — so ``bench --compare`` gates on it exactly: any
    drift in these numbers is a behavioural change in the sampling engine,
    not machine noise.
    """
    from .figures import clear_context_cache, run_figure

    clear_context_cache()
    try:
        result = run_figure("fig12", scale="small", num_queries=1, seed=0)
        section: dict = {
            "fig12": {
                "scan_seconds_sim_s": result.scan_seconds,
                "samples_emitted": {
                    _slug(name): curves[0].total
                    for name, curves in result.raw.items()
                },
                "pct_at_2": {
                    _slug(name): result.percent_at(name, 2.0)
                    for name in result.curves
                },
                "pct_at_4": {
                    _slug(name): result.percent_at(name, 4.0)
                    for name in result.curves
                },
            }
        }
    finally:
        clear_context_cache()
    return section


def run_micro(n: int = 20_000, repeat: int = 5, figures: bool = False) -> dict:
    """Run the whole micro suite; returns a JSON-ready dictionary."""
    results = {
        "meta": {
            "n_records": n,
            "repeat": repeat,
            "timing": "best of repeat, perf_counter",
            "python": sys.version.split()[0],
        },
        "codec": _codec_benchmarks(n, repeat),
        "external_sort": _sort_benchmarks(n, repeat),
        "ace_build": _build_benchmarks(n, repeat),
        "ace_build_auto": _auto_build_benchmarks(n, repeat),
        "view_refresh": _view_refresh_benchmarks(n, repeat),
        "ace_query": _query_benchmarks(n, repeat),
        "combine_batch": _combine_batch_benchmarks(n, repeat),
        "ace_query_lazy": _lazy_materialization_benchmarks(n, repeat),
        "span_overhead": _span_overhead_benchmarks(repeat),
        "obs_analyze": _obs_analyze_benchmarks(repeat),
        "program_lint": _program_lint_benchmarks(repeat),
    }
    cache_wall, cache_det = _sample_cache_benchmarks(n, repeat)
    results["ace_query_cache"] = cache_wall
    results["sample_cache"] = cache_det
    serve_wall, serve_det, trace_export = _serve_benchmarks(n, repeat)
    results["serve_wall"] = serve_wall
    results["serve"] = serve_det
    results["trace_export"] = trace_export
    results["online_agg"] = _online_agg_benchmarks(n, repeat)
    if figures:
        results["figure_sim"] = _figure_benchmarks()
    if TRACER.enabled:
        results["metrics"] = METRICS.snapshot()
    return results
