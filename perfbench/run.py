#!/usr/bin/env python3
"""End-to-end sample-view benchmark: one command, three workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload agg-1d --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload serve-bursty --seed 1 --trace 1
    python3 perfbench/run.py --workload all --seed 1
    python3 perfbench/run.py --self-test

``--trace 0`` measures the end-to-end metrics with no wrappers installed.
Its wall metrics are reported in reference seconds: wall time scaled by
the machine speed an interleaved calibration spin measured at the time
(:mod:`speed`), which cancels most of the drift a shared machine adds.
``--trace 1`` is the separate traced run: the same fixed amount of work
twice, once plain and once with every layer entry point wrapped
(:mod:`tracing`).  It reports the per-layer metrics and the tracing
overhead, fails if the two passes' program counts differ, if they differ
from an earlier traced run of the same seed, or if the layer self times
plus the unwrapped remainder miss the traced wall by more than 1 us per
second.  Both print a human-readable table, then, as the last line of
standard output, one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  Any failed correctness or determinism check
makes the command exit 1; a checkout without the program's source exits 2
without printing a result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / ".out"

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Fresh ``python -m repro --help`` processes per run; ``cold_start_s`` is
#: their median.
COLD_STARTS = 5

WORKLOAD_NAMES = ("agg-1d", "serve-bursty", "view-refresh")

#: (name, unit) of every end-to-end metric, in print order.
END_TO_END = (
    ("setup_s", "s"),
    ("queries_per_s", "1/s"),
    ("answer_ms_p50", "ms"),
    ("answer_ms_tail", "ms"),
    ("first_k_ms_p50", "ms"),
    ("tta_sim_tail_s", "sim_s"),
    ("refresh_s", "s"),
    ("cold_start_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: (name, unit) of every per-layer metric of the traced run.
PER_LAYER = (
    ("workloads.generate_s", "s"),
    ("storage.heapfile.bulk_load_s", "s"),
    ("storage.external_sort.self_s", "s"),
    ("storage.external_sort.page_reads", "count"),
    ("storage.external_sort.page_writes", "count"),
    ("acetree.build.self_s", "s"),
    ("acetree.build.bytes_per_user_byte", "ratio"),
    ("acetree.storage.write_leaf_self_s", "s"),
    ("acetree.storage.read_leaf_self_s", "s"),
    ("acetree.storage.leaf_reads", "count"),
    ("acetree.query.next_self_s", "s"),
    ("acetree.query.next_us_p50", "us"),
    ("acetree.query.materialize_s", "s"),
    ("acetree.query.leaves_per_answer", "count"),
    ("acetree.query.samples_per_leaf", "ratio"),
    ("acetree.query.sim_s_per_answer", "sim_s"),
    ("storage.disk.page_reads_per_answer", "count"),
    ("storage.sample_cache.self_s", "s"),
    ("storage.sample_cache.hit_rate", "ratio"),
    ("storage.sample_cache.evictions", "count"),
    ("apps.online_agg.self_s", "s"),
    ("obs.quality.observe_self_s", "s"),
    ("obs.quality.ns_per_record", "ns"),
    ("serve.scheduler.run_self_s", "s"),
    ("serve.scheduler.steps_per_s", "1/s"),
    ("serve.scheduler.steps", "count"),
    ("serve.scheduler.turns", "count"),
    ("serve.scheduler.pages", "count"),
    ("serve.scheduler.tta_sim_p50_s", "sim_s"),
    ("obs.slo.evaluate_s", "s"),
    ("obs.export.jsonl_s", "s"),
    ("obs.export.chrome_s", "s"),
    ("obs.export.validate_s", "s"),
    ("obs.report.render_s", "s"),
    ("obs.export.records", "count"),
    ("view.insert_us_per_record", "us"),
    ("view.delta_merge_self_s", "s"),
    ("view.refresh_self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.unwrapped_s", "s"),
    ("trace.spans", "count"),
)


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile at quantile ``q`` in [0, 1]."""
    return float(np.percentile(values, q * 100))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cold_starts() -> list[tuple[float, float]]:
    """Wall intervals of fresh ``python -m repro --help`` processes."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    intervals = []
    for _ in range(COLD_STARTS):
        start = perf_counter()
        subprocess.run(
            [sys.executable, "-m", "repro", "--help"], cwd=ROOT, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            check=True, timeout=60,
        )
        intervals.append((start, perf_counter()))
    return intervals


def check_inputs(workload, seed: int, tally) -> None:
    """Generated inputs are a pure function of the seed, and depend on it."""
    first = workload.input_digest(seed)
    if workload.input_digest(seed) != first:
        tally.fail("input generator is not a pure function of the seed")
    if workload.input_digest(seed + 1) == first:
        tally.fail("a different seed generated the same inputs")
    tally.attempted += 1


def timed_run(workload, seed: int, seconds: float, tally) -> tuple[dict, dict]:
    """The untraced run: set up several times, then the timed phase.

    Returns the end-to-end metrics twice: wall times in reference seconds
    (:mod:`speed`; these are the reported values) and raw.
    """
    from speed import Speedometer

    setups, builds = [], []
    with Speedometer() as speed:
        for _ in range(SETUP_REPEATS):
            state = None  # let the previous set-up go before the next
            gc.collect()
            start = perf_counter()
            state = workload.setup(seed)
            setups.append((start, perf_counter()))
            builds.append(state.built)
        workload.prepare(state)
        gc.collect()
        workload.timed(state, seconds, tally)
        colds = cold_starts()

    def summary(length) -> dict:
        tail = workload.tail
        answers = [length(iv) for iv in tally.answers]
        return {
            "setup_s": statistics.median(map(length, setups)),
            "queries_per_s": tally.completed / sum(map(length, tally.busy)),
            "answer_ms_p50": percentile(answers, 0.5) * 1e3,
            "answer_ms_tail": percentile(answers, tail) * 1e3,
            "first_k_ms_p50":
                percentile([length(iv) for iv in tally.first_k], 0.5) * 1e3,
            "tta_sim_tail_s": percentile(tally.tta_sim_s, tail),
            "refresh_s": statistics.median(map(length, tally.refreshes or builds)),
            "cold_start_s": statistics.median(map(length, colds)),
            "peak_rss_mb": peak_rss_mb(),
        }

    raw = summary(lambda iv: iv[1] - iv[0])
    raw["machine_speed"] = speed.median_scale()
    return summary(speed.seconds), raw


def traced_run(workload, seed: int, tally) -> dict:
    """The same fixed work untraced, then traced; per-layer metrics."""
    import tracing
    from workloads import Tally
    from repro.obs.context import CONTEXT

    def one_pass(pass_tally):
        gc.collect()
        start = perf_counter()
        state = workload.setup(seed)
        workload.prepare(state)
        counts = workload.fixed(state, pass_tally)
        return counts, perf_counter() - start

    plain_counts, plain_wall = one_pass(Tally())

    tracer = tracing.SpanTracer()
    traced = Tally(tracer=tracer)
    if workload.name == "serve-bursty":
        def serve_query():
            labels = CONTEXT.current()
            query = labels.get("query")
            return f"{labels['tenant']}/{query}" if query else None
        tracer.query = serve_query
    patches = tracing.install(tracer)
    try:
        counts, wall = one_pass(traced)
    finally:
        not_restored = patches.restore()
    tally.failures.extend(traced.failures)
    tally.attempted += traced.attempted
    tally.completed += traced.completed
    tally.answers.extend(traced.answers)
    tracer.write(OUT / f"spans-{workload.name}.jsonl")

    if not_restored:
        tally.fail(f"wrapped attributes not restored: {not_restored}")
    if counts != plain_counts:
        diff = {k: (plain_counts.get(k), counts.get(k))
                for k in set(counts) | set(plain_counts)
                if counts.get(k) != plain_counts.get(k)}
        tally.fail(f"counts differ between the plain and traced pass: {diff}")
    reconciled = tracer.reconcile(wall)
    if not reconciled["ok"]:
        tally.fail(f"layer self times do not reconcile: {reconciled}")

    det = {**counts,
           "sort_page_reads": tracer.counts["storage.external_sort.page_reads"],
           "sort_page_writes": tracer.counts["storage.external_sort.page_writes"],
           "leaf_reads": tracer.calls["acetree.storage.read_leaf"],
           "spans": len(tracer.records)}
    det_path = OUT / f"det-{workload.name}-{seed}.json"
    if det_path.exists():
        previous = json.loads(det_path.read_text())
        if previous != det:
            tally.fail(f"counts differ from an earlier run of seed {seed}: "
                       f"{det_path}")
    else:
        det_path.write_text(json.dumps(det, sort_keys=True) + "\n")

    return layer_metrics(tracer, det, wall / plain_wall, reconciled["remainder_s"])


def layer_metrics(tracer, det: dict, overhead: float, unwrapped: float) -> dict:
    self_s = tracer.self_time
    answers = max(det.get("answers", det.get("completed", 0)), 1)
    leaves = det.get("leaves_read", 0)
    next_durations = tracer.durations["acetree.query.next"]
    cache_lookups = det.get("cache_hits", 0) + det.get("cache_misses", 0)
    observed = tracer.counts["obs.quality.records"]
    inserted = tracer.counts["view.records_inserted"]
    run_wall = tracer.total_time["serve.scheduler.run"]
    return {
        "workloads.generate_s": self_s["workloads.generate"],
        "storage.heapfile.bulk_load_s": self_s["storage.heapfile.bulk_load"],
        "storage.external_sort.self_s": self_s["storage.external_sort"],
        "storage.external_sort.page_reads": det["sort_page_reads"],
        "storage.external_sort.page_writes": det["sort_page_writes"],
        "acetree.build.self_s": self_s["acetree.build"],
        "acetree.build.bytes_per_user_byte":
            det["leaf_store_bytes"] / det["user_bytes"],
        "acetree.storage.write_leaf_self_s": self_s["acetree.storage.write_leaf"],
        "acetree.storage.read_leaf_self_s": self_s["acetree.storage.read_leaf"],
        "acetree.storage.leaf_reads": det["leaf_reads"],
        "acetree.query.next_self_s": self_s["acetree.query.next"],
        "acetree.query.next_us_p50":
            percentile(next_durations, 0.5) * 1e6 if next_durations else 0.0,
        "acetree.query.materialize_s": self_s["acetree.query.materialize"],
        "acetree.query.leaves_per_answer": leaves / answers,
        "acetree.query.samples_per_leaf":
            det.get("records_emitted", 0) / leaves if leaves else 0.0,
        "acetree.query.sim_s_per_answer": det.get("sim_s", 0.0) / answers,
        "storage.disk.page_reads_per_answer":
            det.get("disk_page_reads", det.get("pages", 0)) / answers,
        "storage.sample_cache.self_s": self_s["storage.sample_cache"],
        "storage.sample_cache.hit_rate":
            det.get("cache_hits", 0) / cache_lookups if cache_lookups else 0.0,
        "storage.sample_cache.evictions": det.get("cache_evictions", 0),
        "apps.online_agg.self_s": self_s["apps.online_agg"],
        "obs.quality.observe_self_s": self_s["obs.quality.observe"],
        "obs.quality.ns_per_record":
            self_s["obs.quality.observe"] / observed * 1e9 if observed else 0.0,
        "serve.scheduler.run_self_s": self_s["serve.scheduler.run"],
        "serve.scheduler.steps_per_s":
            det.get("steps", 0) / run_wall if run_wall else 0.0,
        "serve.scheduler.steps": det.get("steps", 0),
        "serve.scheduler.turns": det.get("turns", 0),
        "serve.scheduler.pages": det.get("pages", 0),
        "serve.scheduler.tta_sim_p50_s": det.get("tta_p50_sim_s", 0.0),
        "obs.slo.evaluate_s": self_s["obs.slo.evaluate"],
        "obs.export.jsonl_s": self_s["obs.export.jsonl"],
        "obs.export.chrome_s": self_s["obs.export.chrome"],
        "obs.export.validate_s": self_s["obs.export.validate"],
        "obs.report.render_s": self_s["obs.report.render"],
        "obs.export.records": det.get("exported_records", 0),
        "view.insert_us_per_record":
            self_s["view.insert"] / inserted * 1e6 if inserted else 0.0,
        "view.delta_merge_self_s": self_s["view.delta_merge"],
        "view.refresh_self_s": self_s["view.refresh"],
        "trace.overhead_ratio": overhead,
        "trace.unwrapped_s": unwrapped,
        "trace.spans": det["spans"],
    }


def run_all(args) -> int:
    """Every workload in turn, each in a fresh process; one summary line.

    The summary's metric names are prefixed with the workload name.
    """
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        status = status or done.returncode
        if not lines or done.returncode not in (0, 1):
            summary["correct"] = False
            continue
        result = json.loads(lines[-1])
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="run the benchmark's own self-tests and exit")
    args = parser.parse_args(argv)
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}; run from "
              "the root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)

    if args.self_test:
        import selftest
        return selftest.main()
    if args.workload == "all":
        return run_all(args)

    from workloads import Tally, make_workloads

    workload = make_workloads(OUT)[args.workload]
    tally = Tally()
    check_inputs(workload, args.seed, tally)
    raw = {}
    if args.trace:
        values = traced_run(workload, args.seed, tally)
        units = PER_LAYER
    else:
        values, raw = timed_run(workload, args.seed, args.seconds, tally)
        units = END_TO_END

    failed = len(tally.failures)
    attempted = max(tally.attempted, failed, 1)
    for failure in tally.failures[:20]:
        print(f"FAILED: {failure}", file=sys.stderr)
    answers = len(tally.answers)
    print(f"{workload.name} seed {args.seed} trace {args.trace}: "
          f"{tally.completed} queries, {answers} answers timed "
          f"({answers * (1 - workload.tail):.0f} beyond the "
          f"p{workload.tail * 100:g} tail), "
          f"error_rate {failed / attempted:.4f} ({failed}/{attempted})")
    if raw:
        print(f"  machine speed {raw['machine_speed']:.3f} x reference; "
              "wall metrics in reference seconds (raw in brackets)")
    for name, unit in units:
        extra = f"  [{raw[name]:.6g}]" if name in raw else ""
        print(f"  {name:40s} {values[name]:>14.6g} {unit}{extra}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units},
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
