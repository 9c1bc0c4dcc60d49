"""Command-line entry point: regenerate the paper's figures.

Usage::

    python -m repro figures                 # all figures at medium scale
    python -m repro figures fig12 fig13     # a subset
    python -m repro figures --scale small   # quick smoke run
    python -m repro figures --sanitize ...  # invariant checks first
    python -m repro list                    # show the figure inventory
    python -m repro bench --json            # wall-clock micro-benchmarks
    python -m repro bench --json --baseline BENCH_PR1.json --compare
    python -m repro lint [--json] [PATH...] # static analysis pass
    python -m repro lint --select TST001 tests  # one rule over the tests
    python -m repro trace query             # dual-clock trace + report
    python -m repro trace validate FILE     # schema-check a JSONL trace
    python -m repro trace diff A.jsonl B.jsonl    # align two runs, exit 1 on divergence
    python -m repro trace critical-path FILE      # costliest root-to-leaf chain
    python -m repro trace flame FILE > out.folded # collapsed flamegraph stacks
    python -m repro trace report FILE       # re-render the text report
    python -m repro obs expose --text       # Prometheus text snapshot
    python -m repro obs expose --from trace.jsonl --watch  # live dashboard
    python -m repro testkit fuzz --seed 7   # fault-injection differential fuzz
    python -m repro testkit fuzz --serve    # solo-vs-interleaved serve oracle
    python -m repro testkit replay FILE     # re-run a recorded failing case
    python -m repro serve --workload bursty --tenants 100 --seed 7
                                            # multi-tenant serve run (docs/SERVING.md)

Each figure's series is printed and, with ``--out DIR``, written to
``DIR/<fig>.txt`` (the same format EXPERIMENTS.md quotes).  ``bench`` runs
the :mod:`repro.bench.micro` suite and emits throughput numbers — as JSON
with ``--json`` (the format committed as ``BENCH_PR1.json`` /
``BENCH_PR4.json``), else as a short table; ``--baseline FILE --compare``
diffs the results against a committed baseline with
:mod:`repro.obs.regress` (deterministic simulated-clock metrics compared
exactly and gating the exit code, wall-clock metrics advisory within a
relative tolerance).  ``trace`` runs one operation (a small build, a small
query workload, or full figure experiments) under the :mod:`repro.obs`
tracer and writes a JSONL span file plus a Chrome ``trace_event`` file,
then prints the text report (see docs/OBSERVABILITY.md); the ``query`` and
``figure`` operations additionally attach :mod:`repro.obs.quality`
monitors to every sample stream, so the report and the JSONL carry
uniformity/coverage/time-to-accuracy sections.  ``figures --trace FILE``
does the same around a normal figure run.  ``trace validate FILE``
re-checks an existing JSONL trace against the schemas and exits non-zero
on any violation.

The analytics operations (:mod:`repro.obs.analyze`) work on *existing*
trace files: ``trace diff A B`` aligns two runs by stable span path key
and exits 0 when every replay-stable field matches, 1 on divergence
(naming the first divergent span), 2 on malformed input; ``trace
critical-path FILE`` and ``trace flame FILE`` extract the max-cost
descent and collapsed flamegraph stacks on ``--clock sim|wall|reads``;
``trace report FILE`` re-renders the text report (including cost and
exemplar sections) from a file.  ``bench --compare --trace-baseline
FILE`` auto-invokes the diff on deterministic regressions, and ``trace
query --sabotage combine-drop`` records a deliberately broken run for
the CI smoke test.
"""

from __future__ import annotations

import argparse
import json
import sys
import time  # repro: allow[CLK001] reports real wall seconds per figure run
from pathlib import Path

__all__ = ["main"]


def _figures_arguments(figures: argparse.ArgumentParser) -> None:
    from .presets import FIGURES, SCALES

    figures.add_argument(
        "names",
        nargs="*",
        metavar="FIG",
        help=f"figures to run (default: all of {', '.join(FIGURES)})",
    )
    figures.add_argument(
        "--scale",
        choices=sorted(SCALES),
        default="medium",
        help="relation size preset (default: medium)",
    )
    figures.add_argument(
        "--queries",
        type=int,
        default=None,
        help="override the number of queries averaged per figure",
    )
    figures.add_argument(
        "--out",
        type=Path,
        default=None,
        help="directory to write per-figure text files into",
    )
    figures.add_argument(
        "--seed", type=int, default=0, help="experiment seed (default 0)"
    )
    figures.add_argument(
        "--sanitize",
        action="store_true",
        help="run the ACE-Tree invariant sanitizers (check_tree/check_sample "
        "on a small SALE build) before the figures; fail fast on violation",
    )
    figures.add_argument(
        "--trace",
        type=Path,
        default=None,
        metavar="FILE",
        help="record a dual-clock trace of the whole run to FILE (JSONL; a "
        "Chrome trace_event file is written next to it) and print the report",
    )


def _trace_arguments(trace: argparse.ArgumentParser) -> None:
    from .presets import SCALES

    trace.add_argument(
        "operation",
        choices=("build", "query", "figure", "validate", "diff",
                 "critical-path", "flame", "report"),
        help="what to trace: a small ACE-Tree build, a query workload over a "
        "pre-built (untraced) tree, or figure experiments; 'validate' "
        "instead schema-checks existing JSONL trace file(s); 'diff' "
        "aligns two existing traces and exits 1 on divergence; "
        "'critical-path', 'flame' and 'report' analyze one existing trace",
    )
    trace.add_argument(
        "names",
        nargs="*",
        metavar="FIG|FILE",
        help="figure names for the 'figure' operation (default: fig12); "
        "JSONL file paths for 'validate', 'diff' (exactly two), "
        "'critical-path', 'flame' and 'report' (exactly one)",
    )
    trace.add_argument(
        "--scale",
        choices=sorted(SCALES),
        default="small",
        help="relation size preset for the 'figure' operation (default: small)",
    )
    trace.add_argument(
        "--seed", type=int, default=0, help="experiment seed (default 0)"
    )
    trace.add_argument(
        "--out",
        type=Path,
        default=Path("trace.jsonl"),
        help="JSONL span file to write (default: trace.jsonl); the Chrome "
        "trace goes to the same name with a .chrome.json suffix",
    )
    trace.add_argument(
        "--top",
        type=int,
        default=12,
        help="rows per 'top spans' report table (default 12)",
    )
    trace.add_argument(
        "--clock",
        choices=("sim", "wall", "reads"),
        default="sim",
        help="cost dimension for 'critical-path' and 'flame': simulated "
        "seconds, wall seconds, or charged page reads (default: sim)",
    )
    trace.add_argument(
        "--verdict",
        type=Path,
        default=None,
        metavar="FILE",
        help="'diff': also write the machine-readable verdict record "
        "(a \"kind\": \"diff\" JSON object) to FILE",
    )
    trace.add_argument(
        "--sabotage",
        choices=("combine-drop",),
        default=None,
        help="'query': sample through a deliberately broken Shuttle "
        "(the testkit's combine-drop mutation) so the exported trace "
        "diverges from a clean same-seed run — the CI trace-diff smoke "
        "test's divergent half",
    )


def _lint_arguments(lint: argparse.ArgumentParser) -> None:
    lint.add_argument(
        "paths",
        nargs="*",
        metavar="PATH",
        help="files/directories to lint (default: src/repro)",
    )
    lint.add_argument(
        "--json",
        action="store_true",
        help="emit findings as a JSON array instead of text",
    )
    lint.add_argument(
        "--select",
        metavar="RULE",
        action="append",
        default=None,
        help="run only this rule ID (repeatable), e.g. --select TST001 "
        "to apply the test-hygiene rule to tests/",
    )
    lint.add_argument(
        "--program",
        action="store_true",
        help="run the whole-program pass (call graph, SEED/RACE rules, "
        "call-level layering) over one package root",
    )
    lint.add_argument(
        "--baseline",
        metavar="FILE",
        default=None,
        help="program mode: baseline file of accepted findings "
        "(default: analysis/baseline.json when it exists)",
    )
    lint.add_argument(
        "--update-baseline",
        action="store_true",
        help="program mode: accept the current findings as the new "
        "baseline and exit 0",
    )
    lint.add_argument(
        "--no-baseline",
        action="store_true",
        help="program mode: report every finding, ignoring any baseline",
    )
    lint.add_argument(
        "--sarif",
        metavar="FILE",
        default=None,
        help="program mode: also write findings as SARIF 2.1.0 to FILE",
    )
    lint.add_argument(
        "--fix",
        action="store_true",
        help="rewrite fixable findings in place (MUT001 None-sentinel); "
        "opt-in, edits files under PATH",
    )


def _bench_arguments(bench: argparse.ArgumentParser) -> None:
    bench.add_argument(
        "--json",
        action="store_true",
        help="emit results as JSON on stdout (else a short table)",
    )
    bench.add_argument(
        "--out", type=Path, default=None, help="also write the JSON to a file"
    )
    bench.add_argument(
        "--n", type=int, default=20_000, help="relation size (default 20000)"
    )
    bench.add_argument(
        "--repeat",
        type=int,
        default=5,
        help="timing runs per benchmark; the best is reported (default 5)",
    )
    bench.add_argument(
        "--figures",
        action="store_true",
        help="also run the deterministic figure-curve section (fig12 at "
        "small scale on the simulated clock; exact-compared by --compare)",
    )
    bench.add_argument(
        "--baseline",
        type=Path,
        default=None,
        metavar="FILE",
        help="a committed bench --json result to compare against",
    )
    bench.add_argument(
        "--compare",
        action="store_true",
        help="with --baseline: print the regression diff and gate the exit "
        "code on it (non-zero only for deterministic simulated-clock "
        "regressions; wall-clock drift is advisory)",
    )
    bench.add_argument(
        "--tolerance",
        type=float,
        default=None,
        metavar="REL",
        help="relative tolerance for wall-clock metrics in --compare "
        "(default 0.25)",
    )
    bench.add_argument(
        "--verdict",
        type=Path,
        default=None,
        metavar="FILE",
        help="with --compare: also write the machine-readable verdict JSON",
    )
    bench.add_argument(
        "--trace-baseline",
        type=Path,
        default=None,
        metavar="FILE",
        help="with --compare: on a deterministic regression, record a "
        "fresh 'trace query' run (seed 0) and diff it against this "
        "committed trace, naming the first divergent span",
    )


def _obs_arguments(obs: argparse.ArgumentParser) -> None:
    obs_mode = obs.add_subparsers(dest="obs_command", required=True)
    expose = obs_mode.add_parser(
        "expose",
        help="render a metrics snapshot from the live registry or a "
        "JSONL trace/flight file",
    )
    expose.add_argument(
        "--text",
        action="store_true",
        help="emit the Prometheus text exposition format (default: the "
        "terminal dashboard)",
    )
    expose.add_argument(
        "--watch",
        action="store_true",
        help="redraw the dashboard every --interval seconds for --frames "
        "frames",
    )
    expose.add_argument(
        "--from",
        dest="source",
        type=Path,
        default=None,
        metavar="FILE",
        help="JSONL file to read the metrics snapshot, quality records, "
        "and event tail from (default: this process's registry)",
    )
    expose.add_argument(
        "--check",
        action="store_true",
        help="with --text: re-parse the emitted text with the strict "
        "Prometheus parser and fail on any malformed line",
    )
    expose.add_argument(
        "--frames", type=int, default=5,
        help="dashboard frames to render with --watch (default 5)",
    )
    expose.add_argument(
        "--interval", type=float, default=2.0,
        help="seconds between --watch frames (default 2.0)",
    )
    expose.add_argument(
        "--top", type=int, default=8,
        help="rows per dashboard table (default 8)",
    )


def _serve_arguments(serve: argparse.ArgumentParser) -> None:
    from ..serve.cli import add_serve_parser

    add_serve_parser(serve)


def _testkit_arguments(testkit: argparse.ArgumentParser) -> None:
    from ..testkit.cli import add_testkit_parser

    add_testkit_parser(testkit)


def _run_compare(args, results: dict) -> int:
    """``bench --baseline FILE --compare``: diff current results vs FILE."""
    from ..obs.regress import DEFAULT_TOLERANCE, compare_benchmarks, render_diff

    try:
        baseline = json.loads(args.baseline.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"bench: cannot read baseline {args.baseline}: {exc}",
              file=sys.stderr)
        return 2
    tolerance = args.tolerance if args.tolerance is not None else DEFAULT_TOLERANCE
    report = compare_benchmarks(baseline, results, tolerance=tolerance)
    print(render_diff(report))
    if args.verdict is not None:
        args.verdict.write_text(
            json.dumps(report.verdict(), indent=2, sort_keys=True) + "\n"
        )
    code = report.exit_code()
    if code != 0:
        from ..obs.flight import FLIGHT

        # Deterministic regression: snapshot the run's last moments when a
        # recorder is armed (no-op otherwise).
        FLIGHT.trip("regress-gate")
        if code == 1 and args.trace_baseline is not None:
            _trace_baseline_diff(args.trace_baseline)
    return code


def _trace_baseline_diff(baseline: Path) -> None:
    """Deterministic regression triage: diff a fresh query trace vs FILE.

    ``bench --compare --trace-baseline FILE`` lands here when the exact
    gate fails: a fresh seed-0 ``trace query`` workload is recorded
    in-process and aligned against the committed trace, so the failure
    message names the first divergent span instead of just a metric path.
    """
    from ..obs import diff_traces, render_trace_diff

    records = _load_trace(baseline)
    if records is None:
        return
    recorder, _ = _traced_query_workload(0)
    diff = diff_traces(records, recorder.spans)
    print()
    print("bench: deterministic regression -> trace diff vs committed baseline")
    print(render_trace_diff(diff, a=str(baseline), b="fresh trace query"),
          end="")


def _run_bench(args) -> int:
    from .micro import run_micro

    if args.n <= 0 or args.repeat <= 0:
        print("bench: --n and --repeat must be positive", file=sys.stderr)
        return 2
    if args.compare and args.baseline is None:
        print("bench: --compare requires --baseline FILE", file=sys.stderr)
        return 2
    if args.tolerance is not None and args.tolerance < 0:
        print("bench: --tolerance must be >= 0", file=sys.stderr)
        return 2
    results = run_micro(n=args.n, repeat=args.repeat, figures=args.figures)
    text = json.dumps(results, indent=2, sort_keys=True)
    if args.out is not None:
        args.out.write_text(text + "\n")
    if args.json:
        print(text)
    else:
        codec = results["codec"]
        sort = results["external_sort"]
        build = results["ace_build"]
        print(f"codec   pack {codec['pack_many_mb_per_s']:8.1f} MB/s   "
              f"unpack {codec['unpack_many_mb_per_s']:8.1f} MB/s   "
              f"column {codec['unpack_column_keys_per_s'] / 1e6:6.2f} Mkeys/s")
        print(f"sort    key_field {sort['key_field_records_per_s'] / 1e3:8.1f} krec/s   "
              f"callable {sort['callable_records_per_s'] / 1e3:8.1f} krec/s")
        print(f"build   ace {build['records_per_s'] / 1e3:8.1f} krec/s")
        query = results["ace_query"]
        spans = results["span_overhead"]
        print(f"query   ace {query['samples_per_s'] / 1e3:8.1f} ksamples/s "
              f"(first {query['first_k']})")
        print(f"span    noop {spans['noop_ns_per_span']:6.1f} ns")
    if args.compare:
        return _run_compare(args, results)
    return 0


def _run_sanitize(seed: int) -> int:
    """Build a small SALE tree and run the runtime invariant checkers."""
    from ..acetree import AceBuildParams, build_ace_tree
    from ..analysis.invariants import check_sample, check_tree
    from ..core.errors import InvariantViolation
    from ..storage.cost import CostModel
    from ..storage.disk import SimulatedDisk
    from ..workloads import generate_sale_1d, queries_1d

    disk = SimulatedDisk(page_size=4096, cost=CostModel.scaled(4096))
    sale = generate_sale_1d(disk, num_records=8000, seed=seed)
    tree = build_ace_tree(sale, AceBuildParams(key_fields=("day",), seed=seed))
    try:
        check_tree(tree)
        for query in queries_1d(0.025, 3, seed=seed):
            report = check_sample(tree, query, seed=seed)
            print(
                f"sanitize: query ok (population={report.population_size}, "
                f"chi2={report.chi2:.2f}, p={report.p_value:.3f}, "
                f"pages={report.pages_read})"
            )
    except InvariantViolation as exc:
        print(f"sanitize: INVARIANT VIOLATION: {exc}", file=sys.stderr)
        return 1
    print("sanitize: all invariants hold")
    return 0


def _export_trace(recorder, out: Path, top: int = 12, quality=None) -> int:
    """Write a finished recorder and its ``quality`` records; validate, report."""
    from ..obs import (
        COST,
        cost_record,
        exemplar_records,
        export_chrome_trace,
        export_jsonl,
        render_report,
        validate_jsonl,
    )

    chrome = out.with_suffix(".chrome.json")
    snapshot = recorder.metrics.snapshot() if recorder.metrics is not None else None
    # The accountant was disarmed (not reset) at recorder uninstall, so
    # its ledger still holds this run's attribution + conservation check.
    cost = COST.snapshot()
    extra = exemplar_records(snapshot) + [cost_record(cost)]
    lines = export_jsonl(recorder.spans, out, quality=quality,
                         metrics=snapshot, extra=extra)
    events = export_chrome_trace(recorder.spans, chrome, quality=quality)
    errors = validate_jsonl(out)
    if errors:
        for error in errors:
            print(f"trace: INVALID {out}: {error}", file=sys.stderr)
        return 1
    print(f"trace: {lines} records -> {out} (valid JSONL), "
          f"{events} events -> {chrome}")
    print()
    print(render_report(recorder.spans, recorder.metrics, top=top,
                        quality=quality, cost=cost))
    return 0


#: Record kinds the dashboard's flight tail shows (a flight dump's events).
_EVENT_KINDS = ("span", "metric", "fault", "quality")


def _load_exposition_source(path: Path):
    """(snapshot, quality records, event tail) from one JSONL file.

    Works for ordinary traces (the appended ``"kind": "metrics"`` record
    supplies the snapshot) and for flight dumps (the event lines supply
    the tail); missing pieces degrade to empty.  An invalid file raises
    ``ValueError`` with its first error.
    """
    from ..obs import read_trace

    trace = read_trace(path)
    if trace.errors:
        raise ValueError(trace.errors[0])
    events = [r for r in trace.records if r["kind"] in _EVENT_KINDS]
    return trace.last("metrics") or {}, trace.of_kind("quality"), events


def _run_obs(args) -> int:
    """``python -m repro obs expose``: Prometheus text or terminal dashboard."""
    from ..obs import (
        FLIGHT,
        METRICS,
        evaluate_slos,
        parse_prometheus_text,
        prometheus_text,
        render_dashboard,
    )

    def load():
        if args.source is not None:
            return _load_exposition_source(args.source)
        return METRICS.snapshot(), [], FLIGHT.snapshot()

    try:
        snapshot, quality, events = load()
    except (OSError, ValueError) as exc:
        print(f"obs expose: cannot read {args.source}: {exc}", file=sys.stderr)
        return 2

    if args.text:
        text = prometheus_text(snapshot)
        if args.check:
            try:
                parse_prometheus_text(text)
            except ValueError as exc:
                print(f"obs expose: emitted text failed to parse: {exc}",
                      file=sys.stderr)
                return 1
        sys.stdout.write(text)
        return 0

    frames = max(1, args.frames) if args.watch else 1
    for frame in range(frames):
        if frame:
            time.sleep(max(0.0, args.interval))
            try:
                snapshot, quality, events = load()
            except (OSError, ValueError) as exc:
                print(f"obs expose: cannot read {args.source}: {exc}",
                      file=sys.stderr)
                return 2
            # ANSI home+clear between frames: a stable in-place redraw.
            sys.stdout.write("\x1b[H\x1b[2J")
        statuses = evaluate_slos(quality=quality, metrics=snapshot)
        sys.stdout.write(render_dashboard(
            snapshot, slo_statuses=statuses, flight_events=events,
            top=args.top,
        ))
        sys.stdout.flush()
    return 0


def _run_validate(paths) -> int:
    """``python -m repro trace validate FILE...``: schema-check JSONL files."""
    from ..obs import validate_jsonl

    if not paths:
        print("trace validate: need at least one JSONL file", file=sys.stderr)
        return 2
    failed = 0
    for path in paths:
        try:
            errors = validate_jsonl(path)
        except OSError as exc:
            print(f"trace: INVALID {path}: {exc}", file=sys.stderr)
            failed += 1
            continue
        if errors:
            failed += 1
            for error in errors:
                print(f"trace: INVALID {path}: {error}", file=sys.stderr)
        else:
            print(f"trace: {path} valid")
    return 1 if failed else 0


def _load_trace(path: Path):
    """One validated JSONL trace (a :class:`~repro.obs.TraceFile`), or None
    after printing its errors."""
    from ..obs import read_trace

    try:
        trace = read_trace(path)
    except OSError as exc:
        print(f"trace: INVALID {path}: {exc}", file=sys.stderr)
        return None
    for error in trace.errors:
        print(f"trace: INVALID {path}: {error}", file=sys.stderr)
    return None if trace.errors else trace


def _run_trace_diff(args) -> int:
    """``trace diff A.jsonl B.jsonl``: exit 0 identical, 1 divergent, 2 bad."""
    from ..obs import diff_traces, diff_verdict_record, render_trace_diff

    if len(args.names) != 2:
        print("trace diff: need exactly two JSONL trace files",
              file=sys.stderr)
        return 2
    path_a, path_b = (Path(name) for name in args.names)
    trace_a = _load_trace(path_a)
    trace_b = _load_trace(path_b)
    if trace_a is None or trace_b is None:
        return 2
    diff = diff_traces(trace_a.spans, trace_b.spans)
    print(render_trace_diff(diff, a=str(path_a), b=str(path_b)), end="")
    if args.verdict is not None:
        args.verdict.write_text(json.dumps(
            diff_verdict_record(diff, a=path_a, b=path_b),
            indent=2, sort_keys=True,
        ) + "\n")
    return 0 if diff.identical else 1


def _run_trace_analysis(args) -> int:
    """``trace critical-path|flame|report FILE`` over one existing trace."""
    if len(args.names) != 1:
        print(f"trace {args.operation}: need exactly one JSONL trace file",
              file=sys.stderr)
        return 2
    path = Path(args.names[0])
    trace = _load_trace(path)
    if trace is None:
        return 2
    records = trace.spans
    if args.operation == "critical-path":
        from ..obs import critical_path, render_critical_path

        rows = critical_path(records, clock=args.clock)
        print(render_critical_path(rows, clock=args.clock), end="")
        return 0
    if args.operation == "flame":
        from ..obs import flamegraph_lines, render_flamegraph_summary

        lines = flamegraph_lines(records, clock=args.clock)
        for line in lines:
            print(line)
        print(render_flamegraph_summary(lines, clock=args.clock),
              file=sys.stderr)
        return 0
    # 'report': re-render the full text report from the file's records.
    from ..obs import render_report

    print(render_report(
        records, trace.last("metrics"), top=args.top,
        quality=trace.of_kind("quality"), cost=trace.last("cost"),
    ))
    return 0


def _traced_query_workload(seed: int, sabotage: str | None = None):
    """The standard traced query workload; returns ``(recorder, quality)``.

    Shared by ``trace query`` and bench's ``--trace-baseline`` auto-diff
    so both produce path-alignable traces.  ``sabotage="combine-drop"``
    swaps the sampler for the testkit's deliberately broken Shuttle,
    producing a run that a diff against a clean same-seed trace must
    flag.
    """
    from ..acetree import AceBuildParams, build_ace_tree
    from ..obs import CONTEXT, METRICS, QualitySession, TraceRecorder
    from ..storage.cost import CostModel
    from ..storage.disk import SimulatedDisk
    from ..workloads import generate_sale_1d, queries_1d

    METRICS.reset()
    recorder = TraceRecorder(metrics=METRICS)
    disk = SimulatedDisk(page_size=4096, cost=CostModel.scaled(4096))
    sale = generate_sale_1d(disk, num_records=8000, seed=seed)
    params = AceBuildParams(key_fields=("day",), seed=seed)
    # Build untraced so the trace isolates the query path — every page
    # read then happens under a stab/flush span and the report's
    # leaf-span attribution covers (essentially) all of them.
    tree = build_ace_tree(sale, params)
    disk.reset_clock()
    quality = QualitySession(metrics=METRICS)
    key_of = tree.schema.key_getter("day")

    def make_stream(query, stream_seed):
        if sabotage == "combine-drop":
            from ..testkit.harness import BrokenCombineStream

            return BrokenCombineStream(tree, query, seed=stream_seed)
        return tree.sample(query, seed=stream_seed)

    with recorder:
        for query_index, query in enumerate(queries_1d(0.025, 3, seed=seed)):
            side = query.sides[0]
            # Alternate a synthetic tenant per query: the exported trace's
            # quality records and cost ledger then carry genuine
            # multi-tenant rows for the report's per-label tables.
            with CONTEXT.push(tenant=f"t{query_index % 2}",
                              query=f"q{query_index}"):
                monitor = quality.monitor(
                    f"query{query_index}",
                    key_of=key_of,
                    lo=side.lo,
                    hi=side.hi,
                    group="ACE Tree",
                    population=tree.estimate_count(query),
                )
                start = disk.clock
                stream = make_stream(query, seed + query_index)
                # Same break condition as SampleStream.take(2000) — the wrap
                # generator only observes, so the simulated clock is untouched.
                taken = 0
                for batch in monitor.wrap(stream, start_sim=start):
                    taken += len(batch.records)
                    if taken >= 2000:
                        break
    quality.finalize()
    return recorder, quality


def _known_figures(names) -> bool:
    """True when every name is a known figure; else report the unknown ones."""
    from .presets import FIGURES

    unknown = [name for name in names if name not in FIGURES]
    if unknown:
        print(f"unknown figure(s): {', '.join(unknown)}; "
              f"known: {', '.join(FIGURES)}", file=sys.stderr)
    return not unknown


def _run_trace(args) -> int:
    """``python -m repro trace <build|query|figure|validate|...>``."""
    if args.operation == "validate":
        return _run_validate(args.names)
    if args.operation == "diff":
        return _run_trace_diff(args)
    if args.operation in ("critical-path", "flame", "report"):
        return _run_trace_analysis(args)
    if args.operation != "figure" and args.names:
        print("trace: figure names only apply to the 'figure' operation",
              file=sys.stderr)
        return 2
    if args.sabotage is not None and args.operation != "query":
        print("trace: --sabotage only applies to the 'query' operation",
              file=sys.stderr)
        return 2

    if args.operation == "figure":
        names = args.names or ["fig12"]
        if not _known_figures(names):
            return 2
        from ..obs import METRICS, QualitySession, TraceRecorder
        from .figures import clear_context_cache, run_figure

        METRICS.reset()
        recorder = TraceRecorder(metrics=METRICS)
        quality = QualitySession(metrics=METRICS)
        clear_context_cache()  # so the context build is traced too
        try:
            with recorder:
                for name in names:
                    run_figure(name, scale=args.scale, seed=args.seed,
                               quality=quality)
        finally:
            clear_context_cache()
        return _export_trace(recorder, args.out, top=args.top, quality=quality.records())

    if args.operation == "build":
        from ..acetree import AceBuildParams, build_ace_tree
        from ..obs import METRICS, TraceRecorder
        from ..storage.cost import CostModel
        from ..storage.disk import SimulatedDisk
        from ..workloads import generate_sale_1d

        METRICS.reset()
        recorder = TraceRecorder(metrics=METRICS)
        disk = SimulatedDisk(page_size=4096, cost=CostModel.scaled(4096))
        sale = generate_sale_1d(disk, num_records=8000, seed=args.seed)
        with recorder:
            build_ace_tree(sale, AceBuildParams(key_fields=("day",),
                                                seed=args.seed))
        return _export_trace(recorder, args.out, top=args.top)

    recorder, quality = _traced_query_workload(args.seed,
                                               sabotage=args.sabotage)
    return _export_trace(recorder, args.out, top=args.top, quality=quality.records())


def _run_figures(args) -> int:
    """``python -m repro figures [FIG...]``: run and print the experiments."""
    from .presets import FIGURES

    names = args.names or list(FIGURES)
    if not _known_figures(names):
        return 2
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
    if args.sanitize:
        status = _run_sanitize(args.seed)
        if status != 0:
            return status
    from .figures import run_figure
    from .report import format_figure

    recorder = None
    quality = None
    if args.trace is not None:
        from ..obs import METRICS, QualitySession, TraceRecorder

        METRICS.reset()
        recorder = TraceRecorder(metrics=METRICS)
        recorder.install()
        quality = QualitySession(metrics=METRICS)
    try:
        for name in names:
            started = time.time()
            result = run_figure(
                name, scale=args.scale, num_queries=args.queries,
                seed=args.seed, quality=quality,
            )
            text = format_figure(result)
            print(text)
            print(f"[{name}: {time.time() - started:.1f}s wall]")
            print()
            if args.out is not None:
                (args.out / f"{name}.txt").write_text(text + "\n")
    finally:
        if recorder is not None:
            recorder.uninstall()
    if recorder is not None:
        return _export_trace(recorder, args.trace, quality=quality.records())
    return 0


def _run_list(args) -> int:
    """``python -m repro list``: the figure inventory."""
    from .presets import FIGURES

    for name, spec in FIGURES.items():
        print(f"{name:7s}  {spec.title}")
        print(f"         paper shape: {spec.expected_shape}")
    return 0


def _run_lint(args) -> int:
    from ..analysis.cli import run_lint

    return run_lint(
        args.paths,
        as_json=args.json,
        select=args.select,
        program=args.program,
        baseline=args.baseline,
        update_baseline=args.update_baseline,
        no_baseline=args.no_baseline,
        sarif=args.sarif,
        fix=args.fix,
    )


def _run_serve(args) -> int:
    from ..serve.cli import run_serve

    return run_serve(args)


def _run_testkit(args) -> int:
    from ..testkit.cli import run_testkit

    return run_testkit(args)


#: Every subcommand in ``--help`` order: its one-line help, the function
#: that adds its arguments to its subparser (None: it takes none) and the
#: function that runs it.  Only the chosen subcommand's arguments are
#: built, and each of these imports the engine only on the paths that use
#: it, so ``--help``, ``list``, ``lint``, ``obs`` and the ``trace``
#: operations on existing files start without numpy or scipy.
_COMMANDS = {
    "figures": ("run figure experiments", _figures_arguments, _run_figures),
    "list": ("list the figure inventory", None, _run_list),
    "trace": (
        "run one operation under the dual-clock tracer and report on it",
        _trace_arguments, _run_trace,
    ),
    "lint": (
        "run the repro static analysis pass (see docs/ANALYSIS.md)",
        _lint_arguments, _run_lint,
    ),
    "bench": (
        "run wall-clock micro-benchmarks of the implementation",
        _bench_arguments, _run_bench,
    ),
    "obs": (
        "telemetry exposition: Prometheus text or a live terminal "
        "dashboard (see docs/OBSERVABILITY.md)",
        _obs_arguments, _run_obs,
    ),
    "serve": (
        "serve a seeded multi-tenant workload through the deterministic "
        "scheduler and report per-tenant time-to-accuracy (docs/SERVING.md)",
        _serve_arguments, _run_serve,
    ),
    "testkit": (
        "fault-injection fuzzing of the samplers against a brute-force "
        "oracle (see docs/TESTING.md)",
        _testkit_arguments, _run_testkit,
    ),
}


def _build_parser(argv: list[str]) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the evaluation figures of the ACE Tree paper.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # The top level takes no option but -h, so the first argument that is
    # not an option names the subcommand.
    chosen = next((arg for arg in argv if not arg.startswith("-")), None)
    for name, (text, add_arguments, _) in _COMMANDS.items():
        command = sub.add_parser(name, help=text)
        if name == chosen and add_arguments is not None:
            add_arguments(command)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser(argv).parse_args(argv)
    return _COMMANDS[args.command][2](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
