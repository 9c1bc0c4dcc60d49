"""``python -m repro serve``: run a seeded multi-tenant serve workload.

Builds a small SALE relation and ACE tree, replays a seeded arrival
workload through the :class:`~repro.serve.scheduler.ServeScheduler` under
the dual-clock tracer, and reports:

* per-tenant time-to-accuracy p50/p99 (simulated seconds, queue wait
  included) through the standard quality monitors;
* SLO status + burn-rate alerts over the run's quality records;
* the per-tenant page-budget audit against the cost accountant;
* the usual validated JSONL/Chrome trace export.

Two runs with the same seed produce bit-identical traces — the CI
serve-smoke job proves it with ``trace diff``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from ..obs.quality import QualityConfig
from .scheduler import ServeConfig, ServeReport, ServeScheduler
from .workload import WORKLOAD_SHAPES, Workload, WorkloadSpec

__all__ = ["add_serve_parser", "render_serve_report", "run_serve"]

#: The quality monitor's time-to-accuracy targets, the values ``--epsilon``
#: accepts besides 0.
_TARGETS_TEXT = ", ".join(f"{t:g}" for t in QualityConfig().tta_targets)


def add_serve_parser(serve) -> None:
    """Add the ``serve`` arguments to its (created) subparser."""
    serve.add_argument(
        "--workload", choices=WORKLOAD_SHAPES, default="bursty",
        help="arrival shape (default: bursty)",
    )
    serve.add_argument(
        "--tenants", type=int, default=8,
        help="number of tenants (default 8)",
    )
    serve.add_argument(
        "--queries", type=int, default=2,
        help="queries per tenant (default 2)",
    )
    serve.add_argument(
        "--seed", type=int, default=0, help="workload seed (default 0)"
    )
    serve.add_argument(
        "--closed-loop", action="store_true",
        help="closed-loop arrivals: each tenant submits its next query one "
        "think-gap after the previous one completes (default: open-loop)",
    )
    serve.add_argument(
        "--records", type=int, default=8000,
        help="SALE relation size served from (default 8000)",
    )
    serve.add_argument(
        "--queue-cap", type=int, default=256,
        help="bounded admission queue size (default 256)",
    )
    serve.add_argument(
        "--quantum", type=int, default=8,
        help="DRR quantum in page reads (default 8)",
    )
    serve.add_argument(
        "--budget", type=int, default=None,
        help="per-tenant page budget (default: unlimited)",
    )
    serve.add_argument(
        "--epsilon", type=float, default=0.05,
        help="relative CI half-width at which a query is answered, one of "
        f"{_TARGETS_TEXT} (default 0.05; 0 disables and drains streams to "
        "exhaustion)",
    )
    serve.add_argument(
        "--max-samples", type=int, default=4000,
        help="per-query sample cap (default 4000)",
    )
    serve.add_argument(
        "--out", type=Path, default=Path("serve.jsonl"),
        help="JSONL trace file to write (default: serve.jsonl); the serve "
        "report JSON goes to the same name with a .report.json suffix",
    )
    serve.add_argument(
        "--top", type=int, default=12,
        help="rows per report table (default 12)",
    )


def _build_serving_tree(records: int, seed: int):
    """A fresh disk + SALE relation + ACE tree, clock zeroed post-build."""
    from ..acetree import AceBuildParams, build_ace_tree
    from ..storage.cost import CostModel
    from ..storage.disk import SimulatedDisk
    from ..workloads import generate_sale_1d

    disk = SimulatedDisk(page_size=4096, cost=CostModel.scaled(4096))
    sale = generate_sale_1d(disk, num_records=records, seed=seed)
    tree = build_ace_tree(sale, AceBuildParams(key_fields=("day",), seed=seed))
    disk.reset_clock()
    return tree


def render_serve_report(report: ServeReport, top: int = 12) -> str:
    data = report.as_dict()
    totals = data["totals"]
    lines = []
    lines.append("serve report")
    lines.append(
        f"  sim clock {data['clock']:.4f}s   steps {data['steps']}   "
        f"turns {data['turns']}"
    )
    lines.append(
        f"  arrived {totals['arrived']}   admitted {totals['admitted']}   "
        f"rejected queue/budget {totals['rejected_queue']}"
        f"/{totals['rejected_budget']}   completed {totals['completed']}"
    )
    p50, p99 = data["tta_p50_sim_s"], data["tta_p99_sim_s"]
    lines.append(
        "  time-to-accuracy (sim s, queue wait included): "
        f"p50 {p50:.4f}   p99 {p99:.4f}" if p50 is not None else
        "  time-to-accuracy: no query reached the target"
    )
    lines.append(
        f"  max scheduling-turn wait of any runnable tenant: "
        f"{totals['max_waiting']}"
    )
    audit = data["budget_audit"]
    if audit["checked"]:
        verdict = "ok" if audit["ok"] else "LEAK DETECTED"
        lines.append(f"  page-budget audit vs obs.cost: {verdict}")
        if not audit["ok"]:
            for name, entry in audit["tenants"].items():
                if entry.get("ok") is False:
                    lines.append(
                        f"    {name}: scheduler {entry['scheduler']} != "
                        f"attributed {entry['attributed']}"
                    )
            for name in audit["stray_tenants"]:
                lines.append(f"    stray attributed tenant label: {name}")
    else:
        lines.append("  page-budget audit: skipped (accountant not armed)")
    lines.append("")
    lines.append(f"  {'tenant':8s} {'done':>4s} {'hit':>4s} {'pages':>7s} "
                 f"{'p50':>8s} {'p99':>8s} {'rejQ':>5s} {'rejB':>5s}")
    for name, stats in list(data["tenants"].items())[:top]:
        p50 = stats["tta_p50_sim_s"]
        p99 = stats["tta_p99_sim_s"]
        lines.append(
            f"  {name:8s} {stats['completed']:>4d} {stats['target_hits']:>4d} "
            f"{stats['pages']:>7d} "
            + (f"{p50:>8.4f} " if p50 is not None else f"{'-':>8s} ")
            + (f"{p99:>8.4f} " if p99 is not None else f"{'-':>8s} ")
            + f"{stats['rejected_queue']:>5d} {stats['rejected_budget']:>5d}"
        )
    hidden = len(data["tenants"]) - top
    if hidden > 0:
        lines.append(f"  ... {hidden} more tenants in the report JSON")
    return "\n".join(lines)


def _render_slo_lines(statuses) -> str:
    """A compact SLO table: one row per (objective, label set)."""
    if not statuses:
        return "slo: no objectives evaluated"
    lines = ["slo status (burn-rate alerts marked FIRING)"]
    for status in statuses:
        labels = status.labels or "(aggregate)"
        value = "-" if status.value is None else f"{status.value:.3f}"
        flag = "FIRING" if status.firing else "ok"
        lines.append(
            f"  {status.objective:28s} {labels:24s} "
            f"value {value:>7s}  bad {status.bad}/{status.events}  {flag}"
        )
    return "\n".join(lines)


def run_serve(args) -> int:
    from ..bench.cli import _export_trace
    from ..obs import METRICS, QualitySession, TraceRecorder, evaluate_slos

    if args.tenants <= 0 or args.queries <= 0 or args.records <= 0:
        print("serve: --tenants, --queries and --records must be positive",
              file=sys.stderr)
        return 2

    config = ServeConfig(
        queue_cap=args.queue_cap,
        quantum_pages=args.quantum,
        page_budget=args.budget,
        target_epsilon=args.epsilon if args.epsilon > 0 else None,
        max_samples=args.max_samples,
    )
    session = QualitySession(metrics=METRICS)
    if (config.target_epsilon is not None
            and config.target_epsilon not in session.config.tta_targets):
        print(f"serve: --epsilon must be 0 or one of {_TARGETS_TEXT}",
              file=sys.stderr)
        return 2

    METRICS.reset()
    recorder = TraceRecorder(metrics=METRICS)
    # Build untraced (like `trace query`): the trace isolates the serving
    # interleaving, so same-seed runs align span-for-span.
    tree = _build_serving_tree(args.records, args.seed)
    # Query bounds live on the indexed key's actual domain.
    domain = tree.geometry.domain.sides[0]
    spec = WorkloadSpec(
        shape=args.workload,
        tenants=args.tenants,
        queries_per_tenant=args.queries,
        closed_loop=args.closed_loop,
        key_lo=domain.lo,
        key_hi=domain.hi,
    )
    workload = Workload(spec, seed=args.seed)
    with recorder:
        scheduler = ServeScheduler(
            tree, workload, config, session=session,
        )
        report = scheduler.run()

    quality_records = session.records()
    statuses = evaluate_slos(quality=quality_records,
                             metrics=METRICS.snapshot())
    report.slo = [status.as_dict() for status in statuses]

    report_path = args.out.with_suffix(".report.json")
    report_path.write_text(
        json.dumps(report.as_dict(), indent=2, sort_keys=True) + "\n"
    )
    status = _export_trace(recorder, args.out, top=args.top, quality=quality_records)
    print()
    print(render_serve_report(report, top=args.top))
    print(f"\nserve: report JSON -> {report_path}")
    print()
    print(_render_slo_lines(statuses))
    return status
