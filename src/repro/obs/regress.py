"""Benchmark regression tracking (``repro.obs.regress``).

``python -m repro bench --json`` emits one point of the performance
trajectory (``BENCH_PR1.json``, ``BENCH_PR4.json``, ...).  This module
compares two such points **noise-aware**: metrics are classified by what
kind of number they are, because the two kinds fail differently —

* **deterministic** metrics (simulated-clock seconds, page counts, figure
  curve points, record counts) are pure functions of the code and the
  seed: any change at all is a behavioural difference, so they are
  compared **exactly** and gate CI;
* **wall-clock** metrics (records/s, MB/s, best-of-N seconds) carry
  scheduler and machine noise even with best-of-repeats timing, so they
  are compared with a per-metric relative tolerance and only ever produce
  an **advisory** verdict.

The classifier is a first-match-wins rule table over dotted metric paths
(:data:`DEFAULT_RULES`); :func:`compare_benchmarks` walks the two JSON
trees, :func:`render_diff` prints the human table, and
``RegressionReport.verdict()`` is the machine-readable form the CI job
uploads.  Config keys (``meta.n_records``) must match for the exact gate
to be meaningful — a mismatch is reported as a comparison *error*, not a
regression.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

__all__ = [
    "DEFAULT_RULES",
    "MetricDelta",
    "MetricRule",
    "RegressionReport",
    "compare_benchmarks",
    "flatten_metrics",
    "render_diff",
]

VERDICT_VERSION = 1

#: Keys that must be equal for two result files to be comparable at all.
_CONFIG_KEYS = ("meta.n_records",)

#: Relative tolerance for wall-clock metrics (shared-machine noise floor).
DEFAULT_TOLERANCE = 0.25


@dataclass(frozen=True, slots=True)
class MetricRule:
    """First-match classification of one dotted metric path.

    ``kind`` is one of:

    * ``exact``         — deterministic; any difference is a regression;
    * ``lower_better``  — wall metric where smaller is better (seconds);
    * ``higher_better`` — wall metric where larger is better (throughput);
    * ``ignore``        — environment/meta data, never compared.
    """

    pattern: str
    kind: str

    def matches(self, path: str) -> bool:
        return re.fullmatch(self.pattern, path) is not None


DEFAULT_RULES: tuple[MetricRule, ...] = (
    MetricRule(r"meta\..*", "ignore"),
    MetricRule(r"seed_comparison\..*", "ignore"),
    # Committed BENCH files up to BENCH_PR17.json carry a ``profile``
    # section that newer runs lack; without this rule its counters (e.g.
    # ``profile.counters.ace_query.leaves_read``) would classify as exact
    # and report missing.
    MetricRule(r"profile\..*", "ignore"),
    MetricRule(r"metrics\..*", "ignore"),
    # Trace-analytics invariants: same-seed diffs must stay empty,
    # sabotage must stay detected, and the cost accountant must conserve
    # charged pages — all pure functions of code + seed, gated exact.
    # (diff_wall_seconds / flame_wall_seconds fall through to the generic
    # wall rules below and stay advisory.)
    MetricRule(r"obs_analyze\.(diff_identical|diff_detects_sabotage"
               r"|cost_conserved|cost_attributed_reads|cost_charged_reads"
               r"|exemplar_count|critical_path_steps|flame_lines)",
               "exact"),
    MetricRule(r".*\.best_run_profile_seconds\..*", "ignore"),
    # Whole-program analyzer structure counts: they move with every code
    # change by design (wall_seconds still gates under the generic rules).
    MetricRule(r"program_lint\.(files|functions|call_edges|findings.*)",
               "ignore"),
    # Deterministic: simulated-clock durations and I/O counts ...
    MetricRule(r".*sim_seconds.*", "exact"),
    MetricRule(r".*_sim_s", "exact"),
    MetricRule(
        r".*\.(page_reads|page_writes|pages|leaves_read|stabs|first_k"
        r"|record_size_bytes|spans_per_run|samples|matching_records)",
        "exact",
    ),
    # ... and everything under the figure-curve section.
    MetricRule(r"figure_sim\..*", "exact"),
    MetricRule(r"quality\..*", "exact"),
    # Sample-reuse cache counters and simulated clocks: pure functions of
    # the seed and the cache's LRU arithmetic (wall timings of the cache
    # workload live under ace_query_cache.* instead).
    MetricRule(r"sample_cache\..*", "exact"),
    # Serve-scheduler totals: the interleaving is deterministic, so step,
    # turn, page, and completion counts are pure functions of the seed
    # (wall timings of the serve workload live under serve_wall.*).
    MetricRule(r"serve\..*", "exact"),
    # Memory peaks of the trace-export calls: allocator-dependent, advisory.
    MetricRule(r"trace_export\..*_peak_kib", "lower_better"),
    # Wall-clock: throughputs up, durations down.
    MetricRule(r".*_per_s", "higher_better"),
    MetricRule(r".*(seconds|_ns_per_span|_ns_per_inc)", "lower_better"),
)


def flatten_metrics(tree: dict, prefix: str = "") -> dict[str, float]:
    """Dotted-path -> numeric leaf value (bools/strings/lists skipped)."""
    out: dict[str, float] = {}
    for key, value in tree.items():
        path = f"{prefix}{key}"
        if isinstance(value, dict):
            out.update(flatten_metrics(value, f"{path}."))
        elif isinstance(value, bool):
            continue
        elif isinstance(value, (int, float)):
            out[path] = value
    return out


def classify(path: str, rules: tuple[MetricRule, ...] = DEFAULT_RULES) -> str:
    for rule in rules:
        if rule.matches(path):
            return rule.kind
    return "unclassified"


@dataclass(frozen=True, slots=True)
class MetricDelta:
    """Comparison outcome for one metric path."""

    path: str
    kind: str
    baseline: float | None
    current: float | None
    status: str  # ok | improved | regressed | missing | new
    rel_delta: float | None = None

    @property
    def gating(self) -> bool:
        """True when this row alone should fail the deterministic gate."""
        return self.kind == "exact" and self.status in ("regressed", "missing")

    def as_dict(self) -> dict:
        return {
            "path": self.path, "kind": self.kind,
            "baseline": self.baseline, "current": self.current,
            "status": self.status, "rel_delta": self.rel_delta,
        }


@dataclass
class RegressionReport:
    """Everything :func:`compare_benchmarks` found, plus the verdict."""

    rows: list[MetricDelta] = field(default_factory=list)
    config_errors: list[str] = field(default_factory=list)
    tolerance: float = DEFAULT_TOLERANCE

    @property
    def deterministic_failures(self) -> list[MetricDelta]:
        return [row for row in self.rows if row.gating]

    @property
    def advisory_regressions(self) -> list[MetricDelta]:
        return [
            row for row in self.rows
            if row.kind in ("lower_better", "higher_better")
            and row.status == "regressed"
        ]

    @property
    def improvements(self) -> list[MetricDelta]:
        return [row for row in self.rows if row.status == "improved"]

    @property
    def status(self) -> str:
        if self.config_errors:
            return "config-mismatch"
        if self.deterministic_failures:
            return "deterministic-regression"
        if self.advisory_regressions:
            return "advisory-regression"
        return "ok"

    def exit_code(self) -> int:
        """CI gate: deterministic failures are fatal, wall noise is not."""
        if self.config_errors:
            return 2
        if self.deterministic_failures:
            return 1
        return 0

    def verdict(self) -> dict:
        """Machine-readable verdict (uploaded as a CI artifact)."""
        return {
            "v": VERDICT_VERSION,
            "status": self.status,
            "tolerance": self.tolerance,
            "config_errors": list(self.config_errors),
            "deterministic_failures": [
                row.as_dict() for row in self.deterministic_failures
            ],
            "advisory_regressions": [
                row.as_dict() for row in self.advisory_regressions
            ],
            "improvements": [row.as_dict() for row in self.improvements],
            "compared": sum(
                1 for row in self.rows if row.status not in ("missing", "new")
            ),
        }


def _compare_one(
    path: str,
    kind: str,
    baseline: float | None,
    current: float | None,
    tolerance: float,
) -> MetricDelta:
    if current is None:
        return MetricDelta(path, kind, baseline, None, "missing")
    if baseline is None:
        return MetricDelta(path, kind, None, current, "new")
    if kind == "exact":
        # Deterministic values survive a JSON round-trip bit-exactly, so
        # equality is the right comparison — a one-ulp drift is already a
        # behavioural change worth flagging.
        status = "ok" if current == baseline else "regressed"
        rel = None
        if baseline:
            rel = (current - baseline) / abs(baseline)
        return MetricDelta(path, kind, baseline, current, status, rel)
    if baseline == 0:
        return MetricDelta(path, kind, baseline, current, "ok")
    rel = (current - baseline) / abs(baseline)
    if kind == "higher_better":
        worse, better = rel < -tolerance, rel > tolerance
    else:  # lower_better
        worse, better = rel > tolerance, rel < -tolerance
    status = "regressed" if worse else ("improved" if better else "ok")
    return MetricDelta(path, kind, baseline, current, status, rel)


def compare_benchmarks(
    baseline: dict,
    current: dict,
    tolerance: float = DEFAULT_TOLERANCE,
    rules: tuple[MetricRule, ...] = DEFAULT_RULES,
) -> RegressionReport:
    """Compare two ``bench --json`` result trees.

    Metrics present only in the baseline are *missing* (a deterministic
    gate failure when they are exact — a silently dropped metric would
    otherwise hide a regression forever); metrics present only in the
    current run are *new* and never gate.
    """
    report = RegressionReport(tolerance=tolerance)
    base_flat = flatten_metrics(baseline)
    cur_flat = flatten_metrics(current)
    for key in _CONFIG_KEYS:
        b, c = base_flat.get(key), cur_flat.get(key)
        if b is not None and c is not None and b != c:
            report.config_errors.append(
                f"{key}: baseline ran with {b:g}, current with {c:g}; "
                "deterministic metrics are not comparable across workloads"
            )
    for path in sorted(base_flat.keys() | cur_flat.keys()):
        kind = classify(path, rules)
        if kind in ("ignore", "unclassified"):
            continue
        report.rows.append(
            _compare_one(
                path, kind, base_flat.get(path), cur_flat.get(path), tolerance
            )
        )
    return report


def _fmt_value(value: float | None) -> str:
    if value is None:
        return "-"
    if isinstance(value, int) or float(value).is_integer():
        return f"{value:g}"
    return f"{value:.6g}"


def render_diff(report: RegressionReport, show_ok: bool = False) -> str:
    """Human-readable diff table; interesting rows first."""
    from .report import format_table

    lines = [f"== bench regression report: {report.status} =="]
    for error in report.config_errors:
        lines.append(f"CONFIG ERROR: {error}")
    order = {"regressed": 0, "missing": 1, "new": 2, "improved": 3, "ok": 4}
    rows = sorted(
        report.rows, key=lambda r: (order.get(r.status, 5), r.path)
    )
    if not show_ok:
        rows = [r for r in rows if r.status != "ok"]
    table = [
        [
            row.path,
            row.kind,
            _fmt_value(row.baseline),
            _fmt_value(row.current),
            "-" if row.rel_delta is None else f"{100 * row.rel_delta:+.1f}%",
            row.status.upper() if row.gating else row.status,
        ]
        for row in rows
    ]
    if table:
        lines.append(
            format_table(
                ["metric", "class", "baseline", "current", "delta", "status"],
                table,
            )
        )
    else:
        lines.append("(no differences outside tolerance)")
    summary = report.verdict()
    lines.append(
        f"{summary['compared']} metrics compared, "
        f"{len(report.deterministic_failures)} deterministic failure(s), "
        f"{len(report.advisory_regressions)} advisory regression(s), "
        f"{len(report.improvements)} improvement(s)"
    )
    return "\n".join(lines) + "\n"
