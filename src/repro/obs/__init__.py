"""Dual-clock observability: hierarchical tracing + metrics (``repro.obs``).

The paper's whole evaluation is *time-resolved* — "% of the relation
returned as a valid sample vs. elapsed time" — so understanding a run means
knowing **where the time went on both clocks**: real wall-clock seconds
(what the Python implementation costs us) and simulated-disk seconds (what
the modeled hardware would charge).  This package provides that view:

* :mod:`repro.obs.tracer` — a hierarchical span tracer.  A *span* wraps one
  operation (a build phase, a sort run, a Shuttle stab, a leaf read) and
  records both clocks at entry/exit plus the simulated page-read/write
  deltas, structured attributes, and its position in the per-operation
  trace tree.  When tracing is disabled the ``span()`` call returns a
  shared no-op object and reads no clock, so instrumentation can stay in
  hot paths.  This is the one instrumentation path: per-phase wall time
  comes from a traced run, and counts from metrics or the engine's own
  statistics.
* :mod:`repro.obs.metrics` — counters, gauges, and fixed-bucket histograms
  (records-per-page-read, stab depth, time-to-first-k-samples, ...): one
  aggregate value per metric, with span exemplars on histograms.
* :mod:`repro.obs.context` — the thread-local telemetry context:
  ``CONTEXT.push(tenant=..., query=...)`` scopes baggage that quality
  records, exemplars and cost attribution pick up automatically (bounded
  key vocabulary).
* :mod:`repro.obs.flight` — the flight recorder: a bounded ring of recent
  spans/metric updates/faults/quality records, auto-dumped (valid JSONL)
  when the oracle, storage recovery, or the regression gate trips.
* :mod:`repro.obs.slo` — multi-window burn-rate SLO evaluation on the
  simulated clock, per quality-record label set (deterministic per seed).
* :mod:`repro.obs.expose` — Prometheus text exposition (with a strict
  parser for CI round-trips) and the terminal dashboard behind
  ``python -m repro obs expose``.
* :mod:`repro.obs.recorder` — :class:`TraceRecorder` collects finished
  spans and derives histogram observations from them.
* :mod:`repro.obs.export` — streamed JSONL and Chrome ``trace_event``
  exporters (load the latter in ``chrome://tracing`` or Perfetto), a
  schema validator for the JSONL form, and ``read_trace``, the one-pass
  reader of a JSONL trace or flight dump.
* :mod:`repro.obs.report` — the text report behind ``python -m repro
  trace``: top spans by wall and simulated cost, page-read attribution,
  the per-level stab table, and the sampling-rate timeline.
* :mod:`repro.obs.analyze` — trace analytics: stable span path keys, the
  run-divergence diff behind ``python -m repro trace diff``, critical-path
  extraction, and collapsed-stack flamegraph export on either clock.
* :mod:`repro.obs.cost` — the cost accountant: attributes every charged
  page read/write to the ambient tenant/query/sampler context with a
  conservation check against the simulated disks' own totals.

Layering: ``obs`` sits beside ``core`` at the bottom of the package graph
(lint rule LAY001); its one import from the library is the leaf
:mod:`repro.core.stats` (this ``__init__`` also uses the engine-free
:mod:`repro._lazy`, which imports each public name's module on first use).
Every layer reports into it, so it must not depend on any of them.  The
simulated clock is only ever *read* (``disk.clock`` / ``disk.stats``
deltas at span boundaries), never charged: a traced run is bit-identical
to an untraced one on the simulated clock, and golden figure outputs do
not move.

See ``docs/OBSERVABILITY.md`` for the span taxonomy and how to read traces.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

__all__ = [
    "BurnWindow",
    "CONTEXT",
    "COST",
    "CostAccountant",
    "Counter",
    "FLIGHT",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "LABEL_KEYS",
    "METRICS",
    "MetricsRegistry",
    "NOOP_SPAN",
    "Objective",
    "QualityConfig",
    "QualitySession",
    "RegressionReport",
    "SloStatus",
    "SpanRecord",
    "StreamQualityMonitor",
    "TRACER",
    "TelemetryContext",
    "TraceDiff",
    "TraceFile",
    "TraceRecorder",
    "Tracer",
    "compare_benchmarks",
    "cost_record",
    "critical_path",
    "default_objectives",
    "diff_event_views",
    "diff_traces",
    "diff_verdict_record",
    "evaluate_slos",
    "exemplar_records",
    "export_chrome_trace",
    "export_jsonl",
    "flamegraph_lines",
    "page_read_attribution",
    "parse_prometheus_text",
    "prometheus_text",
    "quality_sections",
    "read_trace",
    "render_critical_path",
    "render_dashboard",
    "render_flamegraph_summary",
    "render_diff",
    "render_report",
    "render_trace_diff",
    "span_aggregates",
    "span_paths",
    "strip_wall_keys",
    "to_chrome_trace",
    "trace_roots",
    "validate_jsonl",
]

#: Each public name under the submodule that defines it; a submodule is
#: imported on the first use of one of its names, so the engine's imports
#: of single obs modules do not load the rest.
_EXPORTS = {
    "analyze": ("TraceDiff", "cost_record", "critical_path",
                "diff_event_views", "diff_traces", "diff_verdict_record",
                "exemplar_records", "flamegraph_lines",
                "render_critical_path", "render_flamegraph_summary",
                "render_trace_diff", "span_paths", "trace_roots"),
    "context": ("CONTEXT", "LABEL_KEYS", "TelemetryContext"),
    "cost": ("COST", "CostAccountant"),
    "export": ("TraceFile", "export_chrome_trace", "export_jsonl",
               "read_trace", "strip_wall_keys", "to_chrome_trace",
               "validate_jsonl"),
    "expose": ("parse_prometheus_text", "prometheus_text", "render_dashboard"),
    "flight": ("FLIGHT", "FlightRecorder"),
    "metrics": ("METRICS", "Counter", "Gauge", "Histogram", "MetricsRegistry"),
    "quality": ("QualityConfig", "QualitySession", "StreamQualityMonitor"),
    "recorder": ("TraceRecorder",),
    "regress": ("RegressionReport", "compare_benchmarks", "render_diff"),
    "report": ("page_read_attribution", "quality_sections", "render_report",
               "span_aggregates"),
    "slo": ("BurnWindow", "Objective", "SloStatus", "default_objectives",
            "evaluate_slos"),
    "tracer": ("NOOP_SPAN", "TRACER", "SpanRecord", "Tracer"),
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

if TYPE_CHECKING:  # pragma: no cover - static analysis only
    from .analyze import (
        TraceDiff,
        cost_record,
        critical_path,
        diff_event_views,
        diff_traces,
        diff_verdict_record,
        exemplar_records,
        flamegraph_lines,
        render_critical_path,
        render_flamegraph_summary,
        render_trace_diff,
        span_paths,
        trace_roots,
    )
    from .context import CONTEXT, LABEL_KEYS, TelemetryContext
    from .cost import COST, CostAccountant
    from .export import (
        TraceFile,
        export_chrome_trace,
        export_jsonl,
        read_trace,
        strip_wall_keys,
        to_chrome_trace,
        validate_jsonl,
    )
    from .expose import parse_prometheus_text, prometheus_text, render_dashboard
    from .flight import FLIGHT, FlightRecorder
    from .metrics import METRICS, Counter, Gauge, Histogram, MetricsRegistry
    from .quality import (
        QualityConfig,
        QualitySession,
        StreamQualityMonitor,
    )
    from .recorder import TraceRecorder
    from .regress import RegressionReport, compare_benchmarks, render_diff
    from .report import (
        page_read_attribution,
        quality_sections,
        render_report,
        span_aggregates,
    )
    from .slo import BurnWindow, Objective, SloStatus, default_objectives, evaluate_slos
    from .tracer import NOOP_SPAN, TRACER, SpanRecord, Tracer
