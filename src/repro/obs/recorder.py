"""Trace collection: gather finished spans and derive metric observations.

:class:`TraceRecorder` is a tracer listener.  Installing it enables the
process tracer and appends every finished span (in completion order) to
``recorder.spans`` — a *flat* list; the tree is still reachable because
each record keeps its ``children``/``parent_id`` linkage.  On top of raw
collection the recorder derives fixed-bucket histogram observations that
the text report and ``bench --json`` surface:

* ``query.pages_per_stab``   — simulated page reads per root→leaf stab;
* ``query.records_per_page_read`` — samples emitted per page read, per stab
  (the paper's central efficiency ratio);
* ``leaf.pages_per_read``    — page span of each decoded leaf.

(The stab-depth and time-to-first-k histograms are observed at the query
call sites themselves, where the values are in scope.)

The recorder that turns tracing on also brackets the cost accountant
(:data:`~repro.obs.cost.COST`): ``install`` arms it so the storage
charge points attribute every page read to the ambient
tenant/query/sampler context, and ``uninstall`` publishes the ledger's
totals as ``obs.cost.*`` counters before disarming (the ledger itself,
split by label set, stays readable for reports).  A recorder installed
while tracing is already on only collects spans: the enclosing trace
keeps its span stack and its ledger.  Derived histogram observations
pass the finished span's own id so exemplars point at the span that produced the
value — the listener runs after the span popped off the stack, so the
ambient ``current_span_id`` would name the parent instead.
"""

from __future__ import annotations

from .cost import COST
from .metrics import METRICS, MetricsRegistry
from .tracer import TRACER, SpanRecord, Tracer

__all__ = ["TraceRecorder"]

_PAGES_PER_STAB_BOUNDS = (1, 2, 4, 8, 16, 32, 64)
_RECORDS_PER_PAGE_BOUNDS = (0.25, 0.5, 1, 2, 4, 8, 16, 32, 64, 128)
_LEAF_PAGES_BOUNDS = (1, 2, 4, 8, 16, 32)


class TraceRecorder:
    """Collect finished spans from a tracer and feed derived histograms."""

    def __init__(self, metrics: MetricsRegistry | None = None) -> None:
        self.spans: list[SpanRecord] = []  # repro: shared[confined] one recorder per capture session
        self.metrics = metrics if metrics is not None else METRICS
        self._tracer: Tracer | None = None
        self._was_enabled = False

    # -- lifecycle -----------------------------------------------------

    def install(self, tracer: Tracer | None = None) -> "TraceRecorder":
        """Attach to *tracer* (default: the process tracer) and enable it.

        Only the recorder that turns tracing on arms :data:`COST`.
        """
        tracer = tracer if tracer is not None else TRACER
        self._tracer = tracer
        self._was_enabled = tracer.enabled
        tracer.add_listener(self.on_span)
        if not self._was_enabled:
            tracer.enable()
            COST.arm()
        return self

    def uninstall(self) -> None:
        """Detach; tracing returns to its pre-install state."""
        tracer = self._tracer
        if tracer is None:
            return
        tracer.remove_listener(self.on_span)
        self._tracer = None
        if not self._was_enabled:
            tracer.disable()
            COST.publish(self.metrics)
            COST.disarm()

    def __enter__(self) -> "TraceRecorder":
        return self.install()

    def __exit__(self, exc_type, exc, tb):
        self.uninstall()
        return False

    def clear(self) -> None:
        self.spans.clear()

    # -- listener ------------------------------------------------------

    def on_span(self, record: SpanRecord) -> None:
        self.spans.append(record)
        name = record.name
        if name == "ace_query.stab":
            metrics = self.metrics
            reads = record.page_reads
            metrics.histogram("query.pages_per_stab", _PAGES_PER_STAB_BOUNDS).observe(
                reads, span_id=record.span_id
            )
            emitted = record.attrs.get("emitted")
            if emitted is not None and reads > 0:
                metrics.histogram(
                    "query.records_per_page_read", _RECORDS_PER_PAGE_BOUNDS
                ).observe(emitted / reads, span_id=record.span_id)
        elif name == "leaf_store.read_leaf":
            pages = record.attrs.get("pages")
            if pages is not None:
                self.metrics.histogram(
                    "leaf.pages_per_read", _LEAF_PAGES_BOUNDS
                ).observe(pages, span_id=record.span_id)

    # -- views ---------------------------------------------------------

    def roots(self) -> list[SpanRecord]:
        """Top-level spans (those finished with no enclosing span)."""
        return [span for span in self.spans if span.parent_id is None]
