"""Hierarchical dual-clock span tracer.

A *span* brackets one operation and records, at entry and exit:

* the **wall clock** (``time.perf_counter`` — this module is one of the
  two sanctioned wall-clock sites, see lint rule CLK001), and
* the **simulated clock** of the :class:`~repro.storage.disk.SimulatedDisk`
  the operation runs against — ``disk.clock`` plus the page-read/write
  deltas of ``disk.stats``.

The tracer never *charges* the simulated disk; it only reads the clock and
counters at span boundaries, so a traced run is bit-identical to an
untraced one on the simulated timeline.

``Tracer.span()`` has two paths, chosen per call:

1. **tracing enabled** — a full :class:`SpanRecord` is built, linked into
   the current thread's span stack (parent/child), and dispatched to every
   listener on exit;
2. **tracing disabled** — the shared :data:`NOOP_SPAN` singleton is
   returned, whose ``__enter__`` yields ``None``.  This path allocates
   nothing and reads no clock, which is why instrumentation may live in
   hot loops (the ``bench`` micro suite reports its per-call cost).

Per-phase wall time comes from a traced run (``trace report``, or the
spans a :class:`~repro.obs.recorder.TraceRecorder` collects); an untraced
run measures nothing.  Call sites follow the pattern::

    with TRACER.span("ace_query.stab", disk=tree.disk) as sp:
        ...
        if sp is not None:          # only pay for attributes when tracing
            sp.attrs["leaf"] = leaf_index

The span stack is thread-local: concurrent threads build disjoint trace
trees.  Listener registration and span-id allocation are lock-protected.
``enable()`` while tracing is on keeps the open spans; do not turn tracing
off and on again while spans are open.
"""

from __future__ import annotations

from threading import Lock, local
from time import perf_counter

from .context import CONTEXT

__all__ = ["NOOP_SPAN", "SpanRecord", "TRACER", "Tracer"]


class SpanRecord:
    """One finished (or in-flight) span: both clocks, disk deltas, attrs.

    ``start_sim``/``end_sim`` are ``None`` when the span had no simulated
    disk in scope.  ``children`` holds nested records in completion order;
    ``parent_id`` is ``None`` for a trace root.  ``page_reads`` and
    ``page_writes`` are *cumulative* over the span (children included);
    subtract the children's counts for self-cost.
    """

    __slots__ = (
        "name",
        "span_id",
        "parent_id",
        "start_wall",
        "end_wall",
        "start_sim",
        "end_sim",
        "page_reads",
        "page_writes",
        "attrs",
        "children",
    )

    def __init__(self, name: str, attrs: dict | None = None) -> None:
        self.name = name
        self.span_id = 0
        self.parent_id: int | None = None
        self.start_wall = 0.0
        self.end_wall = 0.0
        self.start_sim: float | None = None
        self.end_sim: float | None = None
        self.page_reads = 0
        self.page_writes = 0
        self.attrs: dict = attrs if attrs is not None else {}
        self.children: list[SpanRecord] = []

    @property
    def wall_seconds(self) -> float:
        return max(0.0, self.end_wall - self.start_wall)

    @property
    def sim_seconds(self) -> float:
        """Simulated seconds elapsed inside the span (0.0 without a disk).

        Clamped at zero so a ``reset_clock()`` inside the span (the figure
        harness does this once after context setup) cannot yield negative
        durations.
        """
        if self.start_sim is None or self.end_sim is None:
            return 0.0
        return max(0.0, self.end_sim - self.start_sim)

    @property
    def self_page_reads(self) -> int:
        reads = self.page_reads - sum(c.page_reads for c in self.children)
        return max(0, reads)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SpanRecord({self.name!r}, id={self.span_id}, "
            f"wall={self.wall_seconds:.6f}s, sim={self.sim_seconds:.6f}s, "
            f"reads={self.page_reads}, children={len(self.children)})"
        )


class _NoopSpan:
    """Shared do-nothing context manager returned when nothing listens."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, exc_type, exc, tb):
        return False


NOOP_SPAN = _NoopSpan()  # repro: shared[frozen] stateless sentinel span


class _LiveSpan:
    """Full recording span: dual clocks, disk deltas, tree linkage."""

    __slots__ = ("_tracer", "_disk", "_reads0", "_writes0", "record")

    def __init__(self, tracer: "Tracer", name: str, disk, attrs: dict) -> None:
        self._tracer = tracer
        self._disk = disk
        self.record = SpanRecord(name, attrs)

    def __enter__(self) -> SpanRecord:
        tracer = self._tracer
        record = self.record
        stack = tracer._span_stack()
        if stack:
            parent_record, parent_disk = stack[-1]
            record.parent_id = parent_record.span_id
            if self._disk is None:
                self._disk = parent_disk
        baggage = CONTEXT.current()
        if baggage:
            # Telemetry-context propagation: the live path only — explicit
            # span attributes win over ambient baggage.
            attrs = record.attrs
            for key, value in baggage.items():
                attrs.setdefault(key, value)
        record.span_id = tracer._next_span_id()
        disk = self._disk
        if disk is not None:
            record.start_sim = disk.clock
            stats = disk.stats
            self._reads0 = stats.page_reads
            self._writes0 = stats.page_writes
        stack.append((record, disk))
        record.start_wall = perf_counter()
        return record

    def __exit__(self, exc_type, exc, tb):
        record = self.record
        record.end_wall = perf_counter()
        disk = self._disk
        if disk is not None:
            record.end_sim = disk.clock
            stats = disk.stats
            # Clamped: disk.reset_clock() swaps in a fresh stats object, so
            # a span deliberately straddling a reset must not go negative.
            record.page_reads = max(0, stats.page_reads - self._reads0)
            record.page_writes = max(0, stats.page_writes - self._writes0)
        tracer = self._tracer
        stack = tracer._span_stack()
        stack.pop()
        if stack:
            stack[-1][0].children.append(record)
        tracer._dispatch(record)
        return False


class Tracer:
    """Span factory + listener hub.  One process-wide instance: :data:`TRACER`."""

    __slots__ = ("enabled", "_listeners", "_lock", "_span_ids", "_tls")

    def __init__(self) -> None:
        self.enabled = False
        self._listeners: list = []
        self._lock = Lock()
        self._span_ids = 0
        self._tls = local()

    # -- configuration -------------------------------------------------

    def add_listener(self, listener) -> None:
        """Register ``listener(record)`` to run on every finished live span."""
        with self._lock:
            if listener not in self._listeners:
                self._listeners.append(listener)

    def remove_listener(self, listener) -> None:
        with self._lock:
            if listener in self._listeners:
                self._listeners.remove(listener)

    def enable(self) -> None:
        """Turn on full span recording.

        Turning tracing on resets this thread's span stack; enabling it
        again while it is on keeps the stack, so spans already open close
        normally.
        """
        if not self.enabled:
            self._tls.stack = []
            self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    # -- span creation -------------------------------------------------

    def span(self, name: str, disk=None, **attrs):
        """Open a span named *name*, optionally bound to a simulated *disk*.

        When *disk* is omitted the span inherits the enclosing live span's
        disk (if any), so call sites deep in the stack need not thread the
        disk handle through.  Extra keyword arguments become initial span
        attributes (only materialized when tracing is enabled).  With
        tracing off this returns :data:`NOOP_SPAN`.
        """
        if self.enabled:
            return _LiveSpan(self, name, disk, attrs)
        return NOOP_SPAN

    def current_span_id(self) -> int | None:
        """The id of this thread's innermost live span, if any.

        This is the sanctioned way for exemplar capture to learn which
        span an observation belongs to (lint rule OBS002); it touches
        only thread-local state, so no lock is taken.
        """
        stack = self._span_stack()
        return stack[-1][0].span_id if stack else None

    # -- internals -----------------------------------------------------

    def _span_stack(self) -> list:
        try:
            return self._tls.stack
        except AttributeError:
            stack = self._tls.stack = []
            return stack

    def _next_span_id(self) -> int:
        with self._lock:
            self._span_ids += 1
            return self._span_ids

    def _dispatch(self, record: SpanRecord) -> None:
        for listener in self._listeners:
            listener(record)


TRACER = Tracer()  # repro: shared[owner=serve.scheduler] span sink; interleaved traversals emit spans only inside the owner's quanta
