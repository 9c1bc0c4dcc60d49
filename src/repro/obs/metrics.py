"""Counters, gauges, and fixed-bucket histograms for traced runs.

The registry is deliberately tiny: a metric is named process-wide state,
created on first use (``METRICS.counter("buffer.hit")``) and read back as a
plain-dict :meth:`MetricsRegistry.snapshot`.  Histograms use fixed bucket
*upper bounds*: ``bounds=(1, 2, 4)`` yields the four buckets
``(-inf, 1], (1, 2], (2, 4], (4, +inf)`` — the final bucket is the
overflow.  Bucket placement is ``bisect_left``, so a value equal to a bound
lands in that bound's own bucket: bounds are *inclusive* upper edges,
matching the report's ``<= bound`` bucket labels.

**Aggregates only.**  A metric is one value for the whole run.  The
per-label views of a run (per tenant, per query) live in records that
keep every label set: each stream's quality record carries its labels,
the cost record keeps charged pages per label set, and every exemplar
carries the label set it was observed under.

**Exemplars.**  While tracing is on, every histogram observation may
carry a pointer back to the span that produced it: a bounded
per-bucket ring (:data:`EXEMPLARS_PER_BUCKET` entries, oldest
overwritten) of ``(value, span id, label set)`` triples, the label set
being ``CONTEXT.label_key()`` at observation time.  Capture is gated on
``TRACER.enabled`` and never touches the bucket counters, so aggregates
are bit-identical whether or not exemplars are recorded; untraced runs
skip the branch entirely.  The sanctioned capture path is
``observe(value, span_id=...)`` or the ambient
:meth:`Tracer.current_span_id` fallback — lint rule OBS002 pins ad-hoc
span-id plumbing outside this module.

Instrumentation that feeds the registry from hot paths guards on
``TRACER.enabled`` so an untraced run pays nothing.  All mutation is
lock-protected — one lock per metric, making concurrent ``inc`` and
``observe`` exact.  Lookups that find an existing metric read the
registry's dicts without a lock (single dict reads under the GIL; every
write holds the lock).  Metric updates do not enter the flight recorder's
ring (:mod:`repro.obs.flight`), which keeps its room for spans, faults and
quality records; a run's aggregates are the snapshot.
"""

from __future__ import annotations

from bisect import bisect_left
from threading import Lock

from .context import CONTEXT
from .tracer import TRACER

__all__ = [
    "Counter",
    "EXEMPLARS_PER_BUCKET",
    "Gauge",
    "Histogram",
    "METRICS",
    "MetricsRegistry",
]

#: Exemplar ring size per histogram bucket (oldest entry overwritten).
EXEMPLARS_PER_BUCKET = 4


class Counter:
    """Monotonically increasing named count."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0
        self._lock = Lock()

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self.value += amount


class Gauge:
    """Last-write-wins named value."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self._lock = Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value


class Histogram:
    """Fixed-bucket histogram with inclusive upper bounds plus overflow."""

    __slots__ = (
        "name", "bounds", "counts", "total", "count",
        "_lock", "_exemplars", "_exemplar_seq",
    )

    def __init__(self, name: str, bounds: tuple) -> None:
        if not bounds:
            raise ValueError(f"histogram {name!r} needs at least one bucket bound")
        ordered = tuple(bounds)
        if any(a >= b for a, b in zip(ordered, ordered[1:])):
            raise ValueError(
                f"histogram {name!r} bounds must be strictly increasing: {ordered!r}"
            )
        self.name = name
        self.bounds = ordered
        self.counts = [0] * (len(ordered) + 1)
        self.total = 0.0
        self.count = 0
        self._lock = Lock()
        self._exemplars: dict | None = None
        self._exemplar_seq: dict | None = None

    def observe(self, value: float, span_id: int | None = None) -> None:
        bucket = bisect_left(self.bounds, value)
        with self._lock:
            self.counts[bucket] += 1
            self.total += value
            self.count += 1
        if TRACER.enabled:
            self._record_exemplar(bucket, value, span_id)

    def _record_exemplar(
        self, bucket: int, value: float, span_id: int | None
    ) -> None:
        """Link this observation to its span in the bucket's ring.

        Runs only while tracing is enabled and never touches the bucket
        counters, so aggregates are bit-identical with or without it.
        Observations outside any live span (and without an explicit
        ``span_id``) are silently skipped.
        """
        if span_id is None:
            span_id = TRACER.current_span_id()
            if span_id is None:
                return
        entry = (value, span_id, CONTEXT.label_key())
        with self._lock:
            rings = self._exemplars
            if rings is None:
                rings = self._exemplars = {}
                self._exemplar_seq = {}
            ring = rings.get(bucket)
            if ring is None:
                ring = rings[bucket] = []
            seq = self._exemplar_seq.get(bucket, 0)
            if len(ring) < EXEMPLARS_PER_BUCKET:
                ring.append(entry)
            else:
                ring[seq % EXEMPLARS_PER_BUCKET] = entry
            self._exemplar_seq[bucket] = seq + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def _bucket_le(self, bucket: int) -> str:
        """OpenMetrics ``le`` text for *bucket* (``"+Inf"`` for overflow)."""
        if bucket < len(self.bounds):
            return f"{self.bounds[bucket]:g}"
        return "+Inf"

    def snapshot(self) -> dict:
        snap = {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
        }
        rings = self._exemplars
        if rings:
            rows = []
            for bucket in sorted(rings):
                for value, span_id, label_set in rings[bucket]:
                    rows.append({
                        "bucket": bucket,
                        "le": self._bucket_le(bucket),
                        "value": value,
                        "span_id": span_id,
                        "labels": dict(label_set),
                    })
            snap["exemplars"] = rows
        return snap


class MetricsRegistry:  # repro: shared[lock=_lock] registry map mutation holds _lock; each metric holds its own lock
    """Get-or-create registry of named metrics."""

    __slots__ = ("_counters", "_gauges", "_histograms", "_lock")

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._lock = Lock()

    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            with self._lock:
                metric = self._counters.get(name)
                if metric is None:
                    metric = self._counters[name] = Counter(name)
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            with self._lock:
                metric = self._gauges.get(name)
                if metric is None:
                    metric = self._gauges[name] = Gauge(name)
        return metric

    def histogram(self, name: str, bounds: tuple | None = None) -> Histogram:
        """Fetch histogram *name*, creating it with *bounds* on first use.

        Re-registering with different bounds is a programming error and
        raises; re-registering with the same (or no) bounds returns the
        existing histogram.
        """
        metric = self._histograms.get(name)
        if metric is None:
            with self._lock:
                metric = self._histograms.get(name)
                if metric is None:
                    if bounds is None:
                        raise ValueError(
                            f"histogram {name!r} not registered; pass bounds"
                        )
                    metric = self._histograms[name] = Histogram(name, bounds)
                    return metric
        if bounds is not None and tuple(bounds) != metric.bounds:
            raise ValueError(
                f"histogram {name!r} already registered with bounds "
                f"{metric.bounds!r}, not {tuple(bounds)!r}"
            )
        return metric

    def snapshot(self) -> dict:
        """Plain-dict view of everything (JSON-serializable)."""
        with self._lock:
            return {
                "counters": {n: c.value for n, c in sorted(self._counters.items())},
                "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
                "histograms": {
                    n: h.snapshot() for n, h in sorted(self._histograms.items())
                },
            }

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


METRICS = MetricsRegistry()  # repro: shared[lock=_lock] process-wide registry; mutation holds MetricsRegistry._lock
