"""Counters, gauges, and fixed-bucket histograms for traced runs.

The registry is deliberately tiny: a metric is named process-wide state,
created on first use (``METRICS.counter("buffer.hit")``) and read back as a
plain-dict :meth:`MetricsRegistry.snapshot`.  Histograms use fixed bucket
*upper bounds*: ``bounds=(1, 2, 4)`` yields the four buckets
``(-inf, 1], (1, 2], (2, 4], (4, +inf)`` — the final bucket is the
overflow.  Bucket placement is ``bisect_left``, so a value equal to a bound
lands in that bound's own bucket: bounds are *inclusive* upper edges,
matching the report's ``<= bound`` bucket labels.

**Dimensional labels.**  Every metric doubles as a family:
``counter("ace_query.cache_hits").labels(tenant="t0", sampler="ace")``
returns a *child* sharing the parent's name and lock.  A child update
always updates the unlabeled parent too, so the aggregate value is
bit-identical whether or not call sites label — labeling is pure
refinement, never a fork.  The rules:

* label keys come from the registered vocabulary
  (:data:`repro.obs.context.LABEL_KEYS`; lint rule OBS001 enforces this
  statically) and serialize in fixed vocabulary order;
* a family indexes its children by the canonical label-set tuple.
  ``child(label_set)`` resolves such a tuple directly and trusts it, so
  only ``CONTEXT.label_key()`` feeds it — the key the telemetry context
  validated and computed once per push (lint rule OBS001 flags a tuple
  literal passed to ``child()``).  ``labels(**kw)`` canonicalizes its
  keyword arguments and takes the same path.  The empty tuple (no
  labels, or nothing pushed) resolves to the parent itself;
* each family admits at most ``max_label_sets`` distinct label sets
  (default :data:`DEFAULT_MAX_LABEL_SETS`).  Past the cap, resolution
  falls back to the parent (the aggregate never loses updates) and the
  registry's ``obs.metrics.dropped_label_sets`` counter is bumped once
  per rejected call.  A run with more label sets than the cap — any
  serve run with more than 64 (tenant, query) pairs — therefore counts
  calls there, not label sets.  The bench micro suite's own registry
  never overflows, and the regress rules gate its count at zero.

**Exemplars.**  While tracing is on, every histogram observation may
carry a pointer back to the span that produced it: a bounded
per-bucket ring (:data:`EXEMPLARS_PER_BUCKET` entries, oldest
overwritten) of ``(value, span id, label set)`` triples kept on the
family root.  Capture is gated on ``TRACER.enabled`` and never touches
the bucket counters, so unlabeled aggregates stay bit-identical whether
or not exemplars are recorded; untraced runs skip the branch entirely.
The sanctioned capture path is ``observe(value, span_id=...)`` or the
ambient :meth:`Tracer.current_span_id` fallback — lint rule OBS002 pins
ad-hoc span-id plumbing outside this module.

Instrumentation that feeds the registry from hot paths guards on
``TRACER.enabled`` so an untraced run pays nothing.  All mutation is
lock-protected — one lock per metric family, shared between the parent
and its children, making concurrent ``.labels().inc()`` exact.  Lookups
that find an existing family or child, and misses on a family at its
cap, read the dicts without a lock (single dict reads under the GIL;
every write holds the lock).  Armed flight recorders (:mod:`repro.obs.flight`)
see every update as a ``"metric"`` event.
"""

from __future__ import annotations

from bisect import bisect_left
from threading import Lock

from .context import CONTEXT, canonical_label_set, render_label_set
from .flight import FLIGHT
from .tracer import TRACER

__all__ = [
    "Counter",
    "DEFAULT_MAX_LABEL_SETS",
    "DROPPED_LABEL_SETS",
    "EXEMPLARS_PER_BUCKET",
    "Gauge",
    "Histogram",
    "METRICS",
    "MetricsRegistry",
]

#: Per-family cardinality cap: distinct label sets admitted per metric.
DEFAULT_MAX_LABEL_SETS = 64

#: Registry counter bumped when a ``labels()`` call exceeds the cap.
DROPPED_LABEL_SETS = "obs.metrics.dropped_label_sets"

#: Exemplar ring size per histogram bucket (oldest entry overwritten).
EXEMPLARS_PER_BUCKET = 4


class _Family:
    """Label-set resolution shared by the three metric kinds."""

    __slots__ = ()

    def child(self, label_set: tuple):
        """The child for the context key *label_set* (``self`` when empty).

        The one resolution path, and it trusts its argument: pass only
        ``CONTEXT.label_key()`` (already validated and canonical, computed
        once per push) or, as :meth:`labels` does, the output of
        :func:`~repro.obs.context.canonical_label_set`.  Lint rule OBS001
        flags a tuple literal passed here; build explicit label sets with
        ``labels(**kw)``.  An admitted label set resolves with one dict
        read and no lock.  Past the cap the family itself is returned and
        the drop hook fires on every call (outside the family lock, so the
        registry's overflow counter can be bumped without lock nesting).
        """
        if not label_set:
            return self
        children = self._children
        if children is not None:
            # Read the size first: a family at its cap never gains a
            # child, so a miss seen after that read is final and needs no
            # lock.
            full = len(children) >= self._max_label_sets
            found = children.get(label_set)
            if found is not None:
                return found
            if not full:
                found = self._admit(label_set)
        else:
            found = self._admit(label_set)
        if found is not None:
            return found
        if self._on_drop is not None:
            self._on_drop(self.name)
        return self

    def labels(self, **labels):
        """The child for this label set (``self`` when unlabeled)."""
        if not labels:
            return self
        return self.child(canonical_label_set(labels))

    def _admit(self, key: tuple):
        """Get-or-create the child for *key* under the lock; None at the cap."""
        if self._parent is not None:
            raise ValueError(
                f"metric {self.name!r} is already labeled; call labels() on "
                "the unlabeled family"
            )
        with self._lock:
            children = self._children
            if children is None:
                children = self._children = {}
            found = children.get(key)
            if found is None and len(children) < self._max_label_sets:
                found = children[key] = self._new_child(key)
            return found


def _labeled_values(metric) -> dict:
    """``rendered label set -> value`` for a family's children (sorted)."""
    with metric._lock:
        children = metric._children
        if not children:
            return {}
        return {
            render_label_set(key): child.value
            for key, child in sorted(children.items())
        }


class Counter(_Family):
    """Monotonically increasing named count (family root or labeled child)."""

    __slots__ = (
        "name", "value", "label_set",
        "_lock", "_parent", "_children", "_max_label_sets", "_on_drop",
    )

    def __init__(
        self,
        name: str,
        *,
        max_label_sets: int = DEFAULT_MAX_LABEL_SETS,
        on_drop=None,
        _lock=None,
        _parent=None,
        label_set: tuple | None = None,
    ) -> None:
        self.name = name
        self.value = 0
        self.label_set = label_set
        self._lock = Lock() if _lock is None else _lock
        self._parent = _parent
        self._children: dict | None = None
        self._max_label_sets = max_label_sets
        self._on_drop = on_drop

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self.value += amount
            parent = self._parent
            if parent is not None:
                parent.value += amount
        if FLIGHT.enabled:
            FLIGHT.record_metric(self.name, "counter", amount, self.label_set)

    def _new_child(self, key: tuple) -> "Counter":
        return Counter(
            self.name, max_label_sets=0,
            _lock=self._lock, _parent=self, label_set=key,
        )


class Gauge(_Family):
    """Last-write-wins named value (family root or labeled child)."""

    __slots__ = (
        "name", "value", "label_set",
        "_lock", "_parent", "_children", "_max_label_sets", "_on_drop",
    )

    def __init__(
        self,
        name: str,
        *,
        max_label_sets: int = DEFAULT_MAX_LABEL_SETS,
        on_drop=None,
        _lock=None,
        _parent=None,
        label_set: tuple | None = None,
    ) -> None:
        self.name = name
        self.value = 0.0
        self.label_set = label_set
        self._lock = Lock() if _lock is None else _lock
        self._parent = _parent
        self._children: dict | None = None
        self._max_label_sets = max_label_sets
        self._on_drop = on_drop

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value
            parent = self._parent
            if parent is not None:
                parent.value = value
        if FLIGHT.enabled:
            FLIGHT.record_metric(self.name, "gauge", value, self.label_set)

    def _new_child(self, key: tuple) -> "Gauge":
        return Gauge(
            self.name, max_label_sets=0,
            _lock=self._lock, _parent=self, label_set=key,
        )


class Histogram(_Family):
    """Fixed-bucket histogram with inclusive upper bounds plus overflow."""

    __slots__ = (
        "name", "bounds", "counts", "total", "count", "label_set",
        "_lock", "_parent", "_children", "_max_label_sets", "_on_drop",
        "_exemplars", "_exemplar_seq",
    )

    def __init__(
        self,
        name: str,
        bounds: tuple,
        *,
        max_label_sets: int = DEFAULT_MAX_LABEL_SETS,
        on_drop=None,
        _lock=None,
        _parent=None,
        label_set: tuple | None = None,
    ) -> None:
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
        self.label_set = label_set
        self._lock = Lock() if _lock is None else _lock
        self._parent = _parent
        self._children: dict | None = None
        self._max_label_sets = max_label_sets
        self._on_drop = on_drop
        self._exemplars: dict | None = None
        self._exemplar_seq: dict | None = None

    def observe(self, value: float, span_id: int | None = None) -> None:
        bucket = bisect_left(self.bounds, value)
        with self._lock:
            self.counts[bucket] += 1
            self.total += value
            self.count += 1
            parent = self._parent
            if parent is not None:
                parent.counts[bucket] += 1
                parent.total += value
                parent.count += 1
        if TRACER.enabled:
            self._record_exemplar(bucket, value, span_id)
        if FLIGHT.enabled:
            FLIGHT.record_metric(self.name, "histogram", value, self.label_set)

    def _record_exemplar(
        self, bucket: int, value: float, span_id: int | None
    ) -> None:
        """Link this observation to its span in the family's bucket ring.

        Runs only while tracing is enabled and never touches the bucket
        counters, so aggregates are bit-identical with or without it.
        Observations outside any live span (and without an explicit
        ``span_id``) are silently skipped.
        """
        if span_id is None:
            span_id = TRACER.current_span_id()
            if span_id is None:
                return
        label_set = self.label_set
        if label_set is None:
            label_set = CONTEXT.label_key()
        root = self._parent if self._parent is not None else self
        with root._lock:
            rings = root._exemplars
            if rings is None:
                rings = root._exemplars = {}
                root._exemplar_seq = {}
            ring = rings.get(bucket)
            if ring is None:
                ring = rings[bucket] = []
            seq = root._exemplar_seq.get(bucket, 0)
            entry = (value, span_id, label_set)
            if len(ring) < EXEMPLARS_PER_BUCKET:
                ring.append(entry)
            else:
                ring[seq % EXEMPLARS_PER_BUCKET] = entry
            root._exemplar_seq[bucket] = seq + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def _new_child(self, key: tuple) -> "Histogram":
        return Histogram(
            self.name, self.bounds, max_label_sets=0,
            _lock=self._lock, _parent=self, label_set=key,
        )

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


class MetricsRegistry:  # repro: shared[lock=_lock] registry map mutation holds _lock; families hold their own shared lock
    """Get-or-create registry of named metric families.

    ``max_label_sets`` caps the per-family label cardinality; overflow is
    counted in this registry's own :data:`DROPPED_LABEL_SETS` counter.
    """

    __slots__ = ("_counters", "_gauges", "_histograms", "_lock", "max_label_sets")

    def __init__(self, max_label_sets: int = DEFAULT_MAX_LABEL_SETS) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._lock = Lock()
        self.max_label_sets = max_label_sets

    def _note_dropped(self, name: str) -> None:
        if name == DROPPED_LABEL_SETS:  # the overflow counter cannot overflow itself
            return
        self.counter(DROPPED_LABEL_SETS).inc()

    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            with self._lock:
                metric = self._counters.get(name)
                if metric is None:
                    metric = self._counters[name] = Counter(
                        name,
                        max_label_sets=self.max_label_sets,
                        on_drop=self._note_dropped,
                    )
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            with self._lock:
                metric = self._gauges.get(name)
                if metric is None:
                    metric = self._gauges[name] = Gauge(
                        name,
                        max_label_sets=self.max_label_sets,
                        on_drop=self._note_dropped,
                    )
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
                    metric = self._histograms[name] = Histogram(
                        name,
                        bounds,
                        max_label_sets=self.max_label_sets,
                        on_drop=self._note_dropped,
                    )
                    return metric
        if bounds is not None and tuple(bounds) != metric.bounds:
            raise ValueError(
                f"histogram {name!r} already registered with bounds "
                f"{metric.bounds!r}, not {tuple(bounds)!r}"
            )
        return metric

    def snapshot(self) -> dict:
        """Plain-dict view of everything (JSON-serializable).

        The ``counters``/``gauges``/``histograms`` sections carry the
        unlabeled aggregates exactly as before labels existed; a fourth
        ``labeled`` section appears only when at least one family has
        admitted a label set, keyed by the canonical rendered label set.
        """
        with self._lock:
            snap = {
                "counters": {n: c.value for n, c in sorted(self._counters.items())},
                "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
                "histograms": {
                    n: h.snapshot() for n, h in sorted(self._histograms.items())
                },
            }
            labeled_counters = {
                n: _labeled_values(c)
                for n, c in sorted(self._counters.items())
                if c._children
            }
            labeled_gauges = {
                n: _labeled_values(g)
                for n, g in sorted(self._gauges.items())
                if g._children
            }
            labeled_histograms = {}
            for n, h in sorted(self._histograms.items()):
                with h._lock:
                    if not h._children:
                        continue
                    labeled_histograms[n] = {
                        render_label_set(key): child.snapshot()
                        for key, child in sorted(h._children.items())
                    }
            labeled = {
                section: values
                for section, values in (
                    ("counters", labeled_counters),
                    ("gauges", labeled_gauges),
                    ("histograms", labeled_histograms),
                )
                if values
            }
            if labeled:
                snap["labeled"] = labeled
            return snap

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


METRICS = MetricsRegistry()  # repro: shared[lock=_lock] process-wide registry; mutation holds MetricsRegistry._lock
