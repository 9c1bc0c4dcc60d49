"""Outside-in layer tracing: spans around calls into the program's layers.

Nothing under ``src/`` is edited.  :func:`install` replaces each public
entry point listed in :data:`ENTRY_POINTS` with a wrapper that opens a
span named after the layer, and returns a :class:`Patches` handle whose
``restore()`` puts every original attribute back (and checks it did).
Untraced runs never call :func:`install`.

A span records ``(id, name, start, end, parent id, query id)``.  Spans
stay in memory (:attr:`SpanTracer.records`) and are written out once, at
the end of the traced run.  Each layer's *self time* is a span's duration
minus the time its child spans cover; it is accumulated as spans close, so
the per-layer self times of one traced pass always sum to the time covered
by root spans.  :meth:`SpanTracer.reconcile` checks that sum plus the
unwrapped remainder against the traced pass's own wall clock.

Generator entry points (``aggregate_stream``, ``MaterializedSampleView.sample``)
get one span per ``next()``, so no span stays open across a suspension.
Work that one layer does lazily inside another's call is charged back to
it with unrecorded spans around each pull: the final merge of
``external_sort_to_sink`` (pulled by the build's leaf-writing sink) goes
to ``storage.external_sort``, and the records ``HeapFile.bulk_load``
consumes go to the layer that called it (``workloads.generate``,
``view.refresh``).
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter

__all__ = ["ENTRY_POINTS", "Patches", "SpanTracer", "install"]

#: (module, attribute path, kind, span name).  ``function`` entries are
#: patched in every ``repro`` module that binds the same function object,
#: so calls through re-exports and ``from x import f`` copies are caught.
ENTRY_POINTS = (
    ("repro.workloads.sale", "generate_sale_1d", "function", "workloads.generate"),
    ("repro.storage.heapfile", "HeapFile.bulk_load", "bulk_load", "storage.heapfile.bulk_load"),
    ("repro.storage.external_sort", "external_sort", "sort", "storage.external_sort"),
    ("repro.storage.external_sort", "external_sort_to_sink", "sort", "storage.external_sort"),
    ("repro.acetree.build", "build_ace_tree", "function", "acetree.build"),
    ("repro.acetree.storage", "LeafStoreWriter.append_leaf", "method", "acetree.storage.write_leaf"),
    ("repro.acetree.storage", "LeafStore.read_leaf_view", "method", "acetree.storage.read_leaf"),
    ("repro.acetree.query", "SampleStream.__next__", "method", "acetree.query.next"),
    ("repro.acetree.query", "SampleBatch.records", "property", "acetree.query.materialize"),
    ("repro.storage.sample_cache", "SampleCache.get", "method", "storage.sample_cache"),
    ("repro.storage.sample_cache", "SampleCache.put", "method", "storage.sample_cache"),
    ("repro.apps.online_agg", "aggregate_stream", "generator", "apps.online_agg"),
    ("repro.obs.quality", "StreamQualityMonitor.observe_batch", "method", "obs.quality.observe"),
    ("repro.serve.scheduler", "ServeScheduler.run", "method", "serve.scheduler.run"),
    ("repro.obs.slo", "evaluate_slos", "function", "obs.slo.evaluate"),
    ("repro.obs.export", "export_jsonl", "function", "obs.export.jsonl"),
    ("repro.obs.export", "export_chrome_trace", "function", "obs.export.chrome"),
    ("repro.obs.export", "validate_jsonl", "function", "obs.export.validate"),
    ("repro.obs.report", "render_report", "function", "obs.report.render"),
    ("repro.view.sampleview", "MaterializedSampleView.insert", "method", "view.insert"),
    ("repro.view.sampleview", "MaterializedSampleView.sample", "generator", "view.delta_merge"),
    ("repro.view.sampleview", "MaterializedSampleView.refresh", "method", "view.refresh"),
)

#: Span names whose individual durations are kept (for percentiles).
KEEP_DURATIONS = frozenset({"acetree.query.next"})


class SpanTracer:
    """In-memory span collector with per-name self-time accumulation."""

    def __init__(self) -> None:
        self.records: list[tuple] = []
        self.self_time: dict[str, float] = defaultdict(float)
        self.total_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.durations: dict[str, list[float]] = defaultdict(list)
        #: Wall time covered by spans that had no parent.
        self.root_time = 0.0
        #: Query id stamped on spans closed from now on (set by the
        #: workload), or a zero-argument callable that returns it.
        self.query: object = None
        self._stack: list[list] = []
        self._next_id = 0

    def call(self, name: str, fn, args, kwargs, record: bool = True):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``."""
        stack = self._stack
        parent = stack[-1] if stack else None
        span_id = self._next_id
        self._next_id += 1
        frame = [span_id, 0.0, name]  # id, time covered by children, name
        stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            duration = end - start
            self.self_time[name] += duration - frame[1]
            self.total_time[name] += duration
            self.calls[name] += 1
            if parent is None:
                self.root_time += duration
            else:
                parent[1] += duration
            if name in KEEP_DURATIONS:
                self.durations[name].append(duration)
            if record:
                query = self.query
                if callable(query):
                    query = query()
                self.records.append((span_id, name, start, end,
                                     parent[0] if parent else None, query))

    def current_name(self) -> str | None:
        """Name of the innermost open span, if any."""
        return self._stack[-1][2] if self._stack else None

    def reconcile(self, wall: float) -> dict:
        """Layer self times + unwrapped remainder against the traced wall.

        ``wall`` is measured by the caller around the whole traced pass.
        The remainder is the part of it no root span covered (the
        benchmark's own loop and checks).  If spans nested properly the
        two sides agree to float rounding; a span left open across a
        generator suspension, or overlapping siblings, breaks the sum.
        """
        layers = sum(self.self_time.values())
        remainder = wall - self.root_time
        error = abs(layers + remainder - wall)
        return {
            "wall_s": wall,
            "layers_s": layers,
            "remainder_s": remainder,
            "error_s": error,
            "ok": remainder >= -1e-9 and error <= 1e-6 * max(wall, 1.0)
                  and not self._stack,
        }

    def write(self, path) -> None:
        """Write every span as one JSON line (called once, at the end)."""
        with open(path, "w") as out:
            for span_id, name, start, end, parent, query in self.records:
                out.write(json.dumps({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "query": query,
                }) + "\n")


class _TimedIterator:
    """Iterator proxy: each ``next()`` of ``inner`` is one span."""

    __slots__ = ("_tracer", "_name", "_inner", "_record")

    def __init__(self, tracer, name, inner, record=True):
        self._tracer = tracer
        self._name = name
        self._inner = inner
        self._record = record

    def __iter__(self):
        return self

    def __next__(self):
        return self._tracer.call(self._name, next, (self._inner,), {},
                                 record=self._record)

    def close(self):
        close = getattr(self._inner, "close", None)
        if close is not None:
            close()


class Patches:
    """Every attribute :func:`install` replaced, with its original."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> list[str]:
        """Put every original back; returns the attributes that differ."""
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        wrong = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in self._saved
            if owner.__dict__.get(attr) is not original
        ]
        self._saved.clear()
        return wrong


def _binders(function) -> list:
    """Every loaded ``repro`` module whose namespace binds ``function``."""
    return [
        module for name, module in list(sys.modules.items())
        if (name == "repro" or name.startswith("repro.")) and module is not None
        and getattr(module, "__dict__", {}).get(function.__name__) is function
    ]


def _sort_wrapper(tracer: SpanTracer, name: str, original):
    """Span the sort, and split its pipelined consumer off into the build."""

    def wrapper(source, *args, **kwargs):
        sink = kwargs.get("sink")
        if sink is not None:
            def traced_sink(stream):
                pulls = _TimedIterator(tracer, name, stream, record=False)
                return tracer.call("acetree.build", sink, (pulls,), {})
            kwargs["sink"] = traced_sink
        view_transform = kwargs.get("view_transform")
        if view_transform is not None:
            kwargs["view_transform"] = lambda view: tracer.call(
                "acetree.build", view_transform, (view,), {}
            )
        disk = source.disk
        reads, writes = disk.stats.page_reads, disk.stats.page_writes
        try:
            return tracer.call(name, original, (source,) + args, kwargs)
        finally:
            tracer.counts["storage.external_sort.page_reads"] += (
                disk.stats.page_reads - reads)
            tracer.counts["storage.external_sort.page_writes"] += (
                disk.stats.page_writes - writes)

    return wrapper


def _bulk_load_wrapper(tracer: SpanTracer, name: str, original):
    """Span the load, and charge producing its records to the caller.

    ``HeapFile.bulk_load`` pulls its records from an iterator the caller
    built (``generate_sale_1d``'s generator, the view's tree scan), so
    each pull is an unrecorded span named after the calling layer.
    """

    def wrapper(cls, disk, schema, records, *args, **kwargs):
        caller = tracer.current_name()
        if caller is not None:
            records = _TimedIterator(tracer, caller, iter(records), record=False)
        return tracer.call(name, original, (cls, disk, schema, records) + args,
                           kwargs)

    return wrapper


def _counting(tracer: SpanTracer, name: str, original, counter: str, size):
    def wrapper(*args, **kwargs):
        tracer.counts[counter] += size(args)
        return tracer.call(name, original, args, kwargs)
    return wrapper


#: Entry points whose call also adds a work count (records handed in).
_COUNTED = {
    "obs.quality.observe": ("obs.quality.records", lambda args: len(args[1])),
    "view.insert": ("view.records_inserted", lambda args: len(args[1])),
}


def install(tracer: SpanTracer) -> Patches:
    """Wrap every entry point in :data:`ENTRY_POINTS`; see :class:`Patches`."""
    patches = Patches()
    try:
        for module_name, path, kind, name in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            if "." in path:
                class_name, attr = path.split(".")
                owner = getattr(module, class_name)
                raw = owner.__dict__[attr]
            else:
                owner, attr = module, path
                raw = module.__dict__[attr]
            if kind == "bulk_load":
                wrapped = _bulk_load_wrapper(tracer, name, raw.__func__)
                patches.set(owner, attr, classmethod(wrapped))
            elif kind == "property":
                fget = raw.fget
                patches.set(owner, attr, property(
                    lambda self, fget=fget, name=name:
                        tracer.call(name, fget, (self,), {})
                ))
            elif kind == "generator":
                wrapped = _generator(tracer, name, raw)
                _patch_everywhere(patches, owner, attr, raw, wrapped, kind=path)
            elif kind == "sort":
                wrapped = _sort_wrapper(tracer, name, raw)
                _patch_everywhere(patches, owner, attr, raw, wrapped, kind=path)
            else:
                if name in _COUNTED:
                    counter, size = _COUNTED[name]
                    wrapped = _counting(tracer, name, raw, counter, size)
                else:
                    wrapped = _plain(tracer, name, raw)
                _patch_everywhere(patches, owner, attr, raw, wrapped, kind=path)
    except BaseException:
        patches.restore()
        raise
    return patches


def _plain(tracer, name, original):
    def wrapper(*args, **kwargs):
        return tracer.call(name, original, args, kwargs)
    return wrapper


def _generator(tracer, name, original):
    def wrapper(*args, **kwargs):
        return _TimedIterator(tracer, name, original(*args, **kwargs))
    return wrapper


def _patch_everywhere(patches, owner, attr, raw, wrapped, kind) -> None:
    patches.set(owner, attr, wrapped)
    if "." not in kind:  # a module-level function: also patch its copies
        for module in _binders(raw):
            if module is not owner:
                patches.set(module, attr, wrapped)
