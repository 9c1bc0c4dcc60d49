"""Trace serialization: JSONL spans + quality records, Chrome JSON.

JSONL format — one record object per line.  The format is *versioned by
kind*: a line without a ``"kind"`` key (or with ``"kind": "span"``) is a
span record under :data:`SPAN_SCHEMA` (children are reconstructed from
``parent_id`` on load); ``"kind": "quality"`` lines carry the statistical
quality summaries of :mod:`repro.obs.quality` under
:data:`QUALITY_SCHEMA`, with their own ``"v"`` record version.  Flight
dumps (:mod:`repro.obs.flight`) add four more kinds, each with its own
``"v"``: a ``"flight"`` header (:data:`FLIGHT_SCHEMA`), per-update
``"metric"`` events (:data:`METRIC_EVENT_SCHEMA`), injected-storage
``"fault"`` events (:data:`FAULT_EVENT_SCHEMA`), and a full registry
``"metrics"`` snapshot (:data:`METRICS_SNAPSHOT_SCHEMA` — also appended
to ordinary traces so ``python -m repro obs expose --from FILE`` can
re-render a finished run).  The trace-analytics layer
(:mod:`repro.obs.analyze` / :mod:`repro.obs.cost`) adds three more
kinds, each ``v`` = 1: ``"exemplar"`` tail-sample records linking
histogram buckets to span ids (:data:`EXEMPLAR_SCHEMA`), a ``"cost"``
per-label-set page-cost attribution record with its conservation verdict
(:data:`COST_SCHEMA`), and a ``"diff"`` trace-diff verdict
(:data:`DIFF_SCHEMA`).  Any other ``kind`` is a validation error —
readers of version-1 files (spans only) keep working unchanged.
:func:`validate_jsonl` checks a file against the schemas (the CI trace
smoke job and ``python -m repro trace validate`` run this).

Files stream in both directions, so memory holds one record, not the
file.  The exporters encode and write one record at a time into a file
beside the target, which replaces the target only once complete.
:func:`validate_jsonl` and :func:`read_trace` (the spans re-linked, the
other records, and the validation errors) decode one line at a time, in
one pass per file.

Wall-clock keys (:data:`WALL_KEYS`) are the one part of a record that is
*not* replay-stable; :func:`strip_wall_keys` is the shared projection
used both by the flight recorder's deterministic view and by the
trace-diff normalizer, so the two layers can never disagree about what
"deterministic" means.

Chrome format — a ``{"traceEvents": [...]}`` object of complete (``"X"``)
events, loadable in ``chrome://tracing`` or https://ui.perfetto.dev.  Each
span yields up to two events on two synthetic processes:

* ``pid 1`` — the **wall clock** timeline (perf_counter, rebased to the
  earliest span start);
* ``pid 2`` — the **simulated disk** timeline (``disk.clock`` seconds),
  emitted only for spans that had a disk in scope.

Timestamps and durations are microseconds, per the trace_event spec.  Span
attributes and page-read/write deltas ride along in ``args``.
"""

from __future__ import annotations

import json
import os
from collections.abc import Sequence
from contextlib import contextmanager
from itertools import chain, islice
from pathlib import Path
from typing import NamedTuple

from .tracer import SpanRecord

__all__ = [
    "COST_SCHEMA",
    "DIFF_SCHEMA",
    "EXEMPLAR_SCHEMA",
    "FAULT_EVENT_SCHEMA",
    "FLIGHT_SCHEMA",
    "METRIC_EVENT_SCHEMA",
    "METRICS_SNAPSHOT_SCHEMA",
    "QUALITY_SCHEMA",
    "SPAN_SCHEMA",
    "WALL_KEYS",
    "TraceFile",
    "export_chrome_trace",
    "export_jsonl",
    "read_trace",
    "strip_wall_keys",
    "to_chrome_trace",
    "validate_jsonl",
    "write_records",
]

#: Record keys whose values are wall-clock measurements (never
#: replay-stable).  Shared by ``flight.deterministic_view`` and the
#: trace-diff normalizer so both strip exactly the same fields.
WALL_KEYS = ("start_wall", "end_wall", "wall_seconds")


def strip_wall_keys(record: dict) -> dict:
    """A copy of *record* without any :data:`WALL_KEYS` entries, at any depth.

    Spans carry their wall keys at the top; a quality record nests one in
    each time-to-accuracy entry of its ``estimator`` summary.
    """
    out = {}
    for key, value in record.items():
        if key in WALL_KEYS:
            continue
        if isinstance(value, dict):
            value = strip_wall_keys(value)
        elif isinstance(value, list):
            value = [strip_wall_keys(v) if isinstance(v, dict) else v for v in value]
        out[key] = value
    return out

# key -> (required, allowed types); floats accept ints too (JSON round-trip).
SPAN_SCHEMA: dict = {  # repro: shared[frozen] constant validation table
    "kind": (False, (str,)),
    "name": (True, (str,)),
    "span_id": (True, (int,)),
    "parent_id": (True, (int, type(None))),
    "start_wall": (True, (float, int)),
    "end_wall": (True, (float, int)),
    "start_sim": (False, (float, int, type(None))),
    "end_sim": (False, (float, int, type(None))),
    "page_reads": (False, (int,)),
    "page_writes": (False, (int,)),
    "attrs": (False, (dict,)),
}

#: Schema for ``"kind": "quality"`` lines (record version inside ``"v"``).
QUALITY_SCHEMA: dict = {  # repro: shared[frozen] constant validation table
    "kind": (True, (str,)),
    "v": (True, (int,)),
    "label": (True, (str,)),
    "group": (True, (str,)),
    "lo": (False, (float, int)),
    "hi": (False, (float, int)),
    "batches": (False, (int,)),
    "start_sim": (False, (float, int, type(None))),
    "end_sim": (False, (float, int, type(None))),
    "degraded": (False, (bool,)),
    "degraded_reason": (False, (str, type(None))),
    "uniformity": (True, (dict,)),
    "coverage": (True, (dict,)),
    "estimator": (True, (dict,)),
    "labels": (False, (dict,)),
}

#: Schema for the ``"kind": "flight"`` dump header line.
FLIGHT_SCHEMA: dict = {  # repro: shared[frozen] constant validation table
    "kind": (True, (str,)),
    "v": (True, (int,)),
    "reason": (True, (str,)),
    "events": (True, (int,)),
    "dropped": (True, (int,)),
}

#: Schema for ``"kind": "metric"`` flight events (one metric update).
METRIC_EVENT_SCHEMA: dict = {  # repro: shared[frozen] constant validation table
    "kind": (True, (str,)),
    "v": (True, (int,)),
    "name": (True, (str,)),
    "metric": (True, (str,)),
    "value": (True, (float, int)),
    # Only in dumps from releases that labeled metric updates.
    "labels": (False, (dict,)),
}

#: Schema for ``"kind": "fault"`` flight events (one injected fault; the
#: fault's own kind — transient/corrupt/torn/latency — rides in ``fault``).
FAULT_EVENT_SCHEMA: dict = {  # repro: shared[frozen] constant validation table
    "kind": (True, (str,)),
    "v": (True, (int,)),
    "op": (True, (str,)),
    "ordinal": (True, (int,)),
    "fault": (True, (str,)),
    "page": (True, (int,)),
    "detail": (False, (dict,)),
}

#: Schema for the ``"kind": "metrics"`` whole-registry snapshot record.
METRICS_SNAPSHOT_SCHEMA: dict = {  # repro: shared[frozen] constant validation table
    "kind": (True, (str,)),
    "v": (True, (int,)),
    "counters": (True, (dict,)),
    "gauges": (True, (dict,)),
    "histograms": (True, (dict,)),
    # Capped per-label series, written only by releases before metrics
    # became aggregates; accepted so their trace files still validate.
    "labeled": (False, (dict,)),
}

#: Schema for ``"kind": "exemplar"`` records: one retained histogram
#: observation linking a bucket (``le`` upper bound, ``"+Inf"`` for the
#: overflow bucket) to the span that produced it and the label set it
#: carried.
EXEMPLAR_SCHEMA: dict = {  # repro: shared[frozen] constant validation table
    "kind": (True, (str,)),
    "v": (True, (int,)),
    "metric": (True, (str,)),
    "bucket": (True, (int,)),
    "le": (True, (str,)),
    "value": (True, (float, int)),
    "span_id": (True, (int,)),
    "labels": (False, (dict,)),
}

#: Schema for the ``"kind": "cost"`` attribution record: charged page
#: reads/writes broken down by rendered label set, plus the conservation
#: verdict against the simulated disks' own counters.
COST_SCHEMA: dict = {  # repro: shared[frozen] constant validation table
    "kind": (True, (str,)),
    "v": (True, (int,)),
    "page_reads": (True, (dict,)),
    "page_writes": (False, (dict,)),
    "retry_io_seconds": (False, (dict,)),
    "attributed_reads": (True, (int,)),
    "charged_reads": (True, (int,)),
    "attributed_writes": (False, (int,)),
    "charged_writes": (False, (int,)),
    "conserved": (True, (bool,)),
}

#: Schema for the ``"kind": "diff"`` trace-diff verdict record.
DIFF_SCHEMA: dict = {  # repro: shared[frozen] constant validation table
    "kind": (True, (str,)),
    "v": (True, (int,)),
    "a": (False, (str,)),
    "b": (False, (str,)),
    "identical": (True, (bool,)),
    "aligned": (True, (int,)),
    "only_a": (True, (int,)),
    "only_b": (True, (int,)),
    "divergences": (True, (int,)),
    "first_divergent": (True, (str, type(None))),
    "reason": (False, (str, type(None))),
}


def span_to_dict(record: SpanRecord) -> dict:
    """Flat JSON-serializable view of one span (children omitted)."""
    out = {
        "name": record.name,
        "span_id": record.span_id,
        "parent_id": record.parent_id,
        "start_wall": record.start_wall,
        "end_wall": record.end_wall,
    }
    if record.start_sim is not None:
        out["start_sim"] = record.start_sim
        out["end_sim"] = record.end_sim
        out["page_reads"] = record.page_reads
        out["page_writes"] = record.page_writes
    if record.attrs:
        out["attrs"] = record.attrs
    return out


@contextmanager
def _replace_on_success(path):
    """A text handle on a file beside *path* that replaces *path* on success.

    The records are written one at a time, so a failure part-way (a
    non-JSON attribute, say) must not leave a truncated file where a
    complete one was: the partial file is removed and *path* is untouched.
    """
    target = Path(path)
    partial = target.with_name(target.name + ".partial")
    try:
        with open(partial, "w", encoding="utf-8") as handle:  # repro: allow[CLK001] trace files are host artifacts, not simulated pages
            yield handle
        os.replace(partial, target)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def write_records(path, records) -> int:
    """Write dict *records* to *path* as JSONL, one sorted-key object per line.

    Each record is encoded and written before the next is pulled, so
    memory holds one line, not the file.  Returns the line count.
    """
    encode = json.JSONEncoder(sort_keys=True).encode
    count = 0
    with _replace_on_success(path) as handle:
        for record in records:
            handle.write(encode(record) + "\n")
            count += 1
    return count


def export_jsonl(spans, path, quality=None, metrics=None, extra=None) -> int:
    """Write *spans* (plus optional quality records) to *path*.

    ``quality`` is an iterable of already-serializable quality record
    dictionaries (:meth:`~repro.obs.quality.StreamQualityMonitor.summary`);
    they are appended after the spans.  ``extra`` is an iterable of
    further kind-versioned record dicts (exemplar/cost/diff) appended
    next.  ``metrics`` is an optional registry snapshot dict
    (:meth:`~repro.obs.metrics.MetricsRegistry.snapshot`), appended last
    as one ``"kind": "metrics"`` record so the exposition CLI can
    re-render the run.  Returns the total line count.
    """
    snapshot = () if metrics is None else ({"kind": "metrics", "v": 1, **metrics},)
    return write_records(path, chain(
        map(span_to_dict, spans), quality or (), extra or (), snapshot,
    ))


def _check_schema(obj: dict, schema: dict, where: str) -> list[str]:
    errors = []
    for key, (required, types) in schema.items():
        if key not in obj:
            if required:
                errors.append(f"{where}missing required key {key!r}")
            continue
        value = obj[key]
        # bool subclasses int: reject it for numeric keys unless the schema
        # names bool explicitly.
        if (isinstance(value, bool) and bool not in types) or not isinstance(
            value, types
        ):
            expected = "/".join(t.__name__ for t in types)
            errors.append(
                f"{where}key {key!r} must be {expected}, "
                f"got {type(value).__name__}"
            )
    for key in obj:
        if key not in schema:
            errors.append(f"{where}unknown key {key!r}")
    return errors


def validate_span_dict(obj, line_no: int = 0) -> list[str]:
    """Schema-check one decoded JSONL record (span or quality kind)."""
    where = f"line {line_no}: " if line_no else ""
    if not isinstance(obj, dict):
        return [f"{where}record must be a JSON object, got {type(obj).__name__}"]
    kind = obj.get("kind", "span")
    if kind == "quality":
        return _check_schema(obj, QUALITY_SCHEMA, where)
    if kind == "flight":
        return _check_schema(obj, FLIGHT_SCHEMA, where)
    if kind == "metric":
        return _check_schema(obj, METRIC_EVENT_SCHEMA, where)
    if kind == "fault":
        return _check_schema(obj, FAULT_EVENT_SCHEMA, where)
    if kind == "metrics":
        return _check_schema(obj, METRICS_SNAPSHOT_SCHEMA, where)
    if kind == "exemplar":
        return _check_schema(obj, EXEMPLAR_SCHEMA, where)
    if kind == "cost":
        errors = _check_schema(obj, COST_SCHEMA, where)
        if not errors and obj["conserved"] and (
            obj["attributed_reads"] != obj["charged_reads"]
        ):
            errors.append(
                f"{where}cost record claims conservation but attributed "
                f"({obj['attributed_reads']}) != charged "
                f"({obj['charged_reads']})"
            )
        return errors
    if kind == "diff":
        return _check_schema(obj, DIFF_SCHEMA, where)
    if kind != "span":
        return [f"{where}unknown record kind {kind!r}"]
    errors = _check_schema(obj, SPAN_SCHEMA, where)
    if not errors and obj["end_wall"] < obj["start_wall"]:
        errors.append(f"{where}end_wall precedes start_wall")
    return errors


def _scan(path):
    """Decode and schema-check a JSONL file one line at a time.

    Yields ``(record, errors)`` for every non-blank line, in file order;
    ``record`` is ``None`` when the line is not JSON.  Lines end at
    ``"\\n"`` only (a CRLF file still reads): ``str.splitlines`` would
    also split at U+2028, U+2029 and U+0085, which JSON strings may hold
    raw.  Only span records *declare* ids; exemplar records carry a
    span_id that references an existing span, so they are exempt from the
    uniqueness check.
    """
    seen_ids: set[int] = set()
    with open(path, encoding="utf-8", newline="\n") as handle:  # repro: allow[CLK001] trace files are host artifacts, not simulated pages
        for line_no, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line.rstrip("\r\n"))
            except json.JSONDecodeError as exc:
                yield None, [f"line {line_no}: not valid JSON ({exc.msg})"]
                continue
            errors = validate_span_dict(obj, line_no)
            if (
                isinstance(obj, dict)
                and obj.get("kind", "span") == "span"
                and isinstance(obj.get("span_id"), int)
            ):
                if obj["span_id"] in seen_ids:
                    errors.append(
                        f"line {line_no}: duplicate span_id {obj['span_id']}"
                    )
                seen_ids.add(obj["span_id"])
            yield obj, errors


def validate_jsonl(path) -> list[str]:
    """Validate every line of a JSONL trace file; empty list means valid."""
    errors: list[str] = []
    for _, line_errors in _scan(path):
        errors.extend(line_errors)
    return errors


class TraceFile(NamedTuple):
    """What :func:`read_trace` found in one JSONL file.

    ``spans`` are the span records with children re-linked.  ``records``
    holds every record that names its ``kind``, in file order: the
    quality, exemplar, cost and metrics records of a trace, and every
    event of a flight dump (whose spans say ``"kind": "span"`` and so are
    in both lists).  ``errors`` are :func:`validate_jsonl`'s messages; a
    line with errors contributes nothing else.
    """

    spans: list
    records: list
    errors: list

    def of_kind(self, kind: str) -> list[dict]:
        """The records of one kind, in file order."""
        return [record for record in self.records if record["kind"] == kind]

    def last(self, kind: str) -> dict | None:
        """The last record of *kind* without its ``kind``/``v`` keys, if any."""
        for record in reversed(self.records):
            if record["kind"] == kind:
                return {key: value for key, value in record.items()
                        if key not in ("kind", "v")}
        return None


def read_trace(path) -> TraceFile:
    """Read a JSONL trace or flight dump in one pass (see :class:`TraceFile`)."""
    spans: list[SpanRecord] = []
    records: list[dict] = []
    errors: list[str] = []
    by_id: dict[int, SpanRecord] = {}
    for obj, line_errors in _scan(path):
        if line_errors:
            errors.extend(line_errors)
            continue
        kind = obj.get("kind")
        if kind is not None:
            records.append(obj)
            if kind != "span":
                continue
        record = SpanRecord(obj["name"], obj.get("attrs") or {})
        record.span_id = obj["span_id"]
        record.parent_id = obj.get("parent_id")
        record.start_wall = obj["start_wall"]
        record.end_wall = obj["end_wall"]
        record.start_sim = obj.get("start_sim")
        record.end_sim = obj.get("end_sim")
        record.page_reads = obj.get("page_reads", 0)
        record.page_writes = obj.get("page_writes", 0)
        spans.append(record)
        by_id[record.span_id] = record
    for record in spans:
        parent = by_id.get(record.parent_id) if record.parent_id is not None else None
        if parent is not None:
            parent.children.append(record)
    return TraceFile(spans, records, errors)


#: Chrome events encoded per ``json.dumps`` call by :func:`export_chrome_trace`.
_CHROME_CHUNK = 128


def _chrome_events(spans, quality):
    """The Chrome trace_event dicts for *spans* and *quality*, one at a time."""
    if not isinstance(spans, Sequence):
        spans = list(spans)  # iterated twice: once for the time base
    yield {"ph": "M", "pid": 1, "tid": 1, "name": "process_name",
           "args": {"name": "wall clock"}}
    yield {"ph": "M", "pid": 2, "tid": 1, "name": "process_name",
           "args": {"name": "simulated disk"}}
    base_wall = min((s.start_wall for s in spans), default=0.0)
    for span in spans:
        args = dict(span.attrs)
        if span.start_sim is not None:
            args["page_reads"] = span.page_reads
            args["page_writes"] = span.page_writes
        yield {
            "name": span.name,
            "ph": "X",
            "pid": 1,
            "tid": 1,
            "ts": (span.start_wall - base_wall) * 1e6,
            "dur": span.wall_seconds * 1e6,
            "args": args,
        }
        if span.start_sim is not None:
            yield {
                "name": span.name,
                "ph": "X",
                "pid": 2,
                "tid": 1,
                "ts": span.start_sim * 1e6,
                "dur": span.sim_seconds * 1e6,
                "args": args,
            }
    for record in quality or ():
        name = f"ci_half_width:{record.get('label', record.get('group', '?'))}"
        for point in record.get("estimator", {}).get("timeline", ()):
            half = point.get("half_width")
            if half is None:
                continue
            yield {
                "name": name,
                "ph": "C",
                "pid": 2,
                "tid": 1,
                "ts": point["clock"] * 1e6,
                "args": {"half_width": half},
            }


def to_chrome_trace(spans, quality=None) -> dict:
    """Build the Chrome trace_event object for a flat span iterable.

    Quality records contribute counter (``"C"``) events on the simulated
    timeline: the running CI half-width of each monitored stream, so the
    statistical convergence renders alongside the I/O spans in Perfetto.
    """
    return {"traceEvents": list(_chrome_events(spans, quality)),
            "displayTimeUnit": "ms"}


def export_chrome_trace(spans, path, quality=None) -> int:
    """Write the Chrome trace for *spans* to *path*; returns the event count.

    The file is the ``json.dumps`` of :func:`to_chrome_trace`'s object.
    Events are encoded :data:`_CHROME_CHUNK` at a time (one C-level
    encode per chunk, with the brackets of the chunk's list cut off), so
    memory holds one chunk, not the file.
    """
    events = _chrome_events(spans, quality)
    count = 0
    with _replace_on_success(path) as handle:
        handle.write('{"traceEvents": [')
        while chunk := list(islice(events, _CHROME_CHUNK)):
            handle.write((", " if count else "") + json.dumps(chunk)[1:-1])
            count += len(chunk)
        handle.write('], "displayTimeUnit": "ms"}\n')
    return count
