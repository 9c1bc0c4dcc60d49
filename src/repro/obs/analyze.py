"""Trace analytics: run diffing, critical paths, flamegraphs, exemplars.

The telemetry substrate records everything — spans with dual clocks,
metrics and flight rings — but raw JSONL is a poor debugging surface.
This module turns the repro's *bit-identical simulated clock* invariant
into tools:

* **Stable span path keys** (:func:`span_paths`): every span gets a
  wall-free key ``parent-path/name#ordinal`` where the ordinal counts
  same-named siblings in child order.  Two runs of the same seed produce
  identical key sets even though raw span ids differ (the tracer's id
  counter is process-global), so keys — not ids — are the join column
  for everything below.
* **Trace diff** (:func:`diff_traces`): aligns two traces by path key,
  compares each aligned span on its replay-stable fields (the
  :func:`~repro.obs.export.strip_wall_keys` projection shared with the
  flight recorder), reports per-subtree simulated-clock / page-read
  deltas, and names the *first divergent span* in preorder.  The CLI
  (``python -m repro trace diff A.jsonl B.jsonl``) exits 0 when
  identical, 1 on divergence, 2 on malformed input; ``bench --compare``
  and the testkit oracle invoke it automatically on deterministic
  failures.
* **Critical path** (:func:`critical_path`) and **flamegraphs**
  (:func:`flamegraph_lines`): max-cost root-to-leaf descent and
  collapsed-stack export (``name;child;... value``), on either clock or
  raw page reads; page-read attribution rides along so the flame totals
  reconcile with the disks' charged counters.
* **Flight-dump diffing** (:func:`diff_event_views`): the same lockstep
  comparison over ``deterministic_view`` projections of two flight
  event sequences — used by the testkit to classify an oracle failure
  as deterministic (replay diffs empty) or not.

Verdicts serialize as ``"kind": "diff"`` records
(:data:`~repro.obs.export.DIFF_SCHEMA`), exemplar retention as
``"kind": "exemplar"`` records built from registry snapshots
(:func:`exemplar_records`), and cost-accountant ledgers as
``"kind": "cost"`` records (:func:`cost_record`) — all validated by
``trace validate``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .export import span_to_dict, strip_wall_keys
from .flight import deterministic_view

__all__ = [
    "CLOCKS",
    "SpanDivergence",
    "TraceDiff",
    "cost_record",
    "critical_path",
    "diff_event_views",
    "diff_traces",
    "diff_verdict_record",
    "exemplar_records",
    "flamegraph_lines",
    "normalize_span",
    "render_critical_path",
    "render_flamegraph_summary",
    "render_trace_diff",
    "span_paths",
    "trace_roots",
]

#: Cost dimensions understood by the analytics: the two clocks plus raw
#: charged page reads.
CLOCKS = ("sim", "wall", "reads")

#: Span-record keys excluded from divergence comparison on top of the
#: wall keys: ids are process-global counters, not replay-stable.
_ID_KEYS = ("span_id", "parent_id")


def trace_roots(records) -> list:
    """The root spans of a loaded trace, in file order.

    A span is a root when it has no parent or its parent is not in the
    file (a flight ring may have evicted it).
    """
    ids = {record.span_id for record in records}
    return [
        record for record in records
        if record.parent_id is None or record.parent_id not in ids
    ]


def span_paths(records) -> dict:
    """Stable path key -> span record, in preorder.

    Keys are ``parent-path/name#ordinal`` with the ordinal counting
    same-named siblings in child order — no wall values, no raw ids —
    so two same-seed runs produce the same key set.
    """
    out: dict = {}

    def assign(children, prefix: str) -> None:
        ordinals: dict[str, int] = {}
        for child in children:
            ordinal = ordinals.get(child.name, 0)
            ordinals[child.name] = ordinal + 1
            path = f"{prefix}{child.name}#{ordinal}"
            out[path] = child
            assign(child.children, path + "/")

    assign(trace_roots(records), "")
    return out


def normalize_span(record) -> dict:
    """The replay-stable projection of one span (diff comparison basis)."""
    cleaned = strip_wall_keys(span_to_dict(record))
    for key in _ID_KEYS:
        cleaned.pop(key, None)
    return cleaned


@dataclass(frozen=True, slots=True)
class SpanDivergence:
    """One aligned span whose replay-stable fields differ."""

    path: str
    fields: tuple
    a: dict
    b: dict


@dataclass
class TraceDiff:
    """Everything :func:`diff_traces` found between two traces.

    ``divergences`` and the ``only_a``/``only_b`` path lists are in
    A's / B's preorder; ``deltas`` holds ``(path, sim_delta,
    reads_delta)`` for every aligned subtree whose cumulative simulated
    seconds or page reads moved (B minus A).
    """

    aligned: int = 0
    only_a: list = field(default_factory=list)
    only_b: list = field(default_factory=list)
    divergences: list = field(default_factory=list)
    deltas: list = field(default_factory=list)
    first_divergent: str | None = None

    @property
    def identical(self) -> bool:
        return not (self.only_a or self.only_b or self.divergences)


def diff_traces(records_a, records_b) -> TraceDiff:
    """Align two loaded traces by span path key and compare them.

    The walk is A's preorder, so ``first_divergent`` is the earliest
    span (structural or value) where the runs split — the place to start
    debugging, since everything after it may be downstream fallout.
    """
    diff = TraceDiff()
    paths_a = span_paths(records_a)
    paths_b = span_paths(records_b)
    for path, node_a in paths_a.items():  # dict preserves preorder
        node_b = paths_b.get(path)
        if node_b is None:
            diff.only_a.append(path)
            if diff.first_divergent is None:
                diff.first_divergent = path
            continue
        diff.aligned += 1
        norm_a = normalize_span(node_a)
        norm_b = normalize_span(node_b)
        changed = tuple(
            key for key in sorted(norm_a.keys() | norm_b.keys())
            if norm_a.get(key) != norm_b.get(key)
        )
        if changed:
            diff.divergences.append(
                SpanDivergence(
                    path,
                    changed,
                    {key: norm_a.get(key) for key in changed},
                    {key: norm_b.get(key) for key in changed},
                )
            )
            if diff.first_divergent is None:
                diff.first_divergent = path
        sim_delta = node_b.sim_seconds - node_a.sim_seconds
        reads_delta = node_b.page_reads - node_a.page_reads
        if sim_delta or reads_delta:
            diff.deltas.append((path, sim_delta, reads_delta))
    diff.only_b = [path for path in paths_b if path not in paths_a]
    if diff.first_divergent is None and diff.only_b:
        diff.first_divergent = diff.only_b[0]
    return diff


def diff_verdict_record(diff: TraceDiff, a=None, b=None, reason=None) -> dict:
    """The ``"kind": "diff"`` JSONL record for *diff* (DIFF_SCHEMA)."""
    record = {
        "kind": "diff",
        "v": 1,
        "identical": diff.identical,
        "aligned": diff.aligned,
        "only_a": len(diff.only_a),
        "only_b": len(diff.only_b),
        "divergences": len(diff.divergences),
        "first_divergent": diff.first_divergent,
    }
    if a is not None:
        record["a"] = str(a)
    if b is not None:
        record["b"] = str(b)
    if reason is not None:
        record["reason"] = str(reason)
    return record


def diff_event_views(events_a, events_b) -> dict:
    """Lockstep-compare the deterministic views of two flight event lists.

    Returns a verdict dict shaped like the :class:`TraceDiff` summary:
    ``identical`` / ``aligned`` / ``only_a`` / ``only_b`` /
    ``divergences`` / ``first_divergent`` (a human-readable event
    description, since ring events have no span-tree paths).
    """
    view_a = deterministic_view(events_a)
    view_b = deterministic_view(events_b)
    first = None
    diverging = 0
    for index, (event_a, event_b) in enumerate(zip(view_a, view_b)):
        if event_a == event_b:
            continue
        diverging += 1
        if first is None:
            changed = [
                key for key in sorted(event_a.keys() | event_b.keys())
                if event_a.get(key) != event_b.get(key)
            ]
            label = event_a.get("name") or event_a.get("kind", "span")
            first = f"event #{index} ({label}): {', '.join(changed)}"
    only_a = max(0, len(view_a) - len(view_b))
    only_b = max(0, len(view_b) - len(view_a))
    if first is None and only_a:
        first = f"event #{len(view_b)} onward only in A ({only_a} event(s))"
    if first is None and only_b:
        first = f"event #{len(view_a)} onward only in B ({only_b} event(s))"
    return {
        "identical": first is None,
        "aligned": min(len(view_a), len(view_b)),
        "only_a": only_a,
        "only_b": only_b,
        "divergences": diverging,
        "first_divergent": first,
    }


# -- cost dimensions ---------------------------------------------------


def _span_cost(record, clock: str) -> float:
    if clock == "sim":
        return record.sim_seconds
    if clock == "wall":
        return record.wall_seconds
    if clock == "reads":
        return record.page_reads
    raise ValueError(f"unknown clock {clock!r}; choose from {', '.join(CLOCKS)}")


def critical_path(records, clock: str = "sim") -> list[dict]:
    """Max-cost root-to-leaf descent, one row per step.

    Starts at the most expensive root and repeatedly descends into the
    most expensive child (ties break to the first in child order, which
    is deterministic).  Each row carries the span's stable path key, its
    cumulative and self cost on *clock*, and its cumulative page reads
    so cost attribution survives into the report.
    """
    roots = trace_roots(records)
    if not roots:
        return []
    path_of = {
        record.span_id: path for path, record in span_paths(records).items()
    }
    node = max(roots, key=lambda r: _span_cost(r, clock))
    rows = []
    while node is not None:
        cumulative = _span_cost(node, clock)
        child_sum = sum(_span_cost(c, clock) for c in node.children)
        rows.append({
            "path": path_of[node.span_id],
            "cumulative": cumulative,
            "self": max(0.0, cumulative - child_sum),
            "page_reads": node.page_reads,
            "self_page_reads": node.self_page_reads,
        })
        node = (
            max(node.children, key=lambda c: _span_cost(c, clock))
            if node.children else None
        )
    return rows


def flamegraph_lines(records, clock: str = "sim") -> list[str]:
    """Collapsed-stack flamegraph lines: ``root;child;leaf value``.

    Stacks are semicolon-joined span *names* (ordinals collapse, which
    is what aggregating flame tooling expects); the value is the integer
    self cost — microseconds for the clocks, raw count for ``reads`` —
    summed over every span sharing the stack.  Lines are sorted, so the
    output is deterministic; zero-valued stacks are dropped.  Feed the
    result to any ``flamegraph.pl``-compatible renderer.
    """
    totals: dict[str, int] = {}

    def walk(node, stack: str) -> None:
        stack = f"{stack};{node.name}" if stack else node.name
        cumulative = _span_cost(node, clock)
        child_sum = sum(_span_cost(c, clock) for c in node.children)
        self_cost = max(0.0, cumulative - child_sum)
        value = int(self_cost) if clock == "reads" else int(round(self_cost * 1e6))
        totals[stack] = totals.get(stack, 0) + value
        for child in node.children:
            walk(child, stack)

    for root in trace_roots(records):
        walk(root, "")
    return [f"{stack} {value}" for stack, value in sorted(totals.items()) if value]


# -- record builders ---------------------------------------------------


def exemplar_records(snapshot: dict | None) -> list[dict]:
    """``"kind": "exemplar"`` JSONL records from a registry snapshot."""
    records = []
    for name, hist in sorted((snapshot or {}).get("histograms", {}).items()):
        for row in hist.get("exemplars", ()):
            records.append({
                "kind": "exemplar",
                "v": 1,
                "metric": name,
                "bucket": row["bucket"],
                "le": row["le"],
                "value": row["value"],
                "span_id": row["span_id"],
                "labels": dict(row.get("labels") or {}),
            })
    return records


def cost_record(snapshot: dict) -> dict:
    """The ``"kind": "cost"`` JSONL record for a cost-ledger snapshot."""
    return {"kind": "cost", "v": 1, **snapshot}


# -- rendering ---------------------------------------------------------


def _fmt_cost(value: float, clock: str) -> str:
    if clock == "reads":
        return f"{int(value)}"
    return f"{value:.6f}s"


def render_trace_diff(diff: TraceDiff, a: str = "A", b: str = "B") -> str:
    """Human-readable diff report (verdict first, then the evidence)."""
    from .report import format_table

    verdict = "identical" if diff.identical else "DIVERGENT"
    lines = [f"== trace diff: {verdict} ({a} vs {b}) =="]
    lines.append(
        f"{diff.aligned} aligned span(s), {len(diff.only_a)} only in {a}, "
        f"{len(diff.only_b)} only in {b}, "
        f"{len(diff.divergences)} value divergence(s)"
    )
    if diff.first_divergent is not None:
        lines.append(f"first divergent span: {diff.first_divergent}")
    for title, paths in ((f"only in {a}", diff.only_a),
                         (f"only in {b}", diff.only_b)):
        if paths:
            shown = paths[:8]
            lines.append(f"-- {title} ({len(paths)}) --")
            lines.extend(f"  {path}" for path in shown)
            if len(paths) > len(shown):
                lines.append(f"  ... and {len(paths) - len(shown)} more")
    if diff.divergences:
        rows = []
        for div in diff.divergences[:12]:
            for fld in div.fields:
                rows.append([div.path, fld, repr(div.a[fld]), repr(div.b[fld])])
        lines.append(format_table(["span path", "field", a, b], rows))
        if len(diff.divergences) > 12:
            lines.append(
                f"... and {len(diff.divergences) - 12} more divergent span(s)"
            )
    if diff.deltas:
        ranked = sorted(
            diff.deltas, key=lambda d: (-abs(d[2]), -abs(d[1]), d[0])
        )[:12]
        lines.append(format_table(
            ["subtree", "sim delta", "page-read delta"],
            [[path, f"{sim:+.6f}s", f"{reads:+d}"]
             for path, sim, reads in ranked],
        ))
    return "\n".join(lines) + "\n"


def render_critical_path(rows: list[dict], clock: str = "sim") -> str:
    """Table form of :func:`critical_path` with page-read attribution."""
    from .report import format_table

    if not rows:
        return "== critical path ==\n(no spans)\n"
    lines = [f"== critical path ({clock}) =="]
    lines.append(format_table(
        ["span path", "cumulative", "self", "reads", "self reads"],
        [[row["path"], _fmt_cost(row["cumulative"], clock),
          _fmt_cost(row["self"], clock), f"{row['page_reads']}",
          f"{row['self_page_reads']}"] for row in rows],
    ))
    total = rows[0]["cumulative"]
    self_sum = sum(row["self"] for row in rows)
    share = (self_sum / total) if total else 1.0
    lines.append(
        f"{len(rows)} step(s); path self cost covers "
        f"{_fmt_cost(self_sum, clock)} of {_fmt_cost(total, clock)} "
        f"({100 * share:.1f}% of the dominant root)"
    )
    return "\n".join(lines) + "\n"


def render_flamegraph_summary(lines: list[str], clock: str = "sim") -> str:
    """One-line summary printed to stderr alongside the collapsed stacks."""
    total = sum(int(line.rsplit(" ", 1)[1]) for line in lines)
    unit = "page reads" if clock == "reads" else "us"
    return (
        f"{len(lines)} collapsed stack(s), {total} {unit} total "
        f"({clock} clock)"
    )
