"""Telemetry exposition: Prometheus text format + a terminal dashboard.

Two render targets over a :meth:`~repro.obs.metrics.MetricsRegistry.
snapshot` dict (live registry or the ``"kind": "metrics"`` record of a
trace file):

* :func:`prometheus_text` — the Prometheus text exposition format
  (``# TYPE`` comments, one series per counter and gauge, cumulative
  ``_bucket``/``_sum``/``_count`` histogram series with an ``+Inf``
  bucket).  Metric names are sanitized (dots become underscores); label
  values (``le`` and exemplar labels) are escaped per the spec.
  Histogram snapshots that retained exemplars emit them in
  OpenMetrics syntax on the matching ``_bucket`` line —
  ``name_bucket{le="4"} 7 # {span_id="42",tenant="t0"} 3.5`` — one (the
  most recently retained) per bucket.  :func:`parse_prometheus_text` is
  the matching strict parser — the test suite and the CI smoke job
  round-trip through it, so the emitted format is verified, not assumed.
* :func:`render_dashboard` — the ``obs expose --watch`` terminal view:
  the top-k counter table, gauges, SLO status rows, and the
  flight-recorder tail.

Everything here is pure rendering — no clocks, no I/O — so the module
stays at obs rank 0; the ``--watch`` refresh loop (the only wall-clock
sleep) lives in the CLI layer.
"""

from __future__ import annotations

import re

from .report import format_table

__all__ = [
    "parse_prometheus_text",
    "prometheus_text",
    "render_dashboard",
]

_NAME_SANITIZE_RE = re.compile(r"[^a-zA-Z0-9_:]")

_SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*?)\})?\s+(\S+)"
    r"(?:\s+#\s+\{(.*)\}\s+(\S+))?$"
)
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')
_TYPE_RE = re.compile(
    r"^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram|summary|untyped)$"
)


def _prom_name(name: str) -> str:
    out = _NAME_SANITIZE_RE.sub("_", name)
    if out and out[0].isdigit():
        out = "_" + out
    return out


def _prom_escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _prom_value(value) -> str:
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(float(value))


def _prom_labels(pairs: list[tuple[str, str]]) -> str:
    if not pairs:
        return ""
    body = ",".join(f'{key}="{_prom_escape(value)}"' for key, value in pairs)
    return "{" + body + "}"


def _exemplar_suffixes(hist: dict) -> dict[int, str]:
    """Bucket index -> OpenMetrics exemplar suffix (last retained wins)."""
    suffixes: dict[int, str] = {}
    for row in hist.get("exemplars", ()):
        pairs = [("span_id", str(row["span_id"]))]
        pairs.extend((key, value) for key, value in (row.get("labels") or {}).items())
        suffixes[row["bucket"]] = (
            f" # {_prom_labels(pairs)} {_prom_value(row['value'])}"
        )
    return suffixes


def _histogram_lines(name: str, hist: dict) -> list[str]:
    exemplars = _exemplar_suffixes(hist)
    lines = []
    cumulative = 0
    for bucket, (bound, count) in enumerate(zip(hist["bounds"], hist["counts"])):
        cumulative += count
        lines.append(
            f"{name}_bucket{_prom_labels([('le', _prom_value(bound))])} {cumulative}"
            f"{exemplars.get(bucket, '')}"
        )
    cumulative += hist["counts"][-1]
    lines.append(
        f"{name}_bucket{_prom_labels([('le', '+Inf')])} {cumulative}"
        f"{exemplars.get(len(hist['bounds']), '')}"
    )
    lines.append(f"{name}_sum {_prom_value(hist['total'])}")
    lines.append(f"{name}_count {hist['count']}")
    return lines


def prometheus_text(snapshot: dict) -> str:
    """Render a metrics snapshot in the Prometheus text exposition format.

    A snapshot's ``labeled`` section (written by releases that kept
    capped per-label series) is not rendered.
    """
    lines: list[str] = []
    for name, value in sorted(snapshot.get("counters", {}).items()):
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} counter")
        lines.append(f"{prom} {_prom_value(value)}")
    for name, value in sorted(snapshot.get("gauges", {}).items()):
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} gauge")
        lines.append(f"{prom} {_prom_value(value)}")
    for name, hist in sorted(snapshot.get("histograms", {}).items()):
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} histogram")
        lines.extend(_histogram_lines(prom, hist))
    return "\n".join(lines) + ("\n" if lines else "")


def _parse_labels(body: str, line_no: int) -> dict[str, str]:
    labels: dict[str, str] = {}
    pos = 0
    while pos < len(body):
        match = _LABEL_RE.match(body, pos)
        if match is None:
            raise ValueError(f"line {line_no}: malformed label at offset {pos}: {body!r}")
        key, raw = match.group(1), match.group(2)
        labels[key] = (
            raw.replace("\\n", "\n").replace('\\"', '"').replace("\\\\", "\\")
        )
        pos = match.end()
        if pos < len(body):
            if body[pos] != ",":
                raise ValueError(f"line {line_no}: expected ',' in labels: {body!r}")
            pos += 1
    return labels


def parse_prometheus_text(text: str) -> dict:
    """Strictly parse Prometheus text format.

    Returns ``{"types": {name: type}, "samples": [(name, labels, value)],
    "exemplars": [(name, labels, exemplar_labels, exemplar_value)]}`` and
    raises :class:`ValueError` on any line that is neither a valid
    comment nor a valid sample — the CI smoke job feeds ``obs expose
    --text`` output through this.  OpenMetrics exemplar suffixes
    (``... # {span_id="42"} 3.5``) are accepted on any sample line and
    land in the ``exemplars`` list.
    """
    types: dict[str, str] = {}
    samples: list[tuple[str, dict, float]] = []
    exemplars: list[tuple[str, dict, dict, float]] = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            if line.startswith("# TYPE "):
                match = _TYPE_RE.match(line)
                if match is None:
                    raise ValueError(f"line {line_no}: malformed TYPE comment: {line!r}")
                types[match.group(1)] = match.group(2)
            continue  # HELP and free comments are legal and ignored
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"line {line_no}: malformed sample: {line!r}")
        name, label_body, raw_value, exemplar_body, exemplar_raw = match.groups()
        labels = _parse_labels(label_body, line_no) if label_body else {}
        try:
            value = float(raw_value)
        except ValueError as exc:
            raise ValueError(
                f"line {line_no}: malformed sample value {raw_value!r}"
            ) from exc
        samples.append((name, labels, value))
        if exemplar_raw is not None:
            exemplar_labels = (
                _parse_labels(exemplar_body, line_no) if exemplar_body else {}
            )
            try:
                exemplar_value = float(exemplar_raw)
            except ValueError as exc:
                raise ValueError(
                    f"line {line_no}: malformed exemplar value {exemplar_raw!r}"
                ) from exc
            exemplars.append((name, labels, exemplar_labels, exemplar_value))
    return {"types": types, "samples": samples, "exemplars": exemplars}


# ---------------------------------------------------------------------------
# terminal dashboard
# ---------------------------------------------------------------------------


def _format_event(event: dict) -> str:
    kind = event.get("kind", "span")
    if kind == "span":
        sim = ""
        if event.get("start_sim") is not None and event.get("end_sim") is not None:
            sim = f" sim={event['end_sim'] - event['start_sim']:.6f}s"
        return f"span    {event.get('name', '?')}{sim}"
    if kind == "metric":
        labels = event.get("labels")
        rendered = (
            "{" + ",".join(f"{k}={v}" for k, v in labels.items()) + "}"
            if labels else ""
        )
        return (f"metric  {event.get('name', '?')}{rendered} "
                f"{event.get('metric', '?')}={event.get('value', 0):g}")
    if kind == "fault":
        return (f"fault   {event.get('fault', '?')} {event.get('op', '?')}"
                f"@{event.get('ordinal', '?')} page={event.get('page', '?')}")
    if kind == "quality":
        return (f"quality {event.get('label', '?')} "
                f"samples={event.get('uniformity', {}).get('samples', '?')}")
    return f"{kind} {event.get('reason', '')}".rstrip()


def _top_counters(snapshot: dict, top: int) -> list[str]:
    counters = snapshot.get("counters", {})
    if not counters:
        return []
    ranked = sorted(counters.items(), key=lambda kv: (-kv[1], kv[0]))[:top]
    return [
        "== top counters ==",
        format_table(["counter", "value"], [[n, f"{v:g}"] for n, v in ranked]),
    ]


def _gauge_table(snapshot: dict) -> list[str]:
    gauges = snapshot.get("gauges", {})
    if not gauges:
        return []
    return [
        "== gauges ==",
        format_table(
            ["gauge", "value"], [[n, f"{v:g}"] for n, v in sorted(gauges.items())]
        ),
    ]


def _slo_table(statuses) -> list[str]:
    if not statuses:
        return []
    rows = []
    for status in statuses:
        burn = max((w["burn"] for w in status.windows), default=None)
        rows.append([
            status.objective,
            status.labels or "(all)",
            "-" if status.value is None else f"{status.value:.4f}",
            "-" if burn is None else f"{burn:.2f}",
            "FIRING" if status.firing else "ok",
        ])
    return [
        "== SLO status (simulated clock) ==",
        format_table(["objective", "labels", "value", "max burn", "state"], rows),
    ]


def _flight_tail(events, tail: int) -> list[str]:
    if not events:
        return []
    recent = list(events)[-tail:]
    return ["== flight recorder tail =="] + [
        f"  {_format_event(event)}" for event in recent
    ]


def render_dashboard(
    snapshot: dict,
    slo_statuses=None,
    flight_events=None,
    top: int = 8,
    title: str = "repro telemetry",
) -> str:
    """Render the live-dashboard frame (pure string; caller owns the loop)."""
    sections: list[list[str]] = [[f"== {title} =="]]
    for section in (
        _top_counters(snapshot, top),
        _gauge_table(snapshot),
        _slo_table(slo_statuses or []),
        _flight_tail(flight_events or [], top),
    ):
        if section:
            sections.append(section)
    if len(sections) == 1:
        sections.append(["(no metrics recorded)"])
    return "\n\n".join("\n".join(section) for section in sections) + "\n"
