"""Trace serialization: JSONL round-trip, schema validation, Chrome format."""

from __future__ import annotations

import hashlib
import json
import tracemalloc

import pytest

from repro.obs import (
    FLIGHT,
    TRACER,
    MetricsRegistry,
    QualitySession,
    export_chrome_trace,
    export_jsonl,
    read_trace,
    to_chrome_trace,
    validate_jsonl,
)
from repro.obs import export as export_module
from repro.obs.flight import write_dump
from repro.obs.tracer import SpanRecord


def _make_spans():
    """A tiny hand-built trace: root (with disk) -> child, plus a diskless root."""
    root = SpanRecord("build", {"records": 100})
    root.span_id = 1
    root.start_wall, root.end_wall = 10.0, 10.5
    root.start_sim, root.end_sim = 0.0, 2.0
    root.page_reads, root.page_writes = 8, 4

    child = SpanRecord("build.sort")
    child.span_id = 2
    child.parent_id = 1
    child.start_wall, child.end_wall = 10.1, 10.3
    child.start_sim, child.end_sim = 0.5, 1.5
    child.page_reads = 6
    root.children.append(child)

    cpu_only = SpanRecord("tick", {"kind": "cpu"})
    cpu_only.span_id = 3
    cpu_only.start_wall, cpu_only.end_wall = 10.6, 10.7

    return [child, root, cpu_only]  # completion order


class TestJsonl:
    def test_round_trip_preserves_everything(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        spans = _make_spans()
        assert export_jsonl(spans, path) == 3

        loaded = read_trace(path).spans
        assert [s.name for s in loaded] == ["build.sort", "build", "tick"]
        by_id = {s.span_id: s for s in loaded}
        root = by_id[1]
        assert root.attrs == {"records": 100}
        assert root.page_reads == 8 and root.page_writes == 4
        assert root.start_sim == 0.0 and root.end_sim == 2.0
        assert [c.span_id for c in root.children] == [2]
        assert by_id[2].parent_id == 1
        assert by_id[3].start_sim is None  # diskless span stays diskless
        assert by_id[3].attrs == {"kind": "cpu"}

    def test_exported_file_validates(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        export_jsonl(_make_spans(), path)
        assert validate_jsonl(path) == []

    def test_empty_trace_round_trips(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        assert export_jsonl([], path) == 0
        assert read_trace(path) == ([], [], [])
        assert validate_jsonl(path) == []


class TestValidation:
    def test_corrupt_json_line_reported_with_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = ('{"name": "a", "span_id": 1, "parent_id": null, '
                '"start_wall": 0.0, "end_wall": 1.0}')
        path.write_text(good + "\n{not json\n")
        errors = validate_jsonl(path)
        assert len(errors) == 1
        assert errors[0].startswith("line 2:")

    def test_missing_required_key(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"name": "a", "span_id": 1, "parent_id": null, '
                        '"start_wall": 0.0}\n')
        errors = validate_jsonl(path)
        assert any("end_wall" in e for e in errors)

    def test_wrong_type_and_bool_masquerade(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"name": "a", "span_id": true, "parent_id": null, '
                        '"start_wall": 0.0, "end_wall": 1.0}\n')
        errors = validate_jsonl(path)
        assert any("span_id" in e for e in errors)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"name": "a", "span_id": 1, "parent_id": null, '
                        '"start_wall": 0.0, "end_wall": 1.0, "bogus": 1}\n')
        assert any("bogus" in e for e in validate_jsonl(path))

    def test_duplicate_span_id_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        line = ('{"name": "a", "span_id": 1, "parent_id": null, '
                '"start_wall": 0.0, "end_wall": 1.0}\n')
        path.write_text(line + line)
        assert any("duplicate span_id" in e for e in validate_jsonl(path))

    def test_backwards_wall_clock_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"name": "a", "span_id": 1, "parent_id": null, '
                        '"start_wall": 2.0, "end_wall": 1.0}\n')
        assert any("end_wall precedes" in e for e in validate_jsonl(path))

    def test_raw_line_separators_inside_strings(self, tmp_path):
        """JSON strings may hold U+2028, U+2029 and U+0085 raw; a line ends
        at "\\n" only."""
        path = tmp_path / "raw.jsonl"
        name = "a\u2028b\u2029c\x85d"
        span = {"name": name, "span_id": 1, "parent_id": None,
                "start_wall": 0.0, "end_wall": 1.0}
        path.write_text(json.dumps(span, ensure_ascii=False) + "\n",
                        encoding="utf-8")
        assert validate_jsonl(path) == []
        (loaded,) = read_trace(path).spans
        assert loaded.name == name

    def test_crlf_lines_still_read(self, tmp_path):
        path = tmp_path / "crlf.jsonl"
        export_jsonl(_make_spans(), path)
        crlf = tmp_path / "crlf2.jsonl"
        crlf.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        assert validate_jsonl(crlf) == []
        assert [s.span_id for s in read_trace(crlf).spans] == [2, 1, 3]

    def test_validation_builds_no_span_records(self, tmp_path, monkeypatch):
        path = tmp_path / "trace.jsonl"
        export_jsonl(_make_spans(), path)

        def refuse(*args, **kwargs):
            raise AssertionError("validate_jsonl built a SpanRecord")

        monkeypatch.setattr(export_module, "SpanRecord", refuse)
        assert validate_jsonl(path) == []

    def test_read_trace_reports_the_validator_errors(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = ('{"name": "a", "span_id": 1, "parent_id": null, '
                '"start_wall": 0.0, "end_wall": 1.0}')
        path.write_text(good + "\n{not json\n" + good + "\n"
                        + '{"kind": "mystery", "v": 1}\n')
        trace = read_trace(path)
        assert trace.errors == validate_jsonl(path)
        assert [e.split(":")[0] for e in trace.errors] == [
            "line 2", "line 3", "line 4",
        ]
        # A line with errors contributes nothing else.
        assert [s.span_id for s in trace.spans] == [1]
        assert trace.records == []


def _make_quality():
    """One finalized quality record from a synthetic monitored stream."""
    import random

    session = QualitySession(metrics=MetricsRegistry())
    monitor = session.monitor("q0", lambda r: r[0], lo=0.0, hi=1.0,
                              group="ACE Tree")
    rng = random.Random(2)
    clock = 0.0
    for _ in range(4):
        clock += 0.25
        monitor.observe_batch([(rng.random(),) for _ in range(100)], clock)
    session.finalize()
    return session.records()


class TestQualityRecords:
    def test_mixed_file_round_trips_both_kinds(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        quality = _make_quality()
        assert export_jsonl(_make_spans(), path, quality=quality) == 4
        assert validate_jsonl(path) == []
        # Spans and kind-tagged records come back apart.
        trace = read_trace(path)
        assert [s.name for s in trace.spans] == [
            "build.sort", "build", "tick",
        ]
        (record,) = trace.of_kind("quality")
        assert record["kind"] == "quality" and record["v"] == 1
        assert record["label"] == "q0"
        assert record["uniformity"]["samples"] == 400
        assert record["estimator"]["n"] == 400

    def test_unknown_kind_is_a_validation_error(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "mystery", "v": 1}\n')
        assert any("unknown record kind" in e for e in validate_jsonl(path))

    def test_quality_line_missing_key_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        quality = _make_quality()
        del quality[0]["uniformity"]
        export_jsonl([], path, quality=quality)
        assert any("uniformity" in e for e in validate_jsonl(path))

    def test_chrome_trace_gets_ci_counter_events(self):
        trace = to_chrome_trace(_make_spans(), quality=_make_quality())
        counters = [e for e in trace["traceEvents"] if e["ph"] == "C"]
        assert counters, "expected CI half-width counter events"
        assert all(e["name"] == "ci_half_width:q0" for e in counters)
        assert all(e["pid"] == 2 for e in counters)  # simulated timeline
        widths = [e["args"]["half_width"] for e in counters]
        assert widths == sorted(widths, reverse=True)  # CI shrinks


class TestChromeTrace:
    def test_structure_and_dual_timeline(self, tmp_path):
        trace = to_chrome_trace(_make_spans())
        events = trace["traceEvents"]
        metadata = [e for e in events if e["ph"] == "M"]
        complete = [e for e in events if e["ph"] == "X"]
        # one process-name record per clock
        assert {e["pid"] for e in metadata} == {1, 2}
        assert {e["args"]["name"] for e in metadata} == {
            "wall clock", "simulated disk",
        }
        # every span gets a wall event; disk spans get a second, sim one
        assert len(complete) == 3 + 2
        wall = [e for e in complete if e["pid"] == 1]
        sim = [e for e in complete if e["pid"] == 2]
        assert {e["name"] for e in wall} == {"build", "build.sort", "tick"}
        assert {e["name"] for e in sim} == {"build", "build.sort"}

    def test_wall_timestamps_rebased_to_microseconds(self):
        trace = to_chrome_trace(_make_spans())
        wall = {e["name"]: e for e in trace["traceEvents"]
                if e["ph"] == "X" and e["pid"] == 1}
        # earliest start (10.0s) becomes ts 0; durations in microseconds
        assert wall["build"]["ts"] == 0.0
        assert abs(wall["build"]["dur"] - 0.5e6) < 1.0
        assert abs(wall["build.sort"]["ts"] - 0.1e6) < 1.0

    def test_args_carry_attrs_and_page_counts(self):
        trace = to_chrome_trace(_make_spans())
        wall = {e["name"]: e for e in trace["traceEvents"]
                if e["ph"] == "X" and e["pid"] == 1}
        assert wall["build"]["args"]["records"] == 100
        assert wall["build"]["args"]["page_reads"] == 8
        assert wall["tick"]["args"] == {"kind": "cpu"}

    def test_export_writes_valid_json(self, tmp_path):
        path = tmp_path / "trace.chrome.json"
        count = export_chrome_trace(_make_spans(), path)
        parsed = json.loads(path.read_text())
        assert len(parsed["traceEvents"]) == count
        assert parsed["displayTimeUnit"] == "ms"


class TestAnalyticsRecordValidation:
    """Corrupted exemplar/cost/diff records must fail ``trace validate``."""

    GOOD_EXEMPLAR = {
        "kind": "exemplar", "v": 1, "metric": "query.lat_sim_s",
        "bucket": 2, "le": "+Inf", "value": 3.5, "span_id": 42,
        "labels": {"tenant": "t0"},
    }
    GOOD_COST = {
        "kind": "cost", "v": 1, "page_reads": {"tenant=t0": 8},
        "page_writes": {}, "retry_io_seconds": {},
        "attributed_reads": 8, "charged_reads": 8,
        "attributed_writes": 0, "charged_writes": 0, "conserved": True,
    }
    GOOD_DIFF = {
        "kind": "diff", "v": 1, "identical": False, "aligned": 12,
        "only_a": 0, "only_b": 1, "divergences": 3,
        "first_divergent": "ace_query.stab#0",
    }

    def _validate(self, tmp_path, record):
        path = tmp_path / "trace.jsonl"
        path.write_text(json.dumps(record) + "\n")
        return validate_jsonl(path)

    def test_good_records_validate(self, tmp_path):
        for record in (self.GOOD_EXEMPLAR, self.GOOD_COST, self.GOOD_DIFF):
            assert self._validate(tmp_path, record) == [], record["kind"]

    def test_exemplar_missing_span_id(self, tmp_path):
        record = dict(self.GOOD_EXEMPLAR)
        del record["span_id"]
        assert any("span_id" in e for e in self._validate(tmp_path, record))

    def test_exemplar_wrong_bucket_type(self, tmp_path):
        record = dict(self.GOOD_EXEMPLAR, bucket="overflow")
        assert any("bucket" in e for e in self._validate(tmp_path, record))

    def test_exemplar_unknown_key(self, tmp_path):
        record = dict(self.GOOD_EXEMPLAR, trace_id=9)
        assert any("trace_id" in e for e in self._validate(tmp_path, record))

    def test_exemplar_does_not_claim_a_span_id(self, tmp_path):
        """Exemplars reference spans; they must not trip the duplicate check."""
        span = {"name": "a", "span_id": 42, "parent_id": None,
                "start_wall": 0.0, "end_wall": 1.0}
        path = tmp_path / "trace.jsonl"
        path.write_text(json.dumps(span) + "\n"
                        + json.dumps(self.GOOD_EXEMPLAR) + "\n")
        assert validate_jsonl(path) == []

    def test_cost_missing_conserved(self, tmp_path):
        record = dict(self.GOOD_COST)
        del record["conserved"]
        assert any("conserved" in e for e in self._validate(tmp_path, record))

    def test_cost_false_conservation_claim_rejected(self, tmp_path):
        record = dict(self.GOOD_COST, attributed_reads=7)
        errors = self._validate(tmp_path, record)
        assert any("claims conservation" in e for e in errors)

    def test_cost_ledger_wrong_type(self, tmp_path):
        record = dict(self.GOOD_COST, page_reads=8)
        assert any("page_reads" in e for e in self._validate(tmp_path, record))

    def test_diff_missing_first_divergent(self, tmp_path):
        record = dict(self.GOOD_DIFF)
        del record["first_divergent"]
        errors = self._validate(tmp_path, record)
        assert any("first_divergent" in e for e in errors)

    def test_diff_null_first_divergent_allowed(self, tmp_path):
        record = dict(self.GOOD_DIFF, identical=True, divergences=0,
                      only_b=0, first_divergent=None)
        assert self._validate(tmp_path, record) == []

    def test_diff_bool_masquerading_as_count(self, tmp_path):
        record = dict(self.GOOD_DIFF, aligned=True)
        assert any("aligned" in e for e in self._validate(tmp_path, record))


def _pinned_set():
    """Spans with fixed clocks plus quality, exemplar, cost and metrics records."""
    spans = []
    for i in range(1, 41):
        span = SpanRecord(f"op.{i % 5}", {
            "leaf": i, "ratio": i / 7, "tag": "café" if i % 9 == 0 else None,
        })
        span.span_id = i
        span.parent_id = None if i % 4 == 1 else i - 1
        span.start_wall = 100.0 + i * 0.001
        span.end_wall = span.start_wall + (i % 3) * 1e-4
        if i % 2:
            span.start_sim = i * 0.01
            span.end_sim = span.start_sim + 0.1 + 0.2
            span.page_reads = i
            span.page_writes = i // 3
        spans.append(span)
    quality = [{
        "kind": "quality", "v": 1, "label": "t0/q1", "group": "t0",
        "lo": 1.0, "hi": 9.5, "batches": 3, "start_sim": 0.25, "end_sim": 1.0,
        "degraded": False, "degraded_reason": None,
        "uniformity": {"ok": True, "samples": 300, "chi2": 3.92},
        "coverage": {"hit": 8, "strata": 8},
        "estimator": {"n": 300, "mean": 0.5063593903144024, "timeline": [
            {"clock": 0.25, "half_width": 0.056262657821144084, "n": 100},
            {"clock": 0.5, "half_width": None, "n": 200},
            {"clock": 1.0, "half_width": 0.02833808126563432, "n": 300},
        ]},
        "labels": {"tenant": "t0", "query": "q1"},
    }]
    extra = [
        {"kind": "exemplar", "v": 1, "metric": "query.lat_sim_s", "bucket": 2,
         "le": "+Inf", "value": 3.5, "span_id": 7, "labels": {"tenant": "t0"}},
        {"kind": "cost", "v": 1, "page_reads": {"tenant=t0": 8},
         "page_writes": {}, "retry_io_seconds": {}, "attributed_reads": 8,
         "charged_reads": 8, "attributed_writes": 0, "charged_writes": 0,
         "conserved": True},
    ]
    metrics = {"counters": {"b": 2, "a": 1}, "gauges": {"g": 0.1 + 0.2},
               "histograms": {"h": {"bounds": [1.0, 2.0], "counts": [1, 0, 2],
                                    "count": 3, "total": 4.5, "mean": 1.5}},
               "labeled": {"counters": {"c": {"tenant=t0": 3}}}}
    return spans, quality, extra, metrics


def _many_spans(n):
    spans = []
    for i in range(1, n + 1):
        span = SpanRecord("ace_query.stab", {"leaf": i % 2048, "pages": 1})
        span.span_id = i
        span.parent_id = None if i % 8 == 1 else i - 1
        span.start_wall = 1000.0 + i * 1e-5
        span.end_wall = span.start_wall + 3e-6
        span.start_sim = i * 0.004
        span.end_sim = span.start_sim + 0.004
        span.page_reads = 1
        spans.append(span)
    return spans


def _traced_peak(fn, *args) -> int:
    """Peak bytes allocated while ``fn(*args)`` runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestStreamedFiles:
    def test_files_are_byte_pinned(self, tmp_path):
        """Digests taken from the exporters that built whole files in memory."""
        spans, quality, extra, metrics = _pinned_set()
        jsonl = tmp_path / "t.jsonl"
        chrome = tmp_path / "t.chrome.json"
        assert export_jsonl(spans, jsonl, quality=quality, metrics=metrics,
                            extra=extra) == 44
        assert export_chrome_trace(spans, chrome, quality=quality) == 64
        assert hashlib.sha256(jsonl.read_bytes()).hexdigest() == (
            "64d29277ce5bbd6b0a9ee0a1d0b55636e89ee445803950694c755f8a3c13b93c"
        )
        assert hashlib.sha256(chrome.read_bytes()).hexdigest() == (
            "dc0e536ebe808e71aa586bf6939cdda5919056e294cbd3cb927cd83be99d71f8"
        )
        assert validate_jsonl(jsonl) == []

    def test_chrome_file_is_the_dump_of_the_trace_object(self, tmp_path):
        spans, quality, _, _ = _pinned_set()
        path = tmp_path / "t.chrome.json"
        export_chrome_trace(iter(spans), path, quality=quality)
        assert path.read_text() == json.dumps(
            to_chrome_trace(spans, quality=quality)) + "\n"

    @pytest.mark.parametrize("export", [export_jsonl, export_chrome_trace])
    def test_failed_export_leaves_the_previous_file(self, tmp_path, export):
        path = tmp_path / "trace.out"
        export(_make_spans(), path)
        before = path.read_bytes()
        bad = _make_spans()
        bad[-1].attrs["handle"] = object()  # not JSON-serializable
        with pytest.raises(TypeError):
            export(bad, path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["trace.out"]

    def test_peaks_stay_small_for_20k_spans(self, tmp_path):
        spans = _many_spans(20_000)
        jsonl = tmp_path / "t.jsonl"
        chrome = tmp_path / "t.chrome.json"
        assert _traced_peak(export_jsonl, spans, jsonl) < 1 << 20
        assert _traced_peak(export_chrome_trace, spans, chrome) < 1 << 20
        size = jsonl.stat().st_size
        assert size > 4 << 20
        assert _traced_peak(validate_jsonl, jsonl) < size


def _reference_loads(path):
    """The records a whole-file read returns: spans as dicts, and the last
    metrics and cost records, the quality records and the exposition
    events picked out the way the per-kind loaders picked them."""
    objs = [json.loads(line) for line in path.read_text().split("\n")
            if line.strip()]
    spans = [o for o in objs if o.get("kind", "span") == "span"]
    last = {}
    for o in objs:
        if o.get("kind") in ("metrics", "cost"):
            last[o["kind"]] = {k: v for k, v in o.items() if k not in ("kind", "v")}
    return {
        "spans": spans,
        "quality": [o for o in objs if o.get("kind") == "quality"],
        "metrics": last.get("metrics"),
        "cost": last.get("cost"),
        "events": [o for o in objs if o.get("kind") in
                   ("span", "metric", "fault", "quality")],
    }


def _as_dict(span):
    out = {"name": span.name, "span_id": span.span_id,
           "parent_id": span.parent_id, "start_wall": span.start_wall,
           "end_wall": span.end_wall}
    if span.start_sim is not None:
        out.update(start_sim=span.start_sim, end_sim=span.end_sim,
                   page_reads=span.page_reads, page_writes=span.page_writes)
    if span.attrs:
        out["attrs"] = span.attrs
    return out


class TestReadTrace:
    def _check(self, path):
        trace = read_trace(path)
        ref = _reference_loads(path)
        assert trace.errors == []
        assert [_as_dict(s) for s in trace.spans] == [
            {k: v for k, v in s.items() if k != "kind"} for s in ref["spans"]
        ]
        by_id = {s.span_id: s for s in trace.spans}
        for span in trace.spans:
            if span.parent_id in by_id:
                assert span in by_id[span.parent_id].children
        assert sum(len(s.children) for s in trace.spans) == sum(
            s.parent_id in by_id for s in trace.spans)
        assert trace.of_kind("quality") == ref["quality"]
        assert trace.last("metrics") == ref["metrics"]
        assert trace.last("cost") == ref["cost"]
        assert [r for r in trace.records if r["kind"] in
                ("span", "metric", "fault", "quality")] == ref["events"]
        return trace, ref

    def test_trace_query_file(self, tmp_path, capsys):
        from repro.bench.cli import main

        path = tmp_path / "trace.jsonl"
        assert main(["trace", "query", "--out", str(path)]) == 0
        trace, ref = self._check(path)
        assert len(trace.spans) > 100
        assert len(ref["quality"]) == 3
        assert ref["metrics"] is not None and ref["cost"] is not None

    def test_flight_dump(self, tmp_path):
        with FLIGHT.recording(capacity=64):
            with TRACER.span("flight.outer"):
                with TRACER.span("flight.inner"):
                    pass
            FLIGHT.record_metric(
                "query.records", "counter", 2, (("tenant", "t0"),))
            FLIGHT.record_fault(
                {"op": "read", "ordinal": 0, "kind": "transient", "page": 1})
            events = FLIGHT.snapshot()
        path = write_dump(events, tmp_path / "dump.jsonl", "test")
        trace, ref = self._check(path)
        assert [s.name for s in trace.spans] == ["flight.inner", "flight.outer"]
        assert trace.spans[1].children == [trace.spans[0]]
        assert [e["kind"] for e in ref["events"]] == [
            "span", "span", "metric", "fault"]
        assert trace.of_kind("flight")[0]["reason"] == "test"
