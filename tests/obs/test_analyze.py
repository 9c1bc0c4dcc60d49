"""Trace analytics: path keys, run diffing, critical paths, flamegraphs."""

from __future__ import annotations

import json

import pytest

from repro.acetree import AceBuildParams, build_ace_tree
from repro.core import Field, Schema
from repro.core.errors import StorageError
from repro.core.intervals import Box, Interval
from repro.obs import (
    CONTEXT,
    MetricsRegistry,
    TraceRecorder,
    export_jsonl,
    read_trace,
    validate_jsonl,
)
from repro.obs.analyze import (
    critical_path,
    diff_event_views,
    diff_traces,
    diff_verdict_record,
    flamegraph_lines,
    normalize_span,
    render_critical_path,
    render_flamegraph_summary,
    render_trace_diff,
    span_paths,
    trace_roots,
)
from repro.obs.tracer import SpanRecord
from repro.storage import CostModel, HeapFile, SimulatedDisk
from repro.testkit.harness import BrokenCombineStream

from ..conftest import make_kv_records


def _build_tree(seed: int = 3):
    disk = SimulatedDisk(page_size=2048, cost=CostModel.scaled(2048))
    schema = Schema([Field("k", "i8"), Field("v", "f8"), Field("pad", "bytes", 84)])
    heap = HeapFile.bulk_load(
        disk, schema, make_kv_records(3000, seed=23), name="analyze"
    )
    tree = build_ace_tree(
        heap, AceBuildParams(key_fields=("k",), height=5, seed=seed)
    )
    return tree, disk


def _traced_query(tree, disk, *, seed: int = 1, sabotage: bool = False,
                  lost_leaf_policy: str = "raise"):
    """One traced query from a zeroed simulated clock; returns the spans.

    The diff's comparison basis keeps *absolute* ``start_sim``/``end_sim``
    values, so every diffable run must start from ``reset_clock()`` —
    exactly what a fresh ``trace query`` process does.
    """
    recorder = TraceRecorder(metrics=MetricsRegistry())
    query = Box.of(Interval(0.0, 250_000.0))
    disk.reset_clock()
    with recorder:
        with CONTEXT.push(tenant="t0", query="q0"):
            if sabotage:
                stream = BrokenCombineStream(
                    tree, query, seed=seed, lost_leaf_policy=lost_leaf_policy
                )
            else:
                stream = tree.sample(
                    query, seed=seed, lost_leaf_policy=lost_leaf_policy
                )
            stream.take(200)
    return recorder.spans


def _hand_trace():
    """root#0(a) -> [b#0, b#1, c#0]; sibling names collide on purpose."""
    root = SpanRecord("a")
    root.span_id = 10
    root.start_wall, root.end_wall = 0.0, 1.0
    root.start_sim, root.end_sim = 0.0, 4.0
    root.page_reads = 6
    spans = [root]
    for index, name in enumerate(("b", "b", "c")):
        child = SpanRecord(name)
        child.span_id = 11 + index
        child.parent_id = 10
        child.start_wall, child.end_wall = 0.1 * index, 0.1 * index + 0.05
        child.start_sim, child.end_sim = float(index), float(index) + 1.0
        child.page_reads = 2
        root.children.append(child)
        spans.append(child)
    return spans


class TestSpanPaths:
    def test_ordinals_count_same_named_siblings(self):
        paths = span_paths(_hand_trace())
        assert list(paths) == ["a#0", "a#0/b#0", "a#0/b#1", "a#0/c#0"]

    def test_orphan_parent_treated_as_root(self):
        spans = _hand_trace()
        orphan = SpanRecord("evicted_child")
        orphan.span_id = 99
        orphan.parent_id = 12345  # parent not in the record set (ring evicted)
        orphan.start_wall, orphan.end_wall = 0.0, 0.1
        assert orphan in trace_roots(spans + [orphan])
        assert "evicted_child#0" in span_paths(spans + [orphan])

    def test_same_seed_runs_share_the_key_set_despite_fresh_ids(self):
        tree, disk = _build_tree()
        spans_a = _traced_query(tree, disk)
        spans_b = _traced_query(tree, disk)
        ids_a = {s.span_id for s in spans_a}
        ids_b = {s.span_id for s in spans_b}
        assert not (ids_a & ids_b)  # tracer ids are process-global
        assert span_paths(spans_a).keys() == span_paths(spans_b).keys()

    def test_normalize_strips_wall_and_id_keys(self):
        cleaned = normalize_span(_hand_trace()[0])
        assert "start_wall" not in cleaned and "end_wall" not in cleaned
        assert "span_id" not in cleaned and "parent_id" not in cleaned
        assert cleaned["start_sim"] == 0.0 and cleaned["page_reads"] == 6


class TestDiffTraces:
    def test_same_seed_runs_diff_identical(self):
        tree, disk = _build_tree()
        diff = diff_traces(_traced_query(tree, disk), _traced_query(tree, disk))
        assert diff.identical
        assert diff.aligned >= 5
        assert diff.first_divergent is None
        assert diff.deltas == []

    def test_sabotaged_run_diverges_and_names_the_first_span(self):
        tree, disk = _build_tree()
        clean = _traced_query(tree, disk)
        broken = _traced_query(tree, disk, sabotage=True)
        diff = diff_traces(clean, broken)
        assert not diff.identical
        assert diff.divergences
        assert diff.first_divergent is not None
        assert diff.first_divergent.startswith("ace_query.stab")
        # Preorder: nothing earlier than the named span diverges.
        first_paths = [d.path for d in diff.divergences]
        assert first_paths[0] == diff.first_divergent

    def test_structural_only_a_and_only_b(self):
        spans_a = _hand_trace()
        spans_b = _hand_trace()
        dropped = spans_b[0].children.pop()  # c#0 only in A
        spans_b.remove(dropped)
        extra = SpanRecord("d")
        extra.span_id = 77
        extra.parent_id = spans_b[0].span_id
        extra.start_wall, extra.end_wall = 0.5, 0.6
        spans_b[0].children.append(extra)
        spans_b.append(extra)
        diff = diff_traces(spans_a, spans_b)
        assert diff.only_a == ["a#0/c#0"]
        assert diff.only_b == ["a#0/d#0"]
        assert not diff.identical
        assert diff.first_divergent == "a#0/c#0"

    def test_value_divergence_reports_fields_and_deltas(self):
        spans_a = _hand_trace()
        spans_b = _hand_trace()
        victim = spans_b[0].children[1]  # b#1
        victim.attrs = {"emitted": 9}
        victim.end_sim = victim.end_sim + 0.5
        victim.page_reads = 5
        diff = diff_traces(spans_a, spans_b)
        assert diff.first_divergent == "a#0/b#1"
        (div,) = diff.divergences
        assert div.path == "a#0/b#1"
        assert set(div.fields) == {"attrs", "end_sim", "page_reads"}
        assert div.a["page_reads"] == 2 and div.b["page_reads"] == 5
        deltas = {path: (sim, reads) for path, sim, reads in diff.deltas}
        assert deltas["a#0/b#1"] == (pytest.approx(0.5), 3)

    def test_only_b_alone_still_sets_first_divergent(self):
        spans_a = _hand_trace()
        spans_b = _hand_trace()
        extra = SpanRecord("z")
        extra.span_id = 88
        extra.start_wall, extra.end_wall = 2.0, 2.1
        spans_b.append(extra)
        diff = diff_traces(spans_a, spans_b)
        assert diff.first_divergent == "z#0"


class TestDiffVerdictRecord:
    def test_record_shape_and_schema(self, tmp_path):
        tree, disk = _build_tree()
        spans = _traced_query(tree, disk)
        diff = diff_traces(spans, spans)
        record = diff_verdict_record(diff, a="a.jsonl", b="b.jsonl",
                                     reason="regress-gate")
        assert record["kind"] == "diff" and record["v"] == 1
        assert record["identical"] is True
        assert record["a"] == "a.jsonl" and record["reason"] == "regress-gate"
        path = tmp_path / "trace.jsonl"
        export_jsonl(spans, path, extra=[record])
        assert validate_jsonl(path) == []

    def test_divergent_record_carries_the_span_path(self):
        tree, disk = _build_tree()
        diff = diff_traces(
            _traced_query(tree, disk), _traced_query(tree, disk, sabotage=True)
        )
        record = diff_verdict_record(diff)
        assert record["identical"] is False
        assert record["divergences"] == len(diff.divergences)
        assert record["first_divergent"] == diff.first_divergent


class TestDiffEventViews:
    def test_identical_sequences(self):
        events = [{"kind": "span", "name": "a", "start_wall": 1.0,
                   "start_sim": 0.0, "end_sim": 1.0}]
        verdict = diff_event_views(events, json.loads(json.dumps(events)))
        assert verdict["identical"] and verdict["aligned"] == 1

    def test_wall_keys_ignored(self):
        event = {"kind": "span", "name": "a", "start_wall": 1.0,
                 "start_sim": 0.0, "end_sim": 1.0}
        later = dict(event, start_wall=99.0)
        assert diff_event_views([event], [later])["identical"]

    def test_divergent_field_named(self):
        event = {"kind": "span", "name": "a", "start_sim": 0.0, "end_sim": 1.0}
        other = dict(event, end_sim=2.0)
        verdict = diff_event_views([event], [other])
        assert not verdict["identical"]
        assert verdict["divergences"] == 1
        assert "event #0 (a)" in verdict["first_divergent"]
        assert "end_sim" in verdict["first_divergent"]

    def test_length_mismatch_reported_as_only(self):
        event = {"kind": "span", "name": "a", "start_sim": 0.0, "end_sim": 1.0}
        verdict = diff_event_views([event, event], [event])
        assert verdict["only_a"] == 1 and verdict["only_b"] == 0
        assert "only in A" in verdict["first_divergent"]


class TestCriticalPath:
    def test_descends_from_dominant_root(self):
        rows = critical_path(_hand_trace(), clock="sim")
        assert [row["path"] for row in rows] == ["a#0", "a#0/b#0"]
        assert rows[0]["cumulative"] == pytest.approx(4.0)
        assert rows[0]["self"] == pytest.approx(1.0)  # 4 - (1+1+1)
        assert rows[0]["page_reads"] == 6

    def test_reads_clock_prefers_read_heavy_child(self):
        spans = _hand_trace()
        spans[0].children[2].page_reads = 50  # c#0 dominates on reads
        rows = critical_path(spans, clock="reads")
        assert [row["path"] for row in rows] == ["a#0", "a#0/c#0"]

    def test_all_clocks_work_on_a_real_trace(self):
        tree, disk = _build_tree()
        spans = _traced_query(tree, disk)
        for clock in ("sim", "wall", "reads"):
            rows = critical_path(spans, clock=clock)
            assert rows, clock
            assert all(row["cumulative"] >= row["self"] >= 0 for row in rows)

    def test_unknown_clock_raises(self):
        with pytest.raises(ValueError, match="unknown clock"):
            critical_path(_hand_trace(), clock="cpu")

    def test_empty_trace(self):
        assert critical_path([]) == []
        assert "(no spans)" in render_critical_path([])


class TestFaultDegradedTrace:
    """Analytics must survive skip-and-degrade runs with lost leaves."""

    def _degraded_spans(self):
        tree, disk = _build_tree()
        original = tree.leaf_store.read_leaf_view
        calls = {"n": 0}

        def flaky(leaf_index):
            calls["n"] += 1
            if calls["n"] == 1:  # first leaf is gone for good
                raise StorageError("leaf lost in test")
            return original(leaf_index)

        tree.leaf_store.read_leaf_view = flaky
        try:
            spans = _traced_query(tree, disk, lost_leaf_policy="skip")
        finally:
            tree.leaf_store.read_leaf_view = original
        assert calls["n"] > 1
        return spans

    def test_lost_leaf_span_survives_into_analytics(self):
        spans = self._degraded_spans()
        lost = [s for s in spans if "lost_leaf" in s.attrs]
        assert lost, "skip-and-degrade run recorded no lost_leaf span"
        paths = span_paths(spans)
        lost_paths = [p for p, s in paths.items() if "lost_leaf" in s.attrs]
        assert lost_paths

        rows = critical_path(spans, clock="reads")
        assert rows and rows[0]["page_reads"] > 0
        flame = flamegraph_lines(spans, clock="reads")
        assert flame
        # The degraded run still reconciles: every charged read is on a stack.
        total = sum(int(line.rsplit(" ", 1)[1]) for line in flame)
        assert total == sum(
            root.page_reads for root in trace_roots(spans)
        )

    def test_degraded_run_diffs_against_itself_clean(self, tmp_path):
        spans = self._degraded_spans()
        path = tmp_path / "degraded.jsonl"
        export_jsonl(spans, path)
        assert validate_jsonl(path) == []
        diff = diff_traces(spans, read_trace(path).spans)
        assert diff.identical


class TestFlamegraph:
    def test_collapsed_stacks_sorted_and_nonzero(self):
        tree, disk = _build_tree()
        spans = _traced_query(tree, disk)
        lines = flamegraph_lines(spans, clock="reads")
        assert lines == sorted(lines)
        for line in lines:
            stack, value = line.rsplit(" ", 1)
            assert int(value) > 0
            assert stack  # names only, no ordinals
            assert "#" not in stack

    def test_reads_total_reconciles_with_charged_reads(self):
        tree, disk = _build_tree()
        spans = _traced_query(tree, disk)
        # _traced_query starts from reset_clock(), so the disk's stats
        # object holds exactly the reads charged during the traced run.
        charged = disk.stats.page_reads
        total = sum(
            int(line.rsplit(" ", 1)[1])
            for line in flamegraph_lines(spans, clock="reads")
        )
        assert total == charged > 0

    def test_same_named_spans_aggregate_into_one_stack(self):
        lines = flamegraph_lines(_hand_trace(), clock="reads")
        assert "a;b 4" in lines  # b#0 + b#1 collapse
        assert "a;c 2" in lines

    def test_zero_valued_stacks_dropped(self):
        spans = _hand_trace()
        for span in spans:
            span.page_reads = 0
        assert flamegraph_lines(spans, clock="reads") == []


class TestRendering:
    def test_trace_diff_report_names_verdict_and_span(self):
        tree, disk = _build_tree()
        clean = _traced_query(tree, disk)
        broken = _traced_query(tree, disk, sabotage=True)
        text = render_trace_diff(diff_traces(clean, broken), a="clean", b="broken")
        assert "DIVERGENT" in text
        assert "first divergent span: ace_query.stab" in text
        assert "page-read delta" in text or "value divergence" in text

        identical = render_trace_diff(diff_traces(clean, clean))
        assert "identical" in identical
        assert "first divergent" not in identical

    def test_critical_path_report_attributes_reads(self):
        rows = critical_path(_hand_trace(), clock="sim")
        text = render_critical_path(rows, clock="sim")
        assert "critical path (sim)" in text
        assert "self reads" in text
        assert "% of the dominant root" in text

    def test_flamegraph_summary_counts_and_units(self):
        lines = ["a;b 4", "a;c 2"]
        summary = render_flamegraph_summary(lines, clock="reads")
        assert "2 collapsed stack(s)" in summary
        assert "6 page reads" in summary
        assert "us" in render_flamegraph_summary(["a 5"], clock="sim")
