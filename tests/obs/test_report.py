"""Report rendering: sections, attribution arithmetic, real traced queries."""

from __future__ import annotations

from repro.acetree import AceBuildParams, build_ace_tree
from repro.core import Field, Schema
from repro.core.intervals import Box, Interval
from repro.obs import (
    MetricsRegistry,
    TraceRecorder,
    page_read_attribution,
    render_report,
    span_aggregates,
)
from repro.obs.tracer import SpanRecord
from repro.storage import CostModel, HeapFile, SimulatedDisk

from ..conftest import make_kv_records


def _span(name, span_id, parent_id=None, reads=0, children=()):
    s = SpanRecord(name)
    s.span_id = span_id
    s.parent_id = parent_id
    s.start_wall, s.end_wall = 0.0, 0.1
    s.start_sim, s.end_sim = 0.0, 1.0
    s.page_reads = reads
    s.children.extend(children)
    return s


class TestAttribution:
    def test_leaf_and_total_sums(self):
        leaf_a = _span("leaf.a", 2, parent_id=1, reads=6)
        leaf_b = _span("leaf.b", 3, parent_id=1, reads=3)
        root = _span("root", 1, reads=10, children=(leaf_a, leaf_b))
        other_root = _span("other", 4, reads=5)  # childless root: both sums
        leaf, total = page_read_attribution([leaf_a, leaf_b, root, other_root])
        assert total == 15
        assert leaf == 6 + 3 + 5

    def test_aggregates_self_vs_cumulative(self):
        child = _span("child", 2, parent_id=1, reads=4)
        root = _span("root", 1, reads=10, children=(child,))
        table = span_aggregates([child, root])
        assert table["root"]["reads"] == 10
        assert table["root"]["self_reads"] == 6
        assert table["child"]["self_reads"] == 4


class TestRendering:
    def test_empty_trace(self):
        assert render_report([]) == "trace report: no spans recorded\n"

    def test_sections_for_hand_built_trace(self):
        child = _span("child", 2, parent_id=1, reads=4)
        root = _span("root", 1, reads=10, children=(child,))
        registry = MetricsRegistry()
        registry.counter("buffer.hit").inc(7)
        registry.gauge("tree.depth").set(3)
        registry.histogram("query.lat", bounds=(1, 2)).observe(1.5)
        text = render_report([child, root], registry)
        assert "== top spans by wall-clock time (cumulative) ==" in text
        assert "== top spans by simulated time (cumulative) ==" in text
        assert "== simulated page-read attribution ==" in text
        assert "== counters ==" in text
        assert "buffer.hit" in text
        assert "== gauges ==" in text
        assert "== histogram query.lat" in text
        assert "<= 2" in text
        # no stab counters / emitted attrs -> those sections are absent
        assert "per-level stab table" not in text
        assert "sampling-rate timeline" not in text

    def test_top_limits_rows(self):
        spans = [_span(f"s{i}", i + 1, reads=i) for i in range(20)]
        text = render_report(spans, top=3)
        wall_section = text.split("== top spans by simulated")[0]
        assert len([ln for ln in wall_section.splitlines()
                    if ln.startswith("s") and not ln.startswith("span")]) == 3

    def test_metrics_accepts_plain_snapshot_dict(self):
        root = _span("root", 1, reads=1)
        text = render_report([root], {"counters": {"c": 2}})
        assert "== counters ==" in text and "c" in text


class TestTracedQueryReport:
    def test_query_only_trace_attributes_reads_to_leaves(self):
        # The stab-level counters and query histograms are recorded at the
        # query call sites into the global METRICS registry, so the recorder
        # shares it here (as `python -m repro trace` does).
        from repro.obs import METRICS

        disk = SimulatedDisk(page_size=2048, cost=CostModel.scaled(2048))
        schema = Schema(
            [Field("k", "i8"), Field("v", "f8"), Field("pad", "bytes", 84)]
        )
        heap = HeapFile.bulk_load(
            disk, schema, make_kv_records(3000, seed=29), name="report"
        )
        tree = build_ace_tree(
            heap, AceBuildParams(key_fields=("k",), height=5, seed=5)
        )
        disk.reset_clock()
        METRICS.reset()
        recorder = TraceRecorder(metrics=METRICS)
        try:
            with recorder:
                tree.sample(Box.of(Interval(0.0, 300_000.0)), seed=2).take(300)

            leaf, total = page_read_attribution(recorder.spans)
            assert total > 0
            assert leaf / total >= 0.95

            text = render_report(recorder.spans, recorder.metrics)
        finally:
            METRICS.reset()
        assert "== per-level stab table ==" in text
        assert "== sampling-rate timeline (ACE stabs, simulated clock) ==" in text
        assert "== histogram query.pages_per_stab" in text
        assert "ace_query.stab" in text
        assert "leaf_store.read_leaf" in text
