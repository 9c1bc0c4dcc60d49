"""Tracer core: fast paths, nesting, dual clocks, and trace-shape pinning."""

from __future__ import annotations

import pytest

from repro.acetree import AceBuildParams, build_ace_tree
from repro.core import Field, Schema
from repro.core.intervals import Box, Interval
from repro.obs import COST, NOOP_SPAN, MetricsRegistry, TraceRecorder
from repro.obs.tracer import TRACER, Tracer
from repro.storage import CostModel, HeapFile, SimulatedDisk

from ..conftest import make_kv_records


class TestFastPaths:
    def test_disabled_without_profile_returns_shared_noop(self):
        tracer = Tracer()
        span = tracer.span("anything")
        assert span is NOOP_SPAN
        assert tracer.span("other", disk=object()) is NOOP_SPAN
        with span as inner:
            assert inner is None

    @pytest.mark.parametrize(
        "name", ["ace_build.phase1", "ace_query.stab", "serve.step"]
    )
    def test_process_tracer_off_returns_shared_noop(self, name):
        """Phase-level and hot-loop spans alike cost one call + branch."""
        assert not TRACER.enabled
        assert TRACER.span(name) is NOOP_SPAN


class TestLiveSpans:
    def test_nesting_links_parent_and_children(self, recorder):
        with TRACER.span("outer") as outer:
            with TRACER.span("inner.a") as a:
                pass
            with TRACER.span("inner.b") as b:
                pass
        assert outer is not None
        assert [c.name for c in outer.children] == ["inner.a", "inner.b"]
        assert a.parent_id == outer.span_id
        assert b.parent_id == outer.span_id
        assert outer.parent_id is None
        # completion order: children before the parent
        assert [s.name for s in recorder.spans] == [
            "inner.a", "inner.b", "outer",
        ]

    def test_span_ids_unique(self, recorder):
        with TRACER.span("a"):
            with TRACER.span("b"):
                pass
        with TRACER.span("c"):
            pass
        ids = [s.span_id for s in recorder.spans]
        assert len(set(ids)) == len(ids)

    def test_dual_clock_deltas_against_simulated_disk(self, recorder):
        disk = SimulatedDisk(page_size=2048, cost=CostModel.scaled(2048))
        first = disk.allocate(4)
        for offset in range(4):
            disk.write_page(first + offset, b"x" * 2048)
        clock0 = disk.clock
        with TRACER.span("io", disk=disk) as sp:
            for offset in range(4):
                disk.read_page(first + offset)
        assert sp.page_reads == 4
        assert sp.page_writes == 0
        assert sp.start_sim == pytest.approx(clock0)
        assert sp.end_sim == pytest.approx(disk.clock)
        assert sp.sim_seconds == pytest.approx(disk.clock - clock0)
        assert sp.wall_seconds >= 0.0

    def test_child_inherits_parent_disk(self, recorder):
        disk = SimulatedDisk(page_size=2048, cost=CostModel.scaled(2048))
        pid = disk.allocate()
        disk.write_page(pid, b"y" * 2048)
        with TRACER.span("outer", disk=disk):
            with TRACER.span("inner") as inner:  # no disk passed
                disk.read_page(pid)
        assert inner.page_reads == 1
        assert inner.start_sim is not None

    def test_self_reads_subtract_children(self, recorder):
        disk = SimulatedDisk(page_size=2048, cost=CostModel.scaled(2048))
        first = disk.allocate(3)
        for offset in range(3):
            disk.write_page(first + offset, b"z" * 2048)
        with TRACER.span("outer", disk=disk) as outer:
            disk.read_page(first)
            with TRACER.span("inner", disk=disk):
                disk.read_page(first + 1)
                disk.read_page(first + 2)
        assert outer.page_reads == 3
        assert outer.self_page_reads == 1

    def test_attrs_pass_through(self, recorder):
        with TRACER.span("named", kind="test", n=7) as sp:
            sp.attrs["late"] = True
        record = recorder.spans[-1]
        assert record.attrs == {"kind": "test", "n": 7, "late": True}

    def test_exception_still_closes_and_dispatches(self, recorder):
        with pytest.raises(RuntimeError):
            with TRACER.span("doomed"):
                raise RuntimeError("boom")
        assert [s.name for s in recorder.spans] == ["doomed"]
        assert recorder.spans[0].end_wall >= recorder.spans[0].start_wall


class TestNestedRecorders:
    def test_inner_recorder_keeps_the_enclosing_trace(self):
        """A recorder installed while tracing is on neither resets the span
        stack nor re-arms or disarms the cost accountant."""
        disk = SimulatedDisk(page_size=2048, cost=CostModel.scaled(2048))
        first = disk.allocate(2)
        for offset in range(2):
            disk.write_page(first + offset, b"n" * 2048)
        outer_recorder = TraceRecorder(metrics=MetricsRegistry())
        inner_recorder = TraceRecorder(metrics=MetricsRegistry())
        with outer_recorder:
            with TRACER.span("outer", disk=disk) as outer:
                disk.read_page(first)
                with inner_recorder:
                    with TRACER.span("inner") as inner:
                        disk.read_page(first + 1)
                assert COST.enabled
            assert COST.enabled
        assert not COST.enabled
        assert not TRACER.enabled
        assert [s.name for s in outer_recorder.spans] == ["inner", "outer"]
        assert [s.name for s in inner_recorder.spans] == ["inner"]
        assert inner.parent_id == outer.span_id
        assert inner.page_reads == 1
        assert outer.page_reads == 2
        conservation = COST.conservation()
        assert conservation["conserved"]
        assert conservation["attributed_reads"] == 2


def _build_traced(seed: int = 3):
    """One small deterministic build + query, traced; returns everything."""
    disk = SimulatedDisk(page_size=2048, cost=CostModel.scaled(2048))
    schema = Schema([Field("k", "i8"), Field("v", "f8"), Field("pad", "bytes", 84)])
    heap = HeapFile.bulk_load(
        disk, schema, make_kv_records(3000, seed=23), name="traced"
    )
    recorder = TraceRecorder(metrics=MetricsRegistry())
    query = Box.of(Interval(0.0, 250_000.0))
    with recorder:
        tree = build_ace_tree(
            heap, AceBuildParams(key_fields=("k",), height=5, seed=seed)
        )
        records = tree.sample(query, seed=1).take(200)
    return recorder, records, disk


class TestTraceShape:
    """Pin the trace tree a small deterministic build + query produces."""

    def test_expected_span_names_present(self):
        recorder, records, _disk = _build_traced()
        assert len(records) == 200
        names = {s.name for s in recorder.spans}
        assert {
            "ace_build.phase1",
            "ace_build.phase2",
            "ace_build.split_keys",
            "external_sort.total",
            "external_sort.run_generation",
            "external_sort.run_fill",
            "external_sort.write_run",
            "external_sort.merge",
            "external_sort.final_merge",
            "ace_query.stab",
            "ace_query.combine",
            "leaf_store.read_leaf",
        } <= names

    def test_nesting_structure(self):
        recorder, _records, _disk = _build_traced()
        by_id = {s.span_id: s for s in recorder.spans}

        def parent_name(span):
            return by_id[span.parent_id].name if span.parent_id else None

        for span in recorder.spans:
            if span.name == "ace_build.split_keys":
                assert parent_name(span) == "ace_build.phase1"
            elif span.name == "external_sort.run_fill":
                assert parent_name(span) == "external_sort.run_generation"
            elif span.name == "ace_query.combine":
                assert parent_name(span) == "ace_query.stab"
            elif span.name == "leaf_store.read_leaf":
                assert parent_name(span) == "ace_query.stab"
            elif span.name in ("ace_build.phase1", "ace_build.phase2"):
                assert span.parent_id is None

    def test_page_read_conservation(self):
        recorder, _records, _disk = _build_traced()
        for span in recorder.spans:
            child_reads = sum(c.page_reads for c in span.children)
            assert child_reads <= span.page_reads, span.name
            child_sim = sum(c.sim_seconds for c in span.children)
            assert child_sim <= span.sim_seconds + 1e-9, span.name

    def test_leaf_attribution_covers_all_root_reads(self):
        recorder, _records, _disk = _build_traced()
        from repro.obs import page_read_attribution

        leaf, total = page_read_attribution(recorder.spans)
        assert total > 0
        assert leaf / total >= 0.95

    def test_tracing_does_not_perturb_simulated_run(self):
        recorder, traced_records, traced_disk = _build_traced(seed=3)

        disk = SimulatedDisk(page_size=2048, cost=CostModel.scaled(2048))
        schema = Schema(
            [Field("k", "i8"), Field("v", "f8"), Field("pad", "bytes", 84)]
        )
        heap = HeapFile.bulk_load(
            disk, schema, make_kv_records(3000, seed=23), name="traced"
        )
        tree = build_ace_tree(
            heap, AceBuildParams(key_fields=("k",), height=5, seed=3)
        )
        plain_records = tree.sample(
            Box.of(Interval(0.0, 250_000.0)), seed=1
        ).take(200)

        assert plain_records == traced_records
        assert disk.clock == traced_disk.clock
        assert disk.stats.page_reads == traced_disk.stats.page_reads
