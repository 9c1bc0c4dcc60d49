"""Flight recorder: ring semantics, trips, dump format, replay stability."""

from __future__ import annotations

import json

import pytest

from repro.obs.export import validate_jsonl
from repro.obs.flight import (
    FLIGHT,
    FLIGHT_VERSION,
    FlightRecorder,
    deterministic_view,
    write_dump,
)
from repro.obs.tracer import TRACER


def _fault_events(recorder, n, start=0):
    for i in range(start, start + n):
        recorder.record_fault(
            {"op": "read", "ordinal": i, "kind": "transient", "page": i}
        )


#: A metric update as dumps written before metrics left the ring hold it.
OLD_METRIC_EVENT = {"kind": "metric", "v": FLIGHT_VERSION,
                    "name": "query.records", "metric": "counter", "value": 2.0}


class TestRingSemantics:
    def test_disarmed_recorder_ignores_everything(self):
        recorder = FlightRecorder(capacity=4)
        _fault_events(recorder, 3)
        assert recorder.snapshot() == []
        assert recorder.trip("ignored") is None
        assert recorder.trips == 0

    def test_capture_in_arrival_order(self):
        recorder = FlightRecorder(capacity=8)
        recorder.arm()
        _fault_events(recorder, 3)
        ordinals = [e["ordinal"] for e in recorder.snapshot()]
        assert ordinals == [0, 1, 2]
        assert recorder.dropped == 0

    def test_ring_wrap_keeps_newest_and_counts_dropped(self):
        recorder = FlightRecorder()
        recorder.arm(capacity=4)
        _fault_events(recorder, 10)
        events = recorder.snapshot()
        assert [e["ordinal"] for e in events] == [6, 7, 8, 9]
        assert recorder.dropped == 6

    def test_rearm_clears_ring_disarm_preserves_it(self):
        recorder = FlightRecorder(capacity=4)
        recorder.arm()
        _fault_events(recorder, 2)
        recorder.disarm()
        assert len(recorder.snapshot()) == 2  # post-mortem readout works
        recorder.arm()
        assert recorder.snapshot() == []

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)
        recorder = FlightRecorder()
        with pytest.raises(ValueError):
            recorder.arm(capacity=0)

    def test_fault_kind_remapped_to_fault_key(self):
        recorder = FlightRecorder(capacity=4)
        recorder.arm()
        recorder.record_fault(
            {"op": "read", "ordinal": 3, "kind": "torn", "page": 7,
             "detail": {"half": "first"}}
        )
        (event,) = recorder.snapshot()
        assert event["kind"] == "fault"
        assert event["fault"] == "torn"
        assert event["detail"] == {"half": "first"}


class TestTrips:
    def test_trip_counts_and_remembers_reason(self):
        recorder = FlightRecorder(capacity=4)
        recorder.arm()
        assert recorder.trip("oracle-failure") is None  # no dump path
        assert recorder.trips == 1
        assert recorder.last_reason == "oracle-failure"

    def test_trip_auto_dumps_when_path_configured(self, tmp_path):
        recorder = FlightRecorder(capacity=4)
        recorder.arm(auto_dump_path=tmp_path / "dump.jsonl")
        _fault_events(recorder, 2)
        out = recorder.trip("recovery-exhausted")
        assert out == tmp_path / "dump.jsonl"
        header = json.loads(out.read_text().splitlines()[0])
        assert header["reason"] == "recovery-exhausted"
        assert header["events"] == 2

    def test_dump_without_any_path_raises(self):
        recorder = FlightRecorder(capacity=4)
        recorder.arm()
        with pytest.raises(ValueError, match="no dump path"):
            recorder.dump()


class TestRecordingContext:
    def test_recording_arms_and_traces_then_restores(self):
        assert not TRACER.enabled
        with FLIGHT.recording(capacity=16):
            assert FLIGHT.enabled
            assert TRACER.enabled
            with TRACER.span("flight.test_span"):
                pass
        assert not FLIGHT.enabled
        assert not TRACER.enabled
        kinds = [e["kind"] for e in FLIGHT.snapshot()]
        assert "span" in kinds

    def test_metric_updates_stay_out_of_the_ring(self):
        from repro.obs import METRICS

        with FLIGHT.recording(capacity=16):
            with TRACER.span("flight.test_span"):
                METRICS.counter("flight.test_counter").inc()
                METRICS.gauge("flight.test_gauge").set(1.0)
                METRICS.histogram("flight.test_hist", (1.0,)).observe(0.5)
        assert [e["kind"] for e in FLIGHT.snapshot()] == ["span"]

    def test_spans_carry_wall_keys_for_schema_validity(self):
        with FLIGHT.recording(capacity=8):
            with TRACER.span("flight.test_span"):
                pass
        (span,) = [e for e in FLIGHT.snapshot() if e["kind"] == "span"]
        assert "start_wall" in span and "end_wall" in span


class TestDumpArtifact:
    def test_dump_passes_trace_validate(self, tmp_path):
        with FLIGHT.recording(capacity=16):
            with TRACER.span("flight.test_span"):
                pass
            FLIGHT.record_fault(
                {"op": "read", "ordinal": 0, "kind": "transient", "page": 1}
            )
            events = FLIGHT.snapshot()
        # Dumps from releases whose ring held metric updates, labeled or
        # not, still validate.
        events.append(OLD_METRIC_EVENT)
        events.append({**OLD_METRIC_EVENT, "labels": {"tenant": "t0"}})
        path = write_dump(events, tmp_path / "dump.jsonl", "test", dropped=0)
        problems = validate_jsonl(path)
        assert problems == [], problems

    def test_header_is_first_line_and_versioned(self, tmp_path):
        path = write_dump([], tmp_path / "dump.jsonl", "empty")
        header = json.loads(path.read_text().splitlines()[0])
        assert header == {
            "kind": "flight", "v": FLIGHT_VERSION, "reason": "empty",
            "events": 0, "dropped": 0,
        }


class TestDeterministicView:
    def test_strips_only_wall_keys(self):
        events = [
            {"kind": "span", "name": "s", "start_wall": 1.0, "end_wall": 2.0,
             "wall_seconds": 1.0, "start_sim": 0.5, "end_sim": 0.75},
            {"kind": "metric", "name": "query.records", "metric": "counter",
             "value": 1.0},
        ]
        view = deterministic_view(events)
        assert view[0] == {
            "kind": "span", "name": "s", "start_sim": 0.5, "end_sim": 0.75,
        }
        assert view[1] == events[1]

    def test_strips_wall_keys_nested_in_quality_records(self):
        tta = {"epsilon": 0.2, "n": 50, "sim_seconds": 0.25}
        event = {"kind": "quality", "label": "t0/q0",
                 "estimator": {"n": 50, "tta": [{**tta, "wall_seconds": 0.01}]}}
        (view,) = deterministic_view([event])
        assert view == {"kind": "quality", "label": "t0/q0",
                        "estimator": {"n": 50, "tta": [tta]}}

    def test_span_ids_renumbered_densely(self):
        events = [
            {"kind": "span", "name": "a", "span_id": 310, "parent_id": None},
            {"kind": "span", "name": "b", "span_id": 312, "parent_id": 310},
            {"kind": "span", "name": "c", "span_id": 315, "parent_id": 99},
        ]
        view = deterministic_view(events)
        assert [(e["span_id"], e["parent_id"]) for e in view] == [
            (1, None), (2, 1), (3, None),  # out-of-ring parent dropped
        ]

    def test_replayed_scenario_is_flight_stable(self):
        # The load-bearing determinism claim: two runs of the same scenario
        # capture bit-identical rings once wall-clock fields are projected
        # out (simulated clock, metric values, labels all reproduce).
        from repro.testkit import generate_scenario, run_scenario

        scenario = generate_scenario(0, with_faults=False)
        views = []
        for _ in range(2):
            from repro.obs import METRICS

            METRICS.reset()
            with FLIGHT.recording(capacity=512):
                verdict, _ = run_scenario(scenario)
                views.append(deterministic_view(FLIGHT.snapshot()))
            assert verdict.ok
        assert views[0] == views[1]
