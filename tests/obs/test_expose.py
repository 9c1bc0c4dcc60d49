"""Exposition: Prometheus text round-trip and the terminal dashboard."""

from __future__ import annotations

import pytest

from repro.obs import CONTEXT
from repro.obs.expose import (
    parse_prometheus_text,
    prometheus_text,
    render_dashboard,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import SloStatus


def _populated_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("query.records").inc(3)
    registry.counter("query.records").inc(4)
    registry.counter("sample_cache.hits").inc(10)
    registry.gauge("query.buffered_records").set(17.5)
    hist = registry.histogram("query.lat_sim_s", bounds=(0.1, 1.0))
    hist.observe(0.05)
    hist.observe(0.5)
    hist.observe(2.0)
    return registry


class TestPrometheusText:
    def test_round_trips_through_shipped_parser(self):
        snapshot = _populated_registry().snapshot()
        text = prometheus_text(snapshot)
        parsed = parse_prometheus_text(text)
        assert parsed["types"]["query_records"] == "counter"
        assert parsed["types"]["query_buffered_records"] == "gauge"
        assert parsed["types"]["query_lat_sim_s"] == "histogram"
        samples = {
            (name, tuple(sorted(labels.items()))): value
            for name, labels, value in parsed["samples"]
        }
        assert samples[("query_records", ())] == 7.0
        assert samples[("query_buffered_records", ())] == 17.5
        # One series per metric: the only sample label is a bucket's ``le``.
        assert all(set(labels) <= {"le"} for _, labels, _ in parsed["samples"])

    def test_legacy_labeled_section_is_not_rendered(self):
        snapshot = _populated_registry().snapshot()
        legacy = dict(snapshot, labeled={"counters": {
            "query.records": {"tenant=t0": 3},
        }})
        assert prometheus_text(legacy) == prometheus_text(snapshot)

    def test_histogram_buckets_are_cumulative_with_inf(self):
        snapshot = _populated_registry().snapshot()
        parsed = parse_prometheus_text(prometheus_text(snapshot))
        buckets = {
            labels["le"]: value
            for name, labels, value in parsed["samples"]
            if name == "query_lat_sim_s_bucket"
        }
        assert buckets["0.1"] == 1.0
        assert buckets["1"] == 2.0
        assert buckets["+Inf"] == 3.0
        count = [
            value for name, labels, value in parsed["samples"]
            if name == "query_lat_sim_s_count" and not labels
        ]
        assert count == [3.0]

    def test_label_values_escaped(self, recorder):
        registry = MetricsRegistry()
        with CONTEXT.push(tenant='a"b\\c'):
            registry.histogram("query.lat", bounds=(1.0,)).observe(0.5, span_id=3)
        text = prometheus_text(registry.snapshot())
        parsed = parse_prometheus_text(text)
        assert [labels for _, _, labels, _ in parsed["exemplars"]] == [
            {"span_id": "3", "tenant": 'a"b\\c'},
        ]

    def test_empty_snapshot_renders_empty(self):
        assert prometheus_text({}) == ""
        assert parse_prometheus_text("") == {
            "types": {}, "samples": [], "exemplars": [],
        }

    def test_parser_rejects_malformed_lines(self):
        with pytest.raises(ValueError, match="malformed sample"):
            parse_prometheus_text("this is not prometheus\n")
        with pytest.raises(ValueError, match="malformed TYPE"):
            parse_prometheus_text("# TYPE broken\n")
        with pytest.raises(ValueError, match="malformed sample value"):
            parse_prometheus_text("x nan_but_worse\n")


class TestDashboard:
    def test_sections_render_for_populated_registry(self):
        snapshot = _populated_registry().snapshot()
        statuses = [
            SloStatus("tta_rel_halfwidth_5pct", "tta", "tenant=t0", 0.97),
            SloStatus(
                "sample_cache_hit_rate", "ratio", "", 0.4, firing=True
            ),
        ]
        events = [
            {"kind": "metric", "name": "query.records", "metric": "counter",
             "value": 1.0, "labels": {"tenant": "t0"}},
        ]
        frame = render_dashboard(
            snapshot, slo_statuses=statuses, flight_events=events
        )
        assert "query.records" in frame
        assert "tenant=t0" in frame
        assert "sample_cache_hit_rate" in frame
        assert "FIRING" in frame

    def test_empty_snapshot_says_so(self):
        frame = render_dashboard({})
        assert "no metrics recorded" in frame
