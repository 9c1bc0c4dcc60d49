"""Histogram exemplars: retention, determinism, and exposition round-trip."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

from repro.obs import CONTEXT, MetricsRegistry, TraceRecorder
from repro.obs.analyze import exemplar_records
from repro.obs.export import export_jsonl, validate_jsonl
from repro.obs.expose import parse_prometheus_text, prometheus_text
from repro.obs.metrics import EXEMPLARS_PER_BUCKET, Histogram
from repro.obs.tracer import TRACER

BOUNDS = (1.0, 10.0)


def _observe_all(hist, values, span_id=7):
    for value in values:
        hist.observe(value, span_id=span_id)


class TestRetention:
    def test_untraced_observations_retain_nothing(self):
        hist = Histogram("h", BOUNDS)
        assert not TRACER.enabled
        hist.observe(0.5, span_id=3)
        assert "exemplars" not in hist.snapshot()

    def test_traced_observation_links_bucket_to_span(self, recorder):
        hist = Histogram("h", BOUNDS)
        hist.observe(0.5, span_id=3)
        hist.observe(25.0, span_id=4)  # overflow bucket
        rows = hist.snapshot()["exemplars"]
        assert rows == [
            {"bucket": 0, "le": "1", "value": 0.5, "span_id": 3, "labels": {}},
            {"bucket": 2, "le": "+Inf", "value": 25.0, "span_id": 4, "labels": {}},
        ]

    def test_ambient_span_id_resolved(self, recorder):
        hist = Histogram("h", BOUNDS)
        with TRACER.span("outer"):
            span_id = TRACER.current_span_id()
            hist.observe(0.5)
        (row,) = hist.snapshot()["exemplars"]
        assert row["span_id"] == span_id

    def test_observation_outside_any_span_skipped(self, recorder):
        hist = Histogram("h", BOUNDS)
        hist.observe(0.5)  # tracing on, but no live span and no span_id
        assert "exemplars" not in hist.snapshot()

    def test_ring_bounded_and_oldest_evicted(self, recorder):
        hist = Histogram("h", BOUNDS)
        for index in range(EXEMPLARS_PER_BUCKET + 2):
            hist.observe(0.5, span_id=100 + index)
        rows = hist.snapshot()["exemplars"]
        assert len(rows) == EXEMPLARS_PER_BUCKET
        # Ring semantics: the two oldest entries were overwritten in place.
        assert {row["span_id"] for row in rows} == {104, 105, 102, 103}

    def test_registry_histogram_keeps_each_observations_context(self, recorder):
        registry = MetricsRegistry()
        hist = registry.histogram("h", BOUNDS)
        with CONTEXT.push(tenant="t0"):
            hist.observe(0.5, span_id=8)
            with CONTEXT.push(query="q1"):
                hist.observe(0.6, span_id=9)
        hist.observe(0.7, span_id=10)
        rows = registry.snapshot()["histograms"]["h"]["exemplars"]
        assert [row["labels"] for row in rows] == [
            {"tenant": "t0"}, {"tenant": "t0", "query": "q1"}, {},
        ]
        assert [row["span_id"] for row in rows] == [8, 9, 10]

    def test_ambient_context_labels_attached(self, recorder):
        hist = Histogram("h", BOUNDS)
        with CONTEXT.push(tenant="t1"):
            hist.observe(2.0, span_id=9)
        (row,) = hist.snapshot()["exemplars"]
        assert row["labels"] == {"tenant": "t1"}
        assert row["le"] == "10"


class TestDeterminism:
    def _aggregate(self, traced: bool):
        values = [0.2, 3.0, 40.0, 0.9, 10.0, 2.5]
        hist = Histogram("h", BOUNDS)
        if traced:
            with TraceRecorder(metrics=MetricsRegistry()):
                with TRACER.span("run"):
                    _observe_all(hist, values, span_id=None)
        else:
            _observe_all(hist, values, span_id=None)
        snap = hist.snapshot()
        snap.pop("exemplars", None)
        return snap

    def test_aggregates_bit_identical_with_and_without_exemplars(self):
        assert self._aggregate(traced=False) == self._aggregate(traced=True)

    def test_thread_race_keeps_counts_exact_and_rings_bounded(self, recorder):
        hist = Histogram("h", BOUNDS)
        per_thread = 200

        def hammer(thread_index):
            for i in range(per_thread):
                hist.observe(0.5 if i % 2 else 20.0,
                             span_id=thread_index * per_thread + i)

        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(hammer, range(8)))
        snap = hist.snapshot()
        assert snap["count"] == 8 * per_thread
        assert sum(snap["counts"]) == 8 * per_thread
        rows = snap["exemplars"]
        by_bucket: dict[int, int] = {}
        for row in rows:
            by_bucket[row["bucket"]] = by_bucket.get(row["bucket"], 0) + 1
        assert set(by_bucket) == {0, 2}
        assert all(n <= EXEMPLARS_PER_BUCKET for n in by_bucket.values())


class TestRecordsAndExposition:
    def _snapshot_with_exemplars(self):
        registry = MetricsRegistry()
        hist = registry.histogram("query.lat_sim_s", BOUNDS)
        with TraceRecorder(metrics=MetricsRegistry()):
            with CONTEXT.push(tenant="t0"):
                hist.observe(0.5, span_id=41)
                hist.observe(99.0, span_id=42)
        return registry.snapshot()

    def test_exemplar_records_validate(self, tmp_path):
        records = exemplar_records(self._snapshot_with_exemplars())
        assert [r["span_id"] for r in records] == [41, 42]
        assert all(r["kind"] == "exemplar" and r["v"] == 1 for r in records)
        assert records[0]["metric"] == "query.lat_sim_s"
        assert records[1]["le"] == "+Inf"
        path = tmp_path / "trace.jsonl"
        export_jsonl([], path, extra=records)
        assert validate_jsonl(path) == []

    def test_exemplar_records_empty_without_retention(self):
        assert exemplar_records(None) == []
        registry = MetricsRegistry()
        registry.histogram("h", BOUNDS).observe(0.5)
        assert exemplar_records(registry.snapshot()) == []

    def test_openmetrics_suffix_round_trips_through_the_parser(self):
        text = prometheus_text(self._snapshot_with_exemplars())
        bucket_lines = [
            line for line in text.splitlines() if " # {" in line
        ]
        assert bucket_lines, text
        parsed = parse_prometheus_text(text)
        exemplars = {
            (name, labels.get("le")): (ex_labels, value)
            for name, labels, ex_labels, value in parsed["exemplars"]
        }
        ex_labels, value = exemplars[("query_lat_sim_s_bucket", "1")]
        assert ex_labels == {"span_id": "41", "tenant": "t0"}
        assert value == 0.5
        ex_labels, value = exemplars[("query_lat_sim_s_bucket", "+Inf")]
        assert ex_labels["span_id"] == "42"
        assert value == 99.0
