"""Metrics layer: counters, gauges, fixed-bucket histogram math."""

from __future__ import annotations

import random
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.acetree import AceBuildParams, build_ace_tree
from repro.core import Box, Field, Interval, Schema
from repro.obs import CONTEXT, METRICS, Histogram, MetricsRegistry, TraceRecorder
from repro.obs.cost import COST
from repro.storage import CostModel, HeapFile, SimulatedDisk


class TestHistogram:
    def test_bucket_edges_are_inclusive_upper_bounds(self):
        h = Histogram("h", bounds=(1, 2, 4))
        h.observe(0.5)   # <= 1
        h.observe(1)     # <= 1 (inclusive upper edge)
        h.observe(1.5)   # <= 2
        h.observe(2)     # <= 2
        h.observe(4)     # <= 4
        h.observe(4.001)  # overflow
        h.observe(100)   # overflow
        assert h.counts == [2, 2, 1, 2]

    def test_mean_count_total(self):
        h = Histogram("h", bounds=(10,))
        for value in (1.0, 2.0, 3.0):
            h.observe(value)
        assert h.count == 3
        assert h.total == pytest.approx(6.0)
        assert h.mean == pytest.approx(2.0)

    def test_empty_histogram_mean_is_zero(self):
        h = Histogram("h", bounds=(1, 2))
        assert h.count == 0
        assert h.mean == 0.0

    def test_bounds_must_strictly_increase(self):
        with pytest.raises(ValueError):
            Histogram("h", bounds=(1, 1, 2))
        with pytest.raises(ValueError):
            Histogram("h", bounds=(2, 1))
        with pytest.raises(ValueError):
            Histogram("h", bounds=())

    def test_snapshot_is_json_ready(self):
        h = Histogram("h", bounds=(1, 2))
        h.observe(1.5)
        snap = h.snapshot()
        assert snap["count"] == 1
        assert snap["counts"] == [0, 1, 0]
        assert list(snap["bounds"]) == [1, 2]


class TestRegistry:
    def test_counter_get_or_create_identity(self):
        reg = MetricsRegistry()
        c1 = reg.counter("hits")
        c1.inc()
        c1.inc(2)
        assert reg.counter("hits") is c1
        assert reg.counter("hits").value == 3

    def test_gauge_set(self):
        reg = MetricsRegistry()
        reg.gauge("depth").set(7)
        reg.gauge("depth").set(3)
        assert reg.gauge("depth").value == 3

    def test_histogram_requires_bounds_on_first_use(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.histogram("lat")
        h = reg.histogram("lat", bounds=(1, 2))
        assert reg.histogram("lat") is h  # bounds optional once created

    def test_histogram_conflicting_bounds_rejected(self):
        reg = MetricsRegistry()
        reg.histogram("lat", bounds=(1, 2))
        with pytest.raises(ValueError):
            reg.histogram("lat", bounds=(1, 2, 4))
        reg.histogram("lat", bounds=(1, 2))  # same bounds: fine

    def test_snapshot_and_reset(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(5)
        reg.gauge("g").set(1.5)
        reg.histogram("h", bounds=(10,)).observe(3)
        snap = reg.snapshot()
        assert snap["counters"] == {"c": 5}
        assert snap["gauges"] == {"g": 1.5}
        assert snap["histograms"]["h"]["count"] == 1
        reg.reset()
        empty = reg.snapshot()
        assert empty == {"counters": {}, "gauges": {}, "histograms": {}}


def _hammer(work, workers: int) -> None:
    """Run ``work(i)`` on *workers* threads with a short switch interval.

    More threads than cores and a 1 us switch interval make an unlocked
    read-modify-write lose updates; every future is read, with a timeout.
    """
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(work, i) for i in range(workers)]
            for future in futures:
                future.result(timeout=60)
    finally:
        sys.setswitchinterval(interval)


class TestThreadSafety:
    """One lock per metric: concurrent updates from many threads are exact."""

    def test_concurrent_incs_are_exact(self):
        registry = MetricsRegistry()
        counter = registry.counter("query.records")
        workers, updates = 8, 2000

        def work(_):
            for _ in range(updates):
                counter.inc()

        _hammer(work, workers)
        assert counter.value == workers * updates

    def test_concurrent_histogram_observes_count_exactly(self):
        registry = MetricsRegistry()
        hist = registry.histogram("query.lat", bounds=(1.0,))
        workers, updates = 6, 1000

        def work(i):
            for _ in range(updates):
                hist.observe(0.5 if i % 2 else 2.0)

        _hammer(work, workers)
        snap = hist.snapshot()
        assert snap["count"] == workers * updates
        assert snap["counts"] == [workers // 2 * updates] * 2
        assert snap["total"] == workers // 2 * updates * 2.5


class TestAggregatesOnly:
    def test_traced_run_under_100_contexts_keeps_aggregates(self):
        """100 distinct (tenant, query) contexts leave exact aggregates and
        nothing else: no per-label section, no dropped-label counter."""
        disk = SimulatedDisk(page_size=1024, cost=CostModel.scaled(1024))
        rng = random.Random(3)
        schema = Schema([Field("k", "i8"), Field("v", "f8")])
        heap = HeapFile.bulk_load(
            disk, schema, [(rng.randrange(100_000), float(i)) for i in range(2000)]
        )
        height = 5
        tree = build_ace_tree(heap, AceBuildParams(
            key_fields=("k",), height=height, seed=3,
        ))
        disk.reset_clock()
        METRICS.reset()
        stabs = 0
        try:
            with TraceRecorder():
                for i in range(100):
                    lo = float(i * 900)
                    query = Box.of(Interval(lo, lo + 5_000.0))
                    with CONTEXT.push(tenant=f"t{i}", query=f"q{i}"):
                        stream = tree.sample(query, seed=i)
                        for _, _batch in zip(range(3), stream):
                            pass
                        stabs += stream.stats.stabs
            snapshot = METRICS.snapshot()
            charged = disk.stats.page_reads
        finally:
            METRICS.reset()
            COST.reset()
        assert set(snapshot) == {"counters", "gauges", "histograms"}
        counters = snapshot["counters"]
        assert not any(name.startswith("obs.metrics.") for name in counters)
        assert stabs == 300
        for level in range(1, height):
            assert counters.get(f"stab.level.{level}.overlap", 0) + counters.get(
                f"stab.level.{level}.drain", 0) == stabs
        assert counters["obs.cost.page_reads"] == charged > 0
