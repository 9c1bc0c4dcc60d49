"""Tests for the online-aggregation estimators."""

import math

import numpy as np
import pytest
from scipy import stats

import repro.core.stats as core_stats
from repro.acetree import AceBuildParams, build_ace_tree
from repro.apps import OnlineAggregator, ProgressPoint, aggregate_stream
from repro.baselines.base import Batch
from repro.core import Box, Interval
from repro.core.errors import EstimatorError
from repro.obs import MetricsRegistry, TraceRecorder
from repro.storage import CostModel, HeapFile, SimulatedDisk
from ..conftest import make_kv_records


def records_with_values(values):
    return [(i, float(v)) for i, v in enumerate(values)]


class TestAggregatorBasics:
    def test_validation(self):
        with pytest.raises(EstimatorError):
            OnlineAggregator(lambda r: r[1], population=-1)
        with pytest.raises(EstimatorError):
            OnlineAggregator(lambda r: r[1], population=10, confidence=1.0)

    def test_no_samples_yet(self):
        agg = OnlineAggregator(lambda r: r[1], population=100)
        with pytest.raises(EstimatorError):
            _ = agg.mean
        with pytest.raises(EstimatorError):
            agg.half_width()

    def test_mean_and_variance_welford(self):
        values = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
        agg = OnlineAggregator(lambda r: r[1], population=len(values))
        agg.update(records_with_values(values))
        assert agg.mean == pytest.approx(np.mean(values))
        assert agg.variance == pytest.approx(np.var(values, ddof=1))

    def test_incremental_matches_batch(self):
        values = list(np.linspace(-5, 20, 57))
        a = OnlineAggregator(lambda r: r[1], population=57)
        a.update(records_with_values(values))
        b = OnlineAggregator(lambda r: r[1], population=57)
        for record in records_with_values(values):
            b.update([record])
        assert a.mean == pytest.approx(b.mean)
        assert a.variance == pytest.approx(b.variance)

    def test_total_scales_by_population(self):
        agg = OnlineAggregator(lambda r: r[1], population=1000)
        agg.update(records_with_values([2.0, 4.0]))
        assert agg.total == pytest.approx(3.0 * 1000)


class TestConfidenceIntervals:
    def test_single_sample_infinite(self):
        agg = OnlineAggregator(lambda r: r[1], population=100)
        agg.update(records_with_values([1.0]))
        assert math.isinf(agg.half_width())

    def test_interval_shrinks_with_samples(self):
        rng = np.random.default_rng(0)
        values = rng.normal(10, 2, size=400)
        agg = OnlineAggregator(lambda r: r[1], population=10_000)
        agg.update(records_with_values(values[:20]))
        wide = agg.half_width()
        agg.update(records_with_values(values[20:]))
        narrow = agg.half_width()
        assert narrow < wide / 2

    def test_fpc_zeroes_at_full_population(self):
        values = [1.0, 2.0, 3.0, 4.0]
        agg = OnlineAggregator(lambda r: r[1], population=4)
        agg.update(records_with_values(values))
        assert agg.half_width() == pytest.approx(0.0)

    def test_interval_contains_mean(self):
        agg = OnlineAggregator(lambda r: r[1], population=100)
        agg.update(records_with_values([1.0, 5.0, 9.0]))
        lo, hi = agg.mean_interval()
        assert lo <= agg.mean <= hi

    def test_sum_interval(self):
        agg = OnlineAggregator(lambda r: r[1], population=10)
        agg.update(records_with_values([1.0, 2.0, 3.0]))
        lo, hi = agg.sum_interval()
        m_lo, m_hi = agg.mean_interval()
        assert lo == pytest.approx(m_lo * 10)
        assert hi == pytest.approx(m_hi * 10)

    def test_coverage_statistical(self):
        """95% CIs over repeated finite-population draws should contain the
        true mean roughly 95% of the time (allow down to 85%)."""
        rng = np.random.default_rng(7)
        population = rng.normal(50, 10, size=2000)
        true_mean = float(population.mean())
        hits = 0
        trials = 200
        for _ in range(trials):
            sample = rng.choice(population, size=60, replace=False)
            agg = OnlineAggregator(lambda r: r[1], population=2000)
            agg.update(records_with_values(sample))
            lo, hi = agg.mean_interval()
            hits += lo <= true_mean <= hi
        assert hits >= 0.85 * trials


class TestAggregateStream:
    def _batches(self, values, per_batch=10):
        for i in range(0, len(values), per_batch):
            chunk = values[i:i + per_batch]
            yield Batch(
                records=tuple(records_with_values(chunk)), clock=float(i)
            )

    def test_progress_points(self):
        rng = np.random.default_rng(1)
        values = list(rng.normal(5, 1, size=100))
        points = list(
            aggregate_stream(
                self._batches(values), lambda r: r[1], population=1000
            )
        )
        assert len(points) == 10
        sizes = [p.sample_size for p in points]
        assert sizes == sorted(sizes)
        assert points[-1].sample_size == 100
        assert points[-1].mean_low <= points[-1].mean <= points[-1].mean_high

    def test_stops_at_target_width(self):
        rng = np.random.default_rng(2)
        values = list(rng.normal(100, 0.1, size=10_000))
        points = list(
            aggregate_stream(
                self._batches(values),
                lambda r: r[1],
                population=10**6,
                target_relative_width=0.001,
            )
        )
        assert points[-1].sample_size < 10_000  # stopped early

    def test_stops_at_max_records(self):
        values = [1.0] * 500
        points = list(
            aggregate_stream(
                self._batches(values), lambda r: r[1], population=10**6,
                max_records=50,
            )
        )
        assert points[-1].sample_size == 50

    def test_skips_empty_batches(self):
        batches = [Batch(records=(), clock=0.0),
                   Batch(records=tuple(records_with_values([1.0, 2.0])), clock=1.0)]
        points = list(
            aggregate_stream(iter(batches), lambda r: r[1], population=10)
        )
        assert len(points) == 1


def reference_half_width(agg, confidence):
    """The per-call formula: scipy's quantile evaluated on every call."""
    if agg.sample_size < 2:
        return math.inf
    z = stats.norm.ppf(0.5 + confidence / 2)
    n, population = agg.sample_size, agg.population
    fpc = 1.0
    if population > 1 and n < population:
        fpc = (population - n) / (population - 1)
    elif n >= population > 0:
        fpc = 0.0
    return z * math.sqrt(agg.variance / n * fpc)


def reference_points(batches, value_of, population, confidence=0.95,
                     target_relative_width=None):
    """aggregate_stream, inlined: Welford updates, scipy per batch."""
    count, mean, m2 = 0, 0.0, 0.0
    for batch in batches:
        records = batch.records
        if not records:
            continue
        for record in records:
            value = value_of(record)
            count += 1
            delta = value - mean
            mean += delta / count
            m2 += delta * (value - mean)
        half = math.inf
        if count >= 2:
            z = stats.norm.ppf(0.5 + confidence / 2)
            fpc = 1.0
            if population > 1 and count < population:
                fpc = (population - count) / (population - 1)
            elif count >= population > 0:
                fpc = 0.0
            half = z * math.sqrt(m2 / (count - 1) / count * fpc)
        yield ProgressPoint(batch.clock, count, mean, mean - half, mean + half)
        relative = math.inf if mean == 0 else half / abs(mean)
        if (target_relative_width is not None and count >= 2
                and relative <= target_relative_width):
            return


class TestCachedQuantile:
    """The normal quantile is computed once per aggregator, bit-identically."""

    def test_quantile_evaluated_once_per_aggregator(self, monkeypatch):
        calls = []
        quantile = core_stats.normal_quantile

        def counting(confidence):
            calls.append(confidence)
            return quantile(confidence)

        monkeypatch.setattr(core_stats, "normal_quantile", counting)
        rng = np.random.default_rng(5)
        values = list(rng.normal(50, 5, size=600))
        batches = (
            Batch(records=tuple(records_with_values(values[i:i + 10])),
                  clock=float(i))
            for i in range(0, len(values), 10)
        )
        points = list(aggregate_stream(batches, lambda r: r[1],
                                       population=10**6, confidence=0.9))
        assert len(points) == 60
        assert calls == [0.9]

    @pytest.mark.parametrize("confidence", [0.8, 0.9, 0.95, 0.99])
    def test_intervals_equal_per_call_formula(self, confidence):
        rng = np.random.default_rng(11)
        values = rng.normal(20, 3, size=300)
        agg = OnlineAggregator(lambda r: r[1], population=5_000,
                               confidence=confidence)
        for start in range(0, 300, 37):
            agg.update(records_with_values(values[start:start + 37]))
            half = reference_half_width(agg, confidence)
            assert agg.half_width() == half
            assert agg.mean_interval() == (agg.mean - half, agg.mean + half)
            assert agg.relative_half_width() == half / abs(agg.mean)

    @pytest.mark.parametrize("confidence", [0.8, 0.9, 0.95, 0.99])
    @pytest.mark.parametrize("population,values", [
        (100, [3.0]),                   # n < 2: unbounded interval
        (4, [1.0, 2.0, 3.0, 4.0]),      # n == N: FPC zeroes the width
        (3, [1.0, 2.0, 3.0, 5.0, 8.0]),  # n > N: still zero
        (1, [2.0, 4.0, 9.0]),           # N == 1
        (0.5, [2.0, 4.0, 9.0]),         # 0 < N < 1
        (0, [2.0, 4.0, 9.0]),           # N == 0: no correction at all
    ])
    def test_fpc_edges_equal_per_call_formula(self, confidence, population,
                                              values):
        agg = OnlineAggregator(lambda r: r[1], population=population,
                               confidence=confidence)
        agg.update(records_with_values(values))
        half = reference_half_width(agg, confidence)
        assert agg.half_width() == half
        assert agg.mean_interval() == (agg.mean - half, agg.mean + half)
        assert agg.relative_half_width() == half / abs(agg.mean)

    def test_confidence_is_read_only(self):
        agg = OnlineAggregator(lambda r: r[1], population=10, confidence=0.9)
        with pytest.raises(AttributeError):
            agg.confidence = 0.5
        assert agg.confidence == 0.9


@pytest.fixture(scope="module")
def agg_tree(kv_schema):
    """A 64-leaf tree of its own: the tests below reset its disk clock."""
    disk = SimulatedDisk(page_size=2048, cost=CostModel.scaled(2048))
    heap = HeapFile.bulk_load(disk, kv_schema,
                              make_kv_records(6000, seed=29), name="agg")
    return build_ace_tree(heap, AceBuildParams(key_fields=("k",), height=7,
                                               seed=5))


def tree_batches(tree, query, seed):
    tree.disk.reset_clock()
    return tree.sample(query, seed=seed)


class TestStreamMatchesReference:
    """aggregate_stream over real ACE Tree streams, point for point."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("target", [None, 0.05])
    def test_tree_stream_points_equal_reference(self, agg_tree, seed, target):
        query = Box.of(Interval(100_000.0 * seed, 100_000.0 * seed + 600_000.0))
        population = agg_tree.estimate_count(query)
        value_of = lambda r: r[1]  # noqa: E731
        got = list(aggregate_stream(tree_batches(agg_tree, query, seed),
                                    value_of, population,
                                    target_relative_width=target))
        want = list(reference_points(tree_batches(agg_tree, query, seed),
                                     value_of, population,
                                     target_relative_width=target))
        assert len(got) >= 2
        assert got == want

    def test_traced_tick_spans_carry_reference_values(self, agg_tree):
        query = Box.of(Interval(0.0, 500_000.0))
        population = agg_tree.estimate_count(query)
        value_of = lambda r: r[1]  # noqa: E731
        recorder = TraceRecorder(metrics=MetricsRegistry())
        with recorder:
            got = list(aggregate_stream(tree_batches(agg_tree, query, 4),
                                        value_of, population))
        want = list(reference_points(tree_batches(agg_tree, query, 4),
                                     value_of, population))
        assert got == want
        ticks = [s.attrs for s in recorder.spans if s.name == "online_agg.tick"]
        assert [(t["sample_size"], t["mean"], t["half_width"], t["clock"])
                for t in ticks] == [
            (p.sample_size, p.mean, (p.mean_high - p.mean_low) / 2, p.clock)
            for p in want
        ]
