"""Statistical quality monitors: uniformity, TTA, and read-only guarantees."""

from __future__ import annotations

import math
import random
import statistics

import pytest
from scipy import stats

import repro.core.stats as core_stats
from repro.core.intervals import Box, Interval
from repro.obs import MetricsRegistry, QualityConfig, QualitySession
from repro.obs.export import validate_span_dict
from repro.obs.quality import EstimatorMonitor, UniformityMonitor


class _Batch:
    """The minimal batch shape every sampler stream emits."""

    def __init__(self, records, clock):
        self.records = records
        self.clock = clock


def _feed(monitor, keys, batch_size=100, dt=0.01):
    """Drive a StreamQualityMonitor with synthetic single-field records."""
    clock = 0.0
    for i in range(0, len(keys), batch_size):
        clock += dt
        chunk = [(k,) for k in keys[i:i + batch_size]]
        monitor.observe_batch(chunk, clock)
    monitor.finalize()


class TestUniformityMonitor:
    def test_uniform_stream_passes(self):
        config = QualityConfig(window=200, bins=8, alpha=0.001)
        monitor = UniformityMonitor(0.0, 1.0, config)
        rng = random.Random(5)
        for _ in range(2000):
            monitor.observe(rng.random(), 0.0)
        monitor.finalize(1.0)
        assert monitor.windows_failed == 0
        assert monitor.ok
        assert len(monitor.windows) == 10
        _, ks_p = monitor.ks_statistic()
        assert ks_p > 0.001

    def test_biased_stream_fails_in_the_drifted_window(self):
        config = QualityConfig(window=200, bins=8, alpha=0.005)
        monitor = UniformityMonitor(0.0, 1.0, config)
        rng = random.Random(5)
        # Uniform for 3 windows, then the stream collapses onto [0, 0.5).
        for _ in range(600):
            monitor.observe(rng.random(), 0.0)
        for _ in range(600):
            monitor.observe(rng.random() * 0.5, 1.0)
        monitor.finalize(2.0)
        assert not monitor.ok
        verdicts = [w.ok for w in monitor.windows]
        assert verdicts[:3] == [True, True, True]  # drift localized in time
        assert not any(verdicts[3:])

    def test_out_of_range_key_flags_stream(self):
        monitor = UniformityMonitor(0.0, 1.0, QualityConfig())
        monitor.observe(1.5, 0.0)
        monitor.finalize(0.0)
        assert monitor.out_of_range == 1
        assert not monitor.ok

    def test_closed_query_hi_edge_tolerated(self):
        monitor = UniformityMonitor(0.0, 1.0, QualityConfig())
        monitor.observe(1.0, 0.0)  # tree queries use closed intervals
        assert monitor.out_of_range == 0

    def test_partial_final_window_needs_min_samples(self):
        config = QualityConfig(window=200, bins=8, min_final_window=64)
        small = UniformityMonitor(0.0, 1.0, config)
        for i in range(40):
            small.observe(i / 40, 0.0)
        small.finalize(0.0)
        assert small.windows == []  # 40 < min_final_window: not tested
        enough = UniformityMonitor(0.0, 1.0, config)
        for i in range(80):
            enough.observe((i % 40) / 40, 0.0)
        enough.finalize(0.0)
        assert len(enough.windows) == 1


class TestCombineStreamQuality:
    """The monitor against the real ACE Combine stream (fixed seed)."""

    QUERY = Box.of(Interval(200_000.0, 700_000.0))  # ~50% of U[0, 1e6) keys

    def _keys(self, small_ace_tree):
        _, tree = small_ace_tree
        key_of = tree.schema.key_getter("k")
        return [key_of(r) for r in tree.sample(self.QUERY, seed=5).records()]

    def test_real_stream_passes_tampered_stream_fails(self, small_ace_tree):
        keys = self._keys(small_ace_tree)
        assert len(keys) > 1200
        # Tamper: suppress most of the upper half of the range, as a buggy
        # (depth-biased) stream would; truncate both to the same n so the
        # two monitors see matched sample sizes.
        rng = random.Random(13)
        biased = [k for k in keys
                  if k < 450_000 or rng.random() < 0.3]
        n = len(biased)
        config = QualityConfig(window=200, bins=8, alpha=0.005)
        session = QualitySession(config=config, metrics=MetricsRegistry())
        real = session.monitor("real", lambda r: r[0],
                               lo=200_000.0, hi=700_000.0)
        tampered = session.monitor("tampered", lambda r: r[0],
                                   lo=200_000.0, hi=700_000.0)
        _feed(real, keys[:n])
        _feed(tampered, biased)
        assert real.uniformity.ok
        assert not tampered.uniformity.ok
        assert tampered.uniformity.windows_failed > 0

    def test_coverage_sees_the_missing_stratum(self, small_ace_tree):
        keys = self._keys(small_ace_tree)
        # Empty exactly stratum 2 of 8: [200e3, 700e3) splits at 62.5e3 steps.
        gap = [k for k in keys if not 325_000 <= k < 387_500]
        session = QualitySession(metrics=MetricsRegistry())
        monitor = session.monitor("gap", lambda r: r[0],
                                  lo=200_000.0, hi=700_000.0)
        _feed(monitor, gap)
        assert monitor.coverage.hit == 7
        assert monitor.coverage.coverage == pytest.approx(7 / 8)

    def test_monitored_stream_is_bit_identical(self, small_ace_tree):
        """Wrapping a stream must not move the simulated clock or the RNG."""
        _, tree = small_ace_tree
        disk = tree.leaf_store.disk

        def run(monitored: bool):
            start = disk.clock
            stream = tree.sample(self.QUERY, seed=21)
            batches = iter(stream)
            if monitored:
                session = QualitySession(metrics=MetricsRegistry())
                monitor = session.monitor(
                    "m", tree.schema.key_getter("k"),
                    lo=200_000.0, hi=700_000.0,
                )
                batches = monitor.wrap(batches, start_sim=start)
            return [
                (batch.clock - start, tuple(batch.records))
                for batch in batches
            ]

        plain = run(monitored=False)
        wrapped = run(monitored=True)
        assert wrapped == plain


class TestEstimatorMonitor:
    def test_tta_matches_hand_computed_ci(self):
        """The recorded crossing equals a from-scratch CLT computation."""
        config = QualityConfig(tta_targets=(0.1, 0.05), tta_min_n=30)
        monitor = EstimatorMonitor(config)
        rng = random.Random(99)
        values = [50.0 + rng.random() * 20.0 for _ in range(400)]
        batch = 25
        clock = 0.0
        for i in range(0, len(values), batch):
            for v in values[i:i + batch]:
                monitor.add(v)
            clock += 0.5
            monitor.batch_end(clock, sim_elapsed=clock, wall_elapsed=clock)

        z = float(stats.norm.ppf(0.975))

        def half_width(n):
            sd = statistics.stdev(values[:n])
            return z * sd / math.sqrt(n)

        # Replay the batch ends by hand and find each first crossing.
        expected = {}
        for eps in (0.1, 0.05):
            for n in range(batch, len(values) + 1, batch):
                mean = statistics.fmean(values[:n])
                if n >= 30 and half_width(n) <= eps * abs(mean):
                    expected[eps] = n
                    break
        recorded = {r.epsilon: r for r in monitor.tta}
        assert set(recorded) == set(expected)
        for eps, n in expected.items():
            record = recorded[eps]
            assert record.n == n
            assert record.sim_seconds == pytest.approx(0.5 * (n // batch))
            assert record.half_width == pytest.approx(half_width(n))
            assert record.estimate == pytest.approx(statistics.fmean(values[:n]))

    def test_no_tta_before_min_n(self):
        config = QualityConfig(tta_targets=(0.5,), tta_min_n=30)
        monitor = EstimatorMonitor(config)
        monitor.add(10.0)
        monitor.add(10.0)  # zero variance: half-width 0, relative 0
        monitor.batch_end(1.0, sim_elapsed=1.0, wall_elapsed=0.1)
        assert monitor.tta == []  # withheld: n=2 < tta_min_n

    def test_finite_population_correction_reaches_zero(self):
        monitor = EstimatorMonitor(QualityConfig(), population=10)
        rng = random.Random(3)
        for _ in range(10):
            monitor.add(rng.random())
        assert monitor.half_width() == 0.0  # sampled the whole population

    def test_timeline_decimation_is_bounded(self):
        config = QualityConfig(timeline_cap=16)
        monitor = EstimatorMonitor(config)
        for i in range(1, 401):
            monitor.add(float(i))
            monitor.batch_end(float(i), sim_elapsed=float(i), wall_elapsed=0.0)
        assert len(monitor.timeline) <= 16
        clocks = [point[0] for point in monitor.timeline]
        assert clocks == sorted(clocks)
        assert clocks[0] == 1.0  # decimation keeps the earliest point


class TestEstimatorQuantile:
    """The CLT quantile is one evaluation per confidence, not per monitor."""

    def test_one_ppf_call_across_many_monitors(self, monkeypatch):
        calls = []
        ndtri = core_stats.ndtri

        def counting(q):
            calls.append(q)
            return ndtri(q)

        monkeypatch.setattr(core_stats, "ndtri", counting)
        core_stats.normal_quantile.cache_clear()
        try:
            config = QualityConfig(ci_confidence=0.9)
            session = QualitySession(config=config, metrics=MetricsRegistry())
            for i in range(40):
                session.monitor(f"q{i}", key_of=lambda r: r[0], lo=0.0,
                                hi=1.0, population=1000 + i)
            monitors = [EstimatorMonitor(config) for _ in range(40)]
        finally:
            core_stats.normal_quantile.cache_clear()
        assert calls == [0.5 + 0.9 / 2]
        assert len({m._z for m in monitors}) == 1

    @pytest.mark.parametrize("confidence", [0.8, 0.9, 0.95, 0.99])
    def test_z_equals_the_per_call_formula(self, confidence):
        monitor = EstimatorMonitor(QualityConfig(ci_confidence=confidence))
        assert monitor._z == float(stats.norm.ppf(0.5 + confidence / 2))


class TestQualitySession:
    def test_records_are_schema_valid_and_grouped(self):
        session = QualitySession(metrics=MetricsRegistry())
        for i in range(2):
            monitor = session.monitor(f"q{i}", lambda r: r[0],
                                      lo=0.0, hi=1.0, group="ACE Tree")
            rng = random.Random(i)
            _feed(monitor, [rng.random() for _ in range(300)])
            # A spread of keys reaches every stratum (one repeated key
            # would hit one).
            assert monitor.coverage.hit == 8
        session.finalize()
        records = session.records()
        assert len(records) == 2
        for record in records:
            assert record["kind"] == "quality"
            assert validate_span_dict(record) == []
        assert list(session.groups()) == ["ACE Tree"]
        assert len(session.groups()["ACE Tree"]) == 2

    def test_metrics_published_on_finalize(self):
        registry = MetricsRegistry()
        session = QualitySession(metrics=registry)
        monitor = session.monitor("q0", lambda r: r[0], lo=0.0, hi=1.0)
        rng = random.Random(4)
        _feed(monitor, [rng.random() for _ in range(400)])
        assert monitor.coverage.hit == 8
        session.finalize()
        snapshot = registry.snapshot()
        assert snapshot["counters"]["quality.streams"] == 1
        assert snapshot["counters"]["quality.samples"] == 400
        assert snapshot["counters"]["quality.windows"] == 2

    def test_ks_d_max_gauge_keeps_the_cross_stream_max(self):
        registry = MetricsRegistry()
        session = QualitySession(metrics=registry)
        skewed = session.monitor("q0", lambda r: r[0], lo=0.0, hi=1.0)
        uniform = session.monitor("q1", lambda r: r[0], lo=0.0, hi=1.0)
        rng = random.Random(5)
        _feed(skewed, [rng.random() ** 3 for _ in range(400)])
        _feed(uniform, [rng.random() for _ in range(400)])
        d_skewed = skewed.uniformity.ks_statistic()[0]
        assert uniform.uniformity.ks_statistic()[0] < d_skewed
        # The later, smaller statistic does not overwrite the maximum.
        assert registry.snapshot()["gauges"]["quality.ks_d_max"] == d_skewed

    def test_wrap_finalizes_on_early_abandonment(self):
        session = QualitySession(metrics=MetricsRegistry())
        monitor = session.monitor("q0", lambda r: r[0], lo=0.0, hi=1.0)
        rng = random.Random(8)

        def batches():
            clock = 0.0
            while True:
                clock += 0.1
                yield _Batch([(rng.random(),) for _ in range(100)], clock)

        for index, _ in enumerate(monitor.wrap(batches(), start_sim=0.0)):
            if index == 4:
                break  # a truncated race abandons the generator
        summary = monitor.summary()
        assert summary["uniformity"]["samples"] == 500
        assert summary["batches"] == 5


class TestQualityConfigValidation:
    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            QualityConfig(bins=1)
        with pytest.raises(ValueError):
            QualityConfig(window=4, bins=8)
        with pytest.raises(ValueError):
            QualityConfig(tta_targets=(0.1, 0.2))  # must decrease
        with pytest.raises(ValueError):
            QualityConfig(tta_min_n=1)
        with pytest.raises(ValueError):
            UniformityMonitor(1.0, 0.0, QualityConfig())

    @pytest.mark.parametrize("confidence", [0.0, -0.2, 1.0, 1.5, math.nan])
    def test_rejects_confidence_outside_unit_interval(self, confidence):
        # Unchecked, 0 gave z = 0: a zero-width interval that met every
        # time-to-accuracy target at tta_min_n; 1 gave an infinite one.
        with pytest.raises(ValueError, match="ci_confidence"):
            QualityConfig(ci_confidence=confidence)
