"""Tests for the ripple-join online aggregation."""

import math
import random

import numpy as np
import pytest
from scipy import stats

import repro.apps.ripple as ripple
from repro.apps import RippleJoin, ripple_join_streams
from repro.baselines.base import Batch
from repro.core.errors import EstimatorError


def make_tables(n_r=400, n_s=300, num_keys=20, seed=0):
    """R(key, value) and S(key, weight) with an equi-join on key."""
    rng = random.Random(seed)
    table_r = [(rng.randrange(num_keys), rng.random() * 10) for _ in range(n_r)]
    table_s = [(rng.randrange(num_keys), rng.random() * 5) for _ in range(n_s)]
    return table_r, table_s


def true_join_sum(table_r, table_s):
    total = 0.0
    by_key = {}
    for key, weight in table_s:
        by_key.setdefault(key, []).append(weight)
    for key, value in table_r:
        for weight in by_key.get(key, ()):
            total += value * weight
    return total


def batches_of(records, per_batch, seed):
    shuffled = list(records)
    random.Random(seed).shuffle(shuffled)
    for i in range(0, len(shuffled), per_batch):
        yield Batch(records=tuple(shuffled[i:i + per_batch]), clock=float(i))


def make_join(table_r, table_s, **kwargs):
    defaults = dict(
        value_of=lambda r, s: r[1] * s[1],
        population_r=len(table_r),
        population_s=len(table_s),
        r_key=lambda r: r[0],
        s_key=lambda s: s[0],
    )
    defaults.update(kwargs)
    return RippleJoin(**defaults)


class TestValidation:
    def test_populations_positive(self):
        with pytest.raises(EstimatorError):
            RippleJoin(lambda r, s: 1.0, 0, 10, predicate=lambda r, s: True)

    def test_key_pairing(self):
        with pytest.raises(EstimatorError):
            RippleJoin(lambda r, s: 1.0, 10, 10, r_key=lambda r: r[0])

    def test_need_some_condition(self):
        with pytest.raises(EstimatorError):
            RippleJoin(lambda r, s: 1.0, 10, 10)

    def test_estimate_needs_both_sides(self):
        table_r, table_s = make_tables()
        join = make_join(table_r, table_s)
        join.add_r(table_r[:10])
        with pytest.raises(EstimatorError):
            _ = join.sum_estimate


class TestExactness:
    def test_full_sample_equals_true_join(self):
        """With both relations fully consumed the estimate is exact."""
        table_r, table_s = make_tables(seed=1)
        join = make_join(table_r, table_s)
        join.add_r(table_r)
        join.add_s(table_s)
        assert join.sum_estimate == pytest.approx(
            true_join_sum(table_r, table_s), rel=1e-9
        )

    def test_order_of_arrival_irrelevant(self):
        table_r, table_s = make_tables(seed=2)
        a = make_join(table_r, table_s)
        a.add_r(table_r)
        a.add_s(table_s)
        b = make_join(table_r, table_s)
        # Interleave in chunks, S first.
        b.add_s(table_s[:100])
        b.add_r(table_r[:200])
        b.add_s(table_s[100:])
        b.add_r(table_r[200:])
        assert a.sum_estimate == pytest.approx(b.sum_estimate, rel=1e-9)

    def test_predicate_path_matches_hash_path(self):
        table_r, table_s = make_tables(n_r=120, n_s=90, seed=3)
        hashed = make_join(table_r, table_s)
        hashed.add_r(table_r)
        hashed.add_s(table_s)
        nested = RippleJoin(
            value_of=lambda r, s: r[1] * s[1],
            population_r=len(table_r),
            population_s=len(table_s),
            predicate=lambda r, s: r[0] == s[0],
        )
        nested.add_r(table_r)
        nested.add_s(table_s)
        assert nested.sum_estimate == pytest.approx(hashed.sum_estimate, rel=1e-9)


class TestStatistics:
    def test_estimates_unbiased_over_streams(self):
        table_r, table_s = make_tables(n_r=600, n_s=500, seed=4)
        truth = true_join_sum(table_r, table_s)
        estimates = []
        for seed in range(30):
            join = make_join(table_r, table_s)
            rng = random.Random(seed)
            join.add_r(rng.sample(table_r, 150))
            join.add_s(rng.sample(table_s, 120))
            estimates.append(join.sum_estimate)
        grand = float(np.mean(estimates))
        spread = float(np.std(estimates))
        assert abs(grand - truth) < 4 * spread / math.sqrt(len(estimates))

    def test_interval_contains_truth_usually(self):
        table_r, table_s = make_tables(n_r=600, n_s=500, seed=5)
        truth = true_join_sum(table_r, table_s)
        hits = 0
        trials = 40
        for seed in range(trials):
            join = make_join(table_r, table_s, confidence=0.95)
            rng = random.Random(1000 + seed)
            join.add_r(rng.sample(table_r, 200))
            join.add_s(rng.sample(table_s, 150))
            low, high = join.sum_interval()
            hits += low <= truth <= high
        assert hits >= 0.75 * trials  # batch-means CI is approximate

    def test_interval_shrinks(self):
        table_r, table_s = make_tables(n_r=800, n_s=700, seed=6)
        join = make_join(table_r, table_s)
        rng = random.Random(9)
        r_shuffled = rng.sample(table_r, len(table_r))
        s_shuffled = rng.sample(table_s, len(table_s))
        join.add_r(r_shuffled[:60])
        join.add_s(s_shuffled[:60])
        early = join.relative_half_width()
        join.add_r(r_shuffled[60:600])
        join.add_s(s_shuffled[60:600])
        late = join.relative_half_width()
        assert late < early


class TestCachedQuantile:
    def test_quantile_evaluated_once_per_join(self, monkeypatch):
        calls = []
        quantile = ripple.normal_quantile

        def counting(confidence):
            calls.append(confidence)
            return quantile(confidence)

        monkeypatch.setattr(ripple, "normal_quantile", counting)
        table_r, table_s = make_tables(seed=8)
        join = make_join(table_r, table_s, confidence=0.9)
        for r_batch, s_batch in zip(batches_of(table_r, 20, 1),
                                    batches_of(table_s, 15, 2)):
            join.add_r(r_batch.records)
            join.add_s(s_batch.records)
            join.sum_interval()
        assert calls == [0.9]

    @pytest.mark.parametrize("confidence", [0.8, 0.9, 0.95, 0.99])
    def test_interval_equals_per_call_formula(self, confidence):
        table_r, table_s = make_tables(seed=9)
        join = make_join(table_r, table_s, confidence=confidence)
        rng = random.Random(3)
        join.add_r(rng.sample(table_r, 120))
        join.add_s(rng.sample(table_s, 90))
        replicates = join._group_replicates()
        mean = sum(replicates) / len(replicates)
        spread = math.sqrt(sum((v - mean) ** 2 for v in replicates)
                           / (len(replicates) - 1))
        z = stats.norm.ppf(0.5 + confidence / 2)
        half = z * spread / math.sqrt(len(replicates))
        center = join.sum_estimate
        assert join.sum_interval() == (center - half, center + half)

    def test_confidence_is_read_only(self):
        table_r, table_s = make_tables()
        join = make_join(table_r, table_s, confidence=0.9)
        with pytest.raises(AttributeError):
            join.confidence = 0.5
        assert join.confidence == 0.9


class TestStreamDriver:
    def test_progress_and_early_stop(self):
        table_r, table_s = make_tables(n_r=1000, n_s=900, seed=7)
        join = make_join(table_r, table_s)
        points = list(
            ripple_join_streams(
                batches_of(table_r, 50, seed=1),
                batches_of(table_s, 50, seed=2),
                join,
                target_relative_width=0.15,
            )
        )
        assert points
        sizes = [(p.samples_r, p.samples_s) for p in points]
        assert sizes == sorted(sizes)
        truth = true_join_sum(table_r, table_s)
        final = points[-1]
        assert final.estimate == pytest.approx(truth, rel=0.5)
        assert join.relative_half_width() <= 0.15 or (
            join.samples_r == len(table_r) and join.samples_s == len(table_s)
        )

    def test_uneven_streams_drain(self):
        """One stream exhausting early must not stall the other."""
        table_r, table_s = make_tables(n_r=100, n_s=600, seed=8)
        join = make_join(table_r, table_s)
        points = list(
            ripple_join_streams(
                batches_of(table_r, 50, seed=3),
                batches_of(table_s, 50, seed=4),
                join,
            )
        )
        assert join.samples_r == 100
        assert join.samples_s == 600
        assert points[-1].estimate == pytest.approx(
            true_join_sum(table_r, table_s), rel=1e-9
        )

    def test_max_samples_cap(self):
        table_r, table_s = make_tables(n_r=1000, n_s=1000, seed=9)
        join = make_join(table_r, table_s)
        list(
            ripple_join_streams(
                batches_of(table_r, 25, seed=5),
                batches_of(table_s, 25, seed=6),
                join,
                max_samples=200,
            )
        )
        assert join.samples_r + join.samples_s <= 250
