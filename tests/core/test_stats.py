"""The statistics module against ``scipy.stats``, which stays the reference.

Every comparison is ``==``: the module calls the ``scipy.special`` ufuncs
that ``scipy.stats`` wraps, so the floats must be the same, not close.
"""

import math

import numpy as np
import pytest
from scipy import stats

from repro.core.stats import (
    CLTEstimator,
    chi2_sf,
    kolmogorov_sf,
    normal_quantile,
)

#: Arguments where the wrappers' own boundary handling could differ.
EDGES = [0.0, 1e-300, 1e6, math.inf]


def seeded_grid(seed, scale):
    """Log-spread and bulk arguments around ``scale``, plus the edges."""
    rng = np.random.default_rng(seed)
    spread = 10.0 ** rng.uniform(-8, 4, size=1500)
    bulk = rng.exponential(scale, size=1500)
    return spread.tolist() + bulk.tolist() + EDGES


class TestSurvivalFunctions:
    @pytest.mark.parametrize("df", [1, 2, 3, 7, 15, 63])
    def test_chi2_sf_equals_scipy_stats(self, df):
        xs = seeded_grid(df, scale=df)
        expected = stats.chi2.sf(xs, df)
        assert [chi2_sf(x, df) for x in xs] == expected.tolist()

    def test_kolmogorov_sf_equals_scipy_stats(self):
        xs = seeded_grid(7, scale=1.0)
        expected = stats.kstwobign.sf(xs)
        assert [kolmogorov_sf(x) for x in xs] == expected.tolist()

    def test_return_python_floats(self):
        assert type(chi2_sf(3.0, 2)) is float
        assert type(kolmogorov_sf(0.5)) is float


class TestNormalQuantile:
    def test_equals_scipy_stats(self):
        rng = np.random.default_rng(3)
        levels = rng.uniform(0, 1, size=2000).tolist() + [
            1e-12, 0.5, 0.8, 0.9, 0.95, 0.99, 1 - 1e-12,
        ]
        for confidence in levels:
            z = normal_quantile(confidence)
            assert type(z) is float
            assert z == float(stats.norm.ppf(0.5 + confidence / 2))

    @pytest.mark.parametrize("confidence", [0.0, 1.0, -0.2, 1.5, math.nan])
    def test_rejects_levels_outside_unit_interval(self, confidence):
        with pytest.raises(ValueError, match="confidence"):
            normal_quantile(confidence)


class _InlineEstimator:
    """The per-class estimator both aggregator and monitor once carried:
    Welford per record, the FPC re-derived on every half-width."""

    def __init__(self, confidence, population):
        self.z = float(stats.norm.ppf(0.5 + confidence / 2))
        self.population = population
        self.count = 0
        self.mean = 0.0
        self.m2 = 0.0

    def add(self, value):
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (value - self.mean)

    @property
    def variance(self):
        return 0.0 if self.count < 2 else self.m2 / (self.count - 1)

    def half_width(self):
        if self.count < 2:
            return math.inf
        fpc = 1.0
        population = self.population
        if population is not None:
            if population > 1 and self.count < population:
                fpc = (population - self.count) / (population - 1)
            elif self.count >= population > 0:
                fpc = 0.0
        return self.z * math.sqrt(self.variance / self.count * fpc)


def seeded_batches(seed, total=600):
    rng = np.random.default_rng(seed)
    values = rng.normal(100.0, 15.0, size=total).tolist()
    batches, start = [], 0
    while start < total:
        size = int(rng.integers(1, 40))
        batches.append(values[start:start + size])
        start += size
    return batches


class TestCLTEstimator:
    @pytest.mark.parametrize("confidence", [0.8, 0.95, 0.99])
    @pytest.mark.parametrize("population", [
        None,      # no finite-population correction
        50_000,    # N > n throughout
        250,       # N > n, then n >= N: the correction reaches zero
        250.5,     # fractional estimated N
    ])
    def test_equals_the_inline_estimator(self, confidence, population):
        estimator = CLTEstimator(confidence, population)
        reference = _InlineEstimator(confidence, population)
        for batch in seeded_batches(seed=int(confidence * 100)):
            estimator.fold(batch)
            for value in batch:
                reference.add(value)
            assert estimator.count == reference.count
            assert estimator.mean == reference.mean
            assert estimator.variance == reference.variance
            assert estimator.half_width() == reference.half_width()
        if population is not None and population <= 600:
            assert estimator.half_width() == 0.0

    def test_add_equals_fold(self):
        batches = seeded_batches(seed=5)
        one_by_one = CLTEstimator(0.95, population=1000)
        folded = CLTEstimator(0.95, population=1000)
        for batch in batches:
            for value in batch:
                one_by_one.add(value)
            folded.fold(iter(batch))
        assert (one_by_one.count, one_by_one.mean, one_by_one.variance) == (
            folded.count, folded.mean, folded.variance)
        assert one_by_one.half_width() == folded.half_width()

    def test_below_two_values_the_interval_is_unbounded(self):
        estimator = CLTEstimator(0.95)
        assert estimator.half_width() == math.inf
        estimator.add(3.0)
        assert estimator.half_width() == math.inf
        assert estimator.variance == 0.0
