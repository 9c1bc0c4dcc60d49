"""The library's statistics: p-values, the CLT quantile and one estimator.

Each function calls the ``scipy.special`` ufunc that the ``scipy.stats`` call
it replaces wraps (``chi2.sf``: ``chdtrc``, ``kstwobign.sf``: ``kolmogorov``,
``norm.ppf``: ``ndtri``), so it returns the same float without the second of
start-up that ``scipy.stats`` costs; lint rule STA001 keeps both scipy modules
out of the rest of the library.  A leaf: it imports nothing from ``repro``.
"""

from __future__ import annotations

import math
from functools import lru_cache

from scipy.special import chdtrc, kolmogorov, ndtri

__all__ = ["CLTEstimator", "chi2_sf", "kolmogorov_sf", "normal_quantile"]


def chi2_sf(x: float, df: int) -> float:
    """Chi-square survival ``P(X >= x)`` of a statistic ``x >= 0``."""
    return float(chdtrc(df, x))


def kolmogorov_sf(x: float) -> float:
    """Asymptotic Kolmogorov survival of the scaled KS ``D * sqrt(n)``."""
    return float(kolmogorov(x))


@lru_cache(maxsize=16)
def normal_quantile(confidence: float) -> float:
    """Two-sided normal quantile ``z``; cached, as a run shares its level."""
    if not 0 < confidence < 1:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    return float(ndtri(0.5 + confidence / 2))


class CLTEstimator:
    """Running mean and variance with a CLT confidence half-width.

    Welford's update keeps the moments.  The half-width is
    ``z * sqrt(var/n * fpc)``, where the finite-population correction is
    ``(N - n)/(N - 1)``, 0 once ``n >= N > 0``, and 1 when ``N`` is None.
    """

    def __init__(self, confidence: float, population: float | None = None) -> None:
        self.population = population
        self._z = normal_quantile(confidence)
        self._count = 0
        self._mean = 0.0
        self._m2 = 0.0  # Welford's sum of squared deviations

    def fold(self, values) -> None:
        """Fold an iterable of values into the running moments."""
        count, mean, m2 = self._count, self._mean, self._m2
        for value in values:
            count += 1
            delta = value - mean
            mean += delta / count
            m2 += delta * (value - mean)
        self._count, self._mean, self._m2 = count, mean, m2

    def add(self, value: float) -> None:
        self.fold((value,))

    @property
    def count(self) -> int:
        return self._count

    @property
    def mean(self) -> float:
        return self._mean

    @property
    def variance(self) -> float:
        """Unbiased sample variance (0 below two values)."""
        if self._count < 2:
            return 0.0
        return self._m2 / (self._count - 1)

    def half_width(self) -> float:
        """Half-width of the mean's confidence interval; inf below n = 2."""
        n = self._count
        if n < 2:
            return math.inf
        fpc = 1.0
        population = self.population
        if population is not None:
            if population > 1 and n < population:
                fpc = (population - n) / (population - 1)
            elif n >= population > 0:
                fpc = 0.0
        return self._z * math.sqrt(self._m2 / (n - 1) / n * fpc)
