"""The one shared tolerance helper for statistical test assertions.

Every fixed-seed statistical assertion in the test suites — section-count
uniformity, prefix quartile balance, differential-oracle prefix checks —
routes through this module, so the acceptance threshold is a single
constant (:data:`DEFAULT_P_FLOOR`) instead of magic numbers scattered
across files.  The philosophy matches the existing suites: thresholds are
generous enough that a correct implementation with a fixed seed never
trips them, while a biased one fails by orders of magnitude.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from ..core.stats import chi2_sf

__all__ = [
    "DEFAULT_P_FLOOR",
    "ChiSquareResult",
    "assert_uniform",
    "chi_square",
    "ks_uniform",
    "prefix_vs_population",
]

#: Reject uniformity only below this p-value.  With seeded randomness a
#: correct sampler passes deterministically; a biased one lands many
#: orders of magnitude below.
DEFAULT_P_FLOOR = 1e-3


@dataclass(frozen=True)
class ChiSquareResult:
    """A chi-square goodness-of-fit verdict."""

    statistic: float
    df: int
    p_value: float
    observed: tuple[float, ...]
    expected: tuple[float, ...]

    def ok(self, p_floor: float = DEFAULT_P_FLOOR) -> bool:
        return self.p_value > p_floor

    def describe(self) -> str:
        obs = ", ".join(f"{v:g}" for v in self.observed)
        exp = ", ".join(f"{v:.1f}" for v in self.expected)
        return (f"chi2={self.statistic:.2f} df={self.df} "
                f"p={self.p_value:.3e} observed=[{obs}] expected=[{exp}]")


def chi_square(observed, expected=None) -> ChiSquareResult:
    """Chi-square goodness of fit of ``observed`` counts against ``expected``.

    ``expected`` may be a per-cell sequence, a scalar, or None (uniform:
    every cell expects ``total / cells``).  Cells with zero expectation
    must also observe zero; any mass there makes the fit infinitely bad
    (p-value 0).
    """
    obs = [float(v) for v in observed]
    if not obs:
        raise ValueError("chi_square needs at least one cell")
    total = sum(obs)
    if expected is None:
        exp = [total / len(obs)] * len(obs)
    elif isinstance(expected, (int, float)):
        exp = [float(expected)] * len(obs)
    else:
        exp = [float(v) for v in expected]
    if len(exp) != len(obs):
        raise ValueError(f"{len(obs)} observed cells vs {len(exp)} expected")
    statistic = 0.0
    impossible = False
    for o, e in zip(obs, exp):
        if e <= 0.0:
            impossible = impossible or o > 0.0
            continue
        statistic += (o - e) ** 2 / e
    df = max(1, len(obs) - 1)
    if impossible:
        p_value = 0.0
        statistic = float("inf")
    else:
        p_value = chi2_sf(statistic, df)
    return ChiSquareResult(statistic, df, p_value, tuple(obs), tuple(exp))


def assert_uniform(observed, expected=None, p_floor: float = DEFAULT_P_FLOOR,
                   label: str = "counts") -> ChiSquareResult:
    """Assert ``observed`` counts fit ``expected`` at the shared threshold."""
    result = chi_square(observed, expected)
    assert result.ok(p_floor), f"{label} biased: {result.describe()}"
    return result


def ks_uniform(values, lo: float, hi: float):
    """Kolmogorov–Smirnov p-value of ``values`` against Uniform(lo, hi)."""
    from scipy import stats as scipy_stats  # repro: allow[STA001] exact KS test, tests only

    if hi <= lo:
        raise ValueError(f"degenerate interval [{lo}, {hi}]")
    scaled = [(v - lo) / (hi - lo) for v in values]
    return float(scipy_stats.kstest(scaled, "uniform").pvalue)


def prefix_vs_population(prefix_keys, population_keys,
                         bins: int = 8) -> ChiSquareResult | None:
    """Is a sample-prefix's key distribution consistent with the population?

    Bins the population into (approximately) equal-count cells by key and
    chi-square-tests the prefix's cell counts against the population's
    cell proportions.  This is the oracle's statistical-equivalence check:
    a uniform sampler's prefix passes; one biased toward any key region
    (e.g. a broken Combine dropping an interval) fails by orders of
    magnitude.

    Returns ``None`` when the prefix or population is too small for the
    test to have meaningful power (fewer than ~5 expected per cell after
    adapting the bin count), rather than issuing an underpowered verdict.
    """
    population = sorted(population_keys)
    prefix = list(prefix_keys)
    n_pop, n_pre = len(population), len(prefix)
    if n_pop < 10 or n_pre < 20:
        return None
    if population[0] == population[-1]:
        return None  # all keys identical: any prefix is trivially uniform
    bins = max(2, min(bins, n_pre // 5))
    # Equal-count edges; duplicates collapse under heavy-dup key sets.
    edges = sorted({population[i * n_pop // bins] for i in range(1, bins)})
    if not edges:
        return None
    cells = len(edges) + 1
    pop_counts = [0] * cells
    for key in population:
        pop_counts[bisect_right(edges, key)] += 1
    obs = [0] * cells
    for key in prefix:
        obs[bisect_right(edges, key)] += 1
    exp = [n_pre * c / n_pop for c in pop_counts]
    if min(e for e in exp if e > 0) < 2.0:
        return None
    return chi_square(obs, exp)
