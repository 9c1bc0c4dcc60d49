"""Analytical results about the ACE Tree (paper Section VI.E).

These formulas are used three ways: to auto-size trees, to sanity-check
measured behaviour in the test suite (the measured sampling rate must beat
Lemma 1's lower bound; measured section sizes must match Lemma 2), and to
report expected performance in the benchmark harness.
"""

from __future__ import annotations

import math

from ..core.stats import normal_quantile

__all__ = [
    "expected_section_size",
    "lemma1_lower_bound",
    "lemma1_applicability_limit",
    "fixed_leaf_utilization",
]


def expected_section_size(num_records: int, height: int, arity: int = 2) -> float:
    """Lemma 2: expected records per leaf section, ``|R| / (h * k^(h-1))``.

    A record picks one of ``h`` sections uniformly and then one of the
    ``k^(h-1)`` leaves compatible with its section, uniformly; both choices
    are independent of every other record's, so each of the
    ``h * k^(h-1)`` (leaf, section) cells gets the same expected count.
    ``k`` is the tree arity (2 in the paper's design).
    """
    if num_records < 0:
        raise ValueError(f"num_records must be >= 0, got {num_records}")
    if height < 1:
        raise ValueError(f"height must be >= 1, got {height}")
    if arity < 2:
        raise ValueError(f"arity must be >= 2, got {arity}")
    return num_records / (height * arity ** (height - 1))


def lemma1_lower_bound(leaves_read: int, mean_section_size: float) -> float:
    """Lemma 1: lower bound on E[samples] after ``m`` leaves are retrieved.

    The paper proves that while the shuttle has not exhausted the two
    subtrees covering the query (``m <= 2*alpha*n + 2``), the expected
    number of emitted samples after ``m`` leaf reads is at least
    ``(mu / 2) * m * log2(m)``; we return the exact partial-sum form
    ``(mu / 2) * sum_{k=2..m} log2 k``, which the closed form rounds up to.
    """
    if leaves_read < 0:
        raise ValueError(f"leaves_read must be >= 0, got {leaves_read}")
    if mean_section_size < 0:
        raise ValueError(f"mean_section_size must be >= 0, got {mean_section_size}")
    total = sum(math.log2(k) for k in range(2, leaves_read + 1))
    return 0.5 * mean_section_size * total


def fixed_leaf_utilization(
    num_records: int,
    height: int,
    arity: int = 2,
    overflow_probability: float = 0.01,
    per_section: bool = False,
) -> float:
    """Expected space utilization of the *rejected* fixed-size schemes.

    Section V.F: cell sizes are random (each record lands in its cell
    independently), so any fixed-size layout must reserve enough space
    that, with probability ``1 - overflow_probability``, **nothing**
    overflows its slot.  With ``per_section=False`` the slot is per *leaf*
    (a Binomial(n, 1/L) total); with ``per_section=True`` every
    (leaf, section) cell gets its own fixed slot (Binomial(n, 1/(hL)),
    far smaller mean, hence far worse relative spread).  Slots are sized
    at the union-bound quantile of the binomial, normal-approximated; the
    returned utilization is ``mean / slot`` (a ``ValueError`` for one cell
    at ``overflow_probability >= 0.5``, which has no slot above its mean).

    The paper estimates "less than 15%" utilization for its configuration;
    the exact figure depends on which scheme and parameters are assumed,
    but the qualitative conclusion this function makes checkable is the
    one that matters: fixed slots waste a large, height-dependent fraction
    of every page (and per-section slots are much worse than per-leaf),
    while the variable-size layout the paper (and this library) uses packs
    pages essentially full.
    """
    if num_records <= 0:
        raise ValueError(f"num_records must be > 0, got {num_records}")
    if not 0 < overflow_probability < 1:
        raise ValueError(
            f"overflow_probability must be in (0, 1), got {overflow_probability}"
        )
    leaves = arity ** (height - 1)
    cells = leaves * height if per_section else leaves
    probability = 1 / cells
    mean = num_records * probability
    # Normal approximation of Binomial(n, 1/cells).
    sigma = math.sqrt(num_records * probability * (1 - probability))
    # Union bound: each cell may overflow with probability p / cells, the
    # upper tail of the two-sided quantile at confidence 1 - 2p/cells.
    z = normal_quantile(1 - 2 * overflow_probability / cells)
    slot = mean + z * sigma
    return mean / slot


def lemma1_applicability_limit(selectivity: float, num_leaves: int) -> int:
    """Largest ``m`` for which Lemma 1's bound is claimed: ``2*alpha*n + 2``."""
    if not 0 <= selectivity <= 1:
        raise ValueError(f"selectivity must be in [0, 1], got {selectivity}")
    if num_leaves < 1:
        raise ValueError(f"num_leaves must be >= 1, got {num_leaves}")
    return int(2 * selectivity * num_leaves) + 2
