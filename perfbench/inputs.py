"""Seeded input generators: every input is a pure function of the seed.

The program never sees the benchmark seed except through the SALE base
relation (``generate_sale_1d`` is the program's own ``workloads`` layer,
which the benchmark measures).  Query bounds, per-query stream seeds,
serve arrival times and the records inserted into the view all come from
this module's own numpy generators, keyed by ``(seed, stream label)``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

__all__ = [
    "AGG_SELECTIVITIES",
    "Query",
    "agg_queries",
    "digest",
    "serve_arrivals",
    "view_inserts",
    "view_queries",
]

#: The paper's Figs 11-13 selectivities, as fractions of the key domain.
AGG_SELECTIVITIES = (0.0025, 0.025, 0.25)

# Stream labels: one independent generator per kind of input.
_AGG, _SERVE, _VIEW_ROWS, _VIEW_QUERIES = 1, 2, 3, 4


@dataclass(frozen=True)
class Query:
    """One half-open range predicate ``lo <= day < hi``."""

    qid: int
    lo: int
    hi: int
    stream_seed: int


def _rng(seed: int, label: int, *more: int) -> np.random.Generator:
    return np.random.default_rng([seed, label, *more])


def _range(rng, domain: int, selectivity: float) -> tuple[int, int]:
    width = max(1, int(domain * selectivity))
    lo = int(rng.integers(0, domain - width + 1))
    return lo, lo + width


def agg_queries(seed: int, count: int, domain: int, hot_per_class: int = 4,
                hot_share: float = 0.7, pareto_shape: float = 1.2,
                jitter: float = 0.25) -> list[Query]:
    """Closed-loop analyst queries: ~70% around a few hot ranges, rest uniform.

    Query ``i`` has selectivity ``AGG_SELECTIVITIES[i % 3]``, so the three
    are equally common in every run and a median never sits on the
    boundary between two of them.  Each selectivity has ``hot_per_class``
    hot ranges; the one of popularity rank ``r`` is chosen with Pareto
    (power-law) weight ``(r + 1) ** -pareto_shape``, and a query on it is
    shifted by up to ``jitter`` of its width either way, so hot queries
    overlap (and share cached cells) without all being one query.
    Positions and stream seeds depend on the seed; the mix does not.
    """
    rng = _rng(seed, _AGG)
    hot = [
        [_range(rng, domain, selectivity) for _ in range(hot_per_class)]
        for selectivity in AGG_SELECTIVITIES
    ]
    weights = np.arange(1, hot_per_class + 1, dtype=float) ** -pareto_shape
    weights /= weights.sum()
    out = []
    for qid in range(count):
        cls = qid % len(AGG_SELECTIVITIES)
        if rng.random() < hot_share:
            lo, hi = hot[cls][int(rng.choice(hot_per_class, p=weights))]
            shift = int((hi - lo) * jitter * (2.0 * rng.random() - 1.0))
            shift = min(max(shift, -lo), domain - hi)
            lo, hi = lo + shift, hi + shift
        else:
            lo, hi = _range(rng, domain, AGG_SELECTIVITIES[cls])
        out.append(Query(qid, lo, hi, int(rng.integers(0, 2**31))))
    return out


@dataclass(frozen=True)
class Arrival:
    tenant: str
    query: Query
    at: float  # simulated seconds


def serve_arrivals(seed: int, tenants: int, per_tenant: int, domain: int,
                   period: float, spread: float,
                   selectivity: float) -> list[Arrival]:
    """Open-loop flash crowds: every tenant submits once per burst.

    Burst ``i`` opens at ``i * period`` simulated seconds; within it each
    tenant's arrival lags the opening by an exponential delay of mean
    ``spread``.  So the queue fills to about one query per tenant at each
    burst and drains before the next, and the load is the same from one
    seed to the next while query bounds, stream seeds and arrival order
    are not.
    """
    out = []
    for t in range(tenants):
        rng = _rng(seed, _SERVE, t)
        for i in range(per_tenant):
            at = i * period + float(rng.exponential(spread))
            lo, hi = _range(rng, domain, selectivity)
            out.append(Arrival(f"t{t}", Query(t * per_tenant + i, lo, hi,
                                              int(rng.integers(0, 2**31))),
                               at))
    return out


def view_inserts(seed: int, round_no: int, count: int, domain: int) -> list[tuple]:
    """Records for one insert batch, in the SALE 1-D schema's layout."""
    rng = _rng(seed, _VIEW_ROWS, round_no)
    days = rng.integers(0, domain, size=count).tolist()
    rest = rng.integers(0, 1_000_000, size=(count, 3)).tolist()
    return [(d, c, p, s, b"") for d, (c, p, s) in zip(days, rest)]


def view_queries(seed: int, round_no: int, count: int, domain: int) -> list[Query]:
    """Uniformly placed queries, selectivity cycling through the paper's three."""
    rng = _rng(seed, _VIEW_QUERIES, round_no)
    out = []
    for i in range(count):
        lo, hi = _range(rng, domain, AGG_SELECTIVITIES[i % 3])
        out.append(Query(round_no * count + i, lo, hi, int(rng.integers(0, 2**31))))
    return out


def digest(values) -> str:
    """Stable hash of a generated input list (for the determinism checks)."""
    return hashlib.sha256(repr(values).encode()).hexdigest()[:16]
