"""Ripple joins: online aggregation over a join of two sample streams.

The paper motivates sample views with online aggregation and cites Haas &
Hellerstein's ripple joins (its reference [4]) as the mechanism for
multi-table queries: both relations are consumed in random order, and at
every step the join of the current samples yields an unbiased estimate of
the full join aggregate.  Two ACE-Tree sample streams are exactly the
random-order inputs a ripple join needs — including the ability to
restrict each side with its own range predicate first.

This implements the *square* ripple join for SUM/COUNT/AVG:

* after ``n_r`` samples of R and ``n_s`` samples of S, the unbiased SUM
  estimate is ``(N_R * N_S) / (n_r * n_s) * sum(v(r, s))`` over matching
  sampled pairs, where ``N_R``/``N_S`` are the (matching-)population sizes
  the streams sample from;
* confidence intervals use grouped jackknife-style batch means: the R
  samples are split into ``B`` groups, each group's scaled estimate is an
  (approximately) independent replicate given the current S sample, and
  the spread of the replicates bounds the estimator's error.  This is a
  practical simplification of Haas & Hellerstein's variance analysis and
  is validated empirically in the test suite.

Equi-joins get a hash fast path (``r_key`` / ``s_key``); arbitrary
predicates fall back to nested-loop evaluation over the sampled corner.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Iterator

from ..core.errors import EstimatorError
from ..core.records import Record
from ..core.stats import normal_quantile

__all__ = ["RippleJoin", "JoinProgressPoint", "ripple_join_streams"]


class RippleJoin:
    """Square ripple join estimator for ``SUM/COUNT(v(r, s))`` aggregates.

    Args:
        value_of: value of one joined pair (use ``lambda r, s: 1.0`` for
            COUNT).
        population_r: number of records the R stream samples from.
        population_s: number of records the S stream samples from.
        r_key / s_key: optional equi-join keys; when both are given,
            matching pairs are found via hash lookup and ``predicate`` is
            skipped.
        predicate: general join condition (ignored when keys are given).
        confidence: two-sided level for :meth:`sum_interval`; fixed at
            construction (read-only), because its normal quantile is
            computed once here rather than per interval.
        groups: number of batch-means groups for the variance estimate.
    """

    def __init__(
        self,
        value_of: Callable[[Record, Record], float],
        population_r: float,
        population_s: float,
        r_key: Callable[[Record], object] | None = None,
        s_key: Callable[[Record], object] | None = None,
        predicate: Callable[[Record, Record], bool] | None = None,
        confidence: float = 0.95,
        groups: int = 10,
    ) -> None:
        if population_r <= 0 or population_s <= 0:
            raise EstimatorError("populations must be positive")
        if not 0 < confidence < 1:
            raise EstimatorError(f"confidence must be in (0, 1), got {confidence}")
        if groups < 2:
            raise EstimatorError(f"need at least 2 groups, got {groups}")
        if (r_key is None) != (s_key is None):
            raise EstimatorError("provide both r_key and s_key, or neither")
        if r_key is None and predicate is None:
            raise EstimatorError("need either equi-join keys or a predicate")
        self._value_of = value_of
        self.population_r = population_r
        self.population_s = population_s
        self._r_key = r_key
        self._s_key = s_key
        self._predicate = predicate
        self._confidence = confidence
        self._z = normal_quantile(confidence)
        self.groups = groups

        self._r_samples: list[Record] = []
        self._s_samples: list[Record] = []
        # Equi-join hash state: key -> list of sampled records.
        self._r_by_key: dict = defaultdict(list)
        self._s_by_key: dict = defaultdict(list)
        # Running sums: total and per R-group.
        self._sum = 0.0
        self._group_sums = [0.0] * groups
        self._group_counts = [0] * groups

    # -- consuming samples -----------------------------------------------------

    @property
    def confidence(self) -> float:
        """The two-sided confidence level (read-only)."""
        return self._confidence

    @property
    def samples_r(self) -> int:
        return len(self._r_samples)

    @property
    def samples_s(self) -> int:
        return len(self._s_samples)

    def add_r(self, records) -> None:
        """Fold new R samples in, joining them against the current S corner."""
        for record in records:
            group = len(self._r_samples) % self.groups
            self._r_samples.append(record)
            self._group_counts[group] += 1
            if self._r_key is not None:
                key = self._r_key(record)
                self._r_by_key[key].append((record, group))
                for s_record in self._s_by_key.get(key, ()):
                    self._account(record, s_record, group)
            else:
                for s_record in self._s_samples:
                    if self._predicate(record, s_record):
                        self._account(record, s_record, group)

    def add_s(self, records) -> None:
        """Fold new S samples in, joining them against the current R corner."""
        for record in records:
            self._s_samples.append(record)
            if self._s_key is not None:
                key = self._s_key(record)
                self._s_by_key[key].append(record)
                for r_record, group in self._r_by_key.get(key, ()):
                    self._account(r_record, record, group)
            else:
                for group_offset, r_record in enumerate(self._r_samples):
                    if self._predicate(r_record, record):
                        self._account(r_record, record, group_offset % self.groups)

    def _account(self, r_record: Record, s_record: Record, group: int) -> None:
        value = self._value_of(r_record, s_record)
        self._sum += value
        self._group_sums[group] += value

    # -- estimates ----------------------------------------------------------------

    @property
    def scale(self) -> float:
        """The Horvitz-Thompson scale-up factor for the sampled corner."""
        if not self._r_samples or not self._s_samples:
            raise EstimatorError("need samples from both inputs")
        return (self.population_r * self.population_s) / (
            len(self._r_samples) * len(self._s_samples)
        )

    @property
    def sum_estimate(self) -> float:
        """Unbiased estimate of ``SUM(v)`` over the full join."""
        return self.scale * self._sum

    def sum_interval(self) -> tuple[float, float]:
        """Batch-means confidence interval for the SUM estimate."""
        replicates = self._group_replicates()
        if len(replicates) < 2:
            return -math.inf, math.inf
        center = self.sum_estimate
        spread = _sample_std(replicates)
        half = self._z * spread / math.sqrt(len(replicates))
        return center - half, center + half

    def _group_replicates(self) -> list[float]:
        """Per-group scaled estimates (approximately iid given the S corner)."""
        if not self._s_samples:
            return []
        out = []
        for group_sum, group_count in zip(self._group_sums, self._group_counts):
            if group_count == 0:
                continue
            scale = (self.population_r * self.population_s) / (
                group_count * len(self._s_samples)
            )
            out.append(scale * group_sum)
        return out

    def relative_half_width(self) -> float:
        lo, hi = self.sum_interval()
        estimate = self.sum_estimate
        if not math.isfinite(lo) or estimate == 0:
            return math.inf
        return (hi - lo) / 2 / abs(estimate)


def _sample_std(values: list[float]) -> float:
    n = len(values)
    mean = sum(values) / n
    return math.sqrt(sum((v - mean) ** 2 for v in values) / (n - 1))


@dataclass(frozen=True, slots=True)
class JoinProgressPoint:
    """One progress report of a ripple-join session."""

    clock: float
    samples_r: int
    samples_s: int
    estimate: float
    low: float
    high: float


def ripple_join_streams(
    batches_r: Iterator,
    batches_s: Iterator,
    join: RippleJoin,
    target_relative_width: float | None = None,
    max_samples: int | None = None,
) -> Iterator[JoinProgressPoint]:
    """Drive a ripple join by alternating between two sample-batch streams.

    The square ripple join draws from R and S alternately; here one batch
    of each per round.  Progress points carry the later of the two batch
    clocks (both streams share the simulated disk in our experiments, so
    clocks are comparable).  Stops when the relative CI half-width reaches
    ``target_relative_width``, when ``max_samples`` (of R+S) have been
    consumed, or when both streams are exhausted.
    """
    exhausted_r = exhausted_s = False
    while not (exhausted_r and exhausted_s):
        clock = None
        batch_r = next(batches_r, None)
        if batch_r is None:
            exhausted_r = True
        else:
            join.add_r(batch_r.records)
            clock = batch_r.clock
        batch_s = next(batches_s, None)
        if batch_s is None:
            exhausted_s = True
        else:
            join.add_s(batch_s.records)
            clock = batch_s.clock if clock is None else max(clock, batch_s.clock)
        if clock is None:
            break
        if join.samples_r and join.samples_s:
            low, high = join.sum_interval()
            yield JoinProgressPoint(
                clock=clock,
                samples_r=join.samples_r,
                samples_s=join.samples_s,
                estimate=join.sum_estimate,
                low=low,
                high=high,
            )
            if (
                target_relative_width is not None
                and join.relative_half_width() <= target_relative_width
            ):
                return
        if (
            max_samples is not None
            and join.samples_r + join.samples_s >= max_samples
        ):
            return
