"""Online aggregation over a sample view (the paper's motivating app).

Online aggregation (Hellerstein, Haas & Wang) consumes records one at a
time in random order and keeps the user updated with a running estimate
plus a probabilistic error bound.  The ACE Tree's online sample stream is
exactly the input this needs; the internal-node counts supply the
population size for the finite-population correction (paper Section III.B:
"these values can be used ... during evaluation of online aggregation
queries which require the size of the population from which we are
sampling").

Estimators are the standard CLT ones: the sample mean estimates AVG, and
``population * mean`` estimates SUM/COUNT.  Confidence intervals use a
normal approximation with the finite-population correction
``(N - n) / (N - 1)``, which drives the bound to zero as the sample
approaches the full matching population.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from ..core.errors import EstimatorError
from ..core.records import Record
from ..core.stats import CLTEstimator
from ..obs.metrics import METRICS
from ..obs.tracer import TRACER

__all__ = ["OnlineAggregator", "ProgressPoint", "aggregate_stream"]


class OnlineAggregator(CLTEstimator):
    """Running AVG/SUM estimate with CLT confidence bounds: the shared
    :class:`~repro.core.stats.CLTEstimator`, raising before any sample.

    Args:
        value_of: extracts the aggregated numeric value from a record.
        population: number of records matching the predicate (exact or
            estimated from the ACE Tree's internal-node counts).
        confidence: two-sided confidence level for :meth:`mean_interval`;
            fixed at construction (read-only), because the normal quantile
            it selects is computed once here rather than per interval.
    """

    def __init__(
        self,
        value_of: Callable[[Record], float],
        population: float,
        confidence: float = 0.95,
    ) -> None:
        if population < 0:
            raise EstimatorError(f"population must be >= 0, got {population}")
        if not 0 < confidence < 1:
            raise EstimatorError(f"confidence must be in (0, 1), got {confidence}")
        super().__init__(confidence, population)
        self._value_of = value_of
        self._confidence = confidence

    # -- updates -----------------------------------------------------------

    def update(self, records: Iterable[Record]) -> None:
        """Fold new sample records into the running estimate."""
        self.fold(map(self._value_of, records))

    # -- estimates ----------------------------------------------------------

    @property
    def confidence(self) -> float:
        """The two-sided confidence level (read-only)."""
        return self._confidence

    sample_size = CLTEstimator.count

    @property
    def mean(self) -> float:
        """Running estimate of AVG(value)."""
        if self._count == 0:
            raise EstimatorError("no samples yet")
        return self._mean

    @property
    def total(self) -> float:
        """Running estimate of SUM(value) over the matching population."""
        return self.mean * self.population

    def mean_interval(self) -> tuple[float, float]:
        """Confidence interval for AVG at the configured level."""
        half = self.half_width()
        return self._mean - half, self._mean + half

    def sum_interval(self) -> tuple[float, float]:
        """Confidence interval for SUM at the configured level."""
        lo, hi = self.mean_interval()
        return lo * self.population, hi * self.population

    def half_width(self) -> float:
        """Half-width of the AVG confidence interval (CLT + FPC)."""
        if self._count == 0:
            raise EstimatorError("no samples yet")
        return CLTEstimator.half_width(self)  # not super(): ~0.2 us per batch

    def relative_half_width(self) -> float:
        """Half-width relative to the current estimate (inf if mean ~ 0)."""
        return _relative(self.half_width(), self.mean)


def _relative(half: float, mean: float) -> float:
    """``half`` relative to ``|mean|``, or inf when the mean is zero."""
    if mean == 0:
        return math.inf
    return half / abs(mean)


@dataclass(frozen=True, slots=True)
class ProgressPoint:
    """One progress report of an online-aggregation session."""

    clock: float
    sample_size: int
    mean: float
    mean_low: float
    mean_high: float


def aggregate_stream(
    batches: Iterator,
    value_of: Callable[[Record], float],
    population: float,
    confidence: float = 0.95,
    target_relative_width: float | None = None,
    max_records: int | None = None,
) -> Iterator[ProgressPoint]:
    """Drive an aggregator from a sample-batch stream, reporting progress.

    Yields one :class:`ProgressPoint` per consumed batch and stops early
    when the relative CI half-width drops below ``target_relative_width``
    or ``max_records`` have been consumed — the "sample until the answer is
    good enough" usage the paper motivates.
    """
    aggregator = OnlineAggregator(value_of, population, confidence)
    for batch in batches:
        if not batch.records:
            continue
        # One estimate tick per batch; the span carries the running error
        # and closes before the yield (no span across generator suspension).
        with TRACER.span("online_agg.tick") as sp:
            aggregator.update(batch.records)
            # One half-width per batch serves both the interval and the
            # stopping rule.
            mean = aggregator.mean
            half = aggregator.half_width()
            low, high = mean - half, mean + half
            if TRACER.enabled:
                METRICS.counter("online_agg.records").inc(len(batch.records))
            if sp is not None:
                sp.attrs["sample_size"] = aggregator.sample_size
                sp.attrs["mean"] = mean
                sp.attrs["half_width"] = (high - low) / 2
                sp.attrs["clock"] = batch.clock
        yield ProgressPoint(
            clock=batch.clock,
            sample_size=aggregator.sample_size,
            mean=mean,
            mean_low=low,
            mean_high=high,
        )
        if (
            target_relative_width is not None
            and aggregator.sample_size >= 2
            and _relative(half, mean) <= target_relative_width
        ):
            return
        if max_records is not None and aggregator.sample_size >= max_records:
            return
