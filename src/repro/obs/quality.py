"""Statistical quality monitors for sample streams (``repro.obs.quality``).

The paper's claims are *time-resolved statistical quality*: every figure
plots "% of the relation returned as a **valid random sample** vs. elapsed
time", and the online-aggregation payoff only holds if the Combine stream
stays uniform at every prefix.  The tracer (:mod:`repro.obs.tracer`) says
where the time went; this module observes **what statistical quality that
time bought**:

* :class:`UniformityMonitor` — a streaming chi-square over the predicate
  range, computed per *arrival-order window* of samples so a drift in the
  stream is localized in time rather than only detected at the end, plus a
  binned Kolmogorov–Smirnov statistic over the whole prefix.
* :class:`CoverageMonitor` — per-stratum arrival counts over the predicate
  range (the uniformity monitor's equal-width cells).
* :class:`EstimatorMonitor` — CLT running confidence intervals for the
  SUM/AVG estimators (the :class:`~repro.core.stats.CLTEstimator` that
  ``repro.apps.online_agg.OnlineAggregator`` also uses) with
  **time-to-accuracy**: the simulated-clock and wall-clock time until the
  relative CI half-width first drops to each configured target ε.
* :class:`StreamQualityMonitor` — one monitored query: wraps a sampler's
  batch iterator (any :class:`repro.baselines.base.Sampler` stream, or an
  ACE :class:`~repro.acetree.query.SampleStream`) and drives the three
  monitors above from the emitted records.
* :class:`QualitySession` — a bag of monitors for a multi-query run (the
  figure harness opens one per ``(sampler, query)`` pair) plus the grouped
  summaries the trace report and JSONL export consume.

Monitors are strictly **read-only observers**: they look at the records and
the batch ``clock`` values a stream already carries, never touch the
simulated disk, RNG streams, or the stream's own state — a monitored run is
bit-identical to an unmonitored one on the simulated clock.  They also emit
first-class metrics (``quality.*`` counters/gauges/histograms) into a
:class:`~repro.obs.metrics.MetricsRegistry` so ``bench --json`` and the
text report can surface them.

Layering: this module is part of ``obs`` (rank 0 in lint rule LAY001); its one
import from the library is the leaf :mod:`repro.core.stats`.  Key extraction,
predicate ranges, and population counts are passed in by the caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from time import perf_counter  # repro: allow[CLK001] wall-clock TTA is an obs measurement

from ..core.stats import CLTEstimator, chi2_sf, kolmogorov_sf
from .context import CONTEXT
from .flight import FLIGHT
from .metrics import METRICS, MetricsRegistry

__all__ = [
    "CoverageMonitor",
    "EstimatorMonitor",
    "QualityConfig",
    "QualitySession",
    "StreamQualityMonitor",
    "TTARecord",
    "UniformityMonitor",
    "WindowVerdict",
]

QUALITY_RECORD_VERSION = 1

_P_VALUE_BOUNDS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9)
_TTA_SIM_BOUNDS = (0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
                   1.0, 2.5, 5.0, 10.0, 25.0)
_TTA_WALL_BOUNDS = (0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
                    0.025, 0.05, 0.1, 0.25, 0.5, 1.0)


@dataclass(frozen=True)
class QualityConfig:
    """Knobs shared by every monitor of a session.

    ``window`` and ``bins`` are chosen so the expected count per chi-square
    cell (``window / bins``) stays comfortably above the usual ≥5 rule of
    thumb; ``alpha`` is the per-window significance (each window is an
    independent test, so a uniform stream fails ~``alpha`` of its windows
    by chance — the verdict reports the failed count, not a hard boolean).
    """

    bins: int = 8
    window: int = 200
    alpha: float = 0.005
    min_final_window: int = 64  # partial last window is tested only past this
    ci_confidence: float = 0.95
    tta_targets: tuple[float, ...] = (0.2, 0.1, 0.05, 0.02, 0.01)
    tta_min_n: int = 30  # no TTA verdict before the CLT plausibly applies
    timeline_cap: int = 512

    def __post_init__(self) -> None:
        if self.bins < 2:
            raise ValueError(f"need at least 2 bins, got {self.bins}")
        if self.window < 2 * self.bins:
            raise ValueError(
                f"window={self.window} too small for bins={self.bins}; "
                "expected counts per cell would be unreliable"
            )
        if not 0 < self.alpha < 1:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if any(t <= 0 for t in self.tta_targets):
            raise ValueError("tta_targets must be positive relative widths")
        if list(self.tta_targets) != sorted(self.tta_targets, reverse=True):
            raise ValueError("tta_targets must be strictly decreasing")
        if self.tta_min_n < 2:
            raise ValueError(f"tta_min_n must be >= 2, got {self.tta_min_n}")
        if not 0 < self.ci_confidence < 1:
            raise ValueError(
                f"ci_confidence must be in (0, 1), got {self.ci_confidence}"
            )


@dataclass(frozen=True, slots=True)
class WindowVerdict:
    """Chi-square verdict for one arrival-order window of samples."""

    index: int
    n: int
    chi2: float
    p_value: float
    ok: bool
    start_sim: float
    end_sim: float

    def as_dict(self) -> dict:
        return {
            "index": self.index, "n": self.n, "chi2": self.chi2,
            "p_value": self.p_value, "ok": self.ok,
            "start_sim": self.start_sim, "end_sim": self.end_sim,
        }


class UniformityMonitor:
    """Streaming windowed chi-square + binned KS over a 1-D predicate range.

    Values are binned into ``bins`` equal-width cells of ``[lo, hi)``.  The
    chi-square statistic of each window is computed against ``expected`` —
    uniform per-cell probabilities (correct for the SALE workloads, whose
    keys are uniform).  A window that rejects at ``alpha`` pins the drift
    to its own arrival interval, which a single end-of-stream test cannot
    do.

    The KS statistic is computed on the binned empirical CDF of the whole
    prefix, so it is a lower bound on the exact one-sample statistic with
    resolution ``1/bins`` of the expected CDF; its p-value uses the
    asymptotic Kolmogorov distribution.
    """

    def __init__(self, lo: float, hi: float, config: QualityConfig) -> None:
        if not hi > lo:
            raise ValueError(f"need hi > lo, got [{lo}, {hi})")
        self.lo = lo
        self.hi = hi
        self.config = config
        bins = config.bins
        # Normalised by their float sum, not by 1.0: the exported
        # statistics are computed from these exact values.
        uniform = (1.0 / bins,) * bins
        total = sum(uniform)
        self.expected = tuple(p / total for p in uniform)
        self._scale = bins / (hi - lo)
        self._window_counts = [0] * bins
        self._window_n = 0
        self._window_start_sim = 0.0
        self._total_counts = [0] * bins
        self.samples = 0
        self.out_of_range = 0
        self.windows: list[WindowVerdict] = []  # repro: shared[confined] one monitor per observed stream

    # -- updates -------------------------------------------------------

    def observe(self, value: float, clock: float) -> None:
        """Fold one sample key in; ``clock`` is its batch's simulated time."""
        index = int((value - self.lo) * self._scale)
        bins = self.config.bins
        if value < self.lo or value > self.hi:
            # Keys outside the predicate range mean the *stream* is wrong
            # (its contract is to emit matching records only); count rather
            # than raise so the verdict carries the evidence.
            self.out_of_range += 1
            index = min(max(index, 0), bins - 1)
        elif index >= bins:  # value == hi (closed queries) or edge rounding
            index = bins - 1
        if self._window_n == 0:
            self._window_start_sim = clock
        self._window_counts[index] += 1
        self._total_counts[index] += 1
        self._window_n += 1
        self.samples += 1
        if self._window_n >= self.config.window:
            self._close_window(clock)

    def _chi2(self, counts: list[int], n: int) -> tuple[float, float]:
        """(statistic, p-value) of ``n`` samples binned as ``counts``."""
        chi2 = 0.0
        for observed, p in zip(counts, self.expected):
            expected = n * p
            if expected > 0:
                delta = observed - expected
                chi2 += delta * delta / expected
        return chi2, chi2_sf(chi2, self.config.bins - 1)

    def _close_window(self, end_sim: float) -> None:
        n = self._window_n
        chi2, p_value = self._chi2(self._window_counts, n)
        self.windows.append(
            WindowVerdict(
                index=len(self.windows),
                n=n,
                chi2=chi2,
                p_value=p_value,
                ok=p_value >= self.config.alpha,
                start_sim=self._window_start_sim,
                end_sim=end_sim,
            )
        )
        self._window_counts = [0] * self.config.bins
        self._window_n = 0

    def finalize(self, clock: float) -> None:
        """Close the trailing partial window (if it has enough samples)."""
        if self._window_n >= self.config.min_final_window:
            self._close_window(clock)
        else:
            self._window_n = 0
            self._window_counts = [0] * self.config.bins

    # -- verdicts ------------------------------------------------------

    @property
    def windows_failed(self) -> int:
        return sum(1 for w in self.windows if not w.ok)

    @property
    def min_p_value(self) -> float:
        return min((w.p_value for w in self.windows), default=1.0)

    def overall_chi2(self) -> tuple[float, float]:
        """(statistic, p-value) over the entire prefix."""
        if self.samples == 0:
            return 0.0, 1.0
        return self._chi2(self._total_counts, self.samples)

    def ks_statistic(self) -> tuple[float, float]:
        """Binned one-sample KS ``(D, p)`` of the prefix vs ``expected``."""
        n = self.samples
        if n == 0:
            return 0.0, 1.0
        d = 0.0
        ecdf = 0.0
        cdf = 0.0
        for observed, p in zip(self._total_counts, self.expected):
            ecdf += observed / n
            cdf += p
            d = max(d, abs(ecdf - cdf))
        p_value = kolmogorov_sf(d * math.sqrt(n))
        return d, p_value

    @property
    def ok(self) -> bool:
        """No window rejected, no out-of-range key.

        With ``w`` windows a uniform stream still fails with probability
        ``~w * alpha``; callers that want a hard gate should also look at
        :meth:`overall_chi2` and the failed-window *count*.
        """
        return self.windows_failed == 0 and self.out_of_range == 0

    def summary(self) -> dict:
        chi2, chi2_p = self.overall_chi2()
        ks_d, ks_p = self.ks_statistic()
        return {
            "samples": self.samples,
            "bins": self.config.bins,
            "window": self.config.window,
            "alpha": self.config.alpha,
            "windows": [w.as_dict() for w in self.windows],
            "windows_failed": self.windows_failed,
            "min_window_p": self.min_p_value,
            "chi2": chi2,
            "chi2_p": chi2_p,
            "ks_d": ks_d,
            "ks_p": ks_p,
            "out_of_range": self.out_of_range,
            "ok": self.ok,
        }


class CoverageMonitor:
    """Per-stratum arrival counts over the predicate range.

    Strata are the same equal-width cells the uniformity monitor uses.
    Coverage — the fraction of strata that have received at least one
    sample — is the cheap early-warning signal: a stream that never
    touches a stratum is biased long before chi-square has the power to
    say so.
    """

    def __init__(self, lo: float, hi: float, strata: int) -> None:
        if strata < 1:
            raise ValueError(f"need at least one stratum, got {strata}")
        self.strata = strata
        self.counts = [0] * strata
        self._lo = lo
        self._scale = strata / (hi - lo)

    def observe(self, value: float) -> None:
        index = int((value - self._lo) * self._scale)
        if 0 <= index < self.strata:
            self.counts[index] += 1
        elif index == self.strata:  # hi-edge float rounding
            self.counts[index - 1] += 1

    @property
    def hit(self) -> int:
        return sum(1 for c in self.counts if c)

    @property
    def coverage(self) -> float:
        return self.hit / self.strata

    def summary(self) -> dict:
        return {
            "strata": self.strata,
            "hit": self.hit,
            "coverage": self.coverage,
            "counts": list(self.counts),
        }


@dataclass(frozen=True, slots=True)
class TTARecord:
    """Time-to-accuracy: when the CI half-width first met one target ε."""

    epsilon: float
    n: int
    sim_seconds: float
    wall_seconds: float
    estimate: float
    half_width: float

    def as_dict(self) -> dict:
        return {
            "epsilon": self.epsilon, "n": self.n,
            "sim_seconds": self.sim_seconds, "wall_seconds": self.wall_seconds,
            "estimate": self.estimate, "half_width": self.half_width,
        }


class EstimatorMonitor(CLTEstimator):
    """Running CLT confidence interval + time-to-accuracy for AVG/SUM.

    The running moments and the half-width ``z * sqrt(var/n * fpc)`` are
    the :class:`~repro.core.stats.CLTEstimator` that
    ``repro.apps.online_agg`` exposes to users; ``population=None``
    disables the finite-population correction.  After every batch the
    monitor checks the *relative* half-width against each remaining target
    ε (largest first) and records the crossing on both clocks.
    """

    def __init__(
        self,
        config: QualityConfig,
        population: float | None = None,
    ) -> None:
        if population is not None and population < 0:
            raise ValueError(f"population must be >= 0, got {population}")
        super().__init__(config.ci_confidence, population)
        self.config = config
        self._pending = list(config.tta_targets)
        self.tta: list[TTARecord] = []
        #: (sim clock, n, mean, half-width) per batch, stride-decimated.
        self.timeline: list[tuple[float, int, float, float]] = []
        self._timeline_stride = 1
        self._timeline_skip = 0

    # -- updates -------------------------------------------------------

    def batch_end(self, clock: float, sim_elapsed: float, wall_elapsed: float) -> None:
        """Evaluate the CI once per consumed batch (never per record)."""
        half = self.half_width()
        self._timeline_point(clock, half)
        if not self._pending or not math.isfinite(half):
            return
        if self._count < self.config.tta_min_n:
            # A 2-sample CI can be arbitrarily narrow by luck; withhold the
            # time-to-accuracy verdict until the CLT plausibly applies.
            return
        mean = self._mean
        if mean == 0.0:
            return
        relative = half / abs(mean)
        while self._pending and relative <= self._pending[0]:
            self.tta.append(
                TTARecord(
                    epsilon=self._pending.pop(0),
                    n=self._count,
                    sim_seconds=sim_elapsed,
                    wall_seconds=wall_elapsed,
                    estimate=mean,
                    half_width=half,
                )
            )

    def _timeline_point(self, clock: float, half: float) -> None:
        if self._timeline_skip > 0:
            self._timeline_skip -= 1
            return
        self.timeline.append((clock, self._count, self._mean, half))
        self._timeline_skip = self._timeline_stride - 1
        if len(self.timeline) >= self.config.timeline_cap:
            # Deterministic decimation: halve the resolution, double the
            # stride.  Keeps the timeline bounded on completion runs.
            self.timeline = self.timeline[::2]
            self._timeline_stride *= 2

    # -- export --------------------------------------------------------

    def summary(self) -> dict:
        return {
            "n": self._count,
            "mean": self._mean,
            "variance": self.variance,
            "half_width": self.half_width() if self._count >= 2 else None,
            "confidence": self.config.ci_confidence,
            "population": self.population,
            "targets": list(self.config.tta_targets),
            "tta": [r.as_dict() for r in self.tta],
            "timeline": [
                # inf (n < 2) -> None: keeps the JSONL strictly RFC JSON.
                {"clock": c, "n": n, "mean": m,
                 "half_width": h if math.isfinite(h) else None}
                for c, n, m, h in self.timeline
            ],
        }


class StreamQualityMonitor:
    """All three monitors attached to one query's sample stream.

    Args:
        label: unique name for this monitored stream (e.g. ``"ACE Tree/q0"``).
        key_of: record -> the indexed key the predicate constrains (for 2-D
            queries, one marginal — a uniform sample has uniform marginals);
            the CI/TTA monitor estimates its mean.
        lo/hi: the predicate range on that key (half-open).
        group: aggregation key for reporting (defaults to ``label``); the
            figure harness groups by sampler name.
        population: matching-record count (exact or estimated) for the
            finite-population correction; ``None`` disables the FPC.
        metrics: registry receiving the ``quality.*`` metrics (the process
            registry by default).
    """

    def __init__(
        self,
        label: str,
        key_of,
        lo: float,
        hi: float,
        *,
        group: str | None = None,
        population: float | None = None,
        config: QualityConfig | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.label = label
        self.group = group if group is not None else label
        #: Telemetry-context baggage captured at creation time: the
        #: ``"labels"`` field of the exported quality record.
        self.labels = dict(CONTEXT.labels())
        self.config = config if config is not None else QualityConfig()
        self.metrics = metrics if metrics is not None else METRICS
        self._key_of = key_of
        self.uniformity = UniformityMonitor(lo, hi, self.config)
        self.coverage = CoverageMonitor(lo, hi, self.config.bins)
        self.estimator = EstimatorMonitor(self.config, population)
        self.lo = lo
        self.hi = hi
        self.start_sim: float | None = None
        self.end_sim: float | None = None
        self._start_wall: float | None = None
        self.batches = 0
        self._finalized = False
        #: Set when the monitored stream reported itself degraded (e.g. an
        #: ACE stream that lost a leaf to a storage failure) — the prefix
        #: is then *known* non-uniform and the verdict must not certify it.
        self.degraded = False
        self.degraded_reason: str | None = None

    # -- observation ---------------------------------------------------

    def wrap(self, batches, start_sim: float):
        """Yield ``batches`` unchanged while observing records and clocks.

        ``start_sim`` is the simulated clock at which the sampler started
        (batch clocks are absolute).  The monitor finalizes itself when the
        stream is exhausted *or* abandoned early (generator close), so
        truncated races still produce verdicts.
        """
        self.start_sim = start_sim
        self._start_wall = perf_counter()
        try:
            for batch in batches:
                self.observe_batch(batch.records, batch.clock)
                yield batch
        finally:
            # A stream that lost data mid-flight (ACE Tree under storage
            # faults) exposes ``degraded``; fold it into the verdict so a
            # fault-injected run is flagged rather than certified uniform.
            if getattr(batches, "degraded", False):
                lost = getattr(batches, "lost_leaves", None)
                self.mark_degraded(
                    f"stream degraded (lost leaves: {lost})"
                    if lost else "stream degraded"
                )
            self.finalize()

    def observe_batch(self, records, clock: float) -> None:
        """Fold one emitted batch (a sequence of records) into every monitor."""
        if self.start_sim is None:
            self.start_sim = clock
        if self._start_wall is None:
            self._start_wall = perf_counter()
        keys = list(map(self._key_of, records))
        uniformity = self.uniformity
        coverage = self.coverage
        estimator = self.estimator
        for key in keys:
            uniformity.observe(key, clock)
            coverage.observe(key)
        estimator.fold(keys)
        self.batches += 1
        self.end_sim = clock
        estimator.batch_end(
            clock,
            sim_elapsed=clock - self.start_sim,
            wall_elapsed=perf_counter() - self._start_wall,
        )

    def mark_degraded(self, reason: str) -> None:
        """Flag the monitored stream as known non-uniform (data was lost)."""
        if not self.degraded:
            self.degraded = True
            self.degraded_reason = reason
            self.metrics.counter("quality.degraded_streams").inc()

    def finalize(self) -> None:
        """Close the trailing window and publish the ``quality.*`` metrics."""
        if self._finalized:
            return
        self._finalized = True
        end = self.end_sim if self.end_sim is not None else 0.0
        self.uniformity.finalize(end)
        metrics = self.metrics
        uniformity = self.uniformity
        metrics.counter("quality.streams").inc()
        metrics.counter("quality.samples").inc(uniformity.samples)
        metrics.counter("quality.windows").inc(len(uniformity.windows))
        metrics.counter("quality.windows_failed").inc(uniformity.windows_failed)
        if uniformity.out_of_range:
            metrics.counter("quality.out_of_range").inc(uniformity.out_of_range)
        p_hist = metrics.histogram("quality.window_p_value", _P_VALUE_BOUNDS)
        for window in uniformity.windows:
            p_hist.observe(window.p_value)
        ks_d, _ = uniformity.ks_statistic()
        gauge = metrics.gauge("quality.ks_d_max")
        gauge.set(max(gauge.value, ks_d))
        sim_hist = metrics.histogram("quality.tta_sim_s", _TTA_SIM_BOUNDS)
        wall_hist = metrics.histogram("quality.tta_wall_s", _TTA_WALL_BOUNDS)
        for record in self.estimator.tta:
            sim_hist.observe(record.sim_seconds)
            wall_hist.observe(record.wall_seconds)
        if FLIGHT.enabled:
            FLIGHT.record_quality(self.summary())

    # -- export --------------------------------------------------------

    def summary(self) -> dict:
        """The versioned quality record the JSONL export carries."""
        self.finalize()
        record = {
            "kind": "quality",
            "v": QUALITY_RECORD_VERSION,
            "label": self.label,
            "group": self.group,
            "lo": self.lo,
            "hi": self.hi,
            "batches": self.batches,
            "start_sim": self.start_sim,
            "end_sim": self.end_sim,
            "degraded": self.degraded,
            "degraded_reason": self.degraded_reason,
            "uniformity": self.uniformity.summary(),
            "coverage": self.coverage.summary(),
            "estimator": self.estimator.summary(),
        }
        if self.labels:
            record["labels"] = dict(self.labels)
        return record


@dataclass
class QualitySession:
    """Monitors for one run (one per monitored stream), plus aggregation."""

    config: QualityConfig = field(default_factory=QualityConfig)
    metrics: MetricsRegistry | None = None
    monitors: list[StreamQualityMonitor] = field(default_factory=list)

    def monitor(self, label: str, key_of, lo: float, hi: float, **kwargs):
        """Create, register, and return one :class:`StreamQualityMonitor`."""
        kwargs.setdefault("config", self.config)
        kwargs.setdefault("metrics", self.metrics)
        mon = StreamQualityMonitor(label, key_of, lo, hi, **kwargs)
        self.monitors.append(mon)
        return mon

    def finalize(self) -> None:
        for mon in self.monitors:
            mon.finalize()

    def records(self) -> list[dict]:
        """One versioned quality record per monitored stream."""
        return [mon.summary() for mon in self.monitors]

    def groups(self) -> dict[str, list[StreamQualityMonitor]]:
        """Monitors keyed by their aggregation group, insertion-ordered."""
        out: dict[str, list[StreamQualityMonitor]] = {}
        for mon in self.monitors:
            out.setdefault(mon.group, []).append(mon)
        return out
