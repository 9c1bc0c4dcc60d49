"""Bounded-retry recovery for transient page faults.

Transient media errors (modeled by :class:`~repro.core.errors.
TransientPageError`, injected by :mod:`repro.testkit.faults`) are the one
storage failure a reader can fix by itself: re-issue the access.  This
module centralizes how the library retries so that every read path —
heap-file scans, leaf fetches — recovers identically:

* retries are **bounded** (a persistent fault re-raises after the budget);
* each retry **charges the simulated clock** with exponential backoff via
  :meth:`~repro.storage.disk.SimulatedDisk.charge_io`, so recovery is not
  free time — the paper's time-resolved curves degrade honestly under
  faults;
* every retry is counted on the ``storage.read_retries`` metric while
  tracing, so a fault-injected run's recovery work is visible in traces.

Corruption (:class:`~repro.core.errors.PageCorruptionError`) is *not*
retried here: the checksum mismatch is persistent, and the caller must
decide whether to fail or degrade (the Shuttle skips the lost leaf — see
:mod:`repro.acetree.query`).

On a clean disk no exception is ever raised, so this layer is exactly one
extra ``try`` per page read: clean runs are bit-identical on the simulated
clock with or without it.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.errors import TransientPageError
from ..obs.context import CONTEXT
from ..obs.cost import COST
from ..obs.flight import FLIGHT
from ..obs.metrics import METRICS
from ..obs.tracer import TRACER
from .disk import SimulatedDisk


def _count_retry() -> None:
    """One retry tick: a labeled metric while tracing."""
    if TRACER.enabled:
        METRICS.counter("storage.read_retries").child(CONTEXT.label_key()).inc()

__all__ = [
    "DEFAULT_RETRY",
    "RetryPolicy",
    "read_page_resilient",
    "touch_page_resilient",
]


@dataclass(frozen=True)
class RetryPolicy:
    """How a transient page fault is retried.

    Attributes:
        max_attempts: total read attempts (first try included).
        backoff: simulated seconds charged before the first retry.
        multiplier: backoff growth factor per further retry.
    """

    max_attempts: int = 4
    backoff: float = 0.002
    multiplier: float = 2.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff < 0:
            raise ValueError(f"backoff must be >= 0, got {self.backoff}")
        if self.multiplier < 1:
            raise ValueError(
                f"multiplier must be >= 1, got {self.multiplier}"
            )


DEFAULT_RETRY = RetryPolicy()


def read_page_resilient(
    disk: SimulatedDisk, pid: int, policy: RetryPolicy = DEFAULT_RETRY
) -> bytes:
    """Read a page, absorbing transient faults with backed-off retries.

    Each failed attempt has already been charged its access time by the
    disk; the backoff delay between attempts is charged on top.  When the
    attempt budget runs out the final :class:`TransientPageError`
    propagates — by then the fault is persistent as far as this reader is
    concerned.
    """
    return _retried(disk, disk.read_page, pid, policy)


def touch_page_resilient(
    disk: SimulatedDisk, pid: int, policy: RetryPolicy = DEFAULT_RETRY
) -> None:
    """Charge a page access (no data) with the same retry discipline.

    The accounting twin of :func:`read_page_resilient` for re-reads whose
    bytes are already decoded and memoized: on a plain
    :class:`SimulatedDisk` the touch never faults and costs one charge; on
    a fault-injecting disk :meth:`~SimulatedDisk.touch_page` routes through
    the real read, so transient faults fire at the same ordinals and are
    retried (and backoff-charged) exactly as a data-bearing read would be.
    """
    _retried(disk, disk.touch_page, pid, policy)


def _retried(disk: SimulatedDisk, access, pid: int, policy: RetryPolicy):
    """``access(pid)`` under ``policy``: the one retry loop of both readers."""
    delay = policy.backoff
    last_error: TransientPageError | None = None
    for attempt in range(policy.max_attempts):
        try:
            return access(pid)
        except TransientPageError as exc:
            last_error = exc
            _count_retry()
            if attempt + 1 >= policy.max_attempts:
                break
            disk.charge_io(delay)
            if COST.enabled:
                COST.record_io(delay)
            delay *= policy.multiplier
    assert last_error is not None
    FLIGHT.trip("recovery-exhausted")
    raise last_error
