"""Machine-speed calibration for the timed run's wall metrics.

On a machine whose cores are shared, a fixed pure-Python loop can take
40% longer for seconds at a time.  Run-to-run spread of raw wall times is
then mostly the neighbours, not the program.  :class:`Speedometer` samples
the speed of a fixed calibration spin every :data:`INTERVAL_S` from a
``SIGALRM`` handler while the timed run executes, and :meth:`scale` turns
a measured interval into *reference seconds*: the wall time it would have
taken on a machine where the spin takes :data:`REFERENCE_S`.  Every wall
metric of the timed run is reported that way (raw values are printed in
the human-readable table).  The spin is the benchmark's own code, so a
change to the program cannot move it.
"""

from __future__ import annotations

import signal
import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

__all__ = ["REFERENCE_S", "Speedometer"]

#: Duration of one calibration spin on the reference machine.
REFERENCE_S = 0.00025
_SPIN = 4000
#: Seconds between speed samples.
INTERVAL_S = 0.05


def _spin() -> float:
    start = perf_counter()
    total = 0
    for i in range(_SPIN):
        total += i * i
    return perf_counter() - start


class Speedometer:
    """Periodic speed samples, taken while the ``with`` block runs."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.spins: list[float] = []
        self._previous = None

    def _sample(self, _signum, _frame) -> None:
        self.times.append(perf_counter())
        self.spins.append(_spin())

    def __enter__(self) -> "Speedometer":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._sample(None, None)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, start: float, end: float) -> float:
        """Reference seconds per wall second over ``[start, end]``.

        Uses the median spin of the samples taken inside the interval, or
        of the nearest sample on each side when the interval is shorter
        than the sampling period.
        """
        lo = bisect_left(self.times, start)
        hi = bisect_right(self.times, end)
        window = self.spins[lo:hi] or self.spins[max(lo - 1, 0):lo + 1]
        return REFERENCE_S / statistics.median(window)

    def seconds(self, interval: tuple[float, float]) -> float:
        """An interval's length in reference seconds."""
        start, end = interval
        return (end - start) * self.scale(start, end)

    def median_scale(self) -> float:
        return REFERENCE_S / statistics.median(self.spins)
