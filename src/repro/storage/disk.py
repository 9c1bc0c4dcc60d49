"""A simulated disk with a deterministic clock.

The disk stores fixed-size pages addressed by integer page ids and keeps a
simulated clock in seconds.  Accessing page ``p`` immediately after page
``p - 1`` is sequential (transfer cost only); any other access pays a seek.
This single rule is enough to reproduce the sequential-versus-random
asymmetry that the paper's evaluation is built on.

The disk also owns page allocation.  Contiguous extents keep files physically
sequential, so scans of bulk-loaded files run at transfer speed just like a
real system.

Every charge point reports to the cost accountant
(:data:`repro.obs.cost.COST`) when it is armed (i.e. during traced runs):
the page just charged is attributed to the ambient tenant/query context,
**after** the counters moved so the accountant's conservation check can
reconcile its ledger against :class:`DiskStats` exactly.  Disarmed (the
default), each charge pays one attribute load.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator
from zlib import crc32

from ..core.errors import PageCorruptionError, PageError
from ..obs.cost import COST
from .cost import CostModel

__all__ = ["DiskStats", "SimulatedDisk"]


@dataclass
class DiskStats:
    """Cumulative I/O counters since the last reset."""

    page_reads: int = 0
    page_writes: int = 0
    seeks: int = 0
    sequential_accesses: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    io_time: float = 0.0
    cpu_time: float = 0.0

    def snapshot(self) -> "DiskStats":
        """An independent copy of the current counters."""
        return DiskStats(**vars(self))

    def __sub__(self, other: "DiskStats") -> "DiskStats":
        return DiskStats(
            **{name: getattr(self, name) - getattr(other, name) for name in vars(self)}
        )


@dataclass
class _Extent:
    """A contiguous run of free pages, for the allocator's free list."""

    start: int
    count: int = field(default=1)


class SimulatedDisk:  # repro: shared[owner=serve.scheduler] single-writer clock; concurrent traversals access it only inside a serve scheduler quantum
    """Fixed-page-size simulated disk with seek-aware timing.

    Args:
        page_size: bytes per page.  The paper used 64 KB pages on a 20 GB
            relation; the default 8 KB keeps the records-per-page ratio
            comparable at the scaled-down relation sizes used here.
        cost: the :class:`CostModel` used to charge the simulated clock.
        checksums: verify a per-page CRC on every read.  Models a checksum
            stored in the page header without perturbing page capacity or
            the simulated clock; a mismatch (possible only after injected
            corruption — see :mod:`repro.testkit.faults`) raises
            :class:`~repro.core.errors.PageCorruptionError`.
    """

    #: Whether page accesses can raise injected faults (the serve
    #: scheduler then scopes fault ordinals per tenant);
    #: :class:`repro.testkit.faults.FaultyDisk` flips this.
    can_fault = False

    def __init__(
        self,
        page_size: int = 8192,
        cost: CostModel | None = None,
        checksums: bool = True,
    ) -> None:
        if page_size <= 0:
            raise ValueError(f"page_size must be positive, got {page_size}")
        self.page_size = page_size
        self.cost = cost if cost is not None else CostModel()
        self.checksums = checksums
        self._pages: dict[int, bytes] = {}
        self._checksums: dict[int, int] = {}
        self._allocated: set[int] = set()
        self._high_water = 0
        self._free_extents: list[_Extent] = []
        self._head: int | None = None
        self.clock = 0.0
        self.stats = DiskStats()

    # -- allocation --------------------------------------------------------

    def allocate(self, count: int = 1) -> int:
        """Allocate ``count`` physically contiguous pages; returns the first id.

        Exact-fit free extents are reused; otherwise pages come from the end
        of the disk, which keeps bulk-loaded files contiguous.
        """
        if count <= 0:
            raise PageError(f"cannot allocate {count} pages")
        for i, extent in enumerate(self._free_extents):
            if extent.count == count:
                del self._free_extents[i]
                start = extent.start
                break
        else:
            start = self._high_water
            self._high_water += count
        self._allocated.update(range(start, start + count))
        return start

    def free(self, start: int, count: int = 1) -> None:
        """Release ``count`` pages beginning at ``start``."""
        for pid in range(start, start + count):
            if pid not in self._allocated:
                raise PageError(f"freeing unallocated page {pid}")
            self._allocated.discard(pid)
            self._pages.pop(pid, None)
            self._checksums.pop(pid, None)
        self._free_extents.append(_Extent(start, count))

    @property
    def allocated_pages(self) -> int:
        return len(self._allocated)

    # -- timed page I/O ----------------------------------------------------

    def read_page(self, pid: int) -> bytes:
        """Read one page, charging seek + transfer or just transfer.

        With ``checksums`` enabled (the default) the returned bytes are
        verified against the CRC recorded by the write; a mismatch raises
        :class:`PageCorruptionError` *after* the access has been charged —
        the seek and transfer happened, the data is just bad.
        """
        self._charge_read(pid)
        data = self._pages.get(pid, bytes(self.page_size))
        if self.checksums:
            stored = self._checksums.get(pid)
            if stored is not None and crc32(data) != stored:
                raise PageCorruptionError(
                    f"page {pid} failed checksum verification on read"
                )
        return data

    def touch_page(self, pid: int) -> None:
        """Charge one page read without returning (or verifying) the data.

        The charge is :meth:`read_page`'s own step; only the payload lookup
        and checksum pass are skipped.  For callers that already hold the
        decoded content (the leaf-store memo) the access is pure
        accounting, so the simulated cost stays honest while the
        wall-clock cost drops to the charge itself.  Fault-injecting
        subclasses override this to route through :meth:`read_page`,
        keeping fault ordinals access-for-access identical to a
        data-bearing read.
        """
        self._charge_read(pid)

    def write_page(self, pid: int, data: bytes) -> None:
        """Write one page (padded to the page size), charging like a read."""
        if pid not in self._allocated:
            raise PageError(f"writing unallocated page {pid}")
        if len(data) > self.page_size:
            raise PageError(
                f"page data of {len(data)} bytes exceeds page size {self.page_size}"
            )
        if len(data) < self.page_size:
            data = data + bytes(self.page_size - len(data))
        self._charge_access(pid)
        self.stats.page_writes += 1
        self.stats.bytes_written += self.page_size
        if COST.enabled:
            COST.record_writes(self.stats)
        self._pages[pid] = data
        # The checksum always covers the *intended* bytes: a torn write
        # injected underneath (repro.testkit.faults) leaves it stale, which
        # is exactly how the corruption is later detected.
        self._checksums[pid] = crc32(data)

    def _charge_read(self, pid: int) -> None:
        """The one charge of a page read, data-bearing or not."""
        if pid not in self._allocated:
            raise PageError(f"reading unallocated page {pid}")
        self._charge_access(pid)
        self.stats.page_reads += 1
        self.stats.bytes_read += self.page_size
        if COST.enabled:
            # Attributed before any checksum verdict: the read was
            # charged whether or not the data turns out corrupt.
            COST.record_reads(self.stats)

    def _charge_access(self, pid: int) -> None:
        if self._head is not None and pid == self._head + 1:
            elapsed = self.cost.sequential_io_time(self.page_size)
            self.stats.sequential_accesses += 1
        else:
            elapsed = self.cost.random_io_time(self.page_size)
            self.stats.seeks += 1
        self._head = pid
        self.clock += elapsed
        self.stats.io_time += elapsed

    # -- CPU accounting ----------------------------------------------------

    def charge_cpu(self, seconds: float) -> None:
        """Advance the clock for in-memory work (sorting, filtering, ...)."""
        if seconds < 0:
            raise ValueError(f"cannot charge negative time {seconds}")
        self.clock += seconds
        self.stats.cpu_time += seconds

    def charge_io(self, seconds: float) -> None:
        """Advance the clock for I/O-side delay outside a page transfer.

        Used for retry backoff (:mod:`repro.storage.recovery`) and injected
        latency spikes (:mod:`repro.testkit.faults`): the time is I/O time
        on the device, but no page moved, so the byte/page counters stay
        untouched.
        """
        if seconds < 0:
            raise ValueError(f"cannot charge negative time {seconds}")
        self.clock += seconds
        self.stats.io_time += seconds

    def charge_records(self, count: int) -> None:
        """Charge the per-record CPU cost for ``count`` records."""
        self.charge_cpu(count * self.cost.cpu_per_record)

    def charge_page_hit(self) -> None:
        """Charge the CPU cost of touching one buffered page."""
        self.charge_cpu(self.cost.cpu_per_page)

    # -- clock management --------------------------------------------------

    def reset_clock(self) -> None:
        """Zero the clock and counters (used between build and query phases)."""
        self.clock = 0.0
        self.stats = DiskStats()
        self._head = None

    def advance_clock(self, to: float) -> None:
        """Advance the clock to ``to`` while the disk sits idle.

        The serve scheduler's discrete-event loop calls this when no query
        is runnable and the next arrival lies in the future: simulated time
        passes, but the device does nothing — no I/O or CPU time is
        charged, no counter moves (unlike :meth:`charge_io`, which models
        busy device time).  A ``to`` at or before the current clock is a
        no-op; time never runs backwards.
        """
        if to > self.clock:
            self.clock = to

    @contextmanager
    def unmetered(self) -> Iterator[None]:
        """Suspend cost accounting for the duration of the ``with`` body.

        Inside the block the disk serves reads against a fresh clock and a
        fresh :class:`DiskStats` (so the body can still *measure* its own
        I/O); on exit the clock, counters, and head position are restored
        exactly.  Used by the runtime sanitizers
        (:mod:`repro.analysis.invariants`), which must read the whole tree
        without disturbing the simulated time of the experiment they guard.
        """
        saved_clock, saved_stats, saved_head = self.clock, self.stats, self._head
        self.clock = 0.0
        self.stats = DiskStats()
        try:
            yield
        finally:
            self.clock, self.stats, self._head = saved_clock, saved_stats, saved_head

    def scan_time(self, pages: int) -> float:
        """Simulated seconds to scan ``pages`` sequentially (one seek)."""
        return self.cost.seek_time + pages * self.cost.transfer_time(self.page_size)
