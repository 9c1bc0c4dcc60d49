"""Per-tenant cost attribution for charged page I/O (``repro.obs.cost``).

The paper's cost model charges queries in **page reads** against the
simulated disk; PR 8 threads tenant/query/sampler baggage through the
engine via :data:`~repro.obs.context.CONTEXT`.  This module closes the
loop: every page read (and write) charged by :class:`SimulatedDisk` is
attributed to the label set that was ambient when the charge happened,
so ``trace report`` can answer "which tenant paid for those 4 096
reads?" — the accounting primitive ROADMAP item 1's multi-tenant serve
scheduler schedules against.

Design constraints, in order:

* **Conservation.**  Attribution is only trustworthy if nothing leaks:
  the sum of attributed page reads must equal the disk's own charged
  total.  The accountant therefore snapshots a *baseline* of each
  ``DiskStats`` counter the first time it sees it and checks
  ``sum(by_label) == sum(stats.page_reads - baseline)`` at readout
  (:meth:`CostAccountant.conservation`).  The check is gated **exact**
  in the bench regress rules.
* **Off the hot path.**  Charge sites guard with ``if COST.enabled:`` —
  one attribute load when disarmed, which is the tracing-off default.
  The accountant is armed by ``TraceRecorder.install`` and disarmed (data
  retained for readout) by ``uninstall``.
* **Sanctioned boundary.**  Only the storage charge points
  (``disk.read_page`` / ``touch_page`` / ``write_page`` and the
  recovery retry loops) may call :meth:`record_reads` /
  :meth:`record_writes` / :meth:`record_io`; lint rule OBS002 pins the
  call-site set so ad-hoc attribution can't silently double-count.

The accountant keys attribution by the canonical label-set tuple of the
ambient baggage (``CONTEXT.label_key()``, the same tuple exemplars and
quality records carry).  The ``kind: "cost"`` record keeps that
per-label-set split; the ``obs.cost.page_reads``/``page_writes``
counters published at recorder uninstall are its totals.
"""

from __future__ import annotations

from threading import Lock

from .context import CONTEXT, render_label_set

__all__ = ["COST", "CostAccountant"]


class CostAccountant:  # repro: shared[lock=_lock] attribution ledger; every mutation holds _lock
    """Attributes charged page I/O to the ambient label set.

    One process-wide instance: :data:`COST`.  All counters are plain
    ints/floats guarded by one lock; the per-``DiskStats`` baselines hold
    strong references to the stats objects so the conservation sum stays
    computable even after ``reset_clock`` swaps in a fresh stats object
    (the old one keeps its final counts).
    """

    __slots__ = ("enabled", "_lock", "_reads", "_writes", "_io", "_stats")

    def __init__(self) -> None:
        self.enabled = False
        self._lock = Lock()
        self._reads: dict[tuple, int] = {}
        self._writes: dict[tuple, int] = {}
        self._io: dict[tuple, float] = {}
        # id(stats) -> (stats, reads_baseline, writes_baseline); the
        # strong ref keeps id() stable and the counters reachable.
        self._stats: dict[int, tuple] = {}

    # -- lifecycle -----------------------------------------------------

    def arm(self) -> None:
        """Start attributing from a clean ledger."""
        with self._lock:
            self._reads.clear()
            self._writes.clear()
            self._io.clear()
            self._stats.clear()
            self.enabled = True

    def disarm(self) -> None:
        """Stop attributing; the ledger stays readable until the next arm."""
        self.enabled = False

    # -- charge points (OBS002: storage layer only) --------------------

    def _track(self, stats, reads_delta: int, writes_delta: int) -> None:
        key = id(stats)
        entry = self._stats.get(key)
        if entry is None:
            # First sight: the baseline excludes this charge but includes
            # everything the stats object accumulated before arming.
            self._stats[key] = (
                stats,
                stats.page_reads - reads_delta,
                stats.page_writes - writes_delta,
            )

    def record_reads(self, stats) -> None:
        """Attribute the page read just charged to *stats*.

        Call **after** incrementing ``stats.page_reads`` so the baseline
        arithmetic in :meth:`_track` sees the post-charge counter.
        """
        label_set = CONTEXT.label_key()
        with self._lock:
            self._track(stats, 1, 0)
            self._reads[label_set] = self._reads.get(label_set, 0) + 1

    def record_writes(self, stats) -> None:
        """Attribute the page write just charged to *stats*."""
        label_set = CONTEXT.label_key()
        with self._lock:
            self._track(stats, 0, 1)
            self._writes[label_set] = self._writes.get(label_set, 0) + 1

    def record_io(self, seconds: float) -> None:
        """Attribute *seconds* of charged retry/backoff I/O delay."""
        label_set = CONTEXT.label_key()
        with self._lock:
            self._io[label_set] = self._io.get(label_set, 0.0) + seconds

    # -- readout -------------------------------------------------------

    def charged_totals(self) -> tuple[int, int]:
        """``(page_reads, page_writes)`` charged by every tracked disk."""
        with self._lock:
            reads = sum(
                stats.page_reads - base_r
                for stats, base_r, _ in self._stats.values()
            )
            writes = sum(
                stats.page_writes - base_w
                for stats, _, base_w in self._stats.values()
            )
        return reads, writes

    def reads_by_label(self, label: str | None = None) -> dict:
        """The read ledger keyed by canonical label-set tuple.

        With ``label`` (e.g. ``"tenant"``), the ledger is re-keyed by that
        one label's value instead — summing every label set carrying it —
        which is the per-tenant view the serve scheduler audits its own
        page-budget ledger against (a charge attributed to the wrong
        tenant breaks this reconciliation even when the global
        conservation check still balances).
        """
        with self._lock:
            ledger = dict(self._reads)
        if label is None:
            return ledger
        out: dict = {}
        for label_set, count in ledger.items():
            for key, value in label_set:
                if key == label:
                    out[value] = out.get(value, 0) + count
                    break
        return out

    def attributed_totals(self) -> tuple[int, int]:
        """``(page_reads, page_writes)`` summed over every label set."""
        with self._lock:
            return sum(self._reads.values()), sum(self._writes.values())

    def conservation(self) -> dict:
        """The conservation check: attributed totals vs disk totals."""
        attributed_reads, attributed_writes = self.attributed_totals()
        charged_reads, charged_writes = self.charged_totals()
        return {
            "attributed_reads": attributed_reads,
            "charged_reads": charged_reads,
            "attributed_writes": attributed_writes,
            "charged_writes": charged_writes,
            "conserved": (
                attributed_reads == charged_reads
                and attributed_writes == charged_writes
            ),
        }

    def snapshot(self) -> dict:
        """JSON-ready ledger: rendered label set -> count, plus conservation.

        The unlabeled (empty-context) bucket renders as ``""``; reports
        display it as ``(unlabeled)``.
        """
        with self._lock:
            reads = {
                render_label_set(k): v for k, v in sorted(self._reads.items())
            }
            writes = {
                render_label_set(k): v for k, v in sorted(self._writes.items())
            }
            io = {
                render_label_set(k): v for k, v in sorted(self._io.items())
            }
        return {
            "page_reads": reads,
            "page_writes": writes,
            "retry_io_seconds": io,
            **self.conservation(),
        }

    def publish(self, metrics) -> None:
        """Emit the ledger's totals as ``obs.cost.*`` counters on *metrics*.

        Called once at ``TraceRecorder.uninstall`` — publishing is a
        readout, not a hot-path increment, so the counters never see
        per-page traffic.  The per-label-set split stays in the ledger
        (:meth:`snapshot`).
        """
        with self._lock:
            reads = sum(self._reads.values()) if self._reads else None
            writes = sum(self._writes.values()) if self._writes else None
        if reads is not None:
            metrics.counter("obs.cost.page_reads").inc(reads)
        if writes is not None:
            metrics.counter("obs.cost.page_writes").inc(writes)

    def reset(self) -> None:
        """Disarm and drop the ledger (test isolation hook)."""
        self.enabled = False
        with self._lock:
            self._reads.clear()
            self._writes.clear()
            self._io.clear()
            self._stats.clear()


COST = CostAccountant()  # repro: shared[lock=_lock] process-wide attribution ledger
