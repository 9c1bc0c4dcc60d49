"""Combinable sample-reuse cache: a cache-aside, byte-budgeted LRU.

The "C" in ACE — combinability (paper Section V) — means a section-``s``
cell retrieved for one query is a Bernoulli sample of its level-``s``
node's interval, *independent of the query that fetched it*.  Any later
query overlapping that interval may therefore reuse the cell as a uniform
building block instead of re-reading its leaf: exactly the sample-reuse
lever BlinkDB applies across overlapping workloads, with the uniformity of
the composed result guaranteed by the sampling-algebra composition rules
(see PAPERS.md and docs/PERFORMANCE.md).

This module is deliberately *mechanism only* (it lives in the storage
layer and must not know about trees or queries — LAY001):

* keys are caller-supplied tuples.  The ACE query layer caches whole
  leaves, keyed ``(store cache token, leaf)``: Combine files a retrieved
  leaf's ``h`` section cells together, so a leaf is reused whole or not at
  all, and the token (changed when the store is freed) keeps an entry from
  ever being served back for a population it was not drawn from;
* values are opaque (the query layer stores decoded leaf views);
* eviction is LRU over a byte budget, with per-entry byte charges supplied
  at insert time.  An entry larger than the whole budget is refused
  without evicting anything.

Unlike :class:`~repro.storage.buffer.DecodeMemo` this cache is
**cost-changing** by design: the caller skips the timed page reads
entirely on a hit.  Lookups and insertions themselves charge nothing; the
caller decides what simulated CPU a hit costs.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from ..core.errors import BufferPoolError
from ..obs.metrics import METRICS
from ..obs.tracer import TRACER

__all__ = ["CacheStats", "SampleCache", "DEFAULT_BUDGET_BYTES"]

#: Default byte budget: generous for the micro-bench scale trees, small
#: enough that eviction is exercised on serve-scale workloads.
DEFAULT_BUDGET_BYTES = 8 * 1024 * 1024


@dataclass
class CacheStats:
    """Running counters of one :class:`SampleCache`."""

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    bytes_cached: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when no lookups)."""
        total = self.lookups
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits, "misses": self.misses,
            "insertions": self.insertions, "evictions": self.evictions,
            "bytes_cached": self.bytes_cached,
        }


class SampleCache:  # repro: shared[owner=serve.scheduler] single-writer LRU; sanitizer-checked, mutated only inside the owner's quanta
    """Byte-budgeted LRU of decoded samples (cache-aside).

    Args:
        budget_bytes: maximum total bytes of cached entries; must be
            positive.  An entry larger than the whole budget is simply
            not admitted.
    """

    __slots__ = ("budget_bytes", "_entries", "stats")

    def __init__(self, budget_bytes: int = DEFAULT_BUDGET_BYTES) -> None:
        if budget_bytes <= 0:
            raise BufferPoolError(
                f"budget_bytes must be positive, got {budget_bytes}"
            )
        self.budget_bytes = budget_bytes
        #: key -> (value, charged bytes), in LRU order (MRU at the end).
        self._entries: OrderedDict[tuple, tuple[object, int]] = OrderedDict()
        self.stats = CacheStats()

    def __contains__(self, key: tuple) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: tuple):
        """The cached value for ``key``, or ``None``; refreshes recency."""
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            if TRACER.enabled:
                METRICS.counter("sample_cache.misses").inc()
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        if TRACER.enabled:
            METRICS.counter("sample_cache.hits").inc()
        return entry[0]

    def peek(self, key: tuple):
        """Like :meth:`get` but touches neither recency nor counters."""
        entry = self._entries.get(key)
        return entry[0] if entry is not None else None

    def put(self, key: tuple, value: object, nbytes: int) -> None:
        """Insert ``value`` charged at ``nbytes``, evicting LRU entries.

        Re-inserting an existing key replaces its value and byte charge.
        Entries that alone exceed the budget are not admitted (inserting
        then immediately evicting them would just churn the LRU chain); a
        refused re-insert still drops the key's old value.
        """
        if nbytes < 0:
            raise BufferPoolError(f"nbytes must be non-negative, got {nbytes}")
        entries = self._entries
        old = entries.pop(key, None)
        if old is not None:
            self.stats.bytes_cached -= old[1]
        if nbytes > self.budget_bytes:
            if old is not None and TRACER.enabled:
                METRICS.gauge("sample_cache.bytes").set(self.stats.bytes_cached)
            return
        while self.stats.bytes_cached + nbytes > self.budget_bytes and entries:
            _, (_, dropped) = entries.popitem(last=False)
            self.stats.bytes_cached -= dropped
            self.stats.evictions += 1
            if TRACER.enabled:
                METRICS.counter("sample_cache.evictions").inc()
        entries[key] = (value, nbytes)
        self.stats.bytes_cached += nbytes
        self.stats.insertions += 1
        if TRACER.enabled:
            METRICS.gauge("sample_cache.bytes").set(self.stats.bytes_cached)

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        self._entries.clear()
        self.stats = CacheStats()
