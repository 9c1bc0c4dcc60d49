"""The buffer manager over the simulated disk, and a cost-transparent memo.

:class:`RecordPageCache` is the buffer manager: the ranked B+-Tree, the
R-Tree and the heap sampler read their pages through it.  It is what gives
the B+-Tree baseline its characteristic curve in the paper: sampling is
slow while leaf pages still have to be fetched with random I/Os, and
accelerates sharply once the relevant pages are all resident.  A miss
charges a timed disk read, a hit a per-page CPU cost.

:class:`DecodeMemo` never changes what the disk is charged; it only saves
re-decoding bytes the caller has already decoded.
"""

from __future__ import annotations

from collections import OrderedDict

from ..core.errors import BufferPoolError
from ..obs.metrics import METRICS
from ..obs.tracer import TRACER
from .disk import SimulatedDisk
from .recovery import read_page_resilient

__all__ = ["DecodeMemo", "RecordPageCache"]


class RecordPageCache:  # repro: shared[owner=serve.scheduler] one cache per index, shared by interleaved traversals only inside scheduler quanta
    """An LRU cache of *decoded* pages, with buffer-pool cost semantics.

    Real engines pin a page once and then read records out of the frame;
    re-decoding the bytes on every access would charge CPU the system does
    not spend.  This cache charges a miss like a buffer-pool miss (timed
    disk read + per-record decode CPU) and a hit like a buffer-pool hit
    (per-page CPU only), while handing back the already-decoded records.

    ``decode`` maps raw page bytes to the cached value (typically a list of
    records, via ``HeapFile.decode_page`` or an index node parser).
    """

    def __init__(self, disk: SimulatedDisk, capacity: int, decode) -> None:
        if capacity <= 0:
            raise BufferPoolError(f"capacity must be positive, got {capacity}")
        self.disk = disk
        self.capacity = capacity
        self._decode = decode
        self._frames: OrderedDict[int, object] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __contains__(self, pid: int) -> bool:
        return pid in self._frames

    def __len__(self) -> int:
        return len(self._frames)

    def read(self, pid: int):
        """Decoded contents of page ``pid``; charges like a buffer pool."""
        if pid in self._frames:
            self._frames.move_to_end(pid)
            self.hits += 1
            if TRACER.enabled:
                METRICS.counter("buffer.hit").inc()
            self.disk.charge_page_hit()
            return self._frames[pid]
        self.misses += 1
        if TRACER.enabled:
            METRICS.counter("buffer.miss").inc()
        value = self._decode(read_page_resilient(self.disk, pid))
        while len(self._frames) >= self.capacity:
            self._frames.popitem(last=False)
            self.evictions += 1
        self._frames[pid] = value
        return value

    def clear(self) -> None:
        self._frames.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0


class DecodeMemo:  # repro: shared[owner=serve.scheduler] cost-transparent memo; sanitizer-checked, mutated only inside scheduler quanta
    """A *cost-transparent* LRU memo of decoded page contents.

    :class:`RecordPageCache` models a real buffer pool: a hit changes what
    the simulated disk is charged (page-hit CPU instead of an I/O).  This
    memo is the opposite: it never changes the charged cost.  The caller is
    expected to perform **exactly the same timed disk accesses and CPU
    charges** on a hit as on a miss — same pages charged in the same
    order, same ``charge_records`` — and use the memo only to skip the
    Python-level struct decoding of bytes it has already decoded.  The
    simulated clock, head position, and stats are therefore bit-identical
    with the memo on or off; only real wall-clock time improves.

    Decoded values are shared between callers, so only memoize values
    nobody mutates (the leaf store's ``LeafView`` handles).
    """

    __slots__ = ("capacity", "_frames")

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise BufferPoolError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._frames: OrderedDict[object, object] = OrderedDict()

    def __contains__(self, key: object) -> bool:
        return key in self._frames

    def __len__(self) -> int:
        return len(self._frames)

    def get(self, key: object):
        """The memoized value for ``key`` (now the most recent), or ``None``."""
        value = self._frames.get(key)
        if value is not None:
            self._frames.move_to_end(key)
        return value

    def put(self, key: object, value: object) -> None:
        """Memoize ``value``, evicting the least recently used entry if full."""
        frames = self._frames
        if key in frames:
            frames.move_to_end(key)
        elif len(frames) >= self.capacity:
            frames.popitem(last=False)
        frames[key] = value

    def clear(self) -> None:
        self._frames.clear()
