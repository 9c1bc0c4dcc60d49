"""Heap files: unordered sequences of fixed-size records on disk pages.

A heap file is the base file organization for every structure in the
library: the raw relation, sort runs, the randomly permuted file, and the
decorated intermediate files of the ACE Tree construction are all heap
files.  Pages hold a 4-byte record count followed by packed records, and
bulk loads allocate contiguous extents so that scans run at sequential
transfer speed.

Writes are page-batched: :meth:`HeapFile.extend` and
:meth:`HeapFile.bulk_load` pull a page's worth of records at a time and
encode each page with one batched ``pack`` into a reused page buffer, so
bulk ingest does no per-record Python work.  The simulated cost is the same
as appending record by record — pages are written in the same order and the
same per-record CPU is charged — only the real wall clock improves.
"""

from __future__ import annotations

import struct
from itertools import islice
from typing import Iterable, Iterator

from ..core.errors import HeapFileError
from ..core.records import PageView, Record, Schema
from .disk import SimulatedDisk
from .recovery import read_page_resilient

__all__ = ["HeapFile", "PAGE_HEADER_SIZE"]

_COUNT_HEADER = struct.Struct("<I")

#: Bytes of per-page header (the record count).  Shared by every consumer
#: that reasons about page capacity — notably ``external_sort`` — so record
#: size checks cannot drift from the real layout.
PAGE_HEADER_SIZE = _COUNT_HEADER.size

#: Pages per allocation extent when the final size is unknown.
_EXTENT_PAGES = 256


class HeapFile:  # repro: shared[owner=serve.scheduler] append path is build-time; serve-time reads share it only inside scheduler quanta
    """A paged file of fixed-size records with sequential scan support.

    Construct with :meth:`create` (empty, append-friendly) or
    :meth:`bulk_load` (from an iterable of records).
    """

    def __init__(self, disk: SimulatedDisk, schema: Schema, name: str = "") -> None:
        if schema.record_size + PAGE_HEADER_SIZE > disk.page_size:
            raise HeapFileError(
                f"record size {schema.record_size} does not fit a "
                f"{disk.page_size}-byte page"
            )
        self.disk = disk
        self.schema = schema
        self.name = name
        self._page_ids: list[int] = []
        self._extents: list[tuple[int, int]] = []
        self._extent_used = 0
        self._tail: list[Record] = []
        self._num_records = 0
        self._freed = False
        self._page_buf = bytearray(disk.page_size)

    # -- constructors ------------------------------------------------------

    @classmethod
    def create(cls, disk: SimulatedDisk, schema: Schema, name: str = "") -> "HeapFile":
        """An empty heap file ready for :meth:`append`."""
        return cls(disk, schema, name)

    @classmethod
    def bulk_load(
        cls,
        disk: SimulatedDisk,
        schema: Schema,
        records: Iterable[Record],
        name: str = "",
    ) -> "HeapFile":
        """Create a heap file holding ``records`` in iteration order.

        If ``records`` raises, the pages already written are freed.
        """
        heap = cls(disk, schema, name)
        per_page = heap.records_per_page
        it = iter(records)
        try:
            while page := list(islice(it, per_page)):
                heap._write_full_page(page)
        except BaseException:
            heap.free()
            raise
        return heap

    @classmethod
    def bulk_load_packed(
        cls,
        disk: SimulatedDisk,
        schema: Schema,
        chunks: Iterable,
        name: str = "",
    ) -> "HeapFile":
        """Create a heap file from chunks of already-packed records.

        Each chunk is any contiguous buffer of packed records (bytes,
        memoryview, or a C-contiguous uint8 array); a record may straddle
        two chunks, but the chunks together must end on a record boundary.
        Pages are written as soon as they fill, before the next chunk is
        pulled, so a lazy ``chunks`` iterator interleaves its own reads
        with the page writes exactly as :meth:`bulk_load` interleaves the
        production of its records.  Pages, charges and byte layout are
        identical to :meth:`bulk_load` of the decoded records — the
        serializer round-trip is the identity for every field kind — so
        the two constructions are interchangeable.  If ``chunks`` raises
        (a corrupt leaf under a view refresh, say), or the chunks end off
        a record boundary, the pages already written are freed.
        """
        heap = cls(disk, schema, name)
        per_page = heap.records_per_page
        size = schema.record_size
        page_bytes = per_page * size
        pending = bytearray()
        try:
            for chunk in chunks:
                pending += memoryview(chunk).cast("B")
                full = len(pending) - len(pending) % page_bytes
                for lo in range(0, full, page_bytes):
                    heap._write_packed_page(pending[lo:lo + page_bytes], per_page)
                del pending[:full]
            if len(pending) % size:
                raise HeapFileError(
                    f"packed chunks end {len(pending) % size} bytes into a "
                    f"{size}-byte record"
                )
            if pending:
                heap._write_packed_page(pending, len(pending) // size)
        except BaseException:
            heap.free()
            raise
        return heap

    # -- geometry ----------------------------------------------------------

    @property
    def records_per_page(self) -> int:
        """Maximum records on one page."""
        return (self.disk.page_size - PAGE_HEADER_SIZE) // self.schema.record_size

    @property
    def num_pages(self) -> int:
        return len(self._page_ids) + (1 if self._tail else 0)

    @property
    def num_records(self) -> int:
        return self._num_records + len(self._tail)

    @property
    def page_ids(self) -> tuple[int, ...]:
        """On-disk page ids in file order (excludes any unflushed tail)."""
        return tuple(self._page_ids)

    @property
    def total_bytes(self) -> int:
        """Bytes of disk occupied by the file."""
        return self.num_pages * self.disk.page_size

    def scan_seconds(self) -> float:
        """Simulated seconds for a full sequential scan (I/O only)."""
        return self.disk.scan_time(self.num_pages)

    # -- writing -----------------------------------------------------------

    def append(self, record: Record) -> None:
        """Add one record; it is flushed when the tail page fills."""
        self._check_open()
        self._tail.append(record)
        if len(self._tail) == self.records_per_page:
            self.flush()

    def extend(self, records: Iterable[Record]) -> None:
        """Append many records, a page at a time.

        Equivalent to calling :meth:`append` per record, but the tail-full
        check runs once per page instead of once per record.
        """
        self._check_open()
        per_page = self.records_per_page
        it = iter(records)
        tail = self._tail
        if tail:
            tail.extend(islice(it, per_page - len(tail)))
            if len(tail) < per_page:
                return
            self.flush()
        while page := list(islice(it, per_page)):
            if len(page) < per_page:
                self._tail = page
                return
            self._write_full_page(page)

    def flush(self) -> None:
        """Write any buffered tail records to disk."""
        self._check_open()
        if self._tail:
            self._write_full_page(self._tail)
            self._tail = []

    def _write_full_page(self, page_records: list[Record]) -> None:
        buf = self._page_buf
        _COUNT_HEADER.pack_into(buf, 0, len(page_records))
        used = PAGE_HEADER_SIZE + self.schema.pack_many_into(
            buf, PAGE_HEADER_SIZE, page_records
        )
        pid = self._next_page_id()
        # bytes() copies, so the reused buffer never aliases a stored page.
        self.disk.write_page(pid, bytes(memoryview(buf)[:used]))
        self.disk.charge_records(len(page_records))
        self._page_ids.append(pid)
        self._num_records += len(page_records)

    def _write_packed_page(self, payload, count: int) -> None:
        """Write one page holding ``count`` records packed in ``payload``."""
        pid = self._next_page_id()
        self.disk.write_page(pid, b"".join((_COUNT_HEADER.pack(count), payload)))
        self.disk.charge_records(count)
        self._page_ids.append(pid)
        self._num_records += count

    def _next_page_id(self) -> int:
        if not self._extents or self._extent_used == self._extents[-1][1]:
            start = self.disk.allocate(_EXTENT_PAGES)
            self._extents.append((start, _EXTENT_PAGES))
            self._extent_used = 0
        start, _count = self._extents[-1]
        pid = start + self._extent_used
        self._extent_used += 1
        return pid

    # -- reading -----------------------------------------------------------

    def scan(self) -> Iterator[Record]:
        """Yield every record in file order, charging sequential I/O."""
        for page_records in self.scan_pages():
            yield from page_records

    def scan_pages(self) -> Iterator[list[Record]]:
        """Yield the records of each page in file order.

        The simulated clock advances page by page, so a consumer can observe
        ``disk.clock`` between pages to timestamp record arrival.
        """
        self._check_open()
        for index in range(len(self._page_ids)):
            yield self.read_page_records(index)
        if self._tail:
            self.disk.charge_records(len(self._tail))
            # Round-trip the unflushed tail through the serializer so byte
            # fields come back padded exactly as a disk read would pad them.
            yield self.schema.unpack_many(
                self.schema.pack_many(self._tail), len(self._tail)
            )

    def scan_page_views(self) -> Iterator[PageView]:
        """Yield a lazily-decoded :class:`PageView` per page in file order.

        Charges exactly like :meth:`scan_pages` (the per-record CPU cost is
        for examining the records, which the consumer is about to do), but
        defers struct decoding so consumers that filter on one column or
        keep few rows skip most of the decode work.
        """
        self._check_open()
        schema = self.schema
        per_page = self.records_per_page
        disk = self.disk
        for pid in self._page_ids:
            data = read_page_resilient(disk, pid)
            (count,) = _COUNT_HEADER.unpack_from(data)
            if count > per_page:
                raise HeapFileError(f"corrupt page header: count {count}")
            disk.charge_records(count)
            yield PageView(schema, memoryview(data)[PAGE_HEADER_SIZE:], count)
        if self._tail:
            disk.charge_records(len(self._tail))
            yield PageView(
                schema, schema.pack_many(self._tail), len(self._tail)
            )

    def read_page_records(self, index: int) -> list[Record]:
        """Read one on-disk page by position and decode its records."""
        self._check_open()
        if not 0 <= index < len(self._page_ids):
            raise HeapFileError(
                f"page index {index} out of range 0..{len(self._page_ids) - 1}"
            )
        data = read_page_resilient(self.disk, self._page_ids[index])
        return self.decode_page(data)

    def decode_page(self, data: bytes) -> list[Record]:
        """Decode a raw page image into records, charging per-record CPU."""
        (count,) = _COUNT_HEADER.unpack_from(data)
        if count > self.records_per_page:
            raise HeapFileError(f"corrupt page header: count {count}")
        view = memoryview(data)[PAGE_HEADER_SIZE:]
        records = self.schema.unpack_many(view, count)
        self.disk.charge_records(count)
        return records

    # -- lifecycle ---------------------------------------------------------

    def free(self) -> None:
        """Release every page back to the disk; the file becomes unusable."""
        if self._freed:
            return
        for start, count in self._extents:
            self.disk.free(start, count)
        self._page_ids = []
        self._extents = []
        self._tail = []
        self._num_records = 0
        self._freed = True

    def _check_open(self) -> None:
        if self._freed:
            raise HeapFileError(f"heap file {self.name!r} has been freed")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"HeapFile({self.name!r}, records={self.num_records}, "
            f"pages={self.num_pages})"
        )
