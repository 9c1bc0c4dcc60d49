"""On-disk layout of ACE Tree leaves.

The paper's Section V.F weighs two schemes for the randomly-sized leaves and
picks **variable-sized leaf nodes with variable-sized sections**: leaves are
laid end to end on disk and may span page boundaries, because most of the
cost of a leaf access is the seek, not the extra page of transfer.  This
module implements exactly that scheme:

* a *data area* of contiguous pages holding the serialized leaves
  back to back, in leaf-index order;
* a *directory* (byte offset of every leaf) serialized after the data area
  and also kept in memory, standing in for the paper's internal-node pages
  packed into disk-page-sized units.

Reading leaf ``i`` reads the page span covering its byte range: one random
access for the first page, sequential accesses for the rest — the access
pattern the paper's cost argument relies on.
"""

from __future__ import annotations

import struct
from typing import Iterator

import itertools

from ..core.errors import SerializationError, StorageError
from ..core.records import Schema
from ..obs.tracer import TRACER
from ..storage.buffer import DecodeMemo
from ..storage.disk import SimulatedDisk
from ..storage.recovery import read_page_resilient, touch_page_resilient
from .nodes import LeafNode, LeafView

__all__ = ["LeafStore", "LeafStoreWriter"]

#: Monotonic identity for live leaf stores; scopes sample-cache keys so a
#: freed/rebuilt store can never serve another tree's cached cells.
_CACHE_TOKENS = itertools.count(1)  # repro: shared[owner=serve.scheduler] token source; stores are only created during build/setup, inside the owner's quanta under serve

_LEAF_HEADER = struct.Struct("<IH")  # leaf index, section count
_DIR_ENTRY = struct.Struct("<Q")

#: Pages per allocation extent while streaming leaves out.
_EXTENT_PAGES = 256

#: Decoded leaves memoized per store.  Shuttle stabs revisit the same hot
#: leaves across queries; memoizing the (immutable) LeafNode skips the
#: struct decode while the I/O is still charged in full.
_LEAF_MEMO_LEAVES = 4096


def _section_counts(height: int) -> struct.Struct:
    """The record counts after a leaf's header: one uint32 per section."""
    return struct.Struct(f"<{height}I")


class LeafStoreWriter:
    """Streams serialized leaves onto contiguous disk pages.

    Used by construction Phase 2: leaves must be appended in increasing
    leaf-index order; missing indexes become empty leaves (possible in tiny
    or skewed relations).  A serialized leaf is its header (index, section
    count), one record count per section, then the sections' packed
    records back to back.
    """

    def __init__(
        self, disk: SimulatedDisk, schema: Schema, height: int, num_leaves: int
    ) -> None:
        self.disk = disk
        self.schema = schema
        self.height = height
        self.num_leaves = num_leaves
        self._offsets: list[int] = [0]
        self._buffer = bytearray()
        self._page_ids: list[int] = []
        self._extents: list[tuple[int, int]] = []
        self._extent_used = 0
        self._next_leaf = 0
        self._finished = False
        self._counts = _section_counts(height)

    def append_leaf(self, leaf_index: int, counts, payload) -> None:
        """Append one leaf given as per-section record counts and the
        sections' packed records, back to back in section order; fills
        skipped indexes with empty leaves."""
        if self._finished:
            raise StorageError("leaf store writer already finished")
        if leaf_index < self._next_leaf or leaf_index >= self.num_leaves:
            raise StorageError(
                f"leaf {leaf_index} out of order (next expected {self._next_leaf})"
            )
        if len(counts) != self.height:
            raise SerializationError(
                f"leaf {leaf_index} has {len(counts)} sections, need {self.height}"
            )
        records = sum(counts)
        if len(payload) != records * self.schema.record_size:
            raise SerializationError(
                f"leaf {leaf_index}: payload of {len(payload)} bytes is not "
                f"{records} x {self.schema.record_size}-byte records"
            )
        while self._next_leaf < leaf_index:
            self._append_serialized(self._empty_leaf(self._next_leaf))
            self._next_leaf += 1
        self._append_serialized(
            b"".join((
                _LEAF_HEADER.pack(leaf_index, self.height),
                self._counts.pack(*counts),
                payload,
            ))
        )
        self.disk.charge_records(records)
        self._next_leaf += 1

    def finish(self) -> "LeafStore":
        """Flush data pages, write the directory, return the readable store."""
        if self._finished:
            raise StorageError("leaf store writer already finished")
        while self._next_leaf < self.num_leaves:
            self._append_serialized(self._empty_leaf(self._next_leaf))
            self._next_leaf += 1
        self._flush_full_pages(final=True)

        directory = b"".join(_DIR_ENTRY.pack(off) for off in self._offsets)
        dir_page_ids = []
        page_size = self.disk.page_size
        for start in range(0, len(directory), page_size):
            pid = self._allocate_page()
            self.disk.write_page(pid, directory[start:start + page_size])
            dir_page_ids.append(pid)
        self._finished = True
        return LeafStore(
            disk=self.disk,
            schema=self.schema,
            height=self.height,
            data_page_ids=self._page_ids,
            dir_page_ids=dir_page_ids,
            offsets=self._offsets,
            extents=self._extents,
        )

    # -- internals ---------------------------------------------------------

    def _empty_leaf(self, leaf_index: int) -> bytes:
        return _LEAF_HEADER.pack(leaf_index, self.height) + bytes(self._counts.size)

    def _append_serialized(self, blob: bytes) -> None:
        self._buffer.extend(blob)
        self._offsets.append(self._offsets[-1] + len(blob))
        self._flush_full_pages(final=False)

    def _flush_full_pages(self, final: bool) -> None:
        page_size = self.disk.page_size
        while len(self._buffer) >= page_size:
            pid = self._allocate_page()
            self.disk.write_page(pid, bytes(self._buffer[:page_size]))
            self._page_ids.append(pid)
            del self._buffer[:page_size]
        if final and self._buffer:
            pid = self._allocate_page()
            self.disk.write_page(pid, bytes(self._buffer))
            self._page_ids.append(pid)
            self._buffer.clear()

    def _allocate_page(self) -> int:
        if not self._extents or self._extent_used == self._extents[-1][1]:
            start = self.disk.allocate(_EXTENT_PAGES)
            self._extents.append((start, _EXTENT_PAGES))
            self._extent_used = 0
        start, _count = self._extents[-1]
        pid = start + self._extent_used
        self._extent_used += 1
        return pid


class LeafStore:
    """Read access to the serialized leaves of one ACE Tree."""

    def __init__(
        self,
        disk: SimulatedDisk,
        schema: Schema,
        height: int,
        data_page_ids: list[int],
        dir_page_ids: list[int],
        offsets: list[int],
        extents: list[tuple[int, int]] | None = None,
    ) -> None:
        self.disk = disk
        self.schema = schema
        self.height = height
        self._data_page_ids = data_page_ids
        self._dir_page_ids = dir_page_ids
        self._offsets = offsets
        self._extents = extents
        self._counts = _section_counts(height)
        self._memo = DecodeMemo(_LEAF_MEMO_LEAVES)
        #: Data pages requested by :meth:`read_leaf_view` and
        #: :meth:`read_leaf_payload`, memo hits included; ``check_sample``
        #: balances it against the disk's reads.
        self.pages_read = 0
        #: Opaque identity for cache keys (see module docstring of
        #: :mod:`repro.storage.sample_cache`); bumped by :meth:`free`.
        self.cache_token = next(_CACHE_TOKENS)

    @property
    def num_leaves(self) -> int:
        return len(self._offsets) - 1

    @property
    def num_data_pages(self) -> int:
        return len(self._data_page_ids)

    @property
    def num_pages(self) -> int:
        """Data pages plus directory pages."""
        return len(self._data_page_ids) + len(self._dir_page_ids)

    @property
    def total_bytes(self) -> int:
        return self.num_pages * self.disk.page_size

    def leaf_byte_size(self, leaf_index: int) -> int:
        """Serialized size of one leaf in bytes."""
        self._check_leaf(leaf_index)
        return self._offsets[leaf_index + 1] - self._offsets[leaf_index]

    def leaf_page_span(self, leaf_index: int) -> tuple[int, int]:
        """(first page position, page count) of the leaf's byte range."""
        self._check_leaf(leaf_index)
        start = self._offsets[leaf_index]
        end = self._offsets[leaf_index + 1]
        page_size = self.disk.page_size
        first = start // page_size
        last = max(first, (end - 1) // page_size) if end > start else first
        return first, last - first + 1

    def read_leaf_view(self, leaf_index: int) -> LeafView:
        """Fetch one leaf as a lazy columnar :class:`LeafView`.

        Same random I/O + sequential spill pages and the same per-record
        CPU charge as the historical eager read — only the per-record
        Python decode is deferred (header, section counts, and payload
        length are still validated here, so corruption surfaces at read
        time exactly as before).  Decoded views are memoized: a memo hit
        performs the identical timed page reads and per-record CPU charge
        as a cold read — the simulated cost never depends on the memo —
        and only skips the parse (the view's payload is immutable, so
        sharing is safe).
        """
        return self._read(leaf_index, as_view=True)

    def read_leaf_payload(self, leaf_index: int) -> memoryview:
        """One leaf's packed record bytes, in section order.

        Reads, validates and charges exactly as :meth:`read_leaf_view`
        does (a memo hit included) and opens the same span, but builds no
        :class:`LeafView` and puts nothing in the memo: for a whole-store
        reload, whose store is freed right after.
        """
        return self._read(leaf_index, as_view=False)

    def _read(self, leaf_index: int, as_view: bool):
        self._check_leaf(leaf_index)
        start = self._offsets[leaf_index]
        end = self._offsets[leaf_index + 1]
        page_size = self.disk.page_size
        # leaf_page_span(), inlined to avoid re-validating the index.
        first = start // page_size
        last = max(first, (end - 1) // page_size) if end > start else first
        span = last - first + 1
        # Every simulated page read below is attributed to pages_read;
        # check_sample verifies the attribution balances (cost conservation).
        self.pages_read += span
        with TRACER.span("leaf_store.read_leaf", disk=self.disk) as sp:
            if sp is not None:
                sp.attrs["leaf"] = leaf_index
                sp.attrs["pages"] = span
            cached = self._memo.get(leaf_index)
            if cached is not None:
                disk = self.disk
                if disk.can_fault:
                    ids = self._data_page_ids
                    for i in range(span):
                        touch_page_resilient(disk, ids[first + i])
                else:
                    disk.touch_pages(self._data_page_ids[first:first + span])
                disk.charge_records(cached.num_records)
                return cached if as_view else cached.page.payload
            chunks = [
                read_page_resilient(self.disk, self._data_page_ids[first + i])
                for i in range(span)
            ]
            blob = b"".join(chunks)
            local = start - first * page_size
            blob = blob[local:local + (end - start)]
            counts, pos, need = self._check_leaf_blob(blob, leaf_index)
            payload = memoryview(blob)[pos:pos + need]
            if not as_view:
                return payload
            view = LeafView(
                index=leaf_index,
                schema=self.schema,
                payload=payload,
                counts=counts,
                byte_size=len(blob),
            )
            self._memo.put(leaf_index, view)
            return view

    def read_leaf(self, leaf_index: int) -> LeafNode:
        """Fetch one leaf fully decoded (the eager twin of the view read)."""
        return self.read_leaf_view(leaf_index).to_leaf_node()

    def iter_leaves(self) -> Iterator[LeafNode]:
        """All leaves in index order (sequential full-store read)."""
        for leaf_index in range(self.num_leaves):
            yield self.read_leaf(leaf_index)

    def _check_leaf_blob(self, blob: bytes, expected_index: int):
        """Validate one leaf's bytes and charge its records.

        Returns ``(counts, payload offset, payload length)``.
        """
        try:
            index, count = _LEAF_HEADER.unpack_from(blob, 0)
        except struct.error as exc:
            raise SerializationError(f"corrupt leaf {expected_index}: {exc}") from exc
        if index != expected_index or count != self.height:
            raise SerializationError(
                f"corrupt leaf header: index {index} (expected {expected_index}), "
                f"sections {count} (expected {self.height})"
            )
        try:
            counts = self._counts.unpack_from(blob, _LEAF_HEADER.size)
        except struct.error as exc:
            raise SerializationError(f"corrupt leaf {expected_index}: {exc}") from exc
        pos = _LEAF_HEADER.size + self._counts.size
        total = sum(counts)
        need = total * self.schema.record_size
        if len(blob) - pos < need:
            raise SerializationError(
                f"corrupt leaf {expected_index}: need {need} payload bytes "
                f"for {total} records, have {len(blob) - pos}"
            )
        self.disk.charge_records(total)
        return counts, pos, need

    def free(self) -> None:
        """Release all data and directory pages (store becomes unusable)."""
        if self._extents is not None:
            for start, count in self._extents:
                self.disk.free(start, count)
        else:
            for pid in self._data_page_ids + self._dir_page_ids:
                self.disk.free(pid)
        self._data_page_ids = []
        self._dir_page_ids = []
        self._offsets = [0]
        self._extents = None
        self._memo.clear()
        # A freed store must never satisfy a sample-cache lookup again.
        self.cache_token = next(_CACHE_TOKENS)

    def _check_leaf(self, leaf_index: int) -> None:
        if not 0 <= leaf_index < self.num_leaves:
            raise StorageError(
                f"leaf {leaf_index} out of range 0..{self.num_leaves - 1}"
            )
