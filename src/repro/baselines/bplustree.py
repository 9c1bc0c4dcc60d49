"""Ranked B+-Tree with Antoshenkov/Olken random sampling (paper Section II.B).

This is the strongest 1-D iterative-sampling baseline in the paper: a
primary B+-Tree whose internal entries carry subtree record counts, so that
the ``i``-th record of the file (in key order) can be fetched directly.
Sampling from ``BETWEEN v1 AND v2`` (Algorithm 1) finds the rank interval
``[r1, r2)`` of the matching records, then repeatedly draws uniform ranks
without replacement and fetches each drawn record — one random page access
per draw until the relevant leaf pages are buffer-resident, after which
draws cost only CPU.

The tree is bulk-loaded: the relation is externally sorted on the key and
the sorted heap file *is* the leaf level (data stored in the tree);
internal levels are packed bottom-up.
"""

from __future__ import annotations

import struct
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator

from ..core.errors import IndexBuildError, QueryError
from ..core.intervals import Box
from ..core.records import Record
from ..core.rng import derive_random
from ..obs.metrics import METRICS
from ..obs.tracer import TRACER
from ..storage.buffer import RecordPageCache
from ..storage.external_sort import external_sort_to_sink
from ..storage.heapfile import HeapFile
from .base import Batch

__all__ = ["RankedBPlusTree", "build_bplus_tree"]

_NODE_HEADER = struct.Struct("<HB")  # entry count, children-are-leaf-pages flag
_NODE_ENTRY = struct.Struct("<dQI")  # min key, subtree count, child reference


@dataclass(frozen=True, slots=True)
class _Node:
    """Decoded internal node: parallel child arrays plus prefix counts."""

    min_keys: tuple[float, ...]
    prefix_counts: tuple[int, ...]  # prefix_counts[j] = records in children < j
    children: tuple[int, ...]
    leaf_children: bool

    @property
    def total(self) -> int:
        return self.prefix_counts[-1]


def build_bplus_tree(
    source: HeapFile,
    key_field: str,
    memory_pages: int = 64,
    leaf_cache_pages: int = 4096,
    name: str = "bplus",
) -> "RankedBPlusTree":
    """Bulk-load a ranked B+-Tree over ``source`` on the same disk.

    The build is one external sort; leaf-page statistics (first key and
    record count, the inputs to the ranked internal levels) are collected
    while the final merge streams into the leaf file, so no extra pass is
    needed.
    """
    if source.num_records == 0:
        raise IndexBuildError("cannot build a B+-Tree over an empty relation")
    disk = source.disk
    key_of = source.schema.key_getter(key_field)
    leaf_stats: list[tuple[float, int]] = []  # (first key, record count) per page

    def load_leaves(blocks: Iterator[Iterable[Record]]) -> HeapFile:
        heap = HeapFile.create(disk, source.schema, name=f"{name}.leaves")
        per_page = heap.records_per_page
        page: list[Record] = []
        for record in chain.from_iterable(blocks):
            page.append(record)
            if len(page) == per_page:
                leaf_stats.append((float(key_of(page[0])), len(page)))
                heap.extend(page)
                page = []
        if page:
            leaf_stats.append((float(key_of(page[0])), len(page)))
            heap.extend(page)
        heap.flush()
        return heap

    leaves = external_sort_to_sink(
        source,
        key=key_of,
        sink=load_leaves,
        memory_pages=memory_pages,
        key_field=key_field,
    )
    return RankedBPlusTree._build_internal(
        leaves, key_field, leaf_stats, leaf_cache_pages
    )


class RankedBPlusTree:
    """A bulk-loaded primary B+-Tree with rank information."""

    def __init__(
        self,
        leaves: HeapFile,
        key_field: str,
        root_pid: int,
        node_extents: list[tuple[int, int]],
        num_internal_pages: int,
        leaf_cache_pages: int,
    ) -> None:
        self.leaves = leaves
        self.key_field = key_field
        self._key_of = leaves.schema.key_getter(key_field)
        self._root_pid = root_pid
        self._node_extents = node_extents
        self.num_internal_pages = num_internal_pages
        disk = leaves.disk
        # Internal pages are few and hot: cache them all.
        self._node_cache = RecordPageCache(
            disk, max(num_internal_pages, 1), self._decode_node
        )
        self._leaf_cache = RecordPageCache(
            disk, leaf_cache_pages, self._decode_leaf
        )

    # -- construction ---------------------------------------------------------

    @classmethod
    def _build_internal(
        cls,
        leaves: HeapFile,
        key_field: str,
        leaf_stats: list[tuple[float, int]],
        leaf_cache_pages: int,
    ) -> "RankedBPlusTree":
        disk = leaves.disk
        fanout = (disk.page_size - _NODE_HEADER.size) // _NODE_ENTRY.size
        if fanout < 2:
            raise IndexBuildError("page too small for two B+-Tree entries")

        entries = [
            (min_key, count, page_index)
            for page_index, (min_key, count) in enumerate(leaf_stats)
        ]
        leaf_children = True
        extents: list[tuple[int, int]] = []
        num_internal = 0
        root_pid = -1
        while True:
            groups = [entries[i:i + fanout] for i in range(0, len(entries), fanout)]
            start = disk.allocate(len(groups))
            extents.append((start, len(groups)))
            next_entries = []
            for offset, group in enumerate(groups):
                pid = start + offset
                data = _NODE_HEADER.pack(len(group), 1 if leaf_children else 0)
                data += b"".join(_NODE_ENTRY.pack(*entry) for entry in group)
                disk.write_page(pid, data)
                num_internal += 1
                next_entries.append(
                    (group[0][0], sum(count for _key, count, _ref in group), pid)
                )
            if len(groups) == 1:
                root_pid = start
                break
            entries = next_entries
            leaf_children = False
        return cls(
            leaves,
            key_field,
            root_pid,
            extents,
            num_internal,
            leaf_cache_pages,
        )

    # -- page decoding ----------------------------------------------------------

    def _decode_node(self, data: bytes) -> _Node:
        count, leaf_flag = _NODE_HEADER.unpack_from(data, 0)
        min_keys = []
        prefix = [0]
        children = []
        pos = _NODE_HEADER.size
        for _ in range(count):
            min_key, sub_count, ref = _NODE_ENTRY.unpack_from(data, pos)
            pos += _NODE_ENTRY.size
            min_keys.append(min_key)
            prefix.append(prefix[-1] + sub_count)
            children.append(ref)
        self.leaves.disk.charge_records(count)
        return _Node(
            min_keys=tuple(min_keys),
            prefix_counts=tuple(prefix),
            children=tuple(children),
            leaf_children=bool(leaf_flag),
        )

    def _decode_leaf(self, data: bytes):
        records = self.leaves.decode_page(data)
        keys = [self._key_of(record) for record in records]
        return records, keys

    def _read_leaf(self, page_index: int):
        return self._leaf_cache.read(self.leaves.page_ids[page_index])

    # -- ranked operations --------------------------------------------------------

    @property
    def num_records(self) -> int:
        return self.leaves.num_records

    @property
    def num_pages(self) -> int:
        """Leaf plus internal pages."""
        return self.leaves.num_pages + self.num_internal_pages

    def rank_of(self, value: float) -> int:
        """Number of records with key strictly below ``value``."""
        node = self._node_cache.read(self._root_pid)
        rank = 0
        while True:
            # Descend into the last child whose minimum key is < value:
            # duplicates of ``value`` may span page boundaries, so a child
            # whose min equals ``value`` contains no keys below it, but the
            # child before it may.
            j = bisect_left(node.min_keys, value) - 1
            if j < 0:
                return rank
            rank += node.prefix_counts[j]
            if node.leaf_children:
                records, keys = self._read_leaf(node.children[j])
                self.leaves.disk.charge_records(len(records).bit_length())
                return rank + bisect_left(keys, value)
            node = self._node_cache.read(node.children[j])

    def record_at_rank(self, rank: int) -> Record:
        """The ``rank``-th record in key order (0-based)."""
        if not 0 <= rank < self.num_records:
            raise QueryError(f"rank {rank} out of range 0..{self.num_records - 1}")
        node = self._node_cache.read(self._root_pid)
        while True:
            j = bisect_right(node.prefix_counts, rank) - 1
            rank -= node.prefix_counts[j]
            if node.leaf_children:
                records, _keys = self._read_leaf(node.children[j])
                return records[rank]
            node = self._node_cache.read(node.children[j])

    def range_rank_interval(self, query: Box) -> tuple[int, int]:
        """Rank interval ``[r1, r2)`` of the records matching a 1-D query."""
        if query.dims != 1:
            raise QueryError(f"B+-Tree queries are 1-D, got {query.dims}-d box")
        side = query.sides[0]
        return self.rank_of(side.lo), self.rank_of(side.hi)

    # -- Algorithm 1: iterative random sampling -----------------------------------

    def sample(self, query: Box, seed: int = 0) -> Iterator[Batch]:
        """Antoshenkov's ranked-B+-Tree sampler (paper Algorithm 1).

        Draws uniform ranks in the matching interval without replacement
        (previously seen ranks are discarded and redrawn) and fetches each
        record by rank.  One batch per retrieved record.
        """
        disk = self.leaves.disk
        with TRACER.span("bplus.locate", disk=disk):
            r1, r2 = self.range_rank_interval(query)
        if r1 >= r2:
            return
        rng = derive_random(seed, "bplus-sample")
        emitted = METRICS.counter("baseline.records") if TRACER.enabled else None
        used: set[int] = set()
        total = r2 - r1
        while len(used) < total:
            rank = rng.randrange(r1, r2)
            disk.charge_records(1)  # draw + duplicate check
            if rank in used:
                continue
            used.add(rank)
            with TRACER.span("bplus.fetch", disk=disk):
                record = self.record_at_rank(rank)
            if emitted is not None:
                emitted.inc()
            yield Batch(records=(record,), clock=disk.clock)

    # -- block-based sampling (paper Section II.C) --------------------------------

    def sample_blocks(self, query: Box, seed: int = 0) -> Iterator[Batch]:
        """Block-level sampling: draw whole leaf pages, keep all matches.

        This is the Section II.C technique (Haas & Koenig / Chaudhuri et
        al.): instead of fetching one ranked record per random I/O, fetch a
        random *page* of the matching rank range and consume every matching
        record on it — two to three orders of magnitude more records per
        I/O.  The paper's caveat applies and is demonstrated in the test
        suite: the records of one page are not independent draws, so any
        estimate computed from N block-sampled records can have much wider
        error than from N independent ones (in the extreme, a page of
        correlated values is worth a single sample).  Pages are drawn
        uniformly without replacement; run to exhaustion the stream still
        returns exactly the matching set.
        """
        disk = self.leaves.disk
        with TRACER.span("bplus.locate", disk=disk):
            r1, r2 = self.range_rank_interval(query)
        if r1 >= r2:
            return
        per_page = self.leaves.records_per_page
        first_page = r1 // per_page
        last_page = (r2 - 1) // per_page
        pages = list(range(first_page, last_page + 1))
        rng = derive_random(seed, "bplus-blocks")
        rng.shuffle(pages)
        emitted = METRICS.counter("baseline.records") if TRACER.enabled else None
        side = query.sides[0]
        for page_index in pages:
            with TRACER.span("bplus.fetch", disk=disk) as sp:
                records, keys = self._read_leaf(page_index)
                matching = tuple(
                    record
                    for record, key in zip(records, keys)
                    if side.contains_value(key)
                )
                if sp is not None:
                    sp.attrs["matched"] = len(matching)
            if emitted is not None and matching:
                emitted.inc(len(matching))
            yield Batch(records=matching, clock=disk.clock)

    # -- lifecycle -------------------------------------------------------------

    def reset_caches(self) -> None:
        """Drop buffered pages (cold-cache start for a new experiment)."""
        self._node_cache.clear()
        self._leaf_cache.clear()

    def free(self) -> None:
        disk = self.leaves.disk
        for start, count in self._node_extents:
            disk.free(start, count)
        self.leaves.free()
