"""R-Tree baseline for multi-dimensional sampling (paper Section VIII.A).

The paper's second experiment compares the k-d ACE Tree against "the obvious
extension of Antoshenkov's algorithm to a two-dimensional R-Tree": a primary
R-Tree, bulk-loaded with Sort-Tile-Recursive (STR) packing, whose entries
carry subtree record counts.

Sampling uses Olken's classic accept/reject descent, which is exactly
unbiased: from the root, pick a child with probability proportional to its
subtree count *over all children*; if the picked child's MBR does not
overlap the query, reject the trial (no I/O — internal nodes are cached);
at a leaf page pick a uniform record and accept it iff it matches the query
and was not sampled before.  Every trial selects each stored record with
probability ``1/N``, so accepted records are uniform over the matching set.
"""

from __future__ import annotations

import math
import struct
from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, Sequence

from ..core.errors import IndexBuildError, QueryError
from ..core.intervals import Box, Interval
from ..core.records import Field, Record, Schema
from ..core.rng import derive_random
from ..obs.metrics import METRICS
from ..obs.tracer import TRACER
from ..storage.buffer import RecordPageCache
from ..storage.external_sort import external_sort, external_sort_to_sink
from ..storage.heapfile import HeapFile
from .base import Batch

__all__ = ["RTree", "build_rtree"]

_NODE_HEADER = struct.Struct("<HBB")  # entry count, leaf-children flag, dims


@dataclass(frozen=True, slots=True)
class _RNode:
    """Decoded R-Tree node: child MBRs, cumulative counts, references."""

    mbrs: tuple[Box, ...]
    cumulative: tuple[int, ...]  # cumulative[j] = records in children <= j
    children: tuple[int, ...]
    leaf_children: bool

    @property
    def total(self) -> int:
        return self.cumulative[-1]


def build_rtree(
    source: HeapFile,
    key_fields: Sequence[str],
    memory_pages: int = 64,
    leaf_cache_pages: int = 4096,
    name: str = "rtree",
) -> "RTree":
    """Bulk-load an R-Tree over point data with STR packing.

    STR (Leutenegger et al., the algorithm the paper used): sort the points
    on the first dimension, cut the file into ``ceil(sqrt(P))`` vertical
    slabs of whole pages, sort each slab on the remaining dimensions, and
    pack pages in that order.  Both sorts are external; the slab id is
    attached while the first sort's output streams into the second, so no
    extra pass is needed.
    """
    if source.num_records == 0:
        raise IndexBuildError("cannot build an R-Tree over an empty relation")
    key_fields = tuple(key_fields)
    if len(key_fields) < 2:
        raise IndexBuildError("an R-Tree needs at least two key dimensions")
    disk = source.disk
    key_of = source.schema.keys_getter(key_fields)

    by_first = external_sort(
        source,
        key=lambda record: key_of(record)[0],
        memory_pages=memory_pages,
        name=f"{name}.sort0",
        key_field=key_fields[0],
    )

    per_page = by_first.records_per_page
    total_pages = max(1, math.ceil(by_first.num_records / per_page))
    slabs = max(1, math.ceil(math.sqrt(total_pages)))
    slab_records = math.ceil(total_pages / slabs) * per_page

    # Decorate each record with its slab id (position in the x-sorted
    # order // slab size) so the second sort key is a pure record function.
    decorated_schema = Schema(
        [Field(source.schema.fresh_field_name("slab_"), "i8")]
        + list(source.schema.fields)
    )
    position = iter(range(by_first.num_records))

    def decorate(record: Record) -> Record:
        return (next(position) // slab_records,) + record

    leaf_meta: list[tuple[Box, int]] = []  # (MBR, record count) per page

    def load_leaves(blocks: Iterator[Iterable[Record]]) -> HeapFile:
        heap = HeapFile.create(disk, source.schema, name=f"{name}.leaves")
        page: list[Record] = []

        def flush_page() -> None:
            points = [key_of(record) for record in page]
            leaf_meta.append((Box.bounding(points), len(page)))
            heap.extend(page)

        for decorated in chain.from_iterable(blocks):
            page.append(decorated[1:])
            if len(page) == per_page:
                flush_page()
                page = []
        if page:
            flush_page()
        heap.flush()
        return heap

    leaves = external_sort_to_sink(
        by_first,
        key=lambda rec: (rec[0],) + key_of(rec[1:])[1:],
        sink=load_leaves,
        memory_pages=memory_pages,
        free_source=True,
        transform=decorate,
        output_schema=decorated_schema,
    )
    return RTree._build_internal(leaves, key_fields, leaf_meta, leaf_cache_pages)


class RTree:
    """A bulk-loaded primary R-Tree with subtree counts."""

    def __init__(
        self,
        leaves: HeapFile,
        key_fields: tuple[str, ...],
        root_pid: int,
        node_extents: list[tuple[int, int]],
        num_internal_pages: int,
        leaf_cache_pages: int,
    ) -> None:
        self.leaves = leaves
        self.key_fields = key_fields
        self._key_of = leaves.schema.keys_getter(key_fields)
        self._root_pid = root_pid
        self._node_extents = node_extents
        self.num_internal_pages = num_internal_pages
        disk = leaves.disk
        self._node_cache = RecordPageCache(
            disk, max(num_internal_pages, 1), self._decode_node
        )
        self._leaf_cache = RecordPageCache(disk, leaf_cache_pages, self._decode_leaf)

    @property
    def dims(self) -> int:
        return len(self.key_fields)

    @property
    def num_records(self) -> int:
        return self.leaves.num_records

    @property
    def num_pages(self) -> int:
        return self.leaves.num_pages + self.num_internal_pages

    # -- construction ---------------------------------------------------------

    @classmethod
    def _build_internal(
        cls,
        leaves: HeapFile,
        key_fields: tuple[str, ...],
        leaf_meta: list[tuple[Box, int]],
        leaf_cache_pages: int,
    ) -> "RTree":
        disk = leaves.disk
        dims = len(key_fields)
        entry_struct = cls._entry_struct(dims)
        fanout = (disk.page_size - _NODE_HEADER.size) // entry_struct.size
        if fanout < 2:
            raise IndexBuildError("page too small for two R-Tree entries")

        entries = [
            (mbr, count, page_index)
            for page_index, (mbr, count) in enumerate(leaf_meta)
        ]
        leaf_children = True
        extents: list[tuple[int, int]] = []
        num_internal = 0
        while True:
            groups = [entries[i:i + fanout] for i in range(0, len(entries), fanout)]
            start = disk.allocate(len(groups))
            extents.append((start, len(groups)))
            next_entries = []
            for offset, group in enumerate(groups):
                pid = start + offset
                parts = [
                    _NODE_HEADER.pack(len(group), 1 if leaf_children else 0, dims)
                ]
                for mbr, count, ref in group:
                    bounds = []
                    for side in mbr.sides:
                        bounds.extend((side.lo, side.hi))
                    parts.append(entry_struct.pack(*bounds, count, ref))
                disk.write_page(pid, b"".join(parts))
                num_internal += 1
                group_mbr = _union_boxes([mbr for mbr, _c, _r in group])
                next_entries.append(
                    (group_mbr, sum(count for _m, count, _r in group), pid)
                )
            if len(groups) == 1:
                root_pid = start
                break
            entries = next_entries
            leaf_children = False
        return cls(
            leaves, key_fields, root_pid, extents, num_internal, leaf_cache_pages
        )

    @staticmethod
    def _entry_struct(dims: int) -> struct.Struct:
        return struct.Struct(f"<{2 * dims}dQI")

    # -- decoding ----------------------------------------------------------------

    def _decode_node(self, data: bytes) -> _RNode:
        count, leaf_flag, dims = _NODE_HEADER.unpack_from(data, 0)
        entry_struct = self._entry_struct(dims)
        mbrs = []
        cumulative = []
        children = []
        running = 0
        pos = _NODE_HEADER.size
        for _ in range(count):
            values = entry_struct.unpack_from(data, pos)
            pos += entry_struct.size
            sides = tuple(
                Interval(values[2 * d], values[2 * d + 1]) for d in range(dims)
            )
            mbrs.append(Box(sides))
            running += values[2 * dims]
            cumulative.append(running)
            children.append(values[2 * dims + 1])
        self.leaves.disk.charge_records(count)
        return _RNode(
            mbrs=tuple(mbrs),
            cumulative=tuple(cumulative),
            children=tuple(children),
            leaf_children=bool(leaf_flag),
        )

    def _decode_leaf(self, data: bytes) -> list[Record]:
        return self.leaves.decode_page(data)

    # -- exact counting ------------------------------------------------------------

    def count(self, query: Box) -> int:
        """Exact number of records matching ``query``.

        Fully contained subtrees contribute their stored counts; boundary
        leaf pages are read (through the cache) and filtered.  This is the
        2-D analogue of the ranked B+-Tree's rank-interval computation and
        is charged to the simulated clock the same way.
        """
        if query.dims != self.dims:
            raise QueryError(f"query has {query.dims} dims, tree has {self.dims}")
        total = 0
        stack: list[tuple[int, bool]] = [(self._root_pid, False)]
        while stack:
            ref, is_leaf_page = stack.pop()
            if is_leaf_page:
                records = self._leaf_cache.read(self.leaves.page_ids[ref])
                total += sum(
                    1
                    for record in records
                    if query.contains_point(self._key_of(record))
                )
                continue
            node = self._node_cache.read(ref)
            for j, mbr in enumerate(node.mbrs):
                if not mbr.overlaps(query):
                    continue
                child_count = node.cumulative[j] - (node.cumulative[j - 1] if j else 0)
                if query.contains(mbr):
                    total += child_count
                else:
                    stack.append((node.children[j], node.leaf_children))
        return total

    # -- ranked sampling (the paper's "obvious extension" of Antoshenkov) ---------

    def overlapping_leaf_entries(self, query: Box) -> list[tuple[int, int]]:
        """(leaf page index, record count) of every leaf page whose MBR
        overlaps the query — the 2-D analogue of the B+-Tree rank interval.

        Found with one internal-node traversal (through the node cache, so
        its cost lands on the simulated clock).
        """
        if query.dims != self.dims:
            raise QueryError(f"query has {query.dims} dims, tree has {self.dims}")
        out: list[tuple[int, int]] = []
        stack: list[int] = [self._root_pid]
        while stack:
            node = self._node_cache.read(stack.pop())
            for j, mbr in enumerate(node.mbrs):
                if not mbr.overlaps(query):
                    continue
                if node.leaf_children:
                    count = node.cumulative[j] - (node.cumulative[j - 1] if j else 0)
                    out.append((node.children[j], count))
                else:
                    stack.append(node.children[j])
        return out

    def sample(self, query: Box, seed: int = 0) -> Iterator[Batch]:
        """Ranked sampling from a box predicate (Antoshenkov extended).

        The records of the leaf pages whose MBRs overlap the query form the
        candidate rank space, exactly as the ranked B+-Tree's ``[r1, r2)``
        interval does in 1-D.  Uniform ranks are drawn without replacement;
        the ranked record is fetched (one page access, buffered after the
        first touch) and accepted iff it actually satisfies the predicate —
        STR packing keeps leaf MBRs tight, so the acceptance rate is high.
        Accepted records are uniform over the matching set because every
        matching record occupies exactly one candidate rank.  The stream is
        exhausted once every candidate rank has been drawn — no up-front
        exact count is needed, so the first samples appear after a single
        leaf page access.
        """
        if query.dims != self.dims:
            raise QueryError(f"query has {query.dims} dims, tree has {self.dims}")
        disk = self.leaves.disk
        with TRACER.span("rtree.locate", disk=disk):
            entries = self.overlapping_leaf_entries(query)
        cumulative: list[int] = []
        running = 0
        for _page, count in entries:
            running += count
            cumulative.append(running)
        candidates = running
        if candidates == 0:
            return
        rng = derive_random(seed, "rtree-sample")
        emitted = METRICS.counter("baseline.records") if TRACER.enabled else None
        used: set[int] = set()
        while len(used) < candidates:
            rank = rng.randrange(candidates)
            disk.charge_records(1)  # draw + duplicate check
            if rank in used:
                continue
            used.add(rank)
            j = bisect_right(cumulative, rank)
            slot = rank - (cumulative[j - 1] if j else 0)
            page_index = entries[j][0]
            with TRACER.span("rtree.fetch", disk=disk):
                records = self._leaf_cache.read(self.leaves.page_ids[page_index])
            record = records[slot]
            if not query.contains_point(self._key_of(record)):
                continue  # candidate rank outside the predicate: rejected
            if emitted is not None:
                emitted.inc()
            yield Batch(records=(record,), clock=disk.clock)

    # -- Olken accept/reject sampling (alternative, kept for ablation) ------------

    def sample_olken(self, query: Box, seed: int = 0) -> Iterator[Batch]:
        """Unbiased A/R sampling without replacement from a box predicate.

        Olken's count-proportional descent with rejection.  Statistically
        identical to :meth:`sample` but pays ~``1/selectivity`` rejected
        trials per accepted record, which is why the ranked extension is
        the baseline the benchmarks use.  Without-replacement identity is
        positional (leaf page, slot), so duplicate record values cannot
        stall the sampler.
        """
        if query.dims != self.dims:
            raise QueryError(f"query has {query.dims} dims, tree has {self.dims}")
        total = self.count(query)
        if total == 0:
            return
        # Distinct tag from sample(): the two samplers must not draw
        # bit-identical streams when ablations run both at one seed.
        rng = derive_random(seed, "rtree-olken")
        disk = self.leaves.disk
        used: set[tuple[int, int]] = set()
        emitted = 0
        while emitted < total:
            hit = self._trial(query, rng)
            if hit is None:
                continue
            record, identity = hit
            if identity in used:
                continue
            used.add(identity)
            emitted += 1
            yield Batch(records=(record,), clock=disk.clock)

    def _trial(
        self, query: Box, rng: random.Random
    ) -> tuple[Record, tuple[int, int]] | None:
        """One A/R descent; returns (record, slot identity) or ``None``."""
        disk = self.leaves.disk
        node = self._node_cache.read(self._root_pid)
        while True:
            draw = rng.randrange(node.total)
            j = bisect_right(node.cumulative, draw)
            disk.charge_records(1)
            if not node.mbrs[j].overlaps(query):
                return None  # rejected before any leaf I/O
            if node.leaf_children:
                page_index = node.children[j]
                records = self._leaf_cache.read(self.leaves.page_ids[page_index])
                slot = rng.randrange(len(records))
                record = records[slot]
                if query.contains_point(self._key_of(record)):
                    return record, (page_index, slot)
                return None
            node = self._node_cache.read(node.children[j])

    # -- lifecycle -----------------------------------------------------------------

    def reset_caches(self) -> None:
        """Drop buffered pages (cold-cache start for a new experiment)."""
        self._node_cache.clear()
        self._leaf_cache.clear()

    def free(self) -> None:
        disk = self.leaves.disk
        for start, count in self._node_extents:
            disk.free(start, count)
        self.leaves.free()


def _union_boxes(boxes: list[Box]) -> Box:
    """Smallest box containing every input box."""
    sides = []
    for d in range(boxes[0].dims):
        lo = min(box.sides[d].lo for box in boxes)
        hi = max(box.sides[d].hi for box in boxes)
        sides.append(Interval(lo, hi))
    return Box(tuple(sides))


# Re-exported for callers that want to tune the STR slab math.
def str_slab_layout(num_records: int, records_per_page: int) -> tuple[int, int]:
    """(number of slabs, records per slab) chosen by STR packing."""
    if records_per_page <= 0:
        raise IndexBuildError("records_per_page must be positive")
    total_pages = max(1, math.ceil(num_records / records_per_page))
    slabs = max(1, math.ceil(math.sqrt(total_pages)))
    return slabs, math.ceil(total_pages / slabs) * records_per_page
