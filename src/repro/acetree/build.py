"""Bulk construction of the ACE Tree (paper Section V).

Construction has two phases, each an external sort:

* **Phase 1** sorts the relation on the key attribute and derives the split
  key of every internal node from medians of the sorted order (Figure 7).
  For the 1-D tree this is done exactly as in the paper: one external sort,
  then the medians are picked up by rank with a single skip-sequential pass
  over the sorted file.  For the k-d tree (Section VII) the medians of each
  level are medians *of the partition produced by the previous levels*, so a
  single sort cannot produce them; we project the (tiny) key columns into
  memory during one sequential scan and compute the recursive medians there
  — a documented substitution that charges the scan but not h-1 re-sorts.

* **Phase 2** decorates every record with a uniformly random section number
  ``s`` in ``1..h`` and a leaf number drawn uniformly among the
  ``arity^(h-s)`` leaves below the record's level-``s`` ancestor (Figure 9),
  then sorts by (leaf, section).  The decoration is pipelined into the
  sort's run generation and the leaf nodes are built directly from the
  final merge, so the phase is two read/write passes, as in the paper.
  The merged rows stay packed: each leaf's payload is its rows' record
  bytes, taken in merge order.

The arity parameter generalizes the paper's binary tree to the k-ary
variant discussed (and argued against) in Section III.D; for ``arity > 2``
each internal node gets ``arity - 1`` equi-depth quantile boundaries
instead of a single median.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import groupby
from typing import Iterator

import numpy as np

from ..core.errors import IndexBuildError
from ..core.intervals import Box
from ..core.records import Field as SchemaField
from ..core.records import PageView, Record, Schema
from ..core.rng import derive_random
from ..obs.tracer import TRACER
from ..storage.disk import DiskStats
from ..storage.external_sort import external_sort, external_sort_to_sink
from ..storage.heapfile import HeapFile
from .analysis import expected_section_size
from .geometry import TreeGeometry, choose_height
from .storage import LeafStore, LeafStoreWriter
from .tree import AceTree

__all__ = ["AceBuildParams", "AceBuildReport", "build_ace_tree"]


@dataclass(frozen=True)
class AceBuildParams:
    """Knobs for ACE Tree construction.

    Attributes:
        key_fields: indexed attribute name(s); one name gives the 1-D tree,
            several give the k-d tree with the split axis cycling in the
            order listed.
        height: number of sections per leaf (and tree height).  ``None``
            sizes the tree so an expected leaf fits one disk page, following
            the paper's guidance.
        target_leaf_fill: fraction of a page the expected leaf should use
            when ``height`` is auto-chosen.
        memory_pages: sort memory for both external sorts.
        seed: seed for the section/leaf assignment randomness.
        arity: internal-node fan-out; 2 is the paper's design, larger
            values build the Section III.D k-ary variant (slower fast-first
            sampling; kept for the ablation).
    """

    key_fields: tuple[str, ...]
    height: int | None = None
    target_leaf_fill: float = 0.7
    memory_pages: int = 64
    seed: int = 0
    arity: int = 2

    def __post_init__(self) -> None:
        if isinstance(self.key_fields, str):
            object.__setattr__(self, "key_fields", (self.key_fields,))
        if not self.key_fields:
            raise IndexBuildError("need at least one key field")
        if self.arity < 2:
            raise IndexBuildError(f"arity must be >= 2, got {self.arity}")


@dataclass
class AceBuildReport:
    """What construction did, for tests, docs, and benchmarks."""

    height: int = 0
    num_leaves: int = 0
    num_records: int = 0
    mean_section_size: float = 0.0
    build_seconds: float = 0.0
    io: DiskStats = field(default_factory=DiskStats)


def build_ace_tree(source: HeapFile, params: AceBuildParams) -> AceTree:
    """Bulk-build an ACE Tree over ``source`` on the same simulated disk.

    The source heap file is left intact; the tree occupies new pages.
    """
    disk = source.disk
    if source.num_records == 0:
        raise IndexBuildError("cannot build an ACE Tree over an empty relation")
    start_stats = disk.stats.snapshot()
    start_clock = disk.clock

    dims = len(params.key_fields)
    arity = params.arity
    height = params.height
    if height is None:
        height = choose_height(
            source.num_records,
            source.schema.record_size,
            disk.page_size,
            target_fill=params.target_leaf_fill,
            arity=arity,
        )
    if height < 2:
        raise IndexBuildError(f"height must be >= 2, got {height}")
    if dims > height - 1:
        raise IndexBuildError(
            f"{dims}-d keys need height >= {dims + 1}, got {height}"
        )

    key_of = source.schema.keys_getter(params.key_fields)

    # ---- Phase 1: split keys -------------------------------------------
    with TRACER.span(
        "ace_build.phase1", disk=disk, records=source.num_records, height=height
    ):
        if dims == 1:
            # A scalar sort key orders records identically to the 1-tuple
            # key ((a,) < (b,) iff a < b); declaring it as ``key_field``
            # lets the sort pull keys straight from packed pages.
            scalar_key = source.schema.key_getter(params.key_fields[0])
            phase1_sorted = external_sort(
                source,
                memory_pages=params.memory_pages,
                name="ace.phase1",
                key_field=params.key_fields[0],
            )
            with TRACER.span("ace_build.split_keys", disk=disk):
                domain, splits = _splits_by_rank(
                    phase1_sorted, scalar_key, height, arity
                )
            phase2_input = phase1_sorted
            free_phase2_input = True
        else:
            with TRACER.span("ace_build.split_keys", disk=disk):
                domain, splits = _splits_in_memory(
                    source, key_of, height, dims, arity
                )
            phase2_input = source
            free_phase2_input = False

    geometry = TreeGeometry(domain, splits, arity=arity)

    # ---- Phase 2: random section / leaf assignment + reorganization ----
    num_leaves = geometry.num_leaves
    cell_counts = [0] * num_leaves  # tallied by per-record decorate
    located: list[np.ndarray] = []  # cells located by decorate_view
    assign_rng = derive_random(params.seed, "ace-assign")
    getrandbits = assign_rng.getrandbits
    if dims == 1:
        # Specialized descent: bare key in, plain comparisons down the tree.
        locate_scalar = geometry.scalar_leaf_locator()
        key_index = source.schema.field_index(params.key_fields[0])
        cell_of = lambda record: locate_scalar(record[key_index])  # noqa: E731
    else:
        locate_leaf = geometry.leaf_locator()
        cell_of = lambda record: locate_leaf(key_of(record))  # noqa: E731
    slots_per_section = [arity ** (height - s) for s in range(height + 1)]
    # Rejection-sampling bit widths for the two uniform draws below.  The
    # inlined loops draw exactly the bits Random._randbelow would, so the
    # random stream — and with it every figure — is unchanged; they only
    # drop the randint -> randrange -> _randbelow call-frame tower from a
    # path that runs once per record.
    section_bits = height.bit_length()
    slot_bits = [slots.bit_length() for slots in slots_per_section]

    def decorate(record: Record) -> Record:
        cell = cell_of(record)
        cell_counts[cell] += 1
        # section = assign_rng.randint(1, height)
        r = getrandbits(section_bits)
        while r >= height:
            r = getrandbits(section_bits)
        section = 1 + r
        slots = slots_per_section[section]
        if slots > 1:
            # leaf slot = assign_rng.randrange(slots)
            bits = slot_bits[section]
            s = getrandbits(bits)
            while s >= slots:
                s = getrandbits(bits)
            leaf = (cell // slots) * slots + s
        else:
            leaf = cell
        return (leaf, section) + record

    decorated_schema = Schema(
        [
            SchemaField(source.schema.fresh_field_name("leaf_"), "i8"),
            SchemaField(source.schema.fresh_field_name("section_"), "i8"),
        ]
        + list(source.schema.fields)
    )
    # A decorated row: the two packed i8 prefixes, then the original
    # packed record.
    record_size = source.schema.record_size
    dec_dtype = np.dtype(
        [("leaf", "<i8"), ("section", "<i8"), ("rest", f"V{record_size}")]
    )

    # Sort key: (leaf, section) packed into one int.  Sections run 1..height
    # < height + 1, so ``leaf * (height + 1) + section`` orders identically
    # to the tuple key while giving the sort machine-word keys.
    section_span = height + 1

    # Page-batched decorate for the sort's fast path: leaf cells located
    # for a whole page at once, rows moved as bytes.  The per-record RNG
    # loop is kept verbatim so the random stream — and every figure — is
    # unchanged.
    decorate_view = None
    if dims == 1:
        key_kind = source.schema.fields[key_index].kind
        array_locate = geometry.array_leaf_locator(key_kind)
        if array_locate is not None:
            src_dtype = source.schema.numpy_dtype()
            key_name = params.key_fields[0]
            rest_dtype = dec_dtype["rest"]

            def decorate_view(view):
                count = view.count
                keys_col = np.frombuffer(
                    view.payload, dtype=src_dtype, count=count
                )[key_name]
                cells = array_locate(keys_col)
                located.append(cells)
                leafs: list[int] = []
                sections: list[int] = []
                add_leaf = leafs.append
                add_section = sections.append
                for cell in cells.tolist():
                    r = getrandbits(section_bits)
                    while r >= height:
                        r = getrandbits(section_bits)
                    section = 1 + r
                    slots = slots_per_section[section]
                    if slots > 1:
                        bits = slot_bits[section]
                        s = getrandbits(bits)
                        while s >= slots:
                            s = getrandbits(bits)
                        add_leaf((cell // slots) * slots + s)
                    else:
                        add_leaf(cell)
                    add_section(section)
                dec = np.empty(count, dtype=dec_dtype)
                dec["leaf"] = leafs
                dec["section"] = sections
                dec["rest"] = np.frombuffer(
                    view.payload, dtype=rest_dtype, count=count
                )
                return dec.tobytes(), dec["leaf"] * section_span + dec["section"]

    def build_leaves(blocks: Iterator[list[Record] | PageView]) -> LeafStore:
        """Write every leaf from the merged rows, which arrive sorted by
        (leaf, section): a leaf's rows are consecutive and already in
        section order, so its payload is their record bytes as they come
        and its section counts a tally of their section column.

        A leaf is written when the first row of the next leaf arrives, or
        at the end, as a record-at-a-time sink would write it: blocks end
        at the merge's page reads, so the leaf still in progress at a
        block's end waits for the next block (after the read).  List
        blocks are packed once on entry.
        """
        writer = LeafStoreWriter(disk, source.schema, height, num_leaves)
        append_leaf = writer.append_leaf
        current = -1
        counts: list[int] = []
        parts: list = []
        for block in blocks:
            if isinstance(block, PageView):
                payload = block.payload
            else:
                payload = decorated_schema.pack_many(block)
            rows = np.frombuffer(payload, dtype=dec_dtype, count=len(block))
            rest = memoryview(rows["rest"].tobytes())
            start = 0
            for i, (leaf, section) in enumerate(
                zip(rows["leaf"].tolist(), rows["section"].tolist())
            ):
                if leaf != current:
                    parts.append(rest[start * record_size:i * record_size])
                    if current >= 0:
                        append_leaf(current, counts, b"".join(parts))
                    current, counts, parts, start = leaf, [0] * height, [], i
                counts[section - 1] += 1
            parts.append(rest[start * record_size:])
        if current >= 0:
            append_leaf(current, counts, b"".join(parts))
        return writer.finish()

    with TRACER.span(
        "ace_build.phase2", disk=disk, records=source.num_records,
        leaves=num_leaves,
    ):
        leaf_store = external_sort_to_sink(
            phase2_input,
            key=lambda d: d[0] * section_span + d[1],
            sink=build_leaves,
            memory_pages=params.memory_pages,
            free_source=free_phase2_input,
            transform=decorate,
            output_schema=decorated_schema,
            view_transform=decorate_view,
        )
    cell_hist = np.bincount(
        np.concatenate(located) if located else np.zeros(0, dtype=np.intp),
        minlength=num_leaves,
    )
    geometry.attach_counts(
        [c + int(h) for c, h in zip(cell_counts, cell_hist)]
    )

    report = AceBuildReport(
        height=height,
        num_leaves=num_leaves,
        num_records=source.num_records,
        mean_section_size=expected_section_size(
            source.num_records, height, arity=arity
        ),
        build_seconds=disk.clock - start_clock,
        io=disk.stats.snapshot() - start_stats,
    )
    return AceTree(
        geometry=geometry,
        leaf_store=leaf_store,
        schema=source.schema,
        key_fields=params.key_fields,
        num_records=source.num_records,
        build_report=report,
    )


# ---------------------------------------------------------------------------
# Phase 1 helpers
# ---------------------------------------------------------------------------


def _splits_by_rank(
    sorted_file: HeapFile, key_of, height: int, arity: int = 2
) -> tuple[Box, list[list[tuple[float, ...]]]]:
    """Quantile boundaries by rank from a key-sorted file (1-D Phase 1).

    ``key_of`` maps a record to its scalar key value.

    The ``i``-th boundary (1-based) of node ``j`` at level ``s`` is the key
    at rank ``(j * arity + i) * n // arity^s`` of the sorted order — the
    equi-depth quantiles of that node's data span (medians for arity 2,
    exactly Figure 7).  All required ranks are fetched in one
    skip-sequential pass: the distinct ranks are sorted once and grouped by
    the page that holds them, and each such page is read once, in ascending
    page order, to look up only its own ranks.  The pick-up costs
    O(ranks + pages) comparisons, and which pages it reads, in what order,
    and so what it charges depend only on the set of ranks.
    """
    n = sorted_file.num_records
    wanted: set[int] = {0, n - 1}  # domain bounds
    for level in range(1, height):
        for j in range(arity ** (level - 1)):
            for i in range(1, arity):
                wanted.add(((j * arity + i) * n) // arity ** level)

    per_page = sorted_file.records_per_page
    keys_at_rank: dict[int, float] = {}
    for page_index, page_ranks in groupby(
        sorted(wanted), key=lambda rank: rank // per_page
    ):
        records = sorted_file.read_page_records(page_index)
        base = page_index * per_page
        for rank in page_ranks:
            keys_at_rank[rank] = key_of(records[rank - base])

    lo, hi = keys_at_rank[0], keys_at_rank[n - 1]
    domain = Box.closed([lo], [hi])

    splits: list[list[tuple[float, ...]]] = []
    for level in range(1, height):
        level_splits: list[tuple[float, ...]] = []
        for j in range(arity ** (level - 1)):
            boundaries = []
            for i in range(1, arity):
                rank = ((j * arity + i) * n) // arity ** level
                boundaries.append(keys_at_rank[rank])
            level_splits.append(tuple(boundaries))
        splits.append(level_splits)
    return domain, splits


def _splits_in_memory(
    source: HeapFile, key_of, height: int, dims: int, arity: int = 2
) -> tuple[Box, list[list[tuple[float, ...]]]]:
    """Recursive k-d quantiles over an in-memory key projection (Section VII).

    One sequential scan projects the key columns; each level then splits
    every partition at the equi-depth quantiles of the level's axis,
    exactly mirroring the paper's k-d construction ("for each of the
    resulting partitions of the dataset, we calculate the median of all
    the a2 values").
    """
    keys = np.empty((source.num_records, dims), dtype=np.float64)
    row = 0
    for record in source.scan():
        keys[row] = key_of(record)
        row += 1

    domain = Box.closed(keys.min(axis=0).tolist(), keys.max(axis=0).tolist())
    splits: list[list[tuple[float, ...]]] = []
    partitions: list[tuple[np.ndarray, Box]] = [(keys, domain)]
    for level in range(1, height):
        axis = (level - 1) % dims
        source.disk.charge_records(sum(len(part) for part, _ in partitions))
        level_splits: list[tuple[float, ...]] = []
        next_partitions: list[tuple[np.ndarray, Box]] = []
        for part, box in partitions:
            side = box.sides[axis]
            if len(part) == 0:
                # Empty partition: split anywhere valid; even spacing keeps
                # the geometry non-degenerate.
                if math.isfinite(side.width):
                    boundaries = tuple(
                        side.lo + side.width * i / arity for i in range(1, arity)
                    )
                else:
                    boundaries = tuple(side.lo for _ in range(1, arity))
            else:
                vals = np.sort(part[:, axis])
                boundaries = tuple(
                    float(
                        min(max(vals[(len(vals) * i) // arity], side.lo), side.hi)
                    )
                    for i in range(1, arity)
                )
            boundaries = tuple(
                max(boundaries[:i + 1]) for i in range(len(boundaries))
            )  # enforce ascending after clamping
            level_splits.append(boundaries)
            remainder_box = box
            previous = side.lo
            if len(part):
                vals_col = part[:, axis]
            for i, boundary in enumerate(boundaries):
                low_box, remainder_box = remainder_box.split_at(axis, boundary)
                if len(part):
                    mask = (vals_col >= previous) & (vals_col < boundary)
                    next_partitions.append((part[mask], low_box))
                else:
                    next_partitions.append((part, low_box))
                previous = boundary
            if len(part):
                mask = vals_col >= previous
                next_partitions.append((part[mask], remainder_box))
            else:
                next_partitions.append((part, remainder_box))
        splits.append(level_splits)
        partitions = next_partitions
    return domain, splits

