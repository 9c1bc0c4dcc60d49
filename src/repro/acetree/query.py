"""The ACE Tree query algorithm (paper Section VI): Shuttle + Combine.

The stream retrieves leaves via repeated root-to-leaf *stabs*.  At each
internal node a stab prefers, in order:

1. a child that is not yet exhausted over one that is;
2. a child whose box overlaps the query over one that does not;
3. otherwise the child *not* taken the last time this node was traversed
   (the per-node toggle bit of Figure 10).

Rule 3 is what fetches maximally *disparate* leaves early, so that their
same-index sections tile the query range and become combinable quickly.
Rule 2 makes the traversal greedy on query-relevant leaves; once those are
exhausted the remaining leaves are drained too (shallow sections of every
leaf sample the full domain, so records matching the query can live
anywhere — a completion run must touch every leaf).

Combine (Algorithm 4) works per section index ``s``.  The level-``s`` node
boxes tile the domain; call the ones overlapping the query the *required
intervals*.  A retrieved section is a Bernoulli sample of its own interval,
so it can only be emitted once one section-``s`` cell from **every**
required interval is available — their union is then a Bernoulli sample of
a superset of the query range, and filtering it by the query yields a
uniform random sample of the matching records.  Cells that cannot be
combined yet wait in ``buckets`` (whose occupancy is exactly the paper's
Figure 15 measurement).

**Columnar hot path.**  Leaves arrive as lazy
:class:`~repro.acetree.nodes.LeafView` handles; the query filter runs once
per leaf as a vectorized mask over the leaf's key column(s), and Combine
moves whole :class:`Cell` handles (leaf view + row range + match count)
through the buckets instead of Python record lists.  Emitted batches are
likewise lazy: a :class:`SampleBatch` knows its record *count* and its
shuffle permutation, but decodes actual record tuples only when a consumer
reads ``batch.records``.  The emitted record *set* per batch and the
simulated clock are bit-identical to the historical per-record path; the
within-batch order is a uniform random permutation drawn from the stream's
seed-derived generator (:func:`repro.core.rng.derive`), vectorized so the
shuffle costs microseconds instead of a per-record Python loop.  Every
order-sensitive guarantee — determinism given the seed, per-prefix
uniformity, batch contents — is pinned by the unit tests and the testkit
differential oracle.

**Sample reuse.**  When the tree has a
:class:`~repro.storage.sample_cache.SampleCache` attached, the Shuttle
consults it before charging the disk, keyed per section cell by
``(store token, section s, level-s ancestor, leaf)``.  A full-leaf hit
skips the timed page reads entirely (charging only the per-record CPU);
a miss reads the leaf and inserts its cells.  Because each cached cell is
the exact Bernoulli sample its leaf holds for that node interval,
cache-warm streams emit the same records in the same order as cold ones.
"""

from __future__ import annotations

import math
from functools import lru_cache
from operator import itemgetter
from typing import TYPE_CHECKING, Iterator

import numpy as np

from ..core.errors import QueryError, SerializationError, StorageError
from ..core.intervals import Box
from ..core.records import Record
from ..core.rng import derive
from ..obs.context import CONTEXT
from ..obs.flight import FLIGHT
from ..obs.metrics import METRICS
from ..obs.tracer import TRACER
from .nodes import LeafView

if TYPE_CHECKING:  # pragma: no cover
    from .tree import AceTree

__all__ = ["Cell", "SampleBatch", "SampleStream", "make_filter"]

#: Sample-count threshold for the time-to-first-k histogram (how fast the
#: stream delivers a usable first sample, on the simulated clock).
_FIRST_K = 100
_TTFK_BOUNDS = (0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
                1.0, 2.5, 5.0)
_STAB_DEPTH_BOUNDS = (1, 2, 3, 4, 6, 8, 12, 16)

_INT64_MIN = -(2 ** 63)
_INT64_MAX = 2 ** 63 - 1


@lru_cache(maxsize=32)
def _stab_level_names(height: int) -> tuple[tuple[str, str, str], ...]:
    """``stab.level.{L}.{overlap,drain,pruned}`` counter names, indexed by L.

    Shared by every stream over a tree of *height*, so a traced run holds
    one copy per height, not one per stream.
    """
    return tuple(
        tuple(f"stab.level.{level}.{branch}"
              for branch in ("overlap", "drain", "pruned"))
        for level in range(height)
    )


def make_filter(tree: "AceTree", query: Box):
    """A ``records -> matching list`` filter specialized per query.

    Same result, in the same order, as keeping each record whose key point
    passes ``query.contains_point`` (every interval is half-open), with the
    per-record call tower flattened for the 1-D common case.  The stream's
    scalar section path and the sample view's delta both filter with it.
    """
    if len(tree.key_fields) == 1:
        get = tree.schema.key_getter(tree.key_fields[0])
        lo, hi = query.sides[0].lo, query.sides[0].hi
        return lambda records: [r for r in records if lo <= get(r) < hi]
    key_of = tree.schema.keys_getter(tree.key_fields)
    contains = query.contains_point
    return lambda records: [r for r in records if contains(key_of(r))]


class Cell:
    """The matching records of one (leaf, section) cell, decoded on demand.

    A lazy cell holds the leaf view and its slice of the leaf's matched-row
    list (computed once per leaf by the vectorized filter);
    ``materialize()`` decodes only what is needed — the leaf's record
    payload is batch-decoded once per view (and cached there, so every
    later cell of the same leaf is a plain list pick), producing tuples
    identical, in identical file order, to filtering the eagerly-decoded
    section.  An eager cell wraps an already-filtered record list (the
    scalar fallback path).
    """

    __slots__ = ("_leaf", "_rows", "_lo", "_hi", "_count", "_records")

    def __init__(self, leaf, rows, lo, hi, count, records):
        self._leaf = leaf
        self._rows = rows
        self._lo = lo
        self._hi = hi
        self._count = count
        self._records = records

    @classmethod
    def lazy(cls, leaf: LeafView, rows: list, lo: int, hi: int) -> "Cell":
        """``rows[lo:hi]`` are the leaf-local matching row numbers."""
        return cls(leaf, rows, lo, hi, hi - lo, None)

    @classmethod
    def eager(cls, records: list) -> "Cell":
        return cls(None, None, 0, 0, len(records), records)

    def __len__(self) -> int:
        return self._count

    def __iter__(self):
        return iter(self.materialize())

    def materialize(self) -> list[Record]:
        """Decode (and cache) the cell's matching records."""
        if self._records is None:
            if self._count == 0:
                self._records = []
            else:
                decoded = self._leaf.page.records
                rows = self._rows
                self._records = [decoded[i] for i in rows[self._lo:self._hi]]
            self._leaf = None
            self._rows = None
        return self._records


#: Shared zero-record cell.  Sections with no matching rows still have to
#: be *filed* (Combine needs one cell from every required interval before
#: a set can emit), but they all materialize to the same empty sequence,
#: so one immutable instance serves every such filing.
_EMPTY_CELL = Cell(None, None, 0, 0, 0, ())  # repro: shared[frozen] immutable sentinel, never mutated after construction


class SampleBatch:
    """Records that became emittable after one stab (one leaf read).

    Attributes:
        count: number of records in the batch (free — no decode needed).
        records: newly emitted sample records, in randomized order; decoded
            lazily on first access.  The concatenation of all batches so
            far is a uniform random sample of the records matching the
            query.
        clock: simulated time at which this batch became available.
        leaves_read: total leaves retrieved so far.
        buffered_records: matching records currently parked in the combine
            buckets (the paper's Figure 15 metric).
        is_final_flush: True for the last batch, which drains the buckets
            once every leaf has been read (at that point the full matching
            population has been seen, so draining preserves correctness).
    """

    __slots__ = ("clock", "leaves_read", "buffered_records", "is_final_flush",
                 "count", "_cells", "_perm", "_records")

    def __init__(self, cells, perm, clock, leaves_read, buffered_records,
                 is_final_flush=False):
        self.clock = clock
        self.leaves_read = leaves_read
        self.buffered_records = buffered_records
        self.is_final_flush = is_final_flush
        self.count = len(perm)
        self._cells = cells
        self._perm = perm
        self._records: tuple[Record, ...] | None = None

    def __len__(self) -> int:
        return self.count

    @property
    def records(self) -> tuple[Record, ...]:
        """Materialize (and cache) the batch's records, shuffled order."""
        if self._records is None:
            flat: list[Record] = []
            extend = flat.extend
            for cell in self._cells:
                recs = cell._records
                if recs is None:
                    # Cell.materialize(), inlined minus the write-back:
                    # the batch drops its cells right below, so caching
                    # the decoded list on the cell would be dead weight.
                    rows = cell._rows
                    decoded = cell._leaf.page.records
                    recs = [decoded[i] for i in rows[cell._lo:cell._hi]]
                extend(recs)
            if len(flat) > 1:
                self._records = itemgetter(*self._perm)(flat)
            else:
                self._records = tuple(flat)
            self._cells = ()
            self._perm = ()
        return self._records


class StreamStats:
    """Running counters exposed by :class:`SampleStream`."""

    __slots__ = ("leaves_read", "records_emitted", "buffered_records",
                 "stabs", "lost_leaves", "cache_hits")

    def __init__(self) -> None:
        self.leaves_read = 0
        self.records_emitted = 0
        self.buffered_records = 0
        self.stabs = 0
        self.lost_leaves = 0
        #: Leaves served wholesale from the attached sample cache.
        self.cache_hits = 0


class SampleStream:  # repro: shared[owner=serve.scheduler] one stream per traversal; interleaved streams advance only inside a serve scheduler quantum
    """Online random-sample iterator over one range query.

    Iterating yields :class:`SampleBatch` objects; :meth:`records` flattens
    them and :meth:`take` collects a fixed-size sample.  The stream is
    exhausted when every leaf has been read and the buckets drained — at
    that point the union of all emitted batches is exactly the set of
    records matching the query.
    """

    #: When True (the default), a cell whose section level has exactly one
    #: required interval is emitted straight from the filing loop instead
    #: of taking a round trip through its bucket — the drain would pop
    #: exactly that cell.  Test doubles that sabotage ``_drain_level``
    #: (:class:`repro.testkit.harness.BrokenCombineStream`) disable this so
    #: every cell still flows through their broken drain.
    _combine_fast_path = True

    def __init__(
        self,
        tree: "AceTree",
        query: Box,
        seed: int = 0,
        alternate: bool = True,
        lost_leaf_policy: str = "raise",
        vectorize: bool = True,
    ) -> None:
        if query.dims != tree.dims:
            raise QueryError(
                f"query has {query.dims} dims, tree indexes {tree.dims}"
            )
        if lost_leaf_policy not in ("raise", "skip"):
            raise QueryError(
                f"unknown lost_leaf_policy {lost_leaf_policy!r} "
                "(expected 'raise' or 'skip')"
            )
        self.tree = tree
        self.query = query
        #: Figure 10's toggle-bit behaviour.  Disabling it (always descend
        #: left among equally-eligible children) is an *ablation*: stabs
        #: stop fetching disparate leaves, combine-sets starve, and the
        #: fast-first property degrades — see benchmarks/test_ablations.py.
        self.alternate = alternate
        geometry = tree.geometry
        self._geometry = geometry
        self._store = tree.leaf_store
        self._height = geometry.height
        self._key_of = tree.schema.keys_getter(tree.key_fields)
        self._filter = make_filter(tree, query)
        #: ``LeafView -> bool ndarray`` over the leaf's rows, or ``None``
        #: when the key layout cannot be vectorized (the scalar fallback
        #: and the columnar path are record-for-record identical —
        #: property-tested in tests/acetree/test_columnar.py).
        self._mask_of = self._make_mask_filter(tree, query) if vectorize else None
        self._cache = tree.sample_cache
        #: Per-batch shuffle permutations come from this seed-derived
        #: generator; ``(seed, "ace-stream")`` fully determines the order.
        self._perm_rng = derive(seed, "ace-stream")

        # Required intervals per section level: the level-s node indexes
        # whose boxes overlap the query (Combine's covering sets), plus
        # the same sets for O(1) overlap tests in the stab loop (identical
        # predicate to geometry.node_box(...).overlaps(query)) and their
        # sizes.  Pure functions of (geometry, query) and read-only for
        # the stream's lifetime, so repeated queries share them through a
        # small memo on the tree.
        cached = tree._overlap_memo.get(query)
        if cached is None:
            required = [
                geometry.overlapping_nodes(s, query)
                for s in range(1, self._height + 1)
            ]
            cached = (required, [set(r) for r in required],
                      [len(r) for r in required])
            if len(tree._overlap_memo) < 64:
                tree._overlap_memo[query] = cached
        self._required: list[list[int]]
        self._overlap_sets: list[set[int]]
        self._required, self._overlap_sets, self._need = cached
        # buckets[s-1][j] = FIFO of arrived section-s cells for interval j.
        self._buckets: list[dict[int, list[Cell]]] = [
            {} for _ in range(self._height)
        ]
        # ready[s-1] = how many *required* level-s intervals currently have
        # a non-empty FIFO.  Combine at level s can emit exactly when
        # ready[s-1] == len(required[s-1]); maintaining the count at filing
        # and pop time makes the per-leaf drain check O(1) instead of a
        # scan over every required interval.
        self._ready: list[int] = [0] * self._height
        self._arity = geometry.arity
        # Doneness as per-level flag arrays indexed by node number
        # (``_done_flags[level - 1][index]``): a node is done once every
        # leaf below it has been read.  The stab descent tests these, and
        # analysis.check_stream checks each parent against its children.
        self._done_flags: list[bytearray] = [
            bytearray(geometry.arity ** s) for s in range(self._height)
        ]
        self._next_child: dict[tuple[int, int], int] = {}
        #: What to do when a leaf read fails after retries: ``"raise"``
        #: propagates the storage error (the default — correctness first);
        #: ``"skip"`` marks the leaf done, flags the stream degraded, and
        #: keeps sampling from the surviving leaves.
        self.lost_leaf_policy = lost_leaf_policy
        #: Leaf indexes lost to storage failures (``"skip"`` policy only).
        self.lost_leaves: list[int] = []
        self.stats = StreamStats()
        self._start_clock = tree.disk.clock
        self._first_k_recorded = False
        # Degenerate query: no overlap with the domain at all.
        self._exhausted = not geometry.domain.overlaps(query)

    @staticmethod
    def _make_mask_filter(tree: "AceTree", query: Box):
        """A ``LeafView -> bool mask`` filter, or ``None`` if unavailable.

        The mask is exactly ``[lo <= key < hi]`` per dimension.  Integer
        key columns are compared against *integer* bounds (``k >= lo`` iff
        ``k >= ceil(lo)`` and ``k < hi`` iff ``k < ceil(hi)`` for integer
        ``k``), because comparing an int64 column against a Python float
        would round keys beyond 2**53 and silently move the boundary.
        """
        if len(tree.key_fields) != query.dims:
            return None
        dims = []
        for name, side in zip(tree.key_fields, query.sides):
            kind = tree.schema.field_kind(name)
            if kind == "f8":
                dims.append((name, "f8", side.lo, side.hi))
            elif kind == "i8":
                lo, hi = side.lo, side.hi
                # +inf lower / -inf upper bound: nothing can match.
                if (math.isinf(lo) and lo > 0) or (math.isinf(hi) and hi < 0):
                    dims.append((name, "empty", None, None))
                    continue
                lo_i = None if math.isinf(lo) else math.ceil(lo)
                hi_i = None if math.isinf(hi) else math.ceil(hi)
                if (lo_i is not None and lo_i > _INT64_MAX) or (
                    hi_i is not None and hi_i <= _INT64_MIN
                ):
                    dims.append((name, "empty", None, None))
                    continue
                # Bounds beyond the representable range constrain nothing.
                if lo_i is not None and lo_i <= _INT64_MIN:
                    lo_i = None
                if hi_i is not None and hi_i > _INT64_MAX:
                    hi_i = None
                dims.append((name, "i8", lo_i, hi_i))
            else:
                return None  # bytes keys: keep the scalar path

        if len(dims) == 1 and dims[0][1] != "empty" and None not in dims[0][2:]:
            # 1-D, both bounds finite: the overwhelmingly common stab
            # query.  Same mask as the generic loop below, two ufuncs.
            name, _kind, lo, hi = dims[0]

            def mask_of_1d(leaf: LeafView):
                column = leaf.page.struct_array()[name]
                return (column >= lo) & (column < hi)

            return mask_of_1d

        def mask_of(leaf: LeafView):
            array = leaf.page.struct_array()
            mask = None
            for name, kind, lo, hi in dims:
                if kind == "empty":
                    return np.zeros(len(array), dtype=bool)
                column = array[name]
                part = None
                if lo is not None:
                    part = column >= lo
                if hi is not None:
                    upper = column < hi
                    part = upper if part is None else (part & upper)
                if part is None:
                    continue
                mask = part if mask is None else (mask & part)
            if mask is None:
                mask = np.ones(len(array), dtype=bool)
            return mask

        return mask_of

    # -- iteration -----------------------------------------------------------

    def __iter__(self) -> Iterator[SampleBatch]:
        return self

    def __next__(self) -> SampleBatch:
        if self._exhausted:
            raise StopIteration
        root_done = self._done_flags[0]
        if root_done[0]:
            return self._final_flush()
        stats = self.stats
        disk = self.tree.disk
        while True:
            with TRACER.span("ace_query.stab", disk=disk) as sp:
                leaf_index = self._stab()
                leaf = None
                if self._cache is not None:
                    leaf = self._cache_fetch(leaf_index)
                if leaf is not None:
                    # Full-leaf cache hit: every section cell is resident,
                    # so the page reads are skipped entirely; only the
                    # per-record CPU of processing the leaf is charged.
                    stats.cache_hits += 1
                    disk.charge_records(leaf.num_records)
                    if sp is not None:
                        sp.attrs["cache_hit"] = True
                else:
                    try:
                        leaf = self._store.read_leaf_view(leaf_index)
                    except (StorageError, SerializationError):
                        # Retries are exhausted by the time the error reaches
                        # the Shuttle, so the leaf is gone for good: either
                        # crash the query or sample on without it.
                        if self.lost_leaf_policy != "skip":
                            raise
                        self._note_lost_leaf(leaf_index, sp)
                        leaf = None
                    else:
                        if self._cache is not None:
                            self._cache_insert(leaf_index, leaf)
                if leaf is not None:
                    stats.leaves_read += 1
                    with TRACER.span("ace_query.combine") as combine_sp:
                        emitted = self._process_leaf(leaf_index, leaf)
                        emitted_count = sum([c._count for c in emitted])
                        if combine_sp is not None:
                            combine_sp.attrs["emitted"] = emitted_count
                            combine_sp.attrs["buffered"] = stats.buffered_records
                    if sp is not None:
                        sp.attrs["leaf"] = leaf_index
                        sp.attrs["emitted"] = emitted_count
                        sp.attrs["buffered"] = stats.buffered_records
            if leaf is not None:
                break
            if root_done[0]:
                # Every remaining leaf was lost; drain what combined.
                return self._final_flush()
        perm = self._perm_rng.permutation(emitted_count).tolist()
        stats.records_emitted += emitted_count
        if TRACER.enabled:
            self._record_query_metrics()
        if root_done[0] and stats.buffered_records == 0:
            self._exhausted = True
        return SampleBatch(
            cells=emitted,
            perm=perm,
            clock=disk.clock,
            leaves_read=stats.leaves_read,
            buffered_records=stats.buffered_records,
        )

    def records(self) -> Iterator[Record]:
        """Flatten the stream into individual sample records."""
        for batch in self:
            yield from batch.records

    def take(self, n: int) -> list[Record]:
        """Collect the first ``n`` sample records (fewer if exhausted)."""
        out: list[Record] = []
        for batch in self:
            out.extend(batch.records)
            if len(out) >= n:
                break
        return out[:n]

    @property
    def exhausted(self) -> bool:
        return self._exhausted

    @property
    def degraded(self) -> bool:
        """True once any leaf was lost: the emitted stream can no longer be
        trusted to be a uniform sample (see :mod:`repro.obs.quality`, which
        flags monitored degraded streams instead of certifying them)."""
        return self.stats.lost_leaves > 0

    def _note_lost_leaf(self, leaf_index: int, sp) -> None:
        """Record a leaf lost to a storage failure and sample on without it."""
        self._mark_done(leaf_index)
        self.stats.lost_leaves += 1
        self.lost_leaves.append(leaf_index)
        if TRACER.enabled:
            METRICS.counter("query.lost_leaves").child(CONTEXT.label_key()).inc()
        if sp is not None:
            sp.attrs["lost_leaf"] = leaf_index
        # A lost leaf means recovery already exhausted its retries (or hit
        # unrecoverable corruption): snapshot the last moments if armed.
        FLIGHT.trip("lost-leaf")

    def _record_query_metrics(self) -> None:
        """Per-batch metric updates; only called while tracing is enabled."""
        key = CONTEXT.label_key()
        METRICS.gauge("query.buffered_records").child(key).set(
            self.stats.buffered_records
        )
        if not self._first_k_recorded and self.stats.records_emitted >= _FIRST_K:
            self._first_k_recorded = True
            METRICS.histogram(
                f"query.time_to_first_{_FIRST_K}_sim_s", _TTFK_BOUNDS
            ).child(key).observe(self.tree.disk.clock - self._start_clock)

    def population_estimate(self) -> float:
        """Estimated matching-record count, from internal-node counts."""
        return self.tree.estimate_count(self.query)

    # -- sample cache ----------------------------------------------------------

    def _cache_keys(self, leaf_index: int) -> list[tuple]:
        """One key per section cell of the leaf.

        ``(store token, s, ancestor)`` names the level-``s`` node interval
        the cell Bernoulli-samples; the leaf index distinguishes sibling
        cells drawn for the same interval, so a cached cell is only ever
        served back as the exact population it was read from.
        """
        token = self._store.cache_token
        height, arity = self._height, self._arity
        return [
            (token, s, leaf_index // arity ** (height - s), leaf_index)
            for s in range(1, height + 1)
        ]

    def _cache_fetch(self, leaf_index: int):
        """The leaf's view if *every* section cell is resident, else None."""
        view = None
        for key in self._cache_keys(leaf_index):
            value = self._cache.get(key)
            if value is None:
                return None
            view = value
        return view

    def _cache_insert(self, leaf_index: int, view) -> None:
        """File each section cell of a freshly-read leaf into the cache."""
        record_size = self.tree.schema.record_size
        keys = self._cache_keys(leaf_index)
        overhead = max(0, view.byte_size - view.num_records * record_size)
        base = overhead // len(keys)
        for key, count in zip(keys, view.counts):
            self._cache.put(key, view, count * record_size + base)

    # -- shuttle traversal -----------------------------------------------------

    def _stab(self) -> int:
        """One root-to-leaf traversal; returns the leaf index to read.

        At each internal node: among children that are not exhausted,
        prefer those overlapping the query; break remaining ties
        round-robin (the paper's per-node alternation — a toggle bit for
        the binary tree, a rotating pointer for k-ary trees).

        While tracing, every level bumps ``stab.level.{L}.overlap`` (some
        live child overlaps the query) or ``.drain`` (none does), plus
        ``.pruned`` by the live children an overlapping sibling beat, and
        the stab ends with one ``query.stab_depth`` observation — all
        labeled by the context key, read once per stab.
        """
        self.stats.stabs += 1
        # CPU for the descent (internal nodes are memory resident).
        self.tree.disk.charge_records(self._height)
        arity = self._arity
        done_flags = self._done_flags
        overlap_sets = self._overlap_sets
        next_child = self._next_child
        alternate = self.alternate
        level, index = 1, 0
        if arity == 2:
            # Binary fast path: same choices as the generic loop below
            # (pool = [0, 1] in ascending order, so the rotating pointer
            # resolves to itself and advances to the other child), without
            # building the candidate lists.
            height = self._height
            while level < height:
                base = index + index
                flags = done_flags[level]
                overlap = overlap_sets[level]
                a0 = not flags[base]
                a1 = not flags[base + 1]
                c0 = a0 and base in overlap
                c1 = a1 and base + 1 in overlap
                if c0 != c1:
                    choice = 0 if c0 else 1
                elif c0 or (a0 and a1):
                    if alternate:
                        key = (level, index)
                        choice = next_child.get(key, 0)
                        next_child[key] = 1 - choice
                    else:
                        choice = 0
                elif a0 != a1:
                    choice = 0 if a0 else 1
                else:  # pragma: no cover - parent would be marked done
                    raise QueryError("stab reached a fully-done subtree")
                level += 1
                index = base + choice
            if TRACER.enabled:
                self._count_stab(index)
            return index
        while level < self._height:
            base = arity * index
            child_level = level + 1
            overlap = overlap_sets[child_level - 1]
            flags = done_flags[child_level - 1]
            pool = [
                c for c in range(arity)
                if not flags[base + c] and base + c in overlap
            ]
            if not pool:
                pool = [c for c in range(arity) if not flags[base + c]]
                if not pool:  # pragma: no cover - parent would be marked done
                    raise QueryError("stab reached a fully-done subtree")
            if len(pool) == 1 or not alternate:
                choice = pool[0]
            else:
                pointer = next_child.get((level, index), 0)
                # First pool member at or after the rotating pointer (the
                # pool is ascending, so this is exactly the member that
                # minimizes (c - pointer) mod arity).
                for c in pool:
                    if c >= pointer:
                        choice = c
                        break
                else:
                    choice = pool[0]
                next_child[(level, index)] = (choice + 1) % arity
            level, index = child_level, base + choice
        if TRACER.enabled:
            self._count_stab(index)
        return index

    def _count_stab(self, leaf_index: int) -> None:
        """The traced counters of a descent that ended at *leaf_index*.

        A stab reads the done flags and overlap sets but never writes
        them, so each level's view is recomputed here from the path (the
        level-``L`` node is ``leaf_index // arity ** (height - L)``): its
        live children, and among them the query-overlapping ones the
        descent preferred.  Levels are counted in descent order, then one
        ``query.stab_depth`` observation; the descents stay free of
        tracing code.
        """
        key = CONTEXT.label_key()
        counter = METRICS.counter
        arity, height = self._arity, self._height
        names = _stab_level_names(height)
        done_flags = self._done_flags
        overlap_sets = self._overlap_sets
        for level in range(1, height):
            base = arity * (leaf_index // arity ** (height - level))
            flags = done_flags[level]
            overlap = overlap_sets[level]
            alive = overlapping = 0
            for node in range(base, base + arity):
                if not flags[node]:
                    alive += 1
                    if node in overlap:
                        overlapping += 1
            overlap_name, drain_name, pruned_name = names[level]
            if overlapping:
                counter(overlap_name).child(key).inc()
                if alive > overlapping:
                    # Live children deferred because a query-overlapping
                    # sibling won the descent: this stab's pruned subtrees.
                    counter(pruned_name).child(key).inc(alive - overlapping)
            else:
                counter(drain_name).child(key).inc()
        METRICS.histogram(
            "query.stab_depth", _STAB_DEPTH_BOUNDS
        ).child(key).observe(height - 1)

    def _mark_done(self, leaf_index: int) -> None:
        """Mark a leaf done and propagate doneness up the tree."""
        arity = self._arity
        done_flags = self._done_flags
        level, index = self._height, leaf_index
        done_flags[level - 1][index] = 1
        while level > 1:
            parent = index // arity
            base = arity * parent
            flags = done_flags[level - 1]
            if not all(flags[base + c] for c in range(arity)):
                break
            level, index = level - 1, parent
            done_flags[level - 1][index] = 1

    # -- combine ---------------------------------------------------------------

    def _process_leaf(self, leaf_index: int, leaf: LeafView) -> list[Cell]:
        """File the leaf's sections into buckets and emit what combines.

        On the columnar path the query filter runs *once* over the whole
        leaf (one mask over the key column); each section's cell is then a
        lazy handle into that mask.  The scalar fallback filters the
        eagerly-decoded section records instead — identical contents.
        """
        self._mark_done(leaf_index)
        rows = pos = None
        if self._mask_of is not None:
            # One vectorized filter pass over the whole leaf: the matched
            # row numbers, then each section's slice of them located with
            # a single searchsorted against the section start offsets.
            matched = self._mask_of(leaf).nonzero()[0]
            pos = matched.searchsorted(leaf.starts_array).tolist()
            rows = matched.tolist()
        emitted: list[Cell] = []
        emit = emitted.append
        ancestor = leaf_index
        arity = self._arity
        buckets = self._buckets
        overlap_sets = self._overlap_sets
        ready = self._ready
        need = self._need
        fast = self._combine_fast_path
        buffered = 0
        for s in range(self._height, 0, -1):
            i = s - 1
            if rows is not None:
                lo, hi = pos[i], pos[s]
                if lo == hi:
                    cell = _EMPTY_CELL
                    count = 0
                else:
                    count = hi - lo
                    cell = Cell(leaf, rows, lo, hi, count, None)
            else:
                cell = self._eager_cell(leaf, s)
                count = cell._count
            bucket = buckets[i]
            fifo = bucket.get(ancestor)
            if fast and need[i] == 1 and not fifo and ancestor in overlap_sets[i]:
                # Solo required interval with an empty FIFO: filing this
                # cell would make the level ready and the drain below
                # would pop exactly it — emit directly.  (Batch contents
                # are unchanged; the within-batch order is randomized by
                # the permutation regardless.)
                emit(cell)
            else:
                if fifo is None:
                    bucket[ancestor] = fifo = []
                if not fifo and ancestor in overlap_sets[i]:
                    ready[i] += 1
                fifo.append(cell)
                buffered += count
            ancestor //= arity
        self.stats.buffered_records += buffered
        for s in range(1, self._height + 1):
            if ready[s - 1] >= need[s - 1] and need[s - 1]:
                emitted.extend(self._drain_level(s))
        return emitted

    def _eager_cell(self, leaf: LeafView, s: int) -> Cell:
        """Scalar fallback: decode the section and filter record by record."""
        # The sanctioned non-vectorized path (bytes keys / vectorize=False).
        return Cell.eager(self._filter(leaf.section_records(s)))  # repro: allow[HOT001]

    def _drain_level(self, s: int) -> list[Cell]:
        """Emit combine-sets at section level ``s`` while complete ones exist.

        ``ready[s-1]`` counts the required intervals with a waiting cell,
        so the common no-emit case is one integer compare.
        """
        i = s - 1
        required = self._required[i]
        need = len(required)
        ready = self._ready
        if ready[i] < need or not need:
            return []
        bucket = self._buckets[i]
        if need == 1:
            # Solo required interval (every level where the query fits in
            # one node box): the loop below would pop the FIFO dry one
            # cell at a time — take it wholesale instead, same cells in
            # the same order.
            fifo = bucket[required[0]]
            out = fifo[:]
            del fifo[:]
            ready[i] = 0
            drained = 0
            for cell in out:
                drained += cell._count
            self.stats.buffered_records -= drained
            return out
        out: list[Cell] = []
        drained = 0
        while ready[i] == need:
            for j in required:
                fifo = bucket[j]
                cell = fifo.pop(0)
                if not fifo:
                    ready[i] -= 1
                drained += cell._count
                out.append(cell)
        self.stats.buffered_records -= drained
        return out

    def _final_flush(self) -> SampleBatch:
        """Drain every remaining bucket once all leaves have been read."""
        with TRACER.span("ace_query.final_flush", disk=self.tree.disk) as sp:
            leftovers: list[Cell] = []
            for bucket in self._buckets:
                for cells in bucket.values():
                    leftovers.extend(cells)
                bucket.clear()
            self.stats.buffered_records = 0
            self._ready = [0] * self._height
            count = sum(map(len, leftovers))
            perm = self._perm_rng.permutation(count).tolist()
            self.stats.records_emitted += count
            if sp is not None:
                sp.attrs["emitted"] = count
        self._exhausted = True
        return SampleBatch(
            cells=leftovers,
            perm=perm,
            clock=self.tree.disk.clock,
            leaves_read=self.stats.leaves_read,
            buffered_records=0,
            is_final_flush=True,
        )
