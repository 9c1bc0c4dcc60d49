"""Materialized sample views: the paper's user-facing abstraction.

A materialized sample view (Section I) is an indexed, materialized view of a
table that supports online random sampling from arbitrary range predicates
over its indexed attribute(s).  This module is the facade over the ACE Tree
that realizes it, including the differential-file update path the paper
sketches in Section IX: newly inserted records accumulate in a *delta*
(kept in randomly permuted order), and samples are drawn from the primary
ACE Tree and the delta with hypergeometric interleaving, so the merged
stream remains a uniform sample of the updated view.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterator, Sequence

from ..acetree import AceBuildParams, AceTree, build_ace_tree
from ..acetree.query import make_filter
from ..baselines.base import Batch
from ..core.intervals import Box
from ..core.records import Record
from ..core.rng import derive_random
from ..storage.heapfile import HeapFile

__all__ = ["MaterializedSampleView", "create_sample_view"]


def create_sample_view(
    name: str,
    source: HeapFile,
    index_on: Sequence[str],
    height: int | None = None,
    memory_pages: int = 64,
    seed: int = 0,
) -> "MaterializedSampleView":
    """``CREATE MATERIALIZED SAMPLE VIEW name AS SELECT * FROM source
    INDEX ON index_on...`` — builds the backing ACE Tree."""
    params = AceBuildParams(
        key_fields=tuple(index_on),
        height=height,
        memory_pages=memory_pages,
        seed=seed,
    )
    tree = build_ace_tree(source, params)
    return MaterializedSampleView(name=name, tree=tree, seed=seed, height=height)


@dataclass
class MaterializedSampleView:
    """An ACE-Tree-backed sample view with a differential update path.

    ``height`` is the tree height every :meth:`refresh` rebuilds with;
    ``None`` re-chooses it for the refreshed record count.
    """

    name: str
    tree: AceTree
    seed: int = 0
    height: int | None = None

    def __post_init__(self) -> None:
        self._delta: list[Record] = []

    # -- schema ---------------------------------------------------------------

    @property
    def key_fields(self) -> tuple[str, ...]:
        return self.tree.key_fields

    @property
    def num_records(self) -> int:
        """Records visible through the view (base + delta)."""
        return self.tree.num_records + len(self._delta)

    @property
    def delta_size(self) -> int:
        return len(self._delta)

    def query(self, *bounds: tuple[float, float] | None) -> Box:
        """Closed range query over the indexed attributes (see AceTree.query)."""
        return self.tree.query(*bounds)

    # -- updates ---------------------------------------------------------------

    def insert(self, records: Sequence[Record]) -> None:
        """Append new records to the differential file.

        The ACE Tree is not incrementally updatable (paper Section IX); new
        data lives in the delta until :meth:`refresh` rebuilds the tree.
        """
        for record in records:
            self.tree.schema.validate(record)
        self._delta.extend(records)

    def refresh(self, memory_pages: int = 64) -> None:
        """Rebuild the ACE Tree over base + delta (the paper's fallback for
        bulk updates: reorganize from scratch with two external sorts).

        The base records are reloaded as the leaves' packed payloads, in
        leaf order, followed by the packed delta; each page of the merged
        heap is written as soon as it fills, so leaf reads and page writes
        interleave as a record-at-a-time load would interleave them.  The
        rebuilt tree keeps the view's height and the tree's arity.
        """
        if not self._delta:
            return
        tree = self.tree
        store = tree.leaf_store
        chunks = chain(
            (store.read_leaf_payload(i) for i in range(store.num_leaves)),
            (tree.schema.pack_many(self._delta),),
        )
        merged = HeapFile.bulk_load_packed(
            tree.disk, tree.schema, chunks, name=f"{self.name}.refresh"
        )
        try:
            new_tree = build_ace_tree(
                merged,
                AceBuildParams(
                    key_fields=self.key_fields,
                    height=self.height,
                    memory_pages=memory_pages,
                    seed=self.seed + 1,
                    arity=tree.geometry.arity,
                ),
            )
        finally:
            merged.free()
        self.tree = new_tree
        tree.free()
        self._delta = []

    # -- sampling -----------------------------------------------------------------

    def sample(self, query: Box, seed: int = 0) -> Iterator[Batch]:
        """Online random sample of the view's records matching ``query``.

        With an empty delta this is exactly the ACE Tree stream.  With a
        delta, tree batches are interleaved record-by-record with the
        delta's matching records using hypergeometric probabilities
        (Section IX / Brown & Haas): each next sample comes from a
        partition with probability proportional to its remaining matching
        count, so the merged prefix stays uniform over the whole view.
        """
        if not self._delta:
            yield from self.tree.sample(query, seed=seed)
            return
        yield from self._sample_with_delta(query, seed)

    def _sample_with_delta(self, query: Box, seed: int) -> Iterator[Batch]:
        rng = derive_random(seed, "view-delta")
        disk = self.tree.disk

        delta_matching = make_filter(self.tree, query)(self._delta)
        rng.shuffle(delta_matching)
        disk.charge_records(len(self._delta))

        tree_stream = self.tree.sample(query, seed=seed)
        tree_buffer: list[Record] = []
        tree_remaining = round(self.tree.estimate_count(query))
        delta_remaining = len(delta_matching)

        def pull_tree() -> Record | None:
            nonlocal tree_remaining
            while not tree_buffer:
                batch = next(tree_stream, None)
                if batch is None:
                    return None
                tree_buffer.extend(batch.records)
            tree_remaining = max(tree_remaining - 1, 0)
            return tree_buffer.pop()

        while delta_remaining or not tree_stream.exhausted or tree_buffer:
            total = tree_remaining + delta_remaining
            take_delta = (
                delta_remaining > 0
                and (total <= 0 or rng.random() < delta_remaining / total)
            )
            if take_delta:
                record = delta_matching[len(delta_matching) - delta_remaining]
                delta_remaining -= 1
                yield Batch(records=(record,), clock=disk.clock)
                continue
            record = pull_tree()
            if record is None:
                # Tree exhausted early (estimate overshot): drain the delta.
                tree_remaining = 0
                if not delta_remaining:
                    return
                continue
            yield Batch(records=(record,), clock=disk.clock)

    def estimate_count(self, query: Box) -> float:
        """Estimated matching records across base and delta."""
        delta_count = len(make_filter(self.tree, query)(self._delta))
        return self.tree.estimate_count(query) + delta_count

    def free(self) -> None:
        self.tree.free()
        self._delta = []

