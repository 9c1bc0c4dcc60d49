"""Node views of the ACE Tree.

The on-disk reality of the tree is the :class:`TreeGeometry` (split keys +
counts) and the serialized leaf store; these classes are the typed views the
query algorithms and tests work with.

A leaf node (paper Section III.A) has ``h`` *sections*; section ``s`` holds
a Bernoulli random sample of every record whose key falls in the box of the
leaf's level-``s`` ancestor.  Section sizes are variable — fixing them would
destroy the appendability/combinability properties (paper Section V.F) — so
a leaf is a variable-size byte object that may span disk pages.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.intervals import Box
from ..core.records import PageView, Record, Schema
from .geometry import TreeGeometry

__all__ = ["LeafView", "InternalNodeView"]


class LeafView:
    """A zero-copy columnar view of one serialized leaf.

    The one in-memory form of a leaf.  It keeps the leaf's record payload
    as raw bytes and exposes it through
    :class:`~repro.core.records.PageView` — key columns come out as numpy
    views, and records are only decoded when a consumer asks
    (``page.records`` / ``section_records``).  This is the handle the query
    hot path and the sample-reuse cache share: both operate on whole cells
    as column batches and defer per-record materialization.

    The record payload is contiguous: section ``s`` (1-based) occupies
    rows ``starts[s-1]:starts[s]`` of the leaf's record array.
    """

    __slots__ = ("index", "schema", "counts", "starts", "byte_size",
                 "page", "_starts_array")

    def __init__(
        self,
        index: int,
        schema: Schema,
        payload: bytes | memoryview,
        counts: tuple[int, ...],
        byte_size: int | None = None,
    ) -> None:
        self.index = index
        self.schema = schema
        self.counts = counts
        starts = [0]
        for n in counts:
            starts.append(starts[-1] + n)
        self.starts: tuple[int, ...] = tuple(starts)
        #: Serialized leaf size (header + counts + records); what the
        #: sample cache charges against its byte budget.
        self.byte_size = (
            byte_size if byte_size is not None
            else starts[-1] * schema.record_size
        )
        self.page = PageView(schema, payload, starts[-1])
        self._starts_array = None

    @property
    def starts_array(self):
        """``starts`` as an int64 ndarray, built once per view.

        The per-leaf filter pass searchsorts the matched row numbers
        against this; caching it keeps the (memoized) view free of a
        repeated tuple->array conversion on every query."""
        if self._starts_array is None:
            self._starts_array = np.asarray(self.starts, dtype=np.int64)
        return self._starts_array

    @property
    def height(self) -> int:
        """Number of sections (the tree height ``h``)."""
        return len(self.counts)

    @property
    def num_records(self) -> int:
        return self.starts[-1]

    def section_records(self, s: int) -> tuple[Record, ...]:
        """Fully-decoded records of section ``s`` (1-based, the paper's L.S_s)."""
        if not 1 <= s <= len(self.counts):
            raise IndexError(f"section {s} out of range 1..{len(self.counts)}")
        return tuple(self.page.records[self.starts[s - 1]:self.starts[s]])


@dataclass(frozen=True, slots=True)
class InternalNodeView:
    """A read-only view of one internal node, in the paper's vocabulary.

    Carries the node's range ``R``, split key ``k``, and the child record
    counts ``cnt_l`` / ``cnt_r`` used by online aggregation to size the
    population being sampled.
    """

    level: int
    index: int
    box: Box
    key: float
    count_left: int
    count_right: int

    @staticmethod
    def from_geometry(
        geometry: TreeGeometry, level: int, index: int
    ) -> "InternalNodeView":
        """Materialize the view of internal node (level, index)."""
        return InternalNodeView(
            level=level,
            index=index,
            box=geometry.node_box(level, index),
            key=geometry.split_key(level, index),
            count_left=geometry.node_count(level + 1, 2 * index),
            count_right=geometry.node_count(level + 1, 2 * index + 1),
        )

    @property
    def count(self) -> int:
        """Total records under this node."""
        return self.count_left + self.count_right
