"""The ACE Tree facade: a built sample index over one relation.

An :class:`AceTree` bundles the Phase-1 geometry (split keys + counts), the
Phase-2 leaf store, and the schema/key metadata, and exposes the two
operations a materialized sample view needs:

* :meth:`sample` — an online random-sample stream for a range query
  (the Shuttle/Combine algorithm of paper Section VI);
* :meth:`estimate_count` — population-size estimation from the
  internal-node counts (used by online aggregation, Section III.B).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from ..core.errors import QueryError
from ..core.intervals import Box, Interval
from ..core.records import Schema
from ..storage.disk import SimulatedDisk
from ..storage.sample_cache import SampleCache
from .geometry import TreeGeometry
from .nodes import InternalNodeView
from .storage import LeafStore

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (query imports tree types)
    from .build import AceBuildReport
    from .query import SampleStream

__all__ = ["AceTree"]


@dataclass
class AceTree:
    """A bulk-built ACE Tree (see :func:`repro.acetree.build_ace_tree`)."""

    geometry: TreeGeometry
    leaf_store: LeafStore
    schema: Schema
    key_fields: tuple[str, ...]
    num_records: int
    build_report: "AceBuildReport"
    #: Optional combinable sample-reuse cache (see
    #: :mod:`repro.storage.sample_cache`).  ``None`` (the default) keeps
    #: every query cold; attach one to let overlapping queries skip page
    #: reads.  Cold-run behaviour — simulated clock, emitted contents and
    #: order — is bit-identical with or without a cache attached.
    sample_cache: SampleCache | None = None

    @property
    def disk(self) -> SimulatedDisk:
        return self.leaf_store.disk

    @property
    def height(self) -> int:
        return self.geometry.height

    @property
    def dims(self) -> int:
        return self.geometry.dims

    @property
    def num_leaves(self) -> int:
        return self.geometry.num_leaves

    @property
    def num_pages(self) -> int:
        """Disk pages occupied by the tree (leaves + directory)."""
        return self.leaf_store.num_pages

    # -- queries -------------------------------------------------------------

    def query(self, *bounds: tuple[float, float] | None) -> Box:
        """Build a closed range-query box over the indexed attributes.

        One ``(lo, hi)`` pair per key field, in ``key_fields`` order; pass
        ``None`` to leave a dimension unconstrained.  ``tree.query((a, b))``
        is the paper's ``WHERE key BETWEEN a AND b``.
        """
        if len(bounds) != self.dims:
            raise QueryError(
                f"need {self.dims} bound pair(s) for key fields "
                f"{self.key_fields}, got {len(bounds)}"
            )
        sides = []
        for pair, side in zip(bounds, self.geometry.domain.sides):
            if pair is None:
                sides.append(side)
            else:
                lo, hi = pair
                if lo > hi:
                    raise QueryError(f"range lo={lo} exceeds hi={hi}")
                sides.append(Interval.closed(lo, hi))
        return Box(tuple(sides))

    def sample(
        self,
        query: Box,
        seed: int = 0,
        alternate: bool = True,
        lost_leaf_policy: str = "raise",
    ) -> "SampleStream":
        """Open an online random-sample stream over ``query``.

        At every point of the stream's progress, the set of records emitted
        so far is a uniform random sample (without replacement) of the
        records matching the query; run to exhaustion it returns exactly
        the matching set.  ``alternate=False`` disables the Shuttle's
        child-alternation (an ablation knob; correctness is unaffected but
        early sampling rates collapse).  ``lost_leaf_policy="skip"`` lets
        the stream survive persistent leaf-read failures by skipping the
        lost leaf and flagging itself ``degraded`` instead of raising.
        """
        from .query import SampleStream

        return SampleStream(
            self, query, seed=seed, alternate=alternate,
            lost_leaf_policy=lost_leaf_policy,
        )

    def attach_sample_cache(self, cache: SampleCache | None = None) -> SampleCache:
        """Attach (creating if needed) a combinable sample-reuse cache.

        Subsequent :meth:`sample` streams look each leaf up in the cache
        once before charging the disk, and file every leaf they read from
        disk into it as one entry; repeated or overlapping range queries
        then skip page reads for every leaf still resident.  The cache's
        ``hits``, ``misses``, ``insertions`` and ``evictions`` therefore
        count leaves.  Returns the attached cache (so callers can read
        ``cache.stats``).
        """
        if cache is None:
            cache = SampleCache()
        self.sample_cache = cache
        return cache

    def detach_sample_cache(self) -> None:
        """Detach the sample cache; later streams run fully cold again."""
        self.sample_cache = None

    def key_of(self, record: Sequence) -> tuple:
        """Extract the indexed key tuple from a record."""
        return self.schema.keys_getter(self.key_fields)(record)

    # -- statistics ------------------------------------------------------------

    def estimate_count(self, query: Box) -> float:
        """Estimated number of records matching ``query`` (from node counts)."""
        return self.geometry.estimate_count(query)

    def selectivity(self, query: Box) -> float:
        """Estimated fraction of the relation matching ``query``."""
        if self.num_records == 0:
            return 0.0
        return self.estimate_count(query) / self.num_records

    def internal_node(self, level: int, index: int) -> InternalNodeView:
        """The paper-shaped view of internal node ``I_{level,index+1}``."""
        return InternalNodeView.from_geometry(self.geometry, level, index)

    def free(self) -> None:
        """Release the tree's disk pages."""
        self.leaf_store.free()
