"""Split-key geometry of the ACE Tree.

The ACE Tree is a complete ``arity``-ary tree of height ``h``: levels
``1..h-1`` hold internal nodes (``arity^(s-1)`` nodes at level ``s``), and
level ``h`` holds the ``arity^(h-1)`` leaf cells.  Each internal node
carries ``arity - 1`` split boundaries; the node at level ``s``, index ``j``
covers a box, and its children partition that box at the boundaries along
the level's axis.  The paper's main design (Section III.D argues for it) is
the binary tree, ``arity = 2``; higher arities are implemented so the
binary-versus-k-ary trade-off can be measured (see
``benchmarks/test_ablations.py``).  For the k-d variant (Section VII) the
split axis cycles through the key dimensions by level; the 1-D tree is
simply the ``k = 1`` case.

:class:`TreeGeometry` is the immutable product of construction Phase 1: the
split boundaries, the per-node record counts, and the box algebra every
other ACE Tree component (construction Phase 2, the Shuttle traversal, the
Combine procedure, population estimation) is defined in terms of.

Indexing conventions used throughout:

* levels are 1-based (level 1 is the root, level ``h`` the leaves);
* node indexes at each level are 0-based, left to right;
* the level-``s`` ancestor of leaf cell ``c`` is ``c // arity^(h-s)``;
* section ``s`` of a leaf samples the box of its level-``s`` ancestor,
  so section 1 always samples the whole domain.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import Sequence

import numpy as np

from ..core.errors import IndexBuildError, QueryError
from ..core.intervals import Box, Interval

__all__ = ["TreeGeometry", "choose_height"]


def choose_height(
    num_records: int,
    record_size: int,
    page_size: int,
    target_fill: float = 0.7,
    min_height: int = 2,
    max_height: int = 40,
    arity: int = 2,
) -> int:
    """Pick the tree height so an expected leaf fits one disk page.

    The paper (Section V.C, footnote): "We choose a value for the height of
    the tree in such a manner that the expected size of a leaf node does not
    exceed one logical disk block."  The expected leaf holds
    ``num_records / arity^(h-1)`` records, so we choose the smallest ``h``
    whose expected leaf payload is at most ``target_fill * page_size``.
    """
    if num_records <= 0:
        raise IndexBuildError("cannot build an ACE Tree over an empty relation")
    if not 0 < target_fill <= 1:
        raise IndexBuildError(f"target_fill must be in (0, 1], got {target_fill}")
    if arity < 2:
        raise IndexBuildError(f"arity must be >= 2, got {arity}")
    budget = target_fill * page_size
    height = min_height
    while height < max_height:
        expected_leaf_bytes = num_records / arity ** (height - 1) * record_size
        if expected_leaf_bytes <= budget:
            break
        height += 1
    return height


def _normalize_splits(
    splits: Sequence[Sequence], arity: int
) -> tuple[tuple[tuple[float, ...], ...], ...]:
    """Coerce per-level split lists to per-node boundary tuples.

    For the common binary case callers pass one float per node
    (``[[50.0], [25.0, 75.0], ...]``); for higher arities each node entry
    is a tuple of ``arity - 1`` ascending boundaries.
    """
    normalized = []
    for level0, level_splits in enumerate(splits):
        nodes = []
        for entry in level_splits:
            if isinstance(entry, (int, float)):
                boundaries: tuple[float, ...] = (float(entry),)
            else:
                boundaries = tuple(float(b) for b in entry)
            if len(boundaries) != arity - 1:
                raise IndexBuildError(
                    f"level {level0 + 1}: node needs {arity - 1} boundaries, "
                    f"got {len(boundaries)}"
                )
            if any(b > c for b, c in zip(boundaries, boundaries[1:])):
                raise IndexBuildError(
                    f"level {level0 + 1}: boundaries {boundaries} not ascending"
                )
            nodes.append(boundaries)
        normalized.append(tuple(nodes))
    return tuple(normalized)


class TreeGeometry:
    """Immutable split-key structure of one ACE Tree.

    Args:
        domain: the half-open box covering every key in the relation.
        splits: one list per internal level; ``splits[s-1]`` has the
            ``arity^(s-1)`` entries of level ``s``, in node order.  Each
            entry is either a single float (binary trees) or a tuple of
            ``arity - 1`` ascending boundaries.
        cell_counts: exact number of records in each of the
            ``arity^(h-1)`` leaf cells (used for internal-node counts /
            population estimation); optional.
        arity: fan-out of every internal node (the paper's design is 2).
    """

    def __init__(
        self,
        domain: Box,
        splits: Sequence[Sequence],
        cell_counts: Sequence[int] | None = None,
        arity: int = 2,
    ) -> None:
        if not splits:
            raise IndexBuildError("an ACE Tree needs at least one internal level")
        if arity < 2:
            raise IndexBuildError(f"arity must be >= 2, got {arity}")
        self.domain = domain
        self.arity = arity
        self.height = len(splits) + 1
        self.dims = domain.dims
        self._splits = _normalize_splits(splits, arity)
        for level0, level_splits in enumerate(self._splits):
            expected = arity ** level0
            if len(level_splits) != expected:
                raise IndexBuildError(
                    f"level {level0 + 1} needs {expected} split entries, "
                    f"got {len(level_splits)}"
                )
        self._boxes = self._compute_boxes()
        if cell_counts is not None and len(cell_counts) != self.num_leaves:
            raise IndexBuildError(
                f"need {self.num_leaves} cell counts, got {len(cell_counts)}"
            )
        self._cell_counts = tuple(cell_counts) if cell_counts is not None else None
        # Per-level (los, his, non-empty mask) for the 1-D overlap_flags and
        # estimate_count fast paths; built lazily on first use.
        self._level_bounds: dict[int, tuple[list[float], list[float], bytearray]] = {}  # repro: shared[confined] idempotent lazy memo of static shape

    # -- static shape --------------------------------------------------------

    @property
    def num_leaves(self) -> int:
        """Number of leaf cells, ``arity^(h-1)``."""
        return self.arity ** (self.height - 1)

    def num_nodes(self, level: int) -> int:
        """Number of nodes at a level (leaves are level ``height``)."""
        self._check_level(level)
        return self.arity ** (level - 1)

    def axis(self, level: int) -> int:
        """The key dimension a given level splits on (cycles for k-d)."""
        self._check_level(level)
        return (level - 1) % self.dims

    def split_keys(self, level: int, index: int) -> tuple[float, ...]:
        """The ``arity - 1`` split boundaries of internal node (level, index)."""
        if not 1 <= level <= self.height - 1:
            raise QueryError(f"level {level} is not an internal level")
        return self._splits[level - 1][index]

    def split_key(self, level: int, index: int) -> float:
        """The split boundary of a binary internal node (first boundary)."""
        return self.split_keys(level, index)[0]

    # -- boxes ---------------------------------------------------------------

    def node_box(self, level: int, index: int) -> Box:
        """The box covered by the node at (level, index)."""
        self._check_level(level)
        boxes = self._boxes[level - 1]
        if not 0 <= index < len(boxes):
            raise QueryError(f"node index {index} out of range at level {level}")
        return boxes[index]

    def leaf_box(self, leaf: int) -> Box:
        """The box of leaf cell ``leaf``."""
        return self.node_box(self.height, leaf)

    def ancestor(self, leaf: int, level: int) -> int:
        """Index of the level-``level`` ancestor of leaf cell ``leaf``."""
        self._check_level(level)
        return leaf // self.arity ** (self.height - level)

    def children(self, level: int, index: int) -> list[tuple[int, int]]:
        """The (level, index) pairs of a node's children."""
        if not 1 <= level <= self.height - 1:
            raise QueryError(f"level {level} has no children")
        base = index * self.arity
        return [(level + 1, base + c) for c in range(self.arity)]

    def section_box(self, leaf: int, section: int) -> Box:
        """Range sampled by section ``section`` of leaf ``leaf``.

        Section ``s`` samples the box of the leaf's level-``s`` ancestor;
        this realizes the nesting ``L.R1 ⊃ L.R2 ⊃ ... ⊃ L.Rh`` and the
        exponentiality property (each box holds ~``arity``x the records of
        the next one, because splits are equi-depth quantiles).
        """
        return self.node_box(section, self.ancestor(leaf, section))

    # -- point / query location ----------------------------------------------

    def descend(self, point: Sequence[float], levels: int) -> int:
        """Follow ``levels`` split comparisons from the root.

        Returns the node index reached at level ``levels + 1``.  With
        ``levels = height - 1`` this is the leaf cell owning the point.
        """
        if not 0 <= levels <= self.height - 1:
            raise QueryError(f"cannot descend {levels} levels in height {self.height}")
        index = 0
        for level in range(1, levels + 1):
            axis = (level - 1) % self.dims
            boundaries = self._splits[level - 1][index]
            child = bisect_right(boundaries, point[axis])
            index = self.arity * index + child
        return index

    def locate_leaf(self, point: Sequence[float]) -> int:
        """The leaf cell whose box contains the point."""
        return self.descend(point, self.height - 1)

    def leaf_locator(self):
        """A specialized ``point -> leaf cell`` callable.

        Bit-identical to :meth:`locate_leaf` (same per-level
        ``bisect_right`` descent) with the level loop's attribute lookups
        and range checks hoisted out; construction Phase 2 calls this once
        per record, so the per-call overhead matters.
        """
        splits = self._splits
        arity = self.arity
        dims = self.dims
        if dims == 1:
            def locate(point, _bisect=bisect_right, _splits=splits, _arity=arity):
                x = point[0]
                index = 0
                for level_splits in _splits:
                    index = _arity * index + _bisect(level_splits[index], x)
                return index
        else:
            def locate(
                point, _bisect=bisect_right, _splits=splits, _arity=arity, _dims=dims
            ):
                index = 0
                for level0, level_splits in enumerate(_splits):
                    index = _arity * index + _bisect(
                        level_splits[index], point[level0 % _dims]
                    )
                return index
        return locate

    def scalar_leaf_locator(self):
        """A ``key value -> leaf cell`` callable for 1-D trees.

        Like :meth:`leaf_locator` but takes the bare key instead of a
        1-tuple point, and replaces the binary tree's one-boundary
        ``bisect_right`` with a plain comparison (``bisect_right((b,), x)``
        is ``1`` exactly when ``x >= b``), so the descent is pure integer
        arithmetic.  Identical results to :meth:`locate_leaf` on ``(x,)``.
        """
        if self.dims != 1:
            raise QueryError("scalar_leaf_locator needs a 1-D tree")
        if self.arity == 2:
            bounds = [[node[0] for node in level] for level in self._splits]

            def locate(x, _bounds=bounds):
                index = 0
                for level_bounds in _bounds:
                    index = index + index + (x >= level_bounds[index])
                return index

            return locate
        point_locate = self.leaf_locator()
        return lambda x, _locate=point_locate: _locate((x,))

    def array_leaf_locator(self, key_kind: str):
        """A vectorized ``key array -> leaf cell array`` callable, or None.

        Only the binary 1-D tree qualifies, and only while its split keys
        read in order (the in-order walk of the tree) are non-decreasing,
        as Phase 1's rank-picked medians always are.  The descent then
        goes right at a node exactly when the key is at least its split,
        so every split passed on the left is ``<=`` the key and every one
        on the right is greater: the leaf cell is the number of in-order
        splits ``<=`` the key, one ``searchsorted(side="right")``.
        ``key_kind`` names the column kind of the keys the caller will
        pass (``"f8"`` for float64 arrays, ``"i8"`` for int64): float keys
        are searched among the stored float splits, and NaN keys, which
        fail every comparison of the descent, go to cell 0; int keys are
        searched among exact integer thresholds (``x >= b`` is
        ``x >= ceil(b)`` for every integer ``x``), because Python's
        int-vs-float ``>=`` is exact where numpy's would round the int to
        float64.  Results match :meth:`locate_leaf` element for element,
        or None is returned and callers must descend per record.
        """
        if self.dims != 1 or self.arity != 2:
            return None
        splits = np.empty(self.num_leaves - 1, dtype=np.float64)
        for level, level_splits in enumerate(self._splits, start=1):
            # Node j of `level` is the in-order key (2j+1) * 2^(h-1-level) - 1.
            step = 2 ** (self.height - level)
            splits[step // 2 - 1::step] = [node[0] for node in level_splits]
        if not (splits[1:] >= splits[:-1]).all():
            return None
        if key_kind == "f8":
            def locate(keys, _splits=splits):
                cells = np.searchsorted(_splits, keys, side="right")
                nan = np.isnan(keys)
                if nan.any():
                    cells[nan] = 0
                return cells

            return locate
        if key_kind != "i8":
            return None
        thresholds = []
        for b in splits.tolist():
            if not math.isfinite(b):
                if b < 0:  # -inf boundary: every int key is >= it
                    thresholds.append(-2**63)
                    continue
                return None  # +inf: no int threshold
            t = math.ceil(b)
            if not -2**63 <= t < 2**63:
                return None
            thresholds.append(t)
        bounds = np.array(thresholds, dtype=np.int64)
        return lambda keys, _bounds=bounds: np.searchsorted(
            _bounds, keys, side="right"
        )

    def overlapping_nodes(self, level: int, query: Box) -> list[int]:
        """Indexes of level-``level`` nodes whose boxes overlap the query.

        This is the set of "intervals" the Combine procedure must cover with
        one section-``level`` cell each before it may emit.
        """
        self._check_level(level)
        return [
            j
            for j, box in enumerate(self._boxes[level - 1])
            if box.overlaps(query)
        ]

    def overlap_flags(self, query: Box) -> list[bytearray]:
        """:meth:`overlapping_nodes` at every level, as 0/1 flags per node.

        ``flags[s - 1][j]`` is 1 exactly when ``j`` is in
        ``overlapping_nodes(s, query)``; test it by index, since
        ``j in flags[s - 1]`` would test byte values.  The arrays are
        fresh, so the caller owns them.  k-d trees fill the flags from
        :meth:`overlapping_nodes`' scan.  1-D trees need no per-node
        Python work: a level's node intervals partition the domain in
        index order, so their lo bounds (and, by contiguity, their hi
        bounds) are non-decreasing, and the overlap predicate
        ``lo < q.hi and q.lo < hi and lo < hi`` holds exactly on the
        bisected index range's nodes whose memoized non-empty flag is 1;
        that range is copied by slice from the mask.
        """
        out = []
        if self.dims == 1 and query.dims == 1:
            side = query.sides[0]
            lo, hi, empty = side.lo, side.hi, side.is_empty
            for level in range(1, self.height + 1):
                flags = bytearray(self.arity ** (level - 1))
                if not empty:
                    los, his, nonempty = self._bounds_1d(level)
                    first = bisect_right(his, lo)
                    last = bisect_left(los, hi)
                    flags[first:last] = nonempty[first:last]
                out.append(flags)
            return out
        for level in range(1, self.height + 1):
            flags = bytearray(self.arity ** (level - 1))
            for j in self.overlapping_nodes(level, query):
                flags[j] = 1
            out.append(flags)
        return out

    # -- counts ----------------------------------------------------------------

    @property
    def has_counts(self) -> bool:
        return self._cell_counts is not None

    def attach_counts(self, cell_counts: Sequence[int]) -> None:
        """Attach per-cell record counts computed during construction Phase 2.

        Counts are tallied while records are being decorated, which happens
        after the split keys (and hence this object) already exist; this is
        the one mutation the class allows, and only once.
        """
        if self._cell_counts is not None:
            raise IndexBuildError("cell counts already attached")
        if len(cell_counts) != self.num_leaves:
            raise IndexBuildError(
                f"need {self.num_leaves} cell counts, got {len(cell_counts)}"
            )
        self._cell_counts = tuple(cell_counts)

    def cell_count(self, leaf: int) -> int:
        """Exact number of records whose key lies in leaf cell ``leaf``."""
        if self._cell_counts is None:
            raise QueryError("this geometry was built without cell counts")
        return self._cell_counts[leaf]

    def node_count(self, level: int, index: int) -> int:
        """Records under node (level, index) — the paper's cnt_l / cnt_r."""
        if self._cell_counts is None:
            raise QueryError("this geometry was built without cell counts")
        self._check_level(level)
        span = self.arity ** (self.height - level)
        start = index * span
        return sum(self._cell_counts[start:start + span])

    def estimate_count(self, query: Box) -> float:
        """Estimate ``|σ_Q(R)|`` from per-cell counts.

        Cells fully inside the query contribute exactly; boundary cells
        contribute proportionally to the overlapped volume (uniform
        interpolation).  Online aggregation uses this as the population
        size for its confidence intervals (paper Section III.B).  1-D trees
        do the same arithmetic over cached leaf bounds; k-d trees intersect
        a ``Box`` per overlapped leaf.
        """
        if self._cell_counts is None:
            raise QueryError("this geometry was built without cell counts")
        if self.dims == 1 and query.dims == 1:
            return self._estimate_count_1d(query.sides[0])
        total = 0.0
        for leaf in self.overlapping_nodes(self.height, query):
            box = self.leaf_box(leaf)
            count = self._cell_counts[leaf]
            if query.contains(box):
                total += count
            else:
                part = box.intersect(query)
                volume = box.volume()
                if volume > 0 and math.isfinite(volume):
                    total += count * part.volume() / volume
                else:  # unbounded or degenerate cell: count it whole
                    total += count
        return total

    def _estimate_count_1d(self, side: Interval) -> float:
        """:meth:`estimate_count`'s ``Box`` loop over cached leaf bounds.

        Visits the same overlapped cells in the same order (the bisected
        index range :meth:`overlap_flags` copies) and performs
        the same float operations on the same values: ``Box.contains``,
        ``Box.intersect`` and ``Box.volume`` reduce, for one non-empty
        side, to the comparisons, ``max``/``min`` and subtractions below
        (``volume()`` multiplies by ``1.0``, which is exact).  The result
        is therefore bit-identical, without a ``Box`` per cell.
        """
        if side.is_empty:
            return 0.0
        los, his, _ = self._bounds_1d(self.height)
        counts = self._cell_counts
        qlo, qhi = side.lo, side.hi
        total = 0.0
        for leaf in range(bisect_right(his, qlo), bisect_left(los, qhi)):
            lo = los[leaf]
            hi = his[leaf]
            if not lo < hi:
                continue  # empty cell: overlaps nothing
            if qlo <= lo and hi <= qhi:
                total += counts[leaf]
                continue
            volume = hi - lo  # > 0, as lo < hi
            if math.isfinite(volume):
                part = min(hi, qhi) - max(lo, qlo)
                total += counts[leaf] * part / volume
            else:  # infinite width: count the cell whole
                total += counts[leaf]
        return total

    # -- internals ---------------------------------------------------------

    def _bounds_1d(
        self, level: int
    ) -> tuple[list[float], list[float], bytearray]:
        """A 1-D level's node bounds and non-empty mask (memoized).

        ``(los, his, nonempty)``: the lo and hi bound of every node, and a
        0/1 flag per node that is 1 when ``lo < hi`` (an empty box overlaps
        nothing).
        """
        bounds = self._level_bounds.get(level)
        if bounds is None:
            boxes = self._boxes[level - 1]
            los = [box.sides[0].lo for box in boxes]
            his = [box.sides[0].hi for box in boxes]
            bounds = (los, his, bytearray(lo < hi for lo, hi in zip(los, his)))
            self._level_bounds[level] = bounds
        return bounds

    def _compute_boxes(self) -> list[list[Box]]:
        boxes: list[list[Box]] = [[self.domain]]
        for level in range(1, self.height):
            axis = (level - 1) % self.dims
            next_boxes: list[Box] = []
            for index, box in enumerate(boxes[-1]):
                remainder = box
                for boundary in self._splits[level - 1][index]:
                    # Clamp: duplicated keys can push a quantile outside the
                    # shrinking remainder; the resulting child box is empty.
                    side = remainder.sides[axis]
                    clamped = min(max(boundary, side.lo), side.hi)
                    low, remainder = remainder.split_at(axis, clamped)
                    next_boxes.append(low)
                next_boxes.append(remainder)
            boxes.append(next_boxes)
        return boxes

    def _check_level(self, level: int) -> None:
        if not 1 <= level <= self.height:
            raise QueryError(f"level {level} out of range 1..{self.height}")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TreeGeometry(height={self.height}, dims={self.dims}, "
            f"arity={self.arity}, leaves={self.num_leaves})"
        )
