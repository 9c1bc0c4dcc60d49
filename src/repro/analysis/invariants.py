"""Runtime sanitizers for the ACE Tree's statistical and structural invariants.

The static rules in :mod:`repro.analysis.rules` keep randomness and timing
flowing through the sanctioned layers; this module checks the *product* of
those layers:

* :func:`check_tree` — structural integrity of a built tree: split keys
  ascending and nested within their node boxes, every leaf's section-``s``
  records falling inside the level-``s`` ancestor range (the paper's
  ``L.R1 ⊃ L.R2 ⊃ ... ⊃ L.Rh`` nesting), per-cell counts conserved, and
  the Shuttle's toggle pointers staying valid on a probe stream.
* :func:`check_sample` — the Combine correctness argument, empirically: a
  prefix of the sample stream must be statistically uniform over the
  matching population (chi-square against the exact per-cell matching
  counts), and every simulated page read during the query must be
  attributed to a leaf read by the leaf store's ``pages_read`` count
  (cost conservation).
* :func:`check_stream` — white-box invariants of a live
  :class:`~repro.acetree.query.SampleStream` (toggle bits in range,
  buffered-record accounting exact).

All checks raise :class:`repro.core.errors.InvariantViolation` on failure
and run under :meth:`SimulatedDisk.unmetered`, so they never disturb the
simulated clock of the experiment they are guarding.  Wire them into a run
with the bench CLI's ``--sanitize`` flag or call them from tests.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

from ..core.errors import InvariantViolation
from ..core.stats import chi2_sf

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from ..acetree.query import SampleStream
    from ..acetree.tree import AceTree
    from ..core.intervals import Box

__all__ = [
    "AccessOrdinalSanitizer",
    "SampleCheckReport",
    "SanitizedDict",
    "SanitizedHandle",
    "check_tree",
    "check_sample",
    "check_stream",
]


def _fail(message: str) -> None:
    raise InvariantViolation(message)


# ---------------------------------------------------------------------------
# check_tree — structural integrity
# ---------------------------------------------------------------------------


def check_tree(
    tree: "AceTree",
    *,
    max_leaves: int | None = None,
    probe_batches: int = 4,
) -> None:
    """Verify the structural invariants of a built ACE Tree.

    Args:
        tree: the tree to check.
        max_leaves: cap on how many leaves to read (``None`` checks all;
            the per-cell count conservation check needs all of them).
        probe_batches: how many batches of a whole-domain probe stream to
            draw while validating the Shuttle's toggle pointers; 0 skips
            the probe.

    Raises:
        InvariantViolation: on the first violated invariant.
    """
    geometry = tree.geometry

    # -- split keys: ascending per node, nested within the node box --------
    for level in range(1, geometry.height):
        axis = geometry.axis(level)
        for index in range(geometry.num_nodes(level)):
            boundaries = geometry.split_keys(level, index)
            if any(b > c for b, c in zip(boundaries, boundaries[1:])):
                _fail(
                    f"split keys of node ({level},{index}) not ascending: "
                    f"{boundaries}"
                )
            side = geometry.node_box(level, index).sides[axis]
            for boundary in boundaries:
                if not side.lo <= boundary <= side.hi:
                    _fail(
                        f"split key {boundary} of node ({level},{index}) "
                        f"escapes its box side [{side.lo}, {side.hi})"
                    )
            parent_box = geometry.node_box(level, index)
            for child_level, child_index in geometry.children(level, index):
                child_box = geometry.node_box(child_level, child_index)
                if not parent_box.contains(child_box):
                    _fail(
                        f"child box ({child_level},{child_index}) not nested "
                        f"in parent ({level},{index})"
                    )

    # -- counts conserved --------------------------------------------------
    if geometry.has_counts:
        total = sum(geometry.cell_count(leaf) for leaf in range(geometry.num_leaves))
        if total != tree.num_records:
            _fail(
                f"cell counts sum to {total}, tree holds {tree.num_records} "
                "records"
            )

    # -- leaves: section records inside their ancestor ranges --------------
    key_of = tree.schema.keys_getter(tree.key_fields)
    num_leaves = geometry.num_leaves
    leaves_to_check = num_leaves if max_leaves is None else min(max_leaves, num_leaves)
    tallied = [0] * num_leaves
    with tree.disk.unmetered():
        for leaf_index in range(leaves_to_check):
            leaf = tree.leaf_store.read_leaf(leaf_index)
            if leaf.index != leaf_index:
                _fail(f"leaf {leaf_index} stores index {leaf.index}")
            if leaf.height != geometry.height:
                _fail(
                    f"leaf {leaf_index} has {leaf.height} sections, tree "
                    f"height is {geometry.height}"
                )
            for s in range(1, geometry.height + 1):
                box = geometry.section_box(leaf_index, s)
                for record in leaf.section(s):
                    point = key_of(record)
                    if not box.contains_point(point):
                        _fail(
                            f"leaf {leaf_index} section {s} record key "
                            f"{point} outside ancestor range {box}"
                        )
            # Tally each record against the cell its *key* lives in (the
            # section decides where it is stored, not where it belongs).
            for section in leaf.sections:
                for record in section:
                    tallied[geometry.locate_leaf(key_of(record))] += 1

        if (
            geometry.has_counts
            and leaves_to_check == num_leaves
        ):
            for cell in range(num_leaves):
                if tallied[cell] != geometry.cell_count(cell):
                    _fail(
                        f"cell {cell}: {tallied[cell]} records located in "
                        f"its box, geometry records {geometry.cell_count(cell)}"
                    )

        # -- toggle pointers on a probe stream -----------------------------
        if probe_batches > 0:
            stream = tree.sample(_domain_query(tree), seed=0)
            for _ in range(probe_batches):
                batch = next(stream, None)
                if batch is None:
                    break
                check_stream(stream)


def _domain_query(tree: "AceTree") -> "Box":
    """A query box covering the tree's whole key domain."""
    return tree.geometry.domain


# ---------------------------------------------------------------------------
# check_stream — white-box stream invariants
# ---------------------------------------------------------------------------


def check_stream(stream: "SampleStream") -> None:
    """Validate a live sample stream: toggle bits, buffers and done flags."""
    arity = stream.tree.geometry.arity
    height = stream.tree.geometry.height
    for (level, index), pointer in stream._next_child.items():
        if not 0 <= pointer < arity:
            _fail(
                f"toggle pointer {pointer} at node ({level},{index}) "
                f"outside 0..{arity - 1}"
            )
        if not 1 <= level < height:
            _fail(f"toggle pointer recorded at non-internal level {level}")
    buffered = sum(
        len(cell)
        for bucket in stream._buckets
        for cells in bucket.values()
        for cell in cells
    )
    if buffered != stream.stats.buffered_records:
        _fail(
            f"stream reports {stream.stats.buffered_records} buffered "
            f"records, buckets hold {buffered}"
        )
    # An internal node is flagged done exactly when all its children are.
    flags = stream._done_flags
    for level in range(1, len(flags)):
        parents, children = flags[level - 1], flags[level]
        expected = children[0::arity]
        for c in range(1, arity):
            expected = bytes(map(min, expected, children[c::arity]))
        if parents != expected:
            index = next(i for i, (flag, want) in enumerate(zip(parents, expected))
                         if flag != want)
            if parents[index]:
                _fail(f"node ({level},{index}) flagged done while a child "
                      "is still live")
            _fail(f"node ({level},{index}) not flagged done though all its "
                  "children are")


# ---------------------------------------------------------------------------
# check_sample — uniformity + cost conservation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SampleCheckReport:
    """What :func:`check_sample` measured (returned on success)."""

    population_size: int
    sample_size: int
    bins: int
    chi2: float
    p_value: float
    pages_read: int
    pages_attributed: int
    leaves_read: int


def check_sample(
    tree: "AceTree",
    query: "Box",
    *,
    seed: int = 0,
    sample_size: int | None = None,
    alpha: float = 0.01,
    min_expected: float = 5.0,
) -> SampleCheckReport:
    """Empirically verify Combine's uniformity claim and cost conservation.

    Runs the sample stream for ``query`` to exhaustion (under an unmetered
    disk, so the experiment clock is untouched).  The emitted prefix of
    ``sample_size`` records (default: 20% of the matching population) is
    chi-square-tested against the exact per-leaf-cell composition of the
    full matching population; a uniform random prefix matches those
    proportions.  Every simulated page read during the query must equal the
    pages the tree's leaf store attributes to leaf reads (its
    ``pages_read`` count).

    The stream is deterministic given ``(tree, query, seed)``, so a pass or
    failure is exactly reproducible — there is no test flakiness, only
    seeds that expose bias.

    Raises:
        InvariantViolation: if uniformity is rejected at ``alpha``, the
            page accounting does not balance, or a stream invariant breaks.
    """
    geometry = tree.geometry
    key_of = tree.schema.keys_getter(tree.key_fields)
    store = tree.leaf_store
    pages_attr_before = store.pages_read
    with tree.disk.unmetered():
        stream = tree.sample(query, seed=seed)
        emitted: list = []
        for batch in stream:
            check_stream(stream)
            emitted.extend(batch.records)
        pages_read = tree.disk.stats.page_reads
        leaves_read = stream.stats.leaves_read
    pages_attributed = store.pages_read - pages_attr_before

    if pages_read != pages_attributed:
        _fail(
            f"cost conservation broken: disk served {pages_read} page "
            f"reads, the leaf store attributes {pages_attributed}"
        )

    population = len(emitted)
    for record in emitted:
        if not query.contains_point(key_of(record)):
            _fail(f"emitted record {record!r} does not match the query")

    if sample_size is None:
        sample_size = max(1, population // 5)
    sample_size = min(sample_size, population)

    # Bin the population by leaf cell; a uniform prefix follows the same
    # proportions.  Cells are merged greedily until each bin's expected
    # count reaches ``min_expected`` (the chi-square validity rule).
    pop_counts: dict[int, int] = {}
    for record in emitted:
        cell = geometry.locate_leaf(key_of(record))
        pop_counts[cell] = pop_counts.get(cell, 0) + 1
    sample_counts: dict[int, int] = {}
    for record in emitted[:sample_size]:
        cell = geometry.locate_leaf(key_of(record))
        sample_counts[cell] = sample_counts.get(cell, 0) + 1

    bins: list[tuple[float, int]] = []  # (expected, observed)
    expected_acc = 0.0
    observed_acc = 0
    for cell in sorted(pop_counts):
        expected_acc += sample_size * pop_counts[cell] / population
        observed_acc += sample_counts.get(cell, 0)
        if expected_acc >= min_expected:
            bins.append((expected_acc, observed_acc))
            expected_acc = 0.0
            observed_acc = 0
    if bins and (expected_acc or observed_acc):
        last_e, last_o = bins[-1]
        bins[-1] = (last_e + expected_acc, last_o + observed_acc)

    chi2 = 0.0
    p_value = 1.0
    if len(bins) >= 2:
        chi2 = sum((obs - exp) ** 2 / exp for exp, obs in bins)
        p_value = chi2_sf(chi2, len(bins) - 1)
        if p_value < alpha:
            _fail(
                f"sample prefix rejects uniformity: chi2={chi2:.2f} over "
                f"{len(bins)} bins, p={p_value:.5f} < alpha={alpha}"
            )

    return SampleCheckReport(
        population_size=population,
        sample_size=sample_size,
        bins=len(bins),
        chi2=chi2,
        p_value=p_value,
        pages_read=pages_read,
        pages_attributed=pages_attributed,
        leaves_read=leaves_read,
    )


# ---------------------------------------------------------------------------
# AccessOrdinalSanitizer — runtime single-writer checking
# ---------------------------------------------------------------------------


@dataclass
class _StructureState:
    """Per-wrapped-structure write history."""

    #: Collapsed writer history: consecutive writes by one writer are one
    #: episode.  A writer re-appearing after a *different* writer wrote is
    #: an interleaved-episode violation.
    episodes: list[str] = field(default_factory=list)
    #: Simulated clock of the current tick and the distinct writers that
    #: have written within it.
    tick_clock: float | None = None
    tick_writers: list[str] = field(default_factory=list)
    reads: int = 0
    writes: int = 0


class AccessOrdinalSanitizer:
    """Runtime proof of the static ``shared[confined]`` annotations.

    The program analyzer accepts shared caches and memos when they are
    annotated *confined* — touched by one logical writer at a time.  This
    sanitizer makes that claim checkable: instrumented structures (wrapped
    via :meth:`wrap` / :meth:`wrap_dict`) record every mutation against
    the writer context active at the time and the simulated clock, and an
    :class:`~repro.core.errors.InvariantViolation` is raised on:

    * **unattributed write** — a wrapped structure is mutated with no
      ``with sanitizer.writer(tag):`` context active;
    * **multi-writer tick** — two distinct writers mutate one structure
      at the same simulated-clock reading (nothing serialized them: no
      charged I/O or CPU separates the writes);
    * **interleaved episodes** — writer A mutates a structure, writer B
      mutates it, then A mutates it again.  Confinement means ownership
      transfers; an A-B-A history is two concurrent owners, exactly the
      shape a tenant scheduler would produce by racing two traversals.

    Reads are never violations (warm cache streams legitimately read data
    a previous stream wrote) but are counted in :attr:`stats`.

    The checker is deterministic: it observes only the simulated clock and
    the caller-chosen writer tags, so under the testkit's replayable
    scenarios a trip reproduces exactly.
    """

    def __init__(self, clock_fn: Callable[[], float]) -> None:
        self._clock_fn = clock_fn
        self._writer_stack: list[str] = []
        # One sanitizer instruments one scenario run; its bookkeeping is
        # confined to that run by construction.
        self._structures: dict[str, _StructureState] = {}  # repro: shared[confined]

    # -- writer contexts ---------------------------------------------------

    @contextmanager
    def writer(self, tag: str):
        """Declare ``tag`` the active logical writer for the duration."""
        self._writer_stack.append(tag)
        try:
            yield self
        finally:
            self._writer_stack.pop()

    @property
    def active_writer(self) -> str | None:
        return self._writer_stack[-1] if self._writer_stack else None

    # -- recording ---------------------------------------------------------

    def note_read(self, structure: str, op: str = "") -> None:
        self._state(structure).reads += 1

    def note_write(self, structure: str, op: str = "") -> None:
        state = self._state(structure)
        state.writes += 1
        writer = self.active_writer
        suffix = f".{op}" if op else ""
        if writer is None:
            _fail(
                f"sanitizer: write to {structure}{suffix} outside any "
                "writer context; every mutation of confined state must be "
                "attributed to a logical writer"
            )
        clock = self._clock_fn()
        if state.tick_clock is None or clock != state.tick_clock:
            state.tick_clock = clock
            state.tick_writers = [writer]
        elif writer not in state.tick_writers:
            _fail(
                f"sanitizer: {structure}{suffix} written by "
                f"{writer!r} and {state.tick_writers[-1]!r} within one "
                f"simulated-clock tick (clock={clock!r}); confined state "
                "requires a single writer per tick"
            )
        if state.episodes and state.episodes[-1] != writer:
            if writer in state.episodes:
                _fail(
                    f"sanitizer: interleaved writer episodes on "
                    f"{structure}{suffix}: {writer!r} wrote, "
                    f"{state.episodes[-1]!r} wrote, now {writer!r} again — "
                    "two logical writers own this structure concurrently"
                )
            state.episodes.append(writer)
        elif not state.episodes:
            state.episodes.append(writer)

    def _state(self, structure: str) -> _StructureState:
        state = self._structures.get(structure)
        if state is None:
            state = _StructureState()
            self._structures[structure] = state
        return state

    @property
    def stats(self) -> dict[str, dict[str, int]]:
        """Per-structure read/write counts (for tests and reports)."""
        return {
            name: {"reads": state.reads, "writes": state.writes,
                   "episodes": len(state.episodes)}
            for name, state in self._structures.items()
        }

    # -- instrumentation ---------------------------------------------------

    def wrap(
        self,
        structure: str,
        obj,
        *,
        write_ops: Sequence[str],
        read_ops: Sequence[str] = (),
    ) -> "SanitizedHandle":
        """Wrap any object, intercepting the named mutator methods.

        The default op sets below cover the project's cache classes::

            sanitizer.wrap("SampleCache", cache,
                           write_ops=("put", "clear"),
                           read_ops=("get", "peek"))
            sanitizer.wrap("BufferPool", pool,
                           write_ops=("read", "write", "invalidate",
                                      "clear"))
            sanitizer.wrap("DecodeMemo", memo,
                           write_ops=("put", "clear"), read_ops=("get",))

        ``BufferPool.read`` counts as a write: a miss admits and evicts
        frames, mutating the LRU state.
        """
        return SanitizedHandle(self, structure, obj,
                               frozenset(write_ops), frozenset(read_ops))

    def wrap_dict(self, structure: str, mapping: dict) -> "SanitizedDict":
        """A dict replacement that reports mutations (for bare memos)."""
        return SanitizedDict(self, structure, mapping)


class SanitizedHandle:
    """Method-intercepting proxy produced by :meth:`AccessOrdinalSanitizer.wrap`.

    Unlisted attributes and methods pass straight through to the wrapped
    object, so the proxy drops into any call site that duck-types the
    original (``attach_sample_cache``, leaf-store memo slots, ...).
    """

    __slots__ = ("_obj", "_sanitizer", "_structure", "_write_ops",
                 "_read_ops")

    def __init__(self, sanitizer, structure, obj, write_ops, read_ops):
        object.__setattr__(self, "_sanitizer", sanitizer)
        object.__setattr__(self, "_structure", structure)
        object.__setattr__(self, "_obj", obj)
        object.__setattr__(self, "_write_ops", write_ops)
        object.__setattr__(self, "_read_ops", read_ops)

    @property
    def wrapped(self):
        """The underlying object."""
        return self._obj

    def __getattr__(self, name):
        value = getattr(self._obj, name)
        if callable(value):
            if name in self._write_ops:
                sanitizer, structure = self._sanitizer, self._structure

                def write_op(*args, **kwargs):
                    sanitizer.note_write(structure, name)
                    return value(*args, **kwargs)

                return write_op
            if name in self._read_ops:
                sanitizer, structure = self._sanitizer, self._structure

                def read_op(*args, **kwargs):
                    sanitizer.note_read(structure, name)
                    return value(*args, **kwargs)

                return read_op
        return value

    def __contains__(self, item) -> bool:
        return item in self._obj

    def __len__(self) -> int:
        return len(self._obj)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SanitizedHandle({self._structure}, {self._obj!r})"


class SanitizedDict(dict):
    """A dict that reports every mutation to the sanitizer.

    Used for bare-dict memos (``AceTree._overlap_memo``): swap the memo
    for ``sanitizer.wrap_dict("AceTree._overlap_memo", memo)`` and every
    ``d[k] = v`` / ``clear`` / ``pop`` is ordinal-checked while reads stay
    plain dict reads.
    """

    def __init__(self, sanitizer: AccessOrdinalSanitizer, structure: str,
                 initial: dict | None = None):
        super().__init__(initial or {})
        self._sanitizer = sanitizer
        self._structure = structure

    def __setitem__(self, key, value):
        self._sanitizer.note_write(self._structure, "setitem")
        super().__setitem__(key, value)

    def __delitem__(self, key):
        self._sanitizer.note_write(self._structure, "delitem")
        super().__delitem__(key)

    def clear(self):
        self._sanitizer.note_write(self._structure, "clear")
        super().clear()

    def pop(self, *args):
        self._sanitizer.note_write(self._structure, "pop")
        return super().pop(*args)

    def popitem(self):
        self._sanitizer.note_write(self._structure, "popitem")
        return super().popitem()

    def setdefault(self, key, default=None):
        if key not in self:
            self._sanitizer.note_write(self._structure, "setdefault")
        return super().setdefault(key, default)

    def update(self, *args, **kwargs):
        self._sanitizer.note_write(self._structure, "update")
        super().update(*args, **kwargs)
