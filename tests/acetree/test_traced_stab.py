"""The traced Shuttle descent against the inline-counting generic loop.

Both descents (binary fast path, k-ary generic loop) are free of tracing
code; one post-pass over the chosen path makes the traced updates.  For
either arity, a traced stream must pick the same leaves, leave the same
toggle state, and leave the same ``stab.level.*`` aggregates as
:class:`GenericStabStream`, a test-local copy of the generic loop that
every traced descent used to take (counting inline at every level).
"""

from __future__ import annotations

import random

import pytest

from repro.acetree import AceBuildParams, build_ace_tree
from repro.acetree.query import SampleStream
from repro.core import Box, Field, Interval, Schema
from repro.core.errors import QueryError
from repro.obs import METRICS
from repro.obs.context import CONTEXT
from repro.obs.tracer import TRACER
from repro.storage import CostModel, HeapFile, SimulatedDisk

SCHEMA = Schema([Field("k", "i8"), Field("v", "f8")])

#: Streams per run, each stabbed under its own (tenant, query) frame.
FRAMES = 80


class GenericStabStream(SampleStream):
    """``SampleStream`` whose descent always takes the generic loop."""

    def _stab(self) -> int:
        self.stats.stabs += 1
        self.tree.disk.charge_records(self._height)
        arity = self._arity
        done_flags = self._done_flags
        overlaps = self._overlap
        next_child = self._next_child
        alternate = self.alternate
        tracing = TRACER.enabled
        level, index = 1, 0
        while level < self._height:
            base = arity * index
            child_level = level + 1
            overlap = overlaps[child_level - 1]
            flags = done_flags[child_level - 1]
            pool = [
                c for c in range(arity)
                if not flags[base + c] and overlap[base + c]
            ]
            if not pool or tracing:
                alive = [c for c in range(arity) if not flags[base + c]]
                if not alive:
                    raise QueryError("stab reached a fully-done subtree")
                if tracing:
                    branch = "overlap" if pool else "drain"
                    METRICS.counter(f"stab.level.{level}.{branch}").inc()
                    pruned = len(alive) - len(pool)
                    if pool and pruned:
                        METRICS.counter(f"stab.level.{level}.pruned").inc(pruned)
                if not pool:
                    pool = alive
            if len(pool) == 1 or not alternate:
                choice = pool[0]
            else:
                pointer = next_child.get((level, index), 0)
                for c in pool:
                    if c >= pointer:
                        choice = c
                        break
                else:
                    choice = pool[0]
                next_child[(level, index)] = (choice + 1) % arity
            level, index = child_level, base + choice
        return index


def _tree(height: int, arity: int, seed: int = 5):
    disk = SimulatedDisk(page_size=1024, cost=CostModel.scaled(1024))
    rng = random.Random(seed)
    records = [(rng.randrange(100_000), float(i)) for i in range(3000)]
    heap = HeapFile.bulk_load(disk, SCHEMA, records)
    return build_ace_tree(heap, AceBuildParams(
        key_fields=("k",), height=height, arity=arity, seed=seed,
    ))


def _queries(tree, count: int, seed: int = 11) -> list[Box]:
    """Full-domain, wide, and narrow ranges (overlap, prune and drain)."""
    side = tree.geometry.domain.sides[0]
    span = side.hi - side.lo
    rng = random.Random(seed)
    out = []
    for i in range(count):
        if i % 5 == 0:
            out.append(Box.of(Interval(side.lo, side.hi)))
            continue
        width = span * rng.choice((0.002, 0.02, 0.1, 0.4))
        lo = side.lo + rng.random() * (span - width)
        out.append(Box.of(Interval(lo, lo + width)))
    return out


def _frame(i: int) -> dict:
    return {"tenant": f"t{i % 9}", "query": f"q{i}"}


def _descend_all(tree, stream_cls) -> tuple[list, list]:
    """Stab every stream to exhaustion, round-robin, each under its frame.

    Each stab marks its leaf done without reading it: the descent alone
    decides the leaf sequence and the toggle state.
    """
    streams = []
    for i, query in enumerate(_queries(tree, FRAMES)):
        with CONTEXT.push(**_frame(i)):
            streams.append(stream_cls(tree, query, seed=i,
                                      alternate=i % 7 != 6))
    leaves: list[list[int]] = [[] for _ in streams]
    live = list(range(len(streams)))
    while live:
        for i in list(live):
            stream = streams[i]
            with CONTEXT.push(**_frame(i)):
                leaf = stream._stab()
            stream._mark_done(leaf)
            leaves[i].append(leaf)
            if stream._done_flags[0][0]:
                live.remove(i)
    return leaves, [dict(stream._next_child) for stream in streams]


def _traced_run(tree, stream_cls) -> tuple:
    METRICS.reset()
    TRACER.enable()
    try:
        leaves, toggles = _descend_all(tree, stream_cls)
        snapshot = METRICS.snapshot()
    finally:
        TRACER.disable()
        METRICS.reset()
    return leaves, toggles, snapshot


@pytest.mark.parametrize("arity,height", [(2, 7), (3, 4)])
def test_traced_descent_matches_the_generic_loop(arity, height):
    tree = _tree(height, arity)
    fast = _traced_run(tree, SampleStream)
    generic = _traced_run(tree, GenericStabStream)
    fast_leaves, fast_toggles, fast_snapshot = fast
    generic_leaves, generic_toggles, generic_snapshot = generic
    assert fast_leaves == generic_leaves
    assert fast_toggles == generic_toggles
    assert fast_snapshot == generic_snapshot

    # The comparison covered every branch, and the run left aggregates only.
    counters = fast_snapshot["counters"]
    assert set(fast_snapshot) == {"counters", "gauges", "histograms"}
    for branch in ("overlap", "drain", "pruned"):
        assert any(name.endswith(f".{branch}") for name in counters)
    stabs = sum(len(seq) for seq in fast_leaves)
    for level in range(1, height):
        assert counters.get(f"stab.level.{level}.overlap", 0) + counters.get(
            f"stab.level.{level}.drain", 0) == stabs


def test_untraced_descent_matches_the_generic_loop():
    assert not TRACER.enabled
    tree = _tree(7, 2)
    assert _descend_all(tree, SampleStream) == _descend_all(
        tree, GenericStabStream)
