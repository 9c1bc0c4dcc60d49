"""Tests for the runtime sanitizers (check_tree / check_stream / check_sample).

Each negative test tampers with exactly one invariant on a privately built
tree (never the shared session fixture) and asserts the checker names it.
"""

from types import SimpleNamespace

import pytest

from repro.acetree import AceBuildParams, build_ace_tree
from repro.analysis import check_sample, check_stream, check_tree
from repro.core import Field, Schema
from repro.core.errors import InvariantViolation
from repro.storage import CostModel, HeapFile, SimulatedDisk

from ..conftest import make_kv_records


@pytest.fixture
def built():
    """A private tree the test may tamper with."""
    disk = SimulatedDisk(page_size=2048, cost=CostModel.scaled(2048))
    schema = Schema(
        [Field("k", "i8"), Field("v", "f8"), Field("pad", "bytes", 84)]
    )
    records = make_kv_records(2000, seed=5)
    heap = HeapFile.bulk_load(disk, schema, records)
    tree = build_ace_tree(
        heap, AceBuildParams(key_fields=("k",), height=4, seed=1)
    )
    return records, tree


class TestCheckTree:
    def test_fresh_tree_passes(self, small_ace_tree):
        _records, tree = small_ace_tree
        check_tree(tree)  # must not raise

    def test_does_not_disturb_the_simulated_clock(self, built):
        _records, tree = built
        clock = tree.disk.clock
        reads = tree.disk.stats.page_reads
        check_tree(tree)
        assert tree.disk.clock == clock
        assert tree.disk.stats.page_reads == reads

    def test_non_ascending_split_keys_detected(self, built, monkeypatch):
        _records, tree = built
        geometry = tree.geometry
        original = geometry.split_keys

        def tampered(level, index):
            if (level, index) == (1, 0):
                return (5.0, 1.0)
            return original(level, index)

        monkeypatch.setattr(geometry, "split_keys", tampered)
        with pytest.raises(InvariantViolation, match="not ascending"):
            check_tree(tree, probe_batches=0)

    def test_split_key_escaping_node_box_detected(self, built, monkeypatch):
        _records, tree = built
        geometry = tree.geometry
        original = geometry.split_keys

        def tampered(level, index):
            if (level, index) == (2, 1):
                side = geometry.node_box(2, 1).sides[geometry.axis(2)]
                return (side.hi + 1.0e9,)
            return original(level, index)

        monkeypatch.setattr(geometry, "split_keys", tampered)
        with pytest.raises(InvariantViolation, match="escapes its box"):
            check_tree(tree, probe_batches=0)

    def test_cell_count_mismatch_detected(self, built):
        _records, tree = built
        geometry = tree.geometry
        assert geometry.has_counts
        counts = geometry._cell_counts
        geometry._cell_counts = (counts[0] + 1,) + counts[1:]
        try:
            with pytest.raises(InvariantViolation, match="cell counts sum"):
                check_tree(tree, probe_batches=0)
        finally:
            geometry._cell_counts = counts

    def test_max_leaves_caps_the_scan(self, built, monkeypatch):
        _records, tree = built
        read = []
        original = tree.leaf_store.read_leaf
        monkeypatch.setattr(
            tree.leaf_store,
            "read_leaf",
            lambda index: read.append(index) or original(index),
        )
        check_tree(tree, max_leaves=2, probe_batches=0)
        assert set(read) == {0, 1}


class TestCheckStream:
    def test_live_stream_passes(self, built):
        _records, tree = built
        stream = tree.sample(tree.query(None), seed=0)
        next(stream)
        check_stream(stream)  # must not raise

    def test_toggle_pointer_out_of_range_detected(self, built):
        _records, tree = built
        stream = tree.sample(tree.query(None), seed=0)
        next(stream)
        stream._next_child[(1, 0)] = tree.geometry.arity
        with pytest.raises(InvariantViolation, match="toggle pointer"):
            check_stream(stream)

    def test_buffered_record_accounting_detected(self, built):
        _records, tree = built
        stream = tree.sample(tree.query(None), seed=0)
        next(stream)
        stream.stats.buffered_records += 1
        with pytest.raises(InvariantViolation, match="buffered"):
            check_stream(stream)

    def test_invalid_done_entry_detected(self, built):
        _records, tree = built
        stream = tree.sample(tree.query(None), seed=0)
        next(stream)
        flags = stream._done_flags
        assert not all(flags[1]), "a child of the root must still be live"
        flags[0][0] = 1  # the root flagged done too early
        with pytest.raises(InvariantViolation, match="done while a child"):
            check_stream(stream)

    def test_unflagged_finished_parent_detected(self, built):
        _records, tree = built
        stream = tree.sample(tree.query(None), seed=0)
        next(stream)
        flags = stream._done_flags
        arity = tree.geometry.arity
        live = flags[-2].index(0)
        for child in range(arity * live, arity * live + arity):
            flags[-1][child] = 1  # every child done, the parent not flagged
        with pytest.raises(InvariantViolation, match="not flagged done"):
            check_stream(stream)


class _FrozenStats:
    def __init__(self):
        self.buffered_records = 0
        self.leaves_read = 0


class _CannedStream:
    """A minimal stand-in for SampleStream emitting a fixed record list."""

    def __init__(self, tree, records):
        self.tree = tree
        self._records = records
        self._next_child = {}
        self._buckets = []
        self._done_flags = []
        self.stats = _FrozenStats()

    def __iter__(self):
        yield SimpleNamespace(records=tuple(self._records))


class TestCheckSample:
    def test_uniform_stream_passes(self, small_ace_tree):
        records, tree = small_ace_tree
        query = tree.query((100_000, 900_000))
        report = check_sample(tree, query, seed=1)
        matching = [r for r in records if 100_000 <= r[0] <= 900_000]
        assert report.population_size == len(matching)
        assert report.sample_size == len(matching) // 5
        assert report.p_value >= 0.01
        assert report.pages_read == report.pages_attributed > 0
        assert report.leaves_read == tree.num_leaves

    def test_deterministic_given_seed(self, small_ace_tree):
        _records, tree = small_ace_tree
        query = tree.query((200_000, 700_000))
        assert check_sample(tree, query, seed=3) == check_sample(
            tree, query, seed=3
        )

    def test_leaves_experiment_clock_untouched(self, small_ace_tree):
        _records, tree = small_ace_tree
        clock = tree.disk.clock
        check_sample(tree, tree.query((300_000, 600_000)), seed=2)
        assert tree.disk.clock == clock

    def test_unattributed_page_read_detected(self, built, monkeypatch):
        """A page the disk serves outside the leaf store's page count breaks
        cost conservation."""
        _records, tree = built
        original = tree.leaf_store.read_leaf_view

        def leaky(index):
            leaf = original(index)
            tree.disk.read_page(0)  # raw read, bypassing attribution
            return leaf

        monkeypatch.setattr(tree.leaf_store, "read_leaf_view", leaky)
        with pytest.raises(InvariantViolation, match="cost conservation"):
            check_sample(tree, tree.query(None), seed=0)

    def test_biased_stream_rejected(self, built, monkeypatch):
        """A stream that returns records in key order is maximally biased:
        every prefix over-represents the low cells, and the chi-square
        test must say so."""
        records, tree = built
        ordered = sorted(records, key=lambda r: r[0])
        monkeypatch.setattr(
            tree,
            "sample",
            lambda query, seed=0: _CannedStream(tree, ordered),
        )
        with pytest.raises(InvariantViolation, match="rejects uniformity"):
            check_sample(tree, tree.query(None), seed=0)

    def test_non_matching_record_detected(self, built, monkeypatch):
        _records, tree = built
        rogue = (999_999_999, 0.0, b"")
        monkeypatch.setattr(
            tree,
            "sample",
            lambda query, seed=0: _CannedStream(tree, [rogue]),
        )
        with pytest.raises(InvariantViolation, match="does not match"):
            check_sample(tree, tree.query((0, 100)), seed=0)
