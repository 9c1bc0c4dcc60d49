"""Unit tests for the access-ordinal sanitizer (runtime confinement proof).

The three violation kinds — unattributed write, multi-writer tick,
interleaved A-B-A episodes — each get a minimal trip plus the nearest
legitimate sequence that must NOT trip, so the sanitizer stays sharp
without false-positives on the testkit's real access patterns.
"""

import pytest

from repro.analysis.invariants import AccessOrdinalSanitizer
from repro.core.errors import InvariantViolation


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def tick(self, dt=1.0):
        self.now += dt

    def __call__(self):
        return self.now


@pytest.fixture()
def clock():
    return FakeClock()


@pytest.fixture()
def sanitizer(clock):
    return AccessOrdinalSanitizer(clock)


class TestUnattributedWrite:
    def test_write_outside_writer_context_trips(self, sanitizer):
        with pytest.raises(InvariantViolation, match="outside any writer"):
            sanitizer.note_write("memo", "put")

    def test_write_inside_context_passes(self, sanitizer):
        with sanitizer.writer("a"):
            sanitizer.note_write("memo", "put")

    def test_context_pops_on_exit(self, sanitizer):
        with sanitizer.writer("a"):
            pass
        assert sanitizer.active_writer is None
        with pytest.raises(InvariantViolation):
            sanitizer.note_write("memo")

    def test_nested_contexts_attribute_to_innermost(self, sanitizer):
        with sanitizer.writer("outer"):
            with sanitizer.writer("inner"):
                assert sanitizer.active_writer == "inner"
            assert sanitizer.active_writer == "outer"


class TestMultiWriterTick:
    def test_two_writers_same_tick_trip(self, sanitizer):
        with sanitizer.writer("a"):
            sanitizer.note_write("memo")
        with sanitizer.writer("b"), pytest.raises(
                InvariantViolation, match="within one simulated-clock tick"):
            sanitizer.note_write("memo")

    def test_clock_advance_separates_writers(self, sanitizer, clock):
        with sanitizer.writer("a"):
            sanitizer.note_write("memo")
        clock.tick()
        with sanitizer.writer("b"):
            sanitizer.note_write("memo")  # serialized by charged time: fine

    def test_one_writer_may_burst_within_a_tick(self, sanitizer):
        with sanitizer.writer("a"):
            for _ in range(5):
                sanitizer.note_write("memo")


class TestInterleavedEpisodes:
    def test_a_b_a_trips(self, sanitizer, clock):
        for tag in ("a", "b"):
            with sanitizer.writer(tag):
                sanitizer.note_write("memo")
            clock.tick()
        with sanitizer.writer("a"), pytest.raises(
                InvariantViolation, match="interleaved writer episodes"):
            sanitizer.note_write("memo")

    def test_ownership_handoff_passes(self, sanitizer, clock):
        # a -> b -> c: ownership transfers, never revisits.
        for tag in ("a", "b", "c"):
            with sanitizer.writer(tag):
                sanitizer.note_write("memo")
            clock.tick()

    def test_episodes_tracked_per_structure(self, sanitizer, clock):
        # a-b-a across two DIFFERENT structures is not interleaving.
        with sanitizer.writer("a"):
            sanitizer.note_write("memo-1")
        clock.tick()
        with sanitizer.writer("b"):
            sanitizer.note_write("memo-2")
        clock.tick()
        with sanitizer.writer("a"):
            sanitizer.note_write("memo-1")


class TestReadsAndStats:
    def test_reads_never_trip(self, sanitizer):
        sanitizer.note_read("memo", "get")  # no writer context: still fine

    def test_stats_count_accesses(self, sanitizer, clock):
        with sanitizer.writer("a"):
            sanitizer.note_write("memo", "put")
            sanitizer.note_write("memo", "put")
        sanitizer.note_read("memo", "get")
        assert sanitizer.stats == {
            "memo": {"reads": 1, "writes": 2, "episodes": 1}}


class Cache:
    def __init__(self):
        self.data = {}
        self.gets = 0

    def put(self, key, value):
        self.data[key] = value

    def get(self, key):
        self.gets += 1
        return self.data.get(key)

    def clear(self):
        self.data.clear()


class TestWrap:
    def test_handle_notes_writes_and_reads(self, sanitizer):
        handle = sanitizer.wrap("Cache", Cache(),
                                write_ops=("put", "clear"),
                                read_ops=("get",))
        with sanitizer.writer("a"):
            handle.put("k", 1)
        assert handle.get("k") == 1
        assert sanitizer.stats["Cache"] == {
            "reads": 1, "writes": 1, "episodes": 1}

    def test_handle_write_outside_context_trips(self, sanitizer):
        handle = sanitizer.wrap("Cache", Cache(), write_ops=("put",))
        with pytest.raises(InvariantViolation):
            handle.put("k", 1)

    def test_unlisted_attributes_pass_through(self, sanitizer):
        cache = Cache()
        handle = sanitizer.wrap("Cache", cache, write_ops=("put",))
        assert handle.gets == 0
        assert handle.wrapped is cache

    def test_contains_and_len_delegate(self, sanitizer):
        class Memo(dict):
            pass

        handle = sanitizer.wrap("Memo", Memo(k=1), write_ops=())
        assert "k" in handle
        assert len(handle) == 1
