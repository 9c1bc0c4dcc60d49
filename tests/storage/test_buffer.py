"""Unit tests for the decoded-page cache (the baselines' buffer manager)
and the leaf store's cost-transparent decode memo."""

import pytest

from repro.core.errors import BufferPoolError
from repro.storage import CostModel, DecodeMemo, RecordPageCache, SimulatedDisk


@pytest.fixture
def disk():
    return SimulatedDisk(
        page_size=1024, cost=CostModel(seek_time=1e-3, transfer_rate=1024e3)
    )


def _write_pages(disk, count):
    start = disk.allocate(count)
    for i in range(count):
        disk.write_page(start + i, bytes([i % 251]) * 8)
    disk.reset_clock()
    return start


class TestRecordPageCache:
    def test_decode_called_once_per_miss(self, disk):
        start = _write_pages(disk, 2)
        calls = []

        def decode(data):
            calls.append(1)
            return data[:4]

        cache = RecordPageCache(disk, 2, decode)
        cache.read(start)
        cache.read(start)
        cache.read(start + 1)
        assert len(calls) == 2
        assert cache.hits == 1
        assert cache.misses == 2

    def test_returns_decoded_value(self, disk):
        start = _write_pages(disk, 1)
        cache = RecordPageCache(disk, 1, lambda data: ("decoded", data[0]))
        assert cache.read(start)[0] == "decoded"

    def test_eviction(self, disk):
        start = _write_pages(disk, 3)
        cache = RecordPageCache(disk, 2, lambda data: data[0])
        for i in range(3):
            cache.read(start + i)
        assert len(cache) == 2
        assert cache.evictions == 1
        assert start not in cache

    def test_miss_charges_io_hit_charges_cpu(self, disk):
        start = _write_pages(disk, 1)
        cache = RecordPageCache(disk, 2, lambda data: data)
        cache.read(start)
        io_clock = disk.clock
        assert io_clock >= disk.cost.seek_time
        cache.read(start)
        assert disk.clock - io_clock == pytest.approx(disk.cost.cpu_per_page)

    def test_lru_eviction_order(self, disk):
        start = _write_pages(disk, 3)
        cache = RecordPageCache(disk, 2, lambda data: data[0])
        cache.read(start)      # cache: [0]
        cache.read(start + 1)  # cache: [0, 1]
        cache.read(start)      # hit refreshes 0: LRU is now 1
        cache.read(start + 2)  # evicts 1
        assert start in cache
        assert (start + 1) not in cache
        assert (start + 2) in cache
        assert cache.evictions == 1

    def test_hit_charges_page_cpu_only(self, disk):
        start = _write_pages(disk, 1)
        cache = RecordPageCache(disk, 1, lambda data: data)
        cache.read(start)
        before = disk.clock
        cache.read(start)
        assert disk.clock - before == pytest.approx(disk.cost.cpu_per_page)

    def test_capacity_validation(self, disk):
        with pytest.raises(BufferPoolError):
            RecordPageCache(disk, 0, lambda d: d)

    def test_clear(self, disk):
        start = _write_pages(disk, 1)
        cache = RecordPageCache(disk, 1, lambda d: d)
        cache.read(start)
        cache.clear()
        assert len(cache) == 0
        cache.read(start)
        assert cache.misses == 1


class TestDecodeMemo:
    def test_capacity_must_be_positive(self):
        with pytest.raises(BufferPoolError):
            DecodeMemo(0)

    def test_evicts_least_recently_used_at_capacity(self):
        memo = DecodeMemo(2)
        memo.put("a", 1)
        memo.put("b", 2)
        assert len(memo) == 2
        memo.put("c", 3)  # full: the oldest entry goes
        assert "a" not in memo
        assert memo.get("a") is None
        assert (memo.get("b"), memo.get("c")) == (2, 3)
        assert len(memo) == 2

    def test_hit_refreshes_recency(self):
        memo = DecodeMemo(3)
        memo.put("a", 1)
        memo.put("b", 2)
        # A hit refreshes even below capacity: "b" is now the least recent.
        assert memo.get("a") == 1
        memo.put("c", 3)
        memo.put("d", 4)
        assert "b" not in memo
        assert all(key in memo for key in "acd")

    def test_put_of_a_present_key_replaces_and_refreshes(self):
        memo = DecodeMemo(2)
        memo.put("a", 1)
        memo.put("b", 2)
        memo.put("a", 10)
        memo.put("c", 3)
        assert "b" not in memo
        assert memo.get("a") == 10
        memo.clear()
        assert len(memo) == 0
