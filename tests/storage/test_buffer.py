"""Unit tests for the decoded-page cache (the baselines' buffer manager)."""

import pytest

from repro.core.errors import BufferPoolError
from repro.storage import CostModel, RecordPageCache, SimulatedDisk


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
