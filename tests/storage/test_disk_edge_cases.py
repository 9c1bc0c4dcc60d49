"""Edge-case and invariant tests for the storage substrate that the basic
suites do not touch: allocator fragmentation, interleaved files, stats
consistency under mixed workloads."""

import random

import pytest

from repro.core import Field, Schema
from repro.core.errors import PageError
from repro.storage import CostModel, HeapFile, RecordPageCache, SimulatedDisk


@pytest.fixture
def disk():
    return SimulatedDisk(
        page_size=512, cost=CostModel(seek_time=1e-3, transfer_rate=512e3)
    )


class TestAllocatorFragmentation:
    def test_interleaved_alloc_free_cycles(self, disk):
        """Alloc/free churn must never double-assign a live page."""
        rng = random.Random(0)
        live: dict[int, int] = {}  # start -> count
        for _ in range(200):
            if live and rng.random() < 0.45:
                start = rng.choice(list(live))
                disk.free(start, live.pop(start))
            else:
                count = rng.randrange(1, 8)
                start = disk.allocate(count)
                for other_start, other_count in live.items():
                    assert (start + count <= other_start
                            or other_start + other_count <= start), (
                        "overlapping extents handed out"
                    )
                live[start] = count
        assert disk.allocated_pages == sum(live.values())

    def test_exact_fit_reuse_preferred(self, disk):
        a = disk.allocate(3)
        b = disk.allocate(5)
        disk.free(a, 3)
        disk.free(b, 5)
        assert disk.allocate(5) == b
        assert disk.allocate(3) == a

    def test_mismatched_sizes_go_to_high_water(self, disk):
        a = disk.allocate(3)
        disk.free(a, 3)
        c = disk.allocate(4)  # no 4-page extent free: fresh pages
        assert c != a


class TestWriteReadInterleaving:
    def test_two_files_alternating_appends(self, disk):
        schema = Schema([Field("k", "i8")])
        a = HeapFile.create(disk, schema, name="a")
        b = HeapFile.create(disk, schema, name="b")
        for i in range(500):
            (a if i % 2 == 0 else b).append((i,))
        a.flush()
        b.flush()
        assert [r[0] for r in a.scan()] == list(range(0, 500, 2))
        assert [r[0] for r in b.scan()] == list(range(1, 500, 2))

    def test_overwrite_page_updates_content(self, disk):
        pid = disk.allocate()
        disk.write_page(pid, b"one")
        disk.write_page(pid, b"two")
        assert disk.read_page(pid)[:3] == b"two"


class TestStatsConsistency:
    def test_io_time_equals_clock_without_cpu(self, disk):
        start = disk.allocate(10)
        for i in range(10):
            disk.read_page(start + i)
        assert disk.stats.io_time == pytest.approx(disk.clock)
        assert disk.stats.cpu_time == 0.0

    def test_mixed_accounting_sums(self, disk):
        pid = disk.allocate()
        disk.read_page(pid)
        disk.charge_cpu(0.25)
        assert disk.clock == pytest.approx(
            disk.stats.io_time + disk.stats.cpu_time
        )

    def test_sequential_plus_seeks_partition_accesses(self, disk):
        start = disk.allocate(6)
        order = [0, 1, 2, 5, 4, 3]  # two breaks
        for offset in order:
            disk.read_page(start + offset)
        stats = disk.stats
        assert stats.seeks + stats.sequential_accesses == len(order)


class TestPageCacheUnderChurn:
    def test_random_access_pattern_consistent(self, disk):
        start = disk.allocate(20)
        for i in range(20):
            disk.write_page(start + i, bytes([i]))
        cache = RecordPageCache(disk, 5, lambda data: data)
        rng = random.Random(1)
        for _ in range(300):
            pid = start + rng.randrange(20)
            assert cache.read(pid)[0] == pid - start
            assert len(cache) <= 5
        assert cache.hits + cache.misses == 300


class TestPageIdSpaceIsolation:
    def test_cannot_read_beyond_allocation(self, disk):
        disk.allocate(3)
        with pytest.raises(PageError):
            disk.read_page(3)
