"""Unit tests for heap files."""

import pytest

from repro.core import Field, Schema
from repro.core.errors import HeapFileError
from repro.storage import CostModel, HeapFile, SimulatedDisk

from ..conftest import make_kv_records


@pytest.fixture
def disk():
    return SimulatedDisk(page_size=2048, cost=CostModel.scaled(2048))


@pytest.fixture
def schema():
    return Schema([Field("k", "i8"), Field("v", "f8"), Field("pad", "bytes", 84)])


class TestGeometry:
    def test_records_per_page(self, disk, schema):
        heap = HeapFile.create(disk, schema)
        # (2048 - 4) // 100 = 20
        assert heap.records_per_page == 20

    def test_record_too_big_rejected(self, disk):
        fat = Schema([Field("blob", "bytes", 4096)])
        with pytest.raises(HeapFileError):
            HeapFile.create(disk, fat)

    def test_page_count(self, disk, schema):
        heap = HeapFile.bulk_load(disk, schema, make_kv_records(45))
        assert heap.num_pages == 3  # 20 + 20 + 5
        assert heap.num_records == 45

    def test_total_bytes(self, disk, schema):
        heap = HeapFile.bulk_load(disk, schema, make_kv_records(45))
        assert heap.total_bytes == 3 * 2048


class TestBulkLoadAndScan:
    def test_roundtrip_preserves_order_and_values(self, disk, schema):
        records = make_kv_records(123, seed=5)
        heap = HeapFile.bulk_load(disk, schema, records)
        got = list(heap.scan())
        assert len(got) == 123
        for original, stored in zip(records, got):
            assert stored[0] == original[0]
            assert stored[1] == original[1]
            assert stored[2] == b"\x00" * 84

    def test_empty_file(self, disk, schema):
        heap = HeapFile.bulk_load(disk, schema, [])
        assert heap.num_records == 0
        assert heap.num_pages == 0
        assert list(heap.scan()) == []

    def test_scan_is_sequential(self, disk, schema):
        heap = HeapFile.bulk_load(disk, schema, make_kv_records(200))
        disk.reset_clock()
        list(heap.scan())
        # One seek to reach the extent, then pure transfers.
        assert disk.stats.seeks == 1
        assert disk.stats.page_reads == heap.num_pages

    def test_scan_pages_yields_page_units(self, disk, schema):
        heap = HeapFile.bulk_load(disk, schema, make_kv_records(45))
        pages = list(heap.scan_pages())
        assert [len(p) for p in pages] == [20, 20, 5]

    def test_read_page_records(self, disk, schema):
        records = make_kv_records(45)
        heap = HeapFile.bulk_load(disk, schema, records)
        page1 = heap.read_page_records(1)
        assert [r[0] for r in page1] == [r[0] for r in records[20:40]]

    def test_read_page_out_of_range(self, disk, schema):
        heap = HeapFile.bulk_load(disk, schema, make_kv_records(10))
        with pytest.raises(HeapFileError):
            heap.read_page_records(5)


class TestBulkLoadPacked:
    def _chunks(self, schema, records, cuts):
        blob = schema.pack_many(records)
        bounds = [0, *cuts, len(blob)]
        return [blob[a:b] for a, b in zip(bounds, bounds[1:])]

    def test_matches_bulk_load(self, schema):
        records = make_kv_records(75, seed=3)
        expected_disk = SimulatedDisk(page_size=2048, cost=CostModel.scaled(2048))
        HeapFile.bulk_load(expected_disk, schema, records)
        size = schema.record_size
        # One chunk, record-aligned chunks, and records split across chunks.
        for cuts in ([], [20 * size, 21 * size], [150, 151, 2100, 4000]):
            disk = SimulatedDisk(page_size=2048, cost=CostModel.scaled(2048))
            heap = HeapFile.bulk_load_packed(
                disk, schema, self._chunks(schema, records, cuts)
            )
            assert disk._pages == expected_disk._pages
            assert repr(disk.clock) == repr(expected_disk.clock)
            assert disk.stats == expected_disk.stats
            assert list(heap.scan()) == [
                schema.unpack(schema.pack(r)) for r in records
            ]

    def test_pages_written_before_next_chunk_is_pulled(self, disk, schema):
        size, per_page = schema.record_size, 20
        writes = []

        def chunks():
            for n in (15, 10, 20, 5):
                writes.append(disk.stats.page_writes)
                yield bytes(n * size)

        heap = HeapFile.bulk_load_packed(disk, schema, chunks())
        # Pages fill after 25 and 45 records; the partial tail comes last.
        assert writes == [0, 0, 1, 2]
        assert heap.num_records == 50 and heap.num_pages == 3
        assert disk.stats.page_writes == 3 and per_page == heap.records_per_page

    def test_chunks_off_record_boundary_rejected(self, disk, schema):
        blob = schema.pack_many(make_kv_records(30, seed=4))
        before = disk.allocated_pages
        with pytest.raises(HeapFileError):
            HeapFile.bulk_load_packed(disk, schema, [blob, b"\0" * 7])
        assert disk.allocated_pages == before

    def test_no_chunks_gives_empty_file(self, disk, schema):
        heap = HeapFile.bulk_load_packed(disk, schema, [])
        assert heap.num_records == 0 and heap.num_pages == 0

    def test_failing_input_frees_the_written_pages(self, disk, schema):
        records = make_kv_records(100, seed=4)
        blob = schema.pack_many(records)

        def failing(items):
            yield from items
            raise RuntimeError("input failed")

        before = disk.allocated_pages
        with pytest.raises(RuntimeError):
            HeapFile.bulk_load_packed(disk, schema, failing([blob]))
        assert disk.allocated_pages == before
        with pytest.raises(RuntimeError):
            HeapFile.bulk_load(disk, schema, failing(records))
        assert disk.allocated_pages == before


class TestAppend:
    def test_append_buffers_until_page_full(self, disk, schema):
        heap = HeapFile.create(disk, schema)
        for record in make_kv_records(19):
            heap.append(record)
        assert heap.num_records == 19
        assert len(heap.page_ids) == 0  # still buffered
        heap.append((1, 1.0, b""))
        assert len(heap.page_ids) == 1  # page flushed at 20

    def test_tail_visible_to_scan(self, disk, schema):
        heap = HeapFile.create(disk, schema)
        heap.append((7, 1.5, b""))
        got = list(heap.scan())
        assert len(got) == 1
        assert got[0][0] == 7

    def test_flush(self, disk, schema):
        heap = HeapFile.create(disk, schema)
        heap.extend(make_kv_records(5))
        heap.flush()
        assert len(heap.page_ids) == 1
        assert heap.num_records == 5

    def test_flush_empty_noop(self, disk, schema):
        heap = HeapFile.create(disk, schema)
        heap.flush()
        assert heap.num_pages == 0


class TestLifecycle:
    def test_free_releases_pages(self, disk, schema):
        heap = HeapFile.bulk_load(disk, schema, make_kv_records(50))
        allocated = disk.allocated_pages
        assert allocated > 0
        heap.free()
        assert disk.allocated_pages == 0

    def test_free_idempotent(self, disk, schema):
        heap = HeapFile.bulk_load(disk, schema, make_kv_records(10))
        heap.free()
        heap.free()

    def test_use_after_free_rejected(self, disk, schema):
        heap = HeapFile.bulk_load(disk, schema, make_kv_records(10))
        heap.free()
        with pytest.raises(HeapFileError):
            list(heap.scan())
        with pytest.raises(HeapFileError):
            heap.append((1, 1.0, b""))

    def test_two_files_interleaved(self, disk, schema):
        a = HeapFile.bulk_load(disk, schema, make_kv_records(30, seed=1))
        b = HeapFile.bulk_load(disk, schema, make_kv_records(30, seed=2))
        assert set(a.page_ids).isdisjoint(b.page_ids)
        assert [r[0] for r in a.scan()] == [r[0] for r in make_kv_records(30, seed=1)]


class TestDecodePage:
    def test_corrupt_count_rejected(self, disk, schema):
        heap = HeapFile.bulk_load(disk, schema, make_kv_records(5))
        bad = (9999).to_bytes(4, "little") + bytes(2044)
        with pytest.raises(HeapFileError):
            heap.decode_page(bad)
