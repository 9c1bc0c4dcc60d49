"""Unit tests for the TPMMS external sort."""

from itertools import chain

import pytest

from repro.core import Field, Schema
from repro.core.errors import SortError
from repro.storage import (
    CostModel,
    HeapFile,
    SimulatedDisk,
    external_sort,
    external_sort_to_sink,
    merge_runs,
)

from ..conftest import make_kv_records


@pytest.fixture
def disk():
    return SimulatedDisk(page_size=2048, cost=CostModel.scaled(2048))


@pytest.fixture
def schema():
    return Schema([Field("k", "i8"), Field("v", "f8"), Field("pad", "bytes", 84)])


def _load(disk, schema, n, seed=0):
    return HeapFile.bulk_load(disk, schema, make_kv_records(n, seed=seed), name="in")


def _flatten(blocks):
    """The records of a sink's blocks, in order."""
    return list(chain.from_iterable(blocks))


class TestExternalSort:
    def test_sorts_by_key(self, disk, schema):
        heap = _load(disk, schema, 500, seed=3)
        out = external_sort(heap, key=lambda r: r[0], memory_pages=4)
        keys = [r[0] for r in out.scan()]
        assert keys == sorted(keys)
        assert out.num_records == 500

    def test_result_is_permutation(self, disk, schema):
        heap = _load(disk, schema, 500, seed=3)
        before = sorted((r[0], r[1]) for r in heap.scan())
        out = external_sort(heap, key=lambda r: r[0], memory_pages=4)
        after = sorted((r[0], r[1]) for r in out.scan())
        assert before == after

    def test_single_run_input(self, disk, schema):
        """Input fits in sort memory: one run, no merging needed."""
        heap = _load(disk, schema, 50)
        out = external_sort(heap, key=lambda r: r[0], memory_pages=64)
        keys = [r[0] for r in out.scan()]
        assert keys == sorted(keys)

    def test_many_merge_passes(self, disk, schema):
        """memory_pages=3 forces fan-in 2, so several merge passes run."""
        heap = _load(disk, schema, 1000, seed=9)
        out = external_sort(heap, key=lambda r: r[0], memory_pages=3)
        keys = [r[0] for r in out.scan()]
        assert keys == sorted(keys)

    def test_empty_input(self, disk, schema):
        heap = HeapFile.bulk_load(disk, schema, [])
        out = external_sort(heap, key=lambda r: r[0])
        assert out.num_records == 0

    def test_stable_for_equal_keys(self, disk, schema):
        records = [(5, float(i), b"") for i in range(100)]
        heap = HeapFile.bulk_load(disk, schema, records)
        out = external_sort(heap, key=lambda r: r[0], memory_pages=3)
        values = [r[1] for r in out.scan()]
        assert values == [float(i) for i in range(100)]

    def test_descending_key(self, disk, schema):
        heap = _load(disk, schema, 300)
        out = external_sort(heap, key=lambda r: -r[0], memory_pages=4)
        keys = [r[0] for r in out.scan()]
        assert keys == sorted(keys, reverse=True)

    def test_source_left_intact(self, disk, schema):
        heap = _load(disk, schema, 200)
        before = [r[0] for r in heap.scan()]
        external_sort(heap, key=lambda r: r[0], memory_pages=4)
        assert [r[0] for r in heap.scan()] == before

    def test_free_source(self, disk, schema):
        heap = _load(disk, schema, 200)
        out = external_sort(heap, key=lambda r: r[0], memory_pages=4,
                            free_source=True)
        assert out.num_records == 200
        from repro.core.errors import HeapFileError
        with pytest.raises(HeapFileError):
            list(heap.scan())

    def test_temp_space_released(self, disk, schema):
        heap = _load(disk, schema, 500)
        pages_before = disk.allocated_pages
        out = external_sort(heap, key=lambda r: r[0], memory_pages=3)
        # Only the source and the output remain allocated (extent-granular).
        assert disk.allocated_pages <= pages_before + out.num_pages + 256

    def test_memory_pages_validated(self, disk, schema):
        heap = _load(disk, schema, 10)
        with pytest.raises(SortError):
            external_sort(heap, key=lambda r: r[0], memory_pages=2)

    def test_clock_advances(self, disk, schema):
        heap = _load(disk, schema, 500)
        before = disk.clock
        external_sort(heap, key=lambda r: r[0], memory_pages=4)
        assert disk.clock > before


class TestTransform:
    def test_transform_applied(self, disk, schema):
        heap = _load(disk, schema, 100)
        decorated_schema = Schema([Field("tag", "i8")] + list(schema.fields))
        out = external_sort(
            heap,
            key=lambda r: r[1],  # the original key, shifted by the tag
            memory_pages=4,
            transform=lambda r: (7,) + r,
            output_schema=decorated_schema,
        )
        got = list(out.scan())
        assert all(r[0] == 7 for r in got)
        keys = [r[1] for r in got]
        assert keys == sorted(keys)  # key saw the decorated record

    def test_transform_called_once_per_record(self, disk, schema):
        heap = _load(disk, schema, 100)
        calls = []

        def transform(record):
            calls.append(1)
            return record

        external_sort(heap, key=lambda r: r[0], memory_pages=4,
                      transform=transform)
        assert len(calls) == 100


class TestSink:
    def test_sink_receives_sorted_stream(self, disk, schema):
        heap = _load(disk, schema, 400, seed=2)
        collected = []

        def sink(blocks):
            collected.extend(_flatten(blocks))
            return "done"

        result = external_sort_to_sink(
            heap, key=lambda r: r[0], sink=sink, memory_pages=3
        )
        assert result == "done"
        keys = [r[0] for r in collected]
        assert keys == sorted(keys)
        assert len(collected) == 400

    def test_sink_single_run(self, disk, schema):
        heap = _load(disk, schema, 30)
        got = external_sort_to_sink(
            heap, key=lambda r: r[0], sink=_flatten, memory_pages=64
        )
        assert len(got) == 30

    def test_sink_empty_input(self, disk, schema):
        heap = HeapFile.bulk_load(disk, schema, [])
        got = external_sort_to_sink(heap, key=lambda r: r[0], sink=_flatten)
        assert got == []

    def test_sink_runs_freed_even_on_error(self, disk, schema):
        heap = _load(disk, schema, 400)
        pages_before = disk.allocated_pages

        def exploding_sink(stream):
            next(stream)
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            external_sort_to_sink(
                heap, key=lambda r: r[0], sink=exploding_sink, memory_pages=3
            )
        assert disk.allocated_pages <= pages_before + 256


class TestMergeRuns:
    def test_merge_two_runs(self, disk, schema):
        a = HeapFile.bulk_load(disk, schema, [(i, 0.0, b"") for i in range(0, 100, 2)])
        b = HeapFile.bulk_load(disk, schema, [(i, 0.0, b"") for i in range(1, 100, 2)])
        out = merge_runs([a, b], key=lambda r: r[0])
        assert [r[0] for r in out.scan()] == list(range(100))

    def test_merge_single_run_adopts(self, disk, schema):
        a = HeapFile.bulk_load(disk, schema, [(1, 0.0, b"")], name="x")
        out = merge_runs([a], key=lambda r: r[0], name="y")
        assert out is a
        assert out.name == "y"

    def test_merge_empty_list_rejected(self, disk, schema):
        with pytest.raises(SortError):
            merge_runs([], key=lambda r: r[0])
