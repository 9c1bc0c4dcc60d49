"""Unit tests for the variable-size leaf store."""

import struct

import pytest

from repro.acetree.storage import LeafStoreWriter
from repro.core import Field, Schema
from repro.core.errors import SerializationError, StorageError
from repro.storage import CostModel, SimulatedDisk


@pytest.fixture
def disk():
    return SimulatedDisk(page_size=512, cost=CostModel.scaled(512))


@pytest.fixture
def schema():
    return Schema([Field("k", "i8"), Field("v", "f8")])


def packed(schema, sections):
    """``append_leaf``'s (counts, payload) for per-section record lists."""
    return [len(s) for s in sections], b"".join(map(schema.pack_many, sections))


def sections_for(height, records):
    """Spread records round-robin over ``height`` sections."""
    sections = [[] for _ in range(height)]
    for i, record in enumerate(records):
        sections[i % height].append(record)
    return sections


class TestWriterBasics:
    def test_roundtrip_one_leaf(self, disk, schema):
        writer = LeafStoreWriter(disk, schema, height=3, num_leaves=1)
        sections = [[(1, 1.0)], [(2, 2.0), (3, 3.0)], []]
        writer.append_leaf(0, *packed(schema, sections))
        store = writer.finish()
        leaf = store.read_leaf(0)
        assert leaf.index == 0
        assert leaf.section(1) == ((1, 1.0),)
        assert leaf.section(2) == ((2, 2.0), (3, 3.0))
        assert leaf.section(3) == ()

    def test_missing_leaves_filled_empty(self, disk, schema):
        writer = LeafStoreWriter(disk, schema, height=2, num_leaves=4)
        writer.append_leaf(2, *packed(schema, [[(5, 5.0)], []]))
        store = writer.finish()
        assert store.num_leaves == 4
        assert store.read_leaf(0).num_records == 0
        assert store.read_leaf(2).num_records == 1
        assert store.read_leaf(3).num_records == 0

    def test_out_of_order_rejected(self, disk, schema):
        writer = LeafStoreWriter(disk, schema, height=2, num_leaves=4)
        writer.append_leaf(2, *packed(schema, [[], []]))
        with pytest.raises(StorageError):
            writer.append_leaf(1, *packed(schema, [[], []]))

    def test_out_of_range_rejected(self, disk, schema):
        writer = LeafStoreWriter(disk, schema, height=2, num_leaves=2)
        with pytest.raises(StorageError):
            writer.append_leaf(2, *packed(schema, [[], []]))

    def test_wrong_section_count_rejected(self, disk, schema):
        writer = LeafStoreWriter(disk, schema, height=3, num_leaves=1)
        with pytest.raises(SerializationError):
            writer.append_leaf(0, *packed(schema, [[], []]))

    def test_wrong_counts_length_rejected(self, disk, schema):
        writer = LeafStoreWriter(disk, schema, height=3, num_leaves=1)
        payload = schema.pack_many([(1, 1.0)])
        with pytest.raises(SerializationError):
            writer.append_leaf(0, [1, 0], payload)
        with pytest.raises(SerializationError):
            writer.append_leaf(0, [1, 0, 0, 0], payload)

    def test_payload_size_mismatch_rejected(self, disk, schema):
        writer = LeafStoreWriter(disk, schema, height=2, num_leaves=1)
        payload = schema.pack_many([(1, 1.0), (2, 2.0)])
        for bad in (payload[:-1], payload + b"\0", payload[:16]):
            with pytest.raises(SerializationError):
                writer.append_leaf(0, [1, 1], bad)
        writer.append_leaf(0, [1, 1], payload)  # nothing was written before
        assert writer.finish().read_leaf(0).section(2) == ((2, 2.0),)

    def test_packed_leaf_layout(self, disk, schema):
        """Header (index, sections), one count per section, then the
        sections' packed records back to back."""
        writer = LeafStoreWriter(disk, schema, height=2, num_leaves=2)
        writer.append_leaf(1, *packed(schema, [[(7, 7.0)], [(8, 8.0), (9, 9.0)]]))
        store = writer.finish()
        assert store.leaf_byte_size(0) == 6 + 2 * 4
        blob = disk.read_page(store._data_page_ids[0])
        leaf1 = blob[6 + 2 * 4:][:6 + 2 * 4 + 3 * 16]
        assert leaf1 == (
            struct.pack("<IH", 1, 2) + struct.pack("<II", 1, 2)
            + schema.pack_many([(7, 7.0), (8, 8.0), (9, 9.0)])
        )

    def test_double_finish_rejected(self, disk, schema):
        writer = LeafStoreWriter(disk, schema, height=2, num_leaves=1)
        writer.finish()
        with pytest.raises(StorageError):
            writer.finish()

    def test_append_after_finish_rejected(self, disk, schema):
        writer = LeafStoreWriter(disk, schema, height=2, num_leaves=2)
        store = writer.finish()
        assert store.num_leaves == 2
        with pytest.raises(StorageError):
            writer.append_leaf(1, *packed(schema, [[], []]))


class TestVariableSizeLeaves:
    def test_leaf_spanning_pages(self, disk, schema):
        """A 512-byte page holds ~30 records; bigger leaves must span."""
        writer = LeafStoreWriter(disk, schema, height=2, num_leaves=2)
        big = [(i, float(i)) for i in range(100)]
        writer.append_leaf(0, *packed(schema, [big[:50], big[50:]]))
        writer.append_leaf(1, *packed(schema, [[(0, 0.0)], []]))
        store = writer.finish()
        first, span = store.leaf_page_span(0)
        assert span >= 3  # 100 * 16 bytes > 3 pages
        leaf = store.read_leaf(0)
        assert leaf.num_records == 100
        assert leaf.section(1) == tuple(big[:50])
        small = store.read_leaf(1)
        assert small.num_records == 1

    def test_leaf_byte_sizes_sum_to_stream(self, disk, schema):
        writer = LeafStoreWriter(disk, schema, height=2, num_leaves=4)
        for leaf in range(4):
            sections = sections_for(2, [(i, 0.0) for i in range(leaf + 1)])
            writer.append_leaf(leaf, *packed(schema, sections))
        store = writer.finish()
        sizes = [store.leaf_byte_size(i) for i in range(4)]
        assert all(size > 0 for size in sizes)
        # Larger leaves serialize larger.
        assert sizes[3] > sizes[0]

    def test_read_charges_random_then_sequential(self, disk, schema):
        writer = LeafStoreWriter(disk, schema, height=2, num_leaves=1)
        big = [(i, float(i)) for i in range(120)]
        writer.append_leaf(0, *packed(schema, [big, []]))
        store = writer.finish()
        disk.reset_clock()
        store.read_leaf(0)
        _first, span = store.leaf_page_span(0)
        assert disk.stats.seeks == 1
        assert disk.stats.page_reads == span

    def test_pages_read_counts_cold_and_memo_reads(self, disk, schema):
        writer = LeafStoreWriter(disk, schema, height=2, num_leaves=4)
        for leaf in range(4):
            records = [(i, float(i)) for i in range(40 * leaf + 1)]
            writer.append_leaf(leaf, *packed(schema, [records, []]))
        store = writer.finish()
        spans = sum(store.leaf_page_span(i)[1] for i in range(store.num_leaves))
        assert spans > store.num_leaves  # some leaves span pages
        assert store.pages_read == 0
        reads0 = disk.stats.page_reads
        cold = [store.read_leaf_view(i) for i in range(store.num_leaves)]
        memo = [store.read_leaf_view(i) for i in range(store.num_leaves)]
        assert all(a is b for a, b in zip(cold, memo))  # decode memo hits
        assert store.pages_read == 2 * spans
        assert disk.stats.page_reads - reads0 == 2 * spans


class TestReadLeafPayload:
    """The refresh reload's read: read_leaf_view's I/O without the view."""

    def _store(self, disk, schema):
        writer = LeafStoreWriter(disk, schema, height=2, num_leaves=4)
        for leaf in range(4):
            records = [(i, float(i)) for i in range(40 * leaf + 1)]
            writer.append_leaf(leaf, *packed(schema, [records[::2], records[1::2]]))
        return writer.finish()

    def _ledger(self, disk, store):
        return repr(disk.clock), repr(disk.stats), store.pages_read

    @pytest.mark.parametrize("warm", [False, True])
    def test_same_bytes_and_charges_as_the_view_read(self, schema, warm):
        ledgers, payloads = [], []
        for read in ("view", "payload"):
            disk = SimulatedDisk(page_size=512, cost=CostModel.scaled(512))
            store = self._store(disk, schema)
            disk.reset_clock()
            if warm:  # memo hits: the charges must not depend on the memo
                for i in range(store.num_leaves):
                    store.read_leaf_view(i)
            got = []
            for i in range(store.num_leaves):
                if read == "view":
                    got.append(bytes(store.read_leaf_view(i).page.payload))
                else:
                    got.append(bytes(store.read_leaf_payload(i)))
            ledgers.append(self._ledger(disk, store))
            payloads.append(got)
        assert ledgers[0] == ledgers[1]
        assert payloads[0] == payloads[1]

    def test_no_view_is_memoized(self, disk, schema):
        store = self._store(disk, schema)
        store.read_leaf_payload(2)
        assert len(store._memo) == 0
        view = store.read_leaf_view(2)
        assert store.read_leaf_view(2) is view

    def test_opens_the_same_span(self, disk, schema):
        from repro.obs import MetricsRegistry, TraceRecorder

        store = self._store(disk, schema)
        spans = []
        for read in (store.read_leaf_view, store.read_leaf_payload):
            with TraceRecorder(metrics=MetricsRegistry()) as recorder:
                read(3)
            (span,) = recorder.spans
            spans.append((span.name, span.attrs, span.page_reads))
        assert spans[0] == spans[1]
        assert spans[0][0] == "leaf_store.read_leaf"

    def test_corrupt_leaf_raises(self, disk, schema):
        store = self._store(disk, schema)
        page = store._data_page_ids[0]
        disk.write_page(page, b"\xff" * 16 + disk.read_page(page)[16:])
        with pytest.raises(SerializationError):
            store.read_leaf_payload(0)


class TestStoreApi:
    def test_iter_leaves(self, disk, schema):
        writer = LeafStoreWriter(disk, schema, height=2, num_leaves=3)
        for leaf in range(3):
            writer.append_leaf(leaf, *packed(schema, [[(leaf, 0.0)], []]))
        store = writer.finish()
        got = list(store.iter_leaves())
        assert [leaf.index for leaf in got] == [0, 1, 2]
        assert [leaf.section(1)[0][0] for leaf in got] == [0, 1, 2]

    def test_read_out_of_range(self, disk, schema):
        writer = LeafStoreWriter(disk, schema, height=2, num_leaves=1)
        store = writer.finish()
        with pytest.raises(StorageError):
            store.read_leaf(1)
        with pytest.raises(StorageError):
            store.read_leaf(-1)

    def test_free_releases_pages(self, disk, schema):
        writer = LeafStoreWriter(disk, schema, height=2, num_leaves=2)
        writer.append_leaf(0, *packed(schema, [[(1, 1.0)], []]))
        store = writer.finish()
        assert disk.allocated_pages > 0
        store.free()
        assert disk.allocated_pages == 0

    def test_num_pages_counts_directory(self, disk, schema):
        writer = LeafStoreWriter(disk, schema, height=2, num_leaves=2)
        store = writer.finish()
        assert store.num_pages == store.num_data_pages + 1  # 3 offsets fit 1 page
