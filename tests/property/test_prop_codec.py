"""Property tests pinning the batched fast paths to the legacy semantics.

Three families of invariants guard the wall-clock optimizations:

* the batched page codec (``pack_many``/``unpack_many``/``unpack_column``/
  ``PageView``) is byte- and value-identical to the per-record ``struct``
  codec across randomized schemas;
* the sort fast path (raw pages, index sorts, planned merge) produces the
  same record order as the streaming ``key=`` path — and charges the same
  simulated cost, access for access;
* ``key_field`` ordering equals the equivalent key callable's.
"""

import importlib
import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.acetree import AceBuildParams, build_ace_tree
from repro.core import Field, Schema
from repro.storage import CostModel, HeapFile, SimulatedDisk, external_sort

ext_sort_mod = importlib.import_module("repro.storage.external_sort")

# -- randomized schemas -----------------------------------------------------

_field_strategy = st.sampled_from(
    [("i8", None), ("f8", None), ("bytes", 1), ("bytes", 5), ("bytes", 16)]
)


@st.composite
def schema_and_records(draw, max_records=60):
    kinds = draw(st.lists(_field_strategy, min_size=1, max_size=5))
    fields = [
        Field(f"f{i}", kind, size) if kind == "bytes" else Field(f"f{i}", kind)
        for i, (kind, size) in enumerate(kinds)
    ]
    schema = Schema(fields)
    value_strategies = []
    for kind, size in kinds:
        if kind == "i8":
            value_strategies.append(
                st.integers(min_value=-(2**63), max_value=2**63 - 1)
            )
        elif kind == "f8":
            value_strategies.append(st.floats(allow_nan=False, width=64))
        else:
            value_strategies.append(st.binary(min_size=size, max_size=size))
    records = draw(
        st.lists(st.tuples(*value_strategies), max_size=max_records)
    )
    return schema, records


def _legacy_blob(schema: Schema, records) -> bytes:
    """Reference encoding: one independent per-record struct per record."""
    fmt = "<" + "".join(
        f"{f.size}s" if f.kind == "bytes" else {"i8": "q", "f8": "d"}[f.kind]
        for f in schema.fields
    )
    one = struct.Struct(fmt)
    return b"".join(one.pack(*record) for record in records)


class TestBatchedCodecMatchesLegacy:
    @given(schema_and_records())
    @settings(max_examples=60, deadline=None)
    def test_pack_many_byte_identical(self, schema_records):
        schema, records = schema_records
        assert schema.pack_many(records) == _legacy_blob(schema, records)

    @given(schema_and_records())
    @settings(max_examples=60, deadline=None)
    def test_unpack_many_matches_per_record(self, schema_records):
        schema, records = schema_records
        blob = _legacy_blob(schema, records)
        size = schema.record_size
        per_record = [
            schema.unpack(blob[i * size:(i + 1) * size])
            for i in range(len(records))
        ]
        assert schema.unpack_many(blob, len(records)) == per_record

    @given(schema_and_records())
    @settings(max_examples=40, deadline=None)
    def test_page_view_and_columns_match(self, schema_records):
        schema, records = schema_records
        blob = schema.pack_many(records)
        decoded = schema.unpack_many(blob, len(records))
        view = schema.page_view(blob, len(records))
        assert view.records == decoded
        for index, field in enumerate(schema.fields):
            column = schema.unpack_column(blob, len(records), field.name)
            assert column == [r[index] for r in decoded]

    @given(schema_and_records())
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_is_byte_identity(self, schema_records):
        """pack(unpack(x)) == x — the invariant that lets the sort move
        packed rows without decoding them."""
        schema, records = schema_records
        blob = schema.pack_many(records)
        assert schema.pack_many(schema.unpack_many(blob, len(records))) == blob


# -- sort fast path vs streaming path ---------------------------------------

SORT_SCHEMA = Schema([Field("k", "i8"), Field("v", "f8"), Field("tag", "bytes", 6)])

# Small key domain forces duplicate keys, so tie order (stability) is
# actually exercised; small memory_pages forces multi-run merges.
sort_records = st.lists(
    st.tuples(
        st.integers(min_value=-8, max_value=8),
        st.floats(allow_nan=False, width=64),
        st.binary(max_size=6),
    ),
    max_size=200,
)


def _sorted_run(records, memory_pages, fast, **sort_kwargs):
    """Sort on a fresh disk; returns (records, clock, stats tuple)."""
    disk = SimulatedDisk(page_size=1024, cost=CostModel.scaled(1024))
    heap = HeapFile.bulk_load(disk, SORT_SCHEMA, records)
    old = ext_sort_mod.USE_FAST_PATH
    ext_sort_mod.USE_FAST_PATH = fast
    try:
        out = external_sort(heap, memory_pages=memory_pages, **sort_kwargs)
    finally:
        ext_sort_mod.USE_FAST_PATH = old
    stats = disk.stats
    return (
        list(out.scan()),
        disk.clock,
        (stats.page_reads, stats.page_writes, stats.seeks),
    )


class TestFastPathEqualsStreamingPath:
    @given(sort_records, st.integers(3, 6))
    @settings(max_examples=25, deadline=None)
    def test_same_records_and_same_simulated_cost(self, records, memory_pages):
        key = SORT_SCHEMA.key_getter("k")
        fast = _sorted_run(records, memory_pages, fast=True, key=key)
        slow = _sorted_run(records, memory_pages, fast=False, key=key)
        assert fast[0] == slow[0]  # identical record order (incl. ties)
        assert fast[1] == slow[1]  # bit-identical simulated clock
        assert fast[2] == slow[2]  # same reads/writes/seeks

    @given(sort_records, st.integers(3, 6))
    @settings(max_examples=25, deadline=None)
    def test_key_field_equals_key_callable(self, records, memory_pages):
        by_field = _sorted_run(
            records, memory_pages, fast=True, key_field="k"
        )
        by_callable = _sorted_run(
            records, memory_pages, fast=True, key=lambda r: r[0]
        )
        assert by_field[0] == by_callable[0]
        assert by_field[1] == by_callable[1]

    @given(sort_records)
    @settings(max_examples=15, deadline=None)
    def test_index_sort_order_equals_list_sort(self, records):
        """The decorate/index-sort used by run generation reproduces
        ``sorted(key=...)`` exactly, ties included."""
        key = SORT_SCHEMA.key_getter("k")
        keys = list(map(key, records))
        order = sorted(range(len(records)), key=keys.__getitem__)
        assert [records[i] for i in order] == sorted(records, key=key)


class TestAceBuildFastPathEquivalence:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=10**6),
                st.floats(allow_nan=False, width=64),
                st.binary(max_size=6),
            ),
            min_size=8,
            max_size=120,
        ),
        st.integers(0, 3),
    )
    @settings(max_examples=10, deadline=None)
    def test_build_identical_with_fast_path_off(self, records, seed):
        """The whole construction pipeline — vectorized decorate, planned
        merges, replayed page schedule — yields the same tree bytes and the
        same simulated clock as the streaming implementation."""

        def build(fast):
            disk = SimulatedDisk(page_size=1024, cost=CostModel.scaled(1024))
            heap = HeapFile.bulk_load(disk, SORT_SCHEMA, records)
            old = ext_sort_mod.USE_FAST_PATH
            ext_sort_mod.USE_FAST_PATH = fast
            try:
                tree = build_ace_tree(
                    heap,
                    AceBuildParams(key_fields=("k",), height=3, seed=seed),
                )
            finally:
                ext_sort_mod.USE_FAST_PATH = old
            leaves = [
                (leaf.index, leaf.counts, leaf.page.records)
                for leaf in map(tree.leaf_store.read_leaf_view,
                                range(tree.num_leaves))
            ]
            return leaves, disk.clock

        fast_leaves, fast_clock = build(True)
        slow_leaves, slow_clock = build(False)
        assert fast_leaves == slow_leaves
        assert fast_clock == slow_clock
