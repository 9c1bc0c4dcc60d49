"""Property-based tests for the DDL parser, the leaf store and the view's
delta merge."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.acetree import AceBuildParams, build_ace_tree
from repro.acetree.storage import LeafStoreWriter
from repro.core import Box, Field, Interval, Schema
from repro.core.rng import derive_random
from repro.storage import CostModel, HeapFile, SimulatedDisk
from repro.testkit.generators import (
    KV_SCHEMA,
    build_ace,
    key_lists,
    sql_identifiers,
    sql_numbers,
)
from repro.view import CreateSampleView, MaterializedSampleView, SampleSelect, parse

identifier = sql_identifiers()
number = sql_numbers()


class TestDdlRoundtrip:
    @given(identifier, identifier, st.lists(identifier, min_size=1, max_size=3,
                                            unique=True))
    def test_create_roundtrip(self, view, table, columns):
        sql = (
            f"CREATE MATERIALIZED SAMPLE VIEW {view} AS SELECT * FROM {table} "
            f"INDEX ON {', '.join(columns)}"
        )
        got = parse(sql)
        assert isinstance(got, CreateSampleView)
        assert got.view_name == view
        assert got.table_name == table
        assert got.index_on == tuple(columns)

    @given(
        identifier,
        st.lists(
            st.tuples(identifier, number, number), min_size=1, max_size=3
        ),
        st.one_of(st.none(), st.integers(0, 10**6)),
    )
    def test_select_roundtrip(self, view, predicates, sample_size):
        clauses = []
        expected = []
        for column, a, b in predicates:
            lo, hi = min(a, b), max(a, b)
            clauses.append(f"{column} BETWEEN {lo} AND {hi}")
            expected.append((column, lo, hi))
        sql = f"SELECT * FROM {view} WHERE {' AND '.join(clauses)}"
        if sample_size is not None:
            sql += f" SAMPLE {sample_size}"
        got = parse(sql)
        assert isinstance(got, SampleSelect)
        assert got.view_name == view
        assert got.sample_size == sample_size
        assert len(got.predicates) == len(expected)
        for (col, lo, hi), (ecol, elo, ehi) in zip(got.predicates, expected):
            assert col == ecol
            assert lo == float(elo)
            assert hi == float(ehi)


leaf_sections = st.lists(  # one leaf: h=3 sections of records
    st.lists(st.tuples(st.integers(-100, 100), st.floats(allow_nan=False,
                                                         width=32)),
             max_size=12),
    min_size=3, max_size=3,
)


def packed(sections):
    """``append_leaf``'s (counts, payload) for per-section record lists."""
    return [len(s) for s in sections], b"".join(map(KV_SCHEMA.pack_many, sections))


class TestLeafStoreRoundtrip:
    @given(st.lists(leaf_sections, min_size=1, max_size=6))
    @settings(max_examples=30, deadline=None)
    def test_arbitrary_leaves_roundtrip(self, leaves):
        disk = SimulatedDisk(page_size=256, cost=CostModel.scaled(256))
        writer = LeafStoreWriter(disk, KV_SCHEMA, height=3, num_leaves=len(leaves))
        for index, sections in enumerate(leaves):
            writer.append_leaf(index, *packed(sections))
        store = writer.finish()
        for index, sections in enumerate(leaves):
            leaf = store.read_leaf_view(index)
            for s in range(3):
                assert list(leaf.section_records(s + 1)) == sections[s]

    @given(st.lists(leaf_sections, min_size=1, max_size=4),
           st.integers(0, 3))
    @settings(max_examples=20, deadline=None)
    def test_sparse_leaves(self, leaves, gap):
        """Writers may skip leaf indexes; gaps read back as empty leaves."""
        disk = SimulatedDisk(page_size=256, cost=CostModel.scaled(256))
        total = len(leaves) + gap
        writer = LeafStoreWriter(disk, KV_SCHEMA, height=3, num_leaves=total)
        for offset, sections in enumerate(leaves):
            writer.append_leaf(gap + offset, *packed(sections))
        store = writer.finish()
        for index in range(gap):
            assert store.read_leaf_view(index).num_records == 0


# -- delta merge ---------------------------------------------------------------

#: Integer 2-D keys, so fractional query bounds fall between key values.
XY_INT_SCHEMA = Schema([Field("x", "i8"), Field("y", "i8"), Field("id", "f8")])

#: Query bounds over keys in [0, 100]: whole and fractional values, some
#: outside the key range.
bound = st.one_of(
    st.integers(-5, 105).map(float),
    st.floats(-5.0, 105.0, allow_nan=False),
)
bound_pair = st.tuples(bound, bound).map(lambda pair: (min(pair), max(pair)))


def view_1d(keys, height, seed):
    _records, tree = build_ace(keys, height, seed)
    return MaterializedSampleView(name="v1", tree=tree, seed=seed)


def view_2d(points, height, seed):
    disk = SimulatedDisk(page_size=1024, cost=CostModel.scaled(1024))
    records = [(x, y, float(i)) for i, (x, y) in enumerate(points)]
    heap = HeapFile.bulk_load(disk, XY_INT_SCHEMA, records)
    tree = build_ace_tree(
        heap, AceBuildParams(key_fields=("x", "y"), height=height, seed=seed)
    )
    return MaterializedSampleView(name="v2", tree=tree, seed=seed)


def reference_stream(view, delta, query, seed):
    """The delta merge with a per-record ``Box.contains_point`` filter.

    ``view`` holds ``delta`` and is otherwise untouched; yields
    ``(records, clock)`` per batch, as ``view.sample`` would.
    """
    rng = derive_random(seed, "view-delta")
    key_of = view.tree.schema.keys_getter(view.key_fields)
    disk = view.tree.disk
    matching = [r for r in delta if query.contains_point(key_of(r))]
    rng.shuffle(matching)
    disk.charge_records(len(delta))
    tree_stream = view.tree.sample(query, seed=seed)
    buffer = []
    tree_left = round(view.tree.estimate_count(query))
    delta_left = len(matching)
    while delta_left or not tree_stream.exhausted or buffer:
        total = tree_left + delta_left
        if delta_left > 0 and (total <= 0 or rng.random() < delta_left / total):
            record = matching[len(matching) - delta_left]
            delta_left -= 1
            yield (record,), disk.clock
            continue
        while not buffer:
            batch = next(tree_stream, None)
            if batch is None:
                break
            buffer.extend(batch.records)
        if not buffer:
            tree_left = 0
            if not delta_left:
                return
            continue
        tree_left = max(tree_left - 1, 0)
        yield (buffer.pop(),), disk.clock


def assert_view_matches_reference(make_view, delta, query, seed):
    """``view.sample``/``estimate_count`` against the reference, on twin
    views (separate disks, so both start from the same clock)."""
    view, twin = make_view(), make_view()
    view.insert(delta)
    twin.insert(delta)
    key_of = twin.tree.schema.keys_getter(twin.key_fields)
    in_delta = sum(1 for r in delta if query.contains_point(key_of(r)))
    assert view.estimate_count(query) == twin.tree.estimate_count(query) + in_delta
    got = [(batch.records, batch.clock) for batch in view.sample(query, seed=seed)]
    assert got == list(reference_stream(twin, delta, query, seed))


class TestDeltaMergeFilter:
    """The view's compiled delta filter keeps exactly the records, in the
    order, that ``Box.contains_point`` keeps."""

    @given(
        key_lists(0, 100, min_size=1, max_size=150),
        key_lists(-5, 105, min_size=1, max_size=40),
        bound_pair,
        st.integers(2, 4),
        st.integers(0, 5),
    )
    @settings(max_examples=25, deadline=None)
    def test_1d_stream_and_estimate(self, keys, delta_keys, bounds, height, seed):
        delta = [(k, -1.0 - i) for i, k in enumerate(delta_keys)]
        query = Box.of(Interval(*bounds))
        assert_view_matches_reference(
            lambda: view_1d(keys, height, seed), delta, query, seed
        )

    @given(
        st.lists(st.tuples(st.integers(0, 100), st.integers(0, 100)),
                 min_size=1, max_size=150),
        st.lists(st.tuples(st.integers(-5, 105), st.integers(-5, 105)),
                 min_size=1, max_size=40),
        bound_pair,
        bound_pair,
        st.integers(3, 5),
        st.integers(0, 5),
    )
    @settings(max_examples=25, deadline=None)
    def test_2d_stream_and_estimate(self, points, delta_points, xs, ys, height,
                                    seed):
        delta = [(x, y, -1.0 - i) for i, (x, y) in enumerate(delta_points)]
        query = Box.of(Interval(*xs), Interval(*ys))
        assert_view_matches_reference(
            lambda: view_2d(points, height, seed), delta, query, seed
        )
