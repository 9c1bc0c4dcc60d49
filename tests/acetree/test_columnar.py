"""Property tests for the columnar hot path and the sample-reuse cache.

Referenced from :mod:`repro.acetree.query`: the vectorized (columnar) and
scalar paths must be record-for-record identical, and cache-warm streams
must replay cold streams exactly — contents, order, and per-prefix
uniformity.
"""

import random

from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from repro.acetree.query import SampleStream
from repro.core import Box, Interval
from repro.storage.sample_cache import DEFAULT_BUDGET_BYTES, SampleCache
from repro.testkit.generators import build_ace, int_ranges, key_lists
from repro.testkit.stats import prefix_vs_population

keys_strategy = key_lists(max_size=300)
range_strategy = int_ranges()


def stream_batches(stream):
    """[(count, records tuple)] for every batch of a stream."""
    return [(batch.count, batch.records) for batch in stream]


class TestLazyEqualsEager:
    """vectorize=True (columnar) == vectorize=False (scalar fallback)."""

    @given(keys_strategy, range_strategy, st.integers(2, 5), st.integers(0, 6))
    @settings(max_examples=25, deadline=None)
    def test_batches_identical(self, keys, bounds, height, seed):
        _records, tree = build_ace(keys, height, seed)
        query = Box.of(Interval(bounds[0], bounds[1] + 1))
        lazy = stream_batches(
            SampleStream(tree, query, seed=seed, vectorize=True)
        )
        eager = stream_batches(
            SampleStream(tree, query, seed=seed, vectorize=False)
        )
        assert lazy == eager

    @given(keys_strategy, range_strategy, st.integers(2, 4), st.integers(0, 6))
    @settings(max_examples=25, deadline=None)
    def test_batch_count_matches_records(self, keys, bounds, height, seed):
        """A lazy batch's free count equals its materialized length."""
        _records, tree = build_ace(keys, height, seed)
        query = Box.of(Interval(bounds[0], bounds[1] + 1))
        for batch in SampleStream(tree, query, seed=seed):
            assert batch.count == len(batch.records)

    @given(keys_strategy, range_strategy, st.integers(2, 4), st.integers(0, 6))
    @settings(max_examples=25, deadline=None)
    def test_lazy_matches_reference_filter(self, keys, bounds, height, seed):
        """Columnar mask filtering emits exactly the matching records."""
        records, tree = build_ace(keys, height, seed)
        lo, hi = bounds
        query = Box.of(Interval(lo, hi + 1))
        got = sorted(
            r for batch in SampleStream(tree, query, seed=seed)
            for r in batch.records
        )
        assert got == sorted(r for r in records if lo <= r[0] <= hi)


class CountingCache(SampleCache):
    """A :class:`SampleCache` that counts its lookups and logs its puts."""

    def __init__(self, budget_bytes: int = DEFAULT_BUDGET_BYTES) -> None:
        super().__init__(budget_bytes)
        self.gets = 0
        #: ``(key, nbytes)`` of every put, in call order.
        self.puts: list[tuple] = []

    def get(self, key):
        self.gets += 1
        return super().get(key)

    def put(self, key, value, nbytes):
        self.puts.append((key, nbytes))
        super().put(key, value, nbytes)


class TestWarmEqualsCold:
    """Cache-warm streams replay cold streams bit-for-bit."""

    @given(keys_strategy, range_strategy, st.integers(2, 4), st.integers(0, 6),
           st.sampled_from((None, 3)))
    @example(list(range(0, 3000, 10)), (0, 3000), 4, 0, 3)  # 8 leaves, evicts
    @settings(max_examples=50, deadline=None)
    def test_warm_stream_identical_and_cheaper(self, keys, bounds, height, seed,
                                               budget_leaves):
        """``budget_leaves`` None: an ample cache, so the warm pass is all
        hits; 3: a budget of three largest leaves, which evicts whenever the
        populating stream puts more bytes than that."""
        _records, tree = build_ace(keys, height, seed)
        query = Box.of(Interval(bounds[0], bounds[1] + 1))
        cold = stream_batches(SampleStream(tree, query, seed=seed))

        budget = DEFAULT_BUDGET_BYTES
        if budget_leaves is not None:
            store = tree.leaf_store
            budget = budget_leaves * max(
                store.leaf_byte_size(i) for i in range(store.num_leaves))
        cache = tree.attach_sample_cache(CountingCache(budget_bytes=budget))
        try:
            populate = stream_batches(SampleStream(tree, query, seed=seed))
            put_bytes = sum(nbytes for _, nbytes in cache.puts)
            evicted = cache.stats.evictions
            reads_before = tree.disk.stats.page_reads
            warm_stream = SampleStream(tree, query, seed=seed)
            warm = stream_batches(warm_stream)
            warm_reads = tree.disk.stats.page_reads - reads_before
        finally:
            tree.detach_sample_cache()

        assert populate == cold
        assert warm == cold
        if budget_leaves is None:
            assert warm_reads == 0
            assert warm_stream.stats.cache_hits == warm_stream.stats.leaves_read
        else:
            event(f"populating stream evicted: {evicted > 0}")
            if put_bytes > budget:
                assert evicted > 0

    @given(keys_strategy, range_strategy, st.integers(2, 4), st.integers(0, 6))
    @settings(max_examples=15, deadline=None)
    def test_cache_survives_disjoint_queries(self, keys, bounds, height, seed):
        """A second, different query stays correct with a shared cache."""
        records, tree = build_ace(keys, height, seed)
        lo, hi = bounds
        tree.attach_sample_cache(SampleCache())
        try:
            list(SampleStream(tree, Box.of(Interval(lo, hi + 1)), seed=seed))
            # Different-bounds (wider) query against the now-populated cache.
            lo2, hi2 = lo - (hi - lo) // 2 - 1, hi + 1
            got = sorted(
                r for batch in SampleStream(
                    tree, Box.of(Interval(lo2, hi2 + 1)), seed=seed + 1
                )
                for r in batch.records
            )
        finally:
            tree.detach_sample_cache()
        assert got == sorted(r for r in records if lo2 <= r[0] <= hi2)


def _cache_tree():
    rng = random.Random(3)
    keys = [rng.randrange(10_000) for _ in range(3000)]
    _records, tree = build_ace(keys, height=6, seed=2)
    return tree


class TestWholeLeafEntries:
    """The query layer caches whole leaves: one lookup per stab, one entry
    per leaf read from disk."""

    def test_one_get_per_stab_and_one_put_per_missed_leaf(self):
        tree = _cache_tree()
        cache = tree.attach_sample_cache(CountingCache())
        query = Box.of(Interval(1_000, 7_000))
        missed = {}
        try:
            for name in ("cold", "warm"):
                gets, puts, misses = cache.gets, len(cache.puts), cache.stats.misses
                stream = SampleStream(tree, query, seed=5)
                for _ in stream:
                    pass
                stats = stream.stats
                assert cache.gets - gets == stats.stabs
                missed[name] = stats.leaves_read - stats.cache_hits
                assert len(cache.puts) - puts == missed[name]
                assert cache.stats.misses - misses == missed[name]
        finally:
            tree.detach_sample_cache()
        assert missed == {"cold": tree.leaf_store.num_leaves, "warm": 0}

    def test_leaf_over_budget_leaves_the_cache_alone(self):
        """A leaf larger than the whole budget is not admitted, and admitting
        nothing evicts nothing: every earlier entry stays resident."""
        tree = _cache_tree()
        store = tree.leaf_store
        sizes = sorted(store.leaf_byte_size(i) for i in range(store.num_leaves))
        budget = sizes[len(sizes) // 2]  # some leaves fit, some do not
        cache = tree.attach_sample_cache(CountingCache(budget_bytes=budget))
        whole = tree.geometry.domain
        oversized = 0
        try:
            stream = SampleStream(tree, whole, seed=1)
            while not stream.exhausted:
                resident = [key for key, _ in cache.puts if key in cache]
                evictions, first = cache.stats.evictions, len(cache.puts)
                next(stream)
                charge = sum(nbytes for _, nbytes in cache.puts[first:])
                if charge > budget and resident:
                    oversized += 1
                    assert all(key in cache for key in resident)
                    assert cache.stats.evictions == evictions
        finally:
            tree.detach_sample_cache()
        assert oversized > 0


class TestWarmPrefixUniformity:
    """Warm hits preserve per-prefix Bernoulli uniformity (chi-square)."""

    def test_warm_prefix_statistically_equivalent(self):
        import random

        rng = random.Random(29)
        keys = [rng.randrange(100_000) for _ in range(4000)]
        records, tree = build_ace(keys, height=6, seed=4, page_size=2048)
        query = Box.of(Interval(10_000, 90_000))
        population = [r[0] for r in records if 10_000 <= r[0] < 90_000]

        def prefix(stream, k=300):
            out = []
            for batch in stream:
                out.extend(batch.records)
                if len(out) >= k:
                    break
            return out[:k]

        cold_prefix = prefix(SampleStream(tree, query, seed=11))
        tree.attach_sample_cache(SampleCache())
        try:
            prefix(SampleStream(tree, query, seed=11))  # populate
            warm_prefix = prefix(SampleStream(tree, query, seed=11))
        finally:
            tree.detach_sample_cache()

        # Bit-identical replay is the strongest equivalence...
        assert warm_prefix == cold_prefix
        # ...and the shared prefix is itself an unbiased draw of the
        # matching population (pinned seed keeps this deterministic).
        verdict = prefix_vs_population(
            [r[0] for r in warm_prefix], population
        )
        assert verdict is not None
        assert verdict.ok(), verdict.describe()
