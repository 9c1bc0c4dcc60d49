"""SampleCache admission: byte budget, LRU eviction and re-inserts."""

import pytest

from repro.core.errors import BufferPoolError
from repro.storage.sample_cache import SampleCache


class TestPut:
    def test_reinsert_replaces_value_and_charge(self):
        cache = SampleCache(budget_bytes=100)
        cache.put(("k",), "old", 10)
        cache.put(("k",), "new", 30)
        assert cache.get(("k",)) == "new"
        assert cache.stats.bytes_cached == 30
        assert len(cache) == 1

    def test_over_budget_reinsert_drops_the_old_value(self):
        cache = SampleCache(budget_bytes=100)
        cache.put(("k",), "old", 10)
        cache.put(("other",), "kept", 20)
        cache.put(("k",), "new", 101)
        assert cache.get(("k",)) is None
        assert ("k",) not in cache
        assert cache.peek(("other",)) == "kept"
        assert cache.stats.bytes_cached == 20
        assert cache.stats.evictions == 0

    def test_over_budget_entry_is_not_admitted(self):
        cache = SampleCache(budget_bytes=100)
        cache.put(("k",), "big", 101)
        assert len(cache) == 0
        assert cache.stats.bytes_cached == 0
        assert cache.stats.insertions == 0

    def test_lru_entry_evicted_to_fit(self):
        cache = SampleCache(budget_bytes=100)
        cache.put(("a",), "a", 60)
        cache.put(("b",), "b", 30)
        cache.get(("a",))  # "b" is now least recently used
        cache.put(("c",), "c", 30)
        assert ("b",) not in cache
        assert cache.peek(("a",)) == "a" and cache.peek(("c",)) == "c"
        assert cache.stats.evictions == 1
        assert cache.stats.bytes_cached == 90

    def test_negative_charge_rejected(self):
        with pytest.raises(BufferPoolError):
            SampleCache(budget_bytes=100).put(("k",), "v", -1)
