"""Label families: aggregate invariance, cardinality caps, thread safety."""

from __future__ import annotations

import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.obs.context import CONTEXT, canonical_label_set
from repro.obs.metrics import DROPPED_LABEL_SETS, MetricsRegistry


class TestFamilySemantics:
    def test_no_labels_returns_the_family_itself(self):
        registry = MetricsRegistry()
        counter = registry.counter("query.records")
        assert counter.labels() is counter

    def test_same_label_set_resolves_to_same_child(self):
        registry = MetricsRegistry()
        counter = registry.counter("query.records")
        a = counter.labels(tenant="t0", query="q1")
        b = counter.labels(query="q1", tenant="t0")  # insertion order differs
        assert a is b

    def test_child_inc_updates_parent_aggregate(self):
        registry = MetricsRegistry()
        counter = registry.counter("query.records")
        counter.labels(tenant="t0").inc(3)
        counter.labels(tenant="t1").inc(4)
        assert counter.value == 7
        assert counter.labels(tenant="t0").value == 3

    def test_labeling_a_child_is_an_error(self):
        registry = MetricsRegistry()
        child = registry.counter("query.records").labels(tenant="t0")
        with pytest.raises(ValueError, match="already labeled"):
            child.labels(tenant="t1")

    def test_gauge_child_set_writes_parent_too(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("tree.depth")
        gauge.labels(tenant="t0").set(5.0)
        assert gauge.value == 5.0
        assert gauge.labels(tenant="t0").value == 5.0

    def test_histogram_child_observe_updates_both(self):
        registry = MetricsRegistry()
        hist = registry.histogram("query.lat", bounds=(1.0, 10.0))
        hist.labels(tenant="t0").observe(0.5)
        hist.labels(tenant="t1").observe(5.0)
        assert hist.snapshot()["count"] == 2
        assert hist.labels(tenant="t0").snapshot()["count"] == 1

    def test_snapshot_has_labeled_section_only_when_labeled(self):
        registry = MetricsRegistry()
        registry.counter("query.records").inc()
        assert "labeled" not in registry.snapshot()
        registry.counter("query.records").labels(tenant="t0").inc()
        snap = registry.snapshot()
        assert snap["labeled"]["counters"]["query.records"] == {"tenant=t0": 1}
        # The unlabeled aggregate keeps counting everything.
        assert snap["counters"]["query.records"] == 2


class TestCardinalityCap:
    def test_overflow_falls_back_to_parent_and_counts_drop(self):
        registry = MetricsRegistry(max_label_sets=2)
        counter = registry.counter("query.records")
        counter.labels(tenant="t0").inc()
        counter.labels(tenant="t1").inc()
        overflow = counter.labels(tenant="t2")
        assert overflow is counter  # fallback: the unlabeled family
        overflow.inc()
        assert counter.value == 3
        assert registry.snapshot()["counters"][DROPPED_LABEL_SETS] == 1

    def test_existing_children_still_resolve_at_cap(self):
        registry = MetricsRegistry(max_label_sets=1)
        counter = registry.counter("query.records")
        child = counter.labels(tenant="t0")
        assert counter.labels(tenant="t0") is child
        assert DROPPED_LABEL_SETS not in registry.snapshot()["counters"]

    def test_drop_counter_cannot_overflow_itself(self):
        registry = MetricsRegistry(max_label_sets=0)
        registry.counter("query.records").labels(tenant="t0").inc()
        snap = registry.snapshot()
        assert snap["counters"][DROPPED_LABEL_SETS] == 1
        assert snap["counters"]["query.records"] == 1


class TestKeyResolution:
    """``child(key)`` and ``labels(**kw)`` share one resolution path."""

    def test_child_by_key_is_the_labels_child(self):
        registry = MetricsRegistry()
        for family in (registry.counter("query.records"),
                       registry.gauge("query.depth"),
                       registry.histogram("query.lat", bounds=(1.0,))):
            child = family.labels(query="q1", tenant="t0")
            key = canonical_label_set({"tenant": "t0", "query": "q1"})
            assert family.child(key) is child
            assert child.label_set == key
            with CONTEXT.push(tenant="t0", query="q1"):
                assert family.child(CONTEXT.label_key()) is child

    def test_empty_key_is_the_family(self):
        registry = MetricsRegistry()
        counter = registry.counter("query.records")
        assert counter.child(()) is counter
        assert counter.child(CONTEXT.label_key()) is counter

    def test_child_of_a_child_is_an_error(self):
        registry = MetricsRegistry()
        child = registry.counter("query.records").labels(tenant="t0")
        with pytest.raises(ValueError, match="already labeled"):
            child.labels(tenant="t1")
        with CONTEXT.push(tenant="t1"), pytest.raises(
                ValueError, match="already labeled"):
            child.child(CONTEXT.label_key())
        assert child.child(()) is child

    @pytest.mark.parametrize("path", ["labels", "context"])
    def test_over_cap_set_drops_on_every_call(self, path):
        registry = MetricsRegistry(max_label_sets=1)
        counter = registry.counter("query.records")
        counter.labels(tenant="t0").inc()

        def resolve():
            if path == "labels":
                return counter.labels(tenant="t1")
            with CONTEXT.push(tenant="t1"):
                return counter.child(CONTEXT.label_key())

        for _ in range(3):
            assert resolve() is counter  # the family, on every call
        snap = registry.snapshot()
        assert snap["counters"][DROPPED_LABEL_SETS] == 3
        assert snap["labeled"]["counters"]["query.records"] == {"tenant=t0": 1}
        # The admitted child keeps resolving without a drop.
        assert counter.labels(tenant="t0").label_set == (("tenant", "t0"),)
        assert registry.snapshot()["counters"][DROPPED_LABEL_SETS] == 3

    def test_over_cap_sets_leave_the_family_bounded(self):
        """10,000 distinct over-cap sets: every call returns the family
        and counts one drop, and the family keeps only its admitted
        children."""
        registry = MetricsRegistry(max_label_sets=4)
        counter = registry.counter("query.records")
        for i in range(4):
            counter.labels(query=f"q{i}")
        for i in range(10_000):
            with CONTEXT.push(query=f"over{i}"):
                assert counter.child(CONTEXT.label_key()) is counter
        assert registry.snapshot()["counters"][DROPPED_LABEL_SETS] == 10_000
        assert len(counter._children) == 4

    def test_full_family_miss_takes_no_lock(self):
        registry = MetricsRegistry(max_label_sets=1)
        counter = registry.counter("query.records")
        admitted = counter.labels(tenant="t0")

        class NoLock:
            def __enter__(self):
                raise AssertionError("a full family's miss took the lock")

            def __exit__(self, *exc):
                return False

        lock, counter._lock = counter._lock, NoLock()
        assert counter.labels(tenant="t1") is counter
        with CONTEXT.push(tenant="t2"):
            assert counter.child(CONTEXT.label_key()) is counter
        assert counter.labels(tenant="t0") is admitted
        counter._lock = lock
        assert registry.snapshot()["counters"][DROPPED_LABEL_SETS] == 2

    def test_reset_leaves_no_orphaned_family(self):
        registry = MetricsRegistry(max_label_sets=1)
        before = registry.counter("query.records")
        before.labels(tenant="t0").inc()
        before.labels(tenant="t1").inc()  # over the cap
        old_hist = registry.histogram("query.lat", bounds=(1.0,))
        registry.reset()
        assert registry.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {}}

        after = registry.counter("query.records")
        assert after is not before
        with CONTEXT.push(tenant="t1"):
            child = after.child(CONTEXT.label_key())
        assert child is not after  # a fresh family admits t1 again
        assert child._parent is after
        child.inc()
        after.labels(tenant="t2").inc()  # over the new family's cap
        new_hist = registry.histogram("query.lat", bounds=(2.0,))
        assert new_hist is not old_hist
        snap = registry.snapshot()
        assert snap["counters"] == {
            DROPPED_LABEL_SETS: 1, "query.records": 2}
        assert snap["labeled"]["counters"] == {
            "query.records": {"tenant=t1": 1}}
        assert registry.counter("query.records") is after
        assert before.value == 2  # the orphan saw nothing after reset


class TestLabeledThreadSafety:
    def test_concurrent_labeled_incs_are_exact(self):
        registry = MetricsRegistry()
        counter = registry.counter("query.records")
        workers, updates = 8, 2000
        tenants = [f"t{i % 4}" for i in range(workers)]

        def work(tenant):
            for _ in range(updates):
                counter.labels(tenant=tenant).inc()

        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(work, tenants))

        assert counter.value == workers * updates
        for tenant in set(tenants):
            share = tenants.count(tenant) * updates
            assert counter.labels(tenant=tenant).value == share

    def test_concurrent_child_creation_single_winner(self):
        registry = MetricsRegistry()
        counter = registry.counter("query.records")

        def resolve(i):
            return counter.labels(tenant=f"t{i % 8}")

        with ThreadPoolExecutor(max_workers=8) as pool:
            children = list(pool.map(resolve, range(400)))

        by_tenant = {c.label_set: c for c in children}
        assert len(by_tenant) == 8
        for child in children:
            assert by_tenant[child.label_set] is child

    def test_concurrent_over_cap_resolution_is_exact(self):
        """Admitted and over-cap keys resolved lock-free from many threads:
        every update lands in a child or counts as a drop, exactly once."""
        registry = MetricsRegistry(max_label_sets=2)
        counter = registry.counter("query.records")
        workers, updates = 8, 600
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            def work(i):
                for j in range(updates):
                    with CONTEXT.push(query=f"q{(i + j) % 12}"):
                        counter.child(CONTEXT.label_key()).inc()

            with ThreadPoolExecutor(max_workers=workers) as pool:
                futures = [pool.submit(work, i) for i in range(workers)]
                for future in futures:
                    future.result(timeout=60)
        finally:
            sys.setswitchinterval(interval)

        total = workers * updates
        assert counter.value == total
        assert len(counter._children) == 2
        labeled = sum(child.value for child in counter._children.values())
        dropped = registry.snapshot()["counters"][DROPPED_LABEL_SETS]
        assert labeled + dropped == total

    def test_concurrent_histogram_observes_count_exactly(self):
        registry = MetricsRegistry()
        hist = registry.histogram("query.lat", bounds=(1.0,))
        workers, updates = 6, 1000

        def work(i):
            child = hist.labels(query=f"q{i % 3}")
            for _ in range(updates):
                child.observe(0.5)

        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(work, range(workers)))

        assert hist.snapshot()["count"] == workers * updates
