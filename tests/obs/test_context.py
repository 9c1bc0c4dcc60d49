"""Telemetry context: baggage stack semantics and thread confinement."""

from __future__ import annotations

import threading

import pytest

from repro.obs.context import (
    CONTEXT,
    LABEL_KEYS,
    TelemetryContext,
    canonical_label_set,
    render_label_set,
)


class TestCanonicalLabelSet:
    def test_orders_by_vocabulary_not_insertion(self):
        a = canonical_label_set({"query": "q1", "tenant": "t0"})
        b = canonical_label_set({"tenant": "t0", "query": "q1"})
        assert a == b
        assert [k for k, _ in a] == ["tenant", "query"]

    def test_values_coerced_to_str(self):
        assert canonical_label_set({"query": 3}) == (("query", "3"),)

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="label key"):
            canonical_label_set({"user": "alice"})

    def test_render_round_trips_ordering(self):
        rendered = render_label_set(
            canonical_label_set({"sampler": "ace", "tenant": "t0"})
        )
        assert rendered == "tenant=t0,sampler=ace"

    def test_vocabulary_is_the_documented_one(self):
        assert LABEL_KEYS == ("tenant", "query", "sampler", "shard", "section")


class TestPushMergeClear:
    def test_empty_context_is_empty_dict(self):
        ctx = TelemetryContext()
        assert ctx.current() == {}
        assert ctx.labels() == {}

    def test_push_merges_and_restores(self):
        ctx = TelemetryContext()
        with ctx.push(tenant="t0"):
            assert ctx.labels() == {"tenant": "t0"}
            with ctx.push(query="q1"):
                assert ctx.labels() == {"tenant": "t0", "query": "q1"}
            assert ctx.labels() == {"tenant": "t0"}
        assert ctx.labels() == {}

    def test_inner_push_overrides_outer_key(self):
        ctx = TelemetryContext()
        with ctx.push(tenant="t0"), ctx.push(tenant="t1"):
            assert ctx.labels() == {"tenant": "t1"}

    def test_push_stringifies_values(self):
        ctx = TelemetryContext()
        with ctx.push(shard=7):
            assert ctx.labels() == {"shard": "7"}

    def test_invalid_key_rejected_before_mutation(self):
        ctx = TelemetryContext()
        with pytest.raises(ValueError):
            with ctx.push(user="alice"):
                pass  # pragma: no cover - push must raise first
        assert ctx.labels() == {}

    def test_pop_survives_exceptions(self):
        ctx = TelemetryContext()
        with pytest.raises(RuntimeError):
            with ctx.push(tenant="t0"):
                raise RuntimeError("boom")
        assert ctx.labels() == {}

    def test_clear_drops_open_frames(self):
        ctx = TelemetryContext()
        stack = ctx._stack()
        stack.append({"tenant": "leak"})
        ctx.clear()
        assert ctx.labels() == {}


class TestThreadConfinement:
    def test_baggage_does_not_leak_across_threads(self):
        seen = {}

        def worker():
            seen["worker"] = dict(CONTEXT.labels())
            with CONTEXT.push(tenant="worker-t"):
                seen["worker_inner"] = dict(CONTEXT.labels())

        with CONTEXT.push(tenant="main-t"):
            t = threading.Thread(target=worker)
            t.start()
            t.join()
            assert CONTEXT.labels() == {"tenant": "main-t"}
        # The spawned thread starts from an empty stack, not main's frame.
        assert seen["worker"] == {}
        assert seen["worker_inner"] == {"tenant": "worker-t"}


class TestLabelKey:
    """The per-frame key is the canonical form of the merged baggage."""

    @staticmethod
    def _agrees(ctx) -> bool:
        return ctx.label_key() == canonical_label_set(ctx.current())

    def test_empty_context_key_is_empty(self):
        ctx = TelemetryContext()
        assert ctx.label_key() == ()

    def test_key_tracks_nested_pushes_and_pops(self):
        ctx = TelemetryContext()
        with ctx.push(query="q1"):
            assert ctx.label_key() == (("query", "q1"),)
            with ctx.push(sampler="ace", tenant=3):
                assert ctx.label_key() == (
                    ("tenant", "3"), ("query", "q1"), ("sampler", "ace"))
                assert self._agrees(ctx)
                with ctx.push(query="q2"):  # inner frame overrides outer
                    assert ctx.label_key() == (
                        ("tenant", "3"), ("query", "q2"), ("sampler", "ace"))
                    assert self._agrees(ctx)
                assert self._agrees(ctx)
            assert ctx.label_key() == (("query", "q1"),)
        assert ctx.label_key() == ()

    def test_rejected_push_leaves_the_key(self):
        ctx = TelemetryContext()
        with ctx.push(tenant="t0"):
            with pytest.raises(ValueError):
                with ctx.push(user="alice"):
                    pass  # pragma: no cover - push must raise first
            assert ctx.label_key() == (("tenant", "t0"),)

    def test_clear_resets_the_key(self):
        ctx = TelemetryContext()
        with ctx.push(tenant="t0", query="q1"):
            ctx.clear()
            assert ctx.label_key() == ()
            assert self._agrees(ctx)

    def test_fresh_thread_starts_at_the_empty_key(self):
        seen = {}

        def worker():
            seen["fresh"] = CONTEXT.label_key()
            with CONTEXT.push(tenant="worker-t", shard=2):
                seen["inner"] = CONTEXT.label_key()
                seen["agrees"] = self._agrees(CONTEXT)

        with CONTEXT.push(tenant="main-t"):
            t = threading.Thread(target=worker)
            t.start()
            t.join()
            assert CONTEXT.label_key() == (("tenant", "main-t"),)
        assert seen == {
            "fresh": (),
            "inner": (("tenant", "worker-t"), ("shard", "2")),
            "agrees": True,
        }
