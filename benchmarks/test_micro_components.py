"""Micro-benchmarks of the individual components (wall-clock, via
pytest-benchmark's usual statistics).

These measure the Python implementation itself — codec throughput,
construction throughput, per-leaf query cost, external sort speed — as
opposed to the figure benchmarks, which measure *simulated* I/O time.  The
same workloads run outside pytest via ``python -m repro bench --json``
(:mod:`repro.bench.micro`), whose output is the committed regression
baseline (``BENCH_PR1.json``).
"""

import random

import pytest

from repro.acetree import AceBuildParams, build_ace_tree
from repro.baselines import build_bplus_tree, build_permuted_file
from repro.core import Field, Schema
from repro.storage import CostModel, HeapFile, SimulatedDisk, external_sort

SCHEMA = Schema([Field("k", "i8"), Field("v", "f8"), Field("pad", "bytes", 84)])
N = 20_000


def fresh_relation():
    disk = SimulatedDisk(page_size=4096, cost=CostModel.scaled(4096))
    rng = random.Random(0)
    records = ((rng.randrange(10**9), rng.random(), b"") for _ in range(N))
    return HeapFile.bulk_load(disk, SCHEMA, records, name="bench")


@pytest.fixture(scope="module")
def relation():
    return fresh_relation()


@pytest.fixture(scope="module")
def ace_tree(relation):
    return build_ace_tree(relation, AceBuildParams(key_fields=("k",), height=8))


# -- codec ------------------------------------------------------------------


@pytest.fixture(scope="module")
def packed_records():
    rng = random.Random(1)
    records = [(rng.randrange(10**9), rng.random(), b"x" * 84) for _ in range(N)]
    return records, SCHEMA.pack_many(records)


def test_codec_pack_many(benchmark, packed_records):
    records, _payload = packed_records
    benchmark.pedantic(lambda: SCHEMA.pack_many(records), rounds=5, iterations=1)


def test_codec_unpack_many(benchmark, packed_records):
    _records, payload = packed_records
    benchmark.pedantic(
        lambda: SCHEMA.unpack_many(payload, N), rounds=5, iterations=1
    )


def test_codec_unpack_column(benchmark, packed_records):
    _records, payload = packed_records
    benchmark.pedantic(
        lambda: SCHEMA.unpack_column(payload, N, "k"), rounds=5, iterations=1
    )


# -- sort and construction --------------------------------------------------


def test_external_sort_throughput(benchmark, relation):
    # Headline number: the key declared as a schema column, so run
    # generation reads keys straight off page bytes.
    def run():
        out = external_sort(relation, memory_pages=64, key_field="k")
        out.free()

    benchmark.pedantic(run, rounds=3, iterations=1)


def test_external_sort_callable_key_throughput(benchmark, relation):
    # Generic path: an opaque key callable forces per-record key calls.
    def run():
        out = external_sort(relation, key=lambda r: r[0], memory_pages=64)
        out.free()

    benchmark.pedantic(run, rounds=3, iterations=1)


def test_ace_build_throughput(benchmark, relation):
    def run():
        tree = build_ace_tree(relation, AceBuildParams(key_fields=("k",), height=8))
        tree.free()

    benchmark.pedantic(run, rounds=3, iterations=1)


def test_bplus_build_throughput(benchmark, relation):
    def run():
        tree = build_bplus_tree(relation, "k")
        tree.free()

    benchmark.pedantic(run, rounds=3, iterations=1)


def test_permuted_build_throughput(benchmark, relation):
    def run():
        permuted = build_permuted_file(relation, ("k",))
        permuted.free()

    benchmark.pedantic(run, rounds=3, iterations=1)


def test_ace_sample_1000_records(benchmark, ace_tree):
    query = ace_tree.query((100_000_000, 400_000_000))
    seeds = iter(range(10**6))

    def run():
        return ace_tree.sample(query, seed=next(seeds)).take(1000)

    got = benchmark.pedantic(run, rounds=5, iterations=1)
    assert len(got) == 1000


def test_ace_leaf_read(benchmark, ace_tree):
    indices = iter(i % ace_tree.num_leaves for i in range(10**6))

    def run():
        return ace_tree.leaf_store.read_leaf_view(next(indices))

    benchmark.pedantic(run, rounds=50, iterations=1)


def test_ace_sample_traced_overhead(benchmark, ace_tree):
    """The same sampling workload under a live TraceRecorder."""
    from repro.obs import MetricsRegistry, TraceRecorder

    query = ace_tree.query((100_000_000, 400_000_000))
    seeds = iter(range(10**6))

    def run():
        recorder = TraceRecorder(metrics=MetricsRegistry())
        with recorder:
            return ace_tree.sample(query, seed=next(seeds)).take(1000)

    got = benchmark.pedantic(run, rounds=5, iterations=1)
    assert len(got) == 1000


# -- tracer span overhead ---------------------------------------------------


def test_span_overhead_disabled_paths():
    """Disabled tracing must stay near-free: assert a generous absolute bound.

    ``python -m repro bench`` reports the same numbers; the bound here is
    deliberately loose (5 µs/span, ~20x what we observe) so the assertion
    only trips on a real fast-path regression, not scheduler noise.
    """
    from repro.bench.micro import _span_overhead_benchmarks

    result = _span_overhead_benchmarks(repeat=3)
    assert result["noop_ns_per_span"] < 5_000


def test_noop_span_in_tight_loop(benchmark):
    from repro.obs.tracer import TRACER

    assert not TRACER.enabled

    def run():
        span = TRACER.span
        for _ in range(10_000):
            with span("bench.noop"):
                pass

    benchmark.pedantic(run, rounds=5, iterations=1)


def test_bplus_sample_1000_records(benchmark, relation):
    tree = build_bplus_tree(relation, "k")
    query_box = None
    from repro.core import Box, Interval

    query_box = Box.of(Interval.closed(100_000_000, 400_000_000))
    seeds = iter(range(10**6))

    def run():
        tree.reset_caches()
        out = []
        for batch in tree.sample(query_box, seed=next(seeds)):
            out.extend(batch.records)
            if len(out) >= 1000:
                break
        return out

    got = benchmark.pedantic(run, rounds=5, iterations=1)
    assert len(got) == 1000
