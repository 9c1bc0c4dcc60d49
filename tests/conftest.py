"""Shared fixtures for the test suite.

Most tests run against small simulated disks and relations so the whole
suite stays fast; statistical tests use repeated small builds rather than
one large one.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.core import Field, Schema
from repro.storage import CostModel, HeapFile, SimulatedDisk

# ---------------------------------------------------------------------------
# Schemas
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def kv_schema() -> Schema:
    """A small (key, value, pad) schema: 100-byte records like the paper."""
    return Schema(
        [Field("k", "i8"), Field("v", "f8"), Field("pad", "bytes", 84)]
    )


@pytest.fixture(scope="session")
def tiny_schema() -> Schema:
    """A 16-byte schema for tests that want many records per page."""
    return Schema([Field("k", "i8"), Field("v", "f8")])


@pytest.fixture(scope="session")
def xy_schema() -> Schema:
    """A 2-D point schema for k-d / R-Tree tests."""
    return Schema([Field("x", "f8"), Field("y", "f8"), Field("tag", "i8")])


# ---------------------------------------------------------------------------
# Disks
# ---------------------------------------------------------------------------


@pytest.fixture
def disk() -> SimulatedDisk:
    """A fresh 2 KB-page disk with the paper-shaped cost model."""
    return SimulatedDisk(page_size=2048, cost=CostModel.scaled(2048))


@pytest.fixture
def big_page_disk() -> SimulatedDisk:
    return SimulatedDisk(page_size=8192, cost=CostModel.scaled(8192))


# ---------------------------------------------------------------------------
# Relations
# ---------------------------------------------------------------------------


def make_kv_records(n: int, seed: int = 0, key_range: int = 1_000_000):
    """Deterministic (k, v, pad) records with integer keys."""
    rng = random.Random(seed)
    return [
        (rng.randrange(key_range), rng.random() * 100.0, b"") for _ in range(n)
    ]


def make_xy_records(n: int, seed: int = 0):
    """Deterministic 2-D points uniform on [0, 1)^2."""
    rng = random.Random(seed)
    return [(rng.random(), rng.random(), i) for i in range(n)]


@pytest.fixture
def kv_heap(disk, kv_schema) -> HeapFile:
    """5000 records of 100 bytes on the 2 KB disk (20 records/page)."""
    return HeapFile.bulk_load(
        disk, kv_schema, make_kv_records(5000, seed=7), name="kv"
    )


@pytest.fixture
def xy_heap(disk, xy_schema) -> HeapFile:
    return HeapFile.bulk_load(
        disk, xy_schema, make_xy_records(5000, seed=11), name="xy"
    )


# ---------------------------------------------------------------------------
# Built trees
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def small_ace_tree(kv_schema):
    """A small built ACE Tree whose structure is sanitized once per session.

    ``check_tree`` runs here so every tier-1 run exercises the runtime
    invariant checker against a real build.  Tests that tamper with tree
    state must build their own tree; this one is shared read-only.
    """
    from repro.acetree import AceBuildParams, build_ace_tree
    from repro.analysis import check_tree

    disk = SimulatedDisk(page_size=2048, cost=CostModel.scaled(2048))
    records = make_kv_records(4000, seed=17)
    heap = HeapFile.bulk_load(disk, kv_schema, records, name="sanitized")
    tree = build_ace_tree(
        heap, AceBuildParams(key_fields=("k",), height=5, seed=3)
    )
    check_tree(tree)
    return records, tree


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def record_multiset(records, key_fields=(0, 1)):
    """Order-insensitive multiset view of records (by selected positions)."""
    return Counter(tuple(r[i] for i in key_fields) for r in records)


def leaf_views(store):
    """Every leaf of a leaf store as its ``LeafView``, in index order."""
    return [store.read_leaf_view(i) for i in range(store.num_leaves)]


def drain(batches):
    """Collect every record from a batch stream."""
    out = []
    for batch in batches:
        out.extend(batch.records)
    return out


# ---------------------------------------------------------------------------
# Global telemetry isolation
# ---------------------------------------------------------------------------


@pytest.fixture(autouse=True)
def _reset_telemetry():
    """Keep process-global observability state from leaking across tests.

    METRICS, CONTEXT, FLIGHT and COST are module singletons; a test that
    labels a counter, arms the flight ring, or attributes page costs must
    not change what the next test sees.
    """
    yield
    from repro.obs import CONTEXT, COST, FLIGHT, METRICS

    METRICS.reset()
    CONTEXT.clear()
    COST.reset()
    if FLIGHT.enabled:
        FLIGHT.disarm()
