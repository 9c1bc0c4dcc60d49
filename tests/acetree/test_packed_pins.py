"""Exact pins on the packed build and refresh paths.

Each scenario builds (or refreshes) on a fresh simulated disk and is pinned
by a sha256 over every stored page (page id + bytes), ``repr`` of the
simulated clock and the :class:`DiskStats`.  The pinned values were taken
from the record-at-a-time implementation (tuples out of the final merge,
leaves serialized from record lists, refresh reloaded through decoded
records), so they hold the packed paths to the same pages, charges and
charge order: a block cut at the wrong record, sections out of order, a
lost delta chunk or a page written late all move them.
"""

from __future__ import annotations

import hashlib
import importlib
from dataclasses import astuple

import pytest

from repro.acetree import AceBuildParams, build_ace_tree
from repro.baselines import build_bplus_tree, build_permuted_file, build_rtree
from repro.core import Field, Schema
from repro.storage import CostModel, HeapFile, SimulatedDisk
from repro.view import create_sample_view

from ..conftest import make_kv_records, make_xy_records

external_sort = importlib.import_module("repro.storage.external_sort")

KV = Schema([Field("k", "i8"), Field("v", "f8"), Field("pad", "bytes", 84)])
XY = Schema([Field("x", "f8"), Field("y", "f8"), Field("tag", "i8")])


def _disk() -> SimulatedDisk:
    return SimulatedDisk(page_size=2048, cost=CostModel.scaled(2048))


def pin(disk: SimulatedDisk) -> tuple:
    """(sha256 of every stored page with its id, clock, stats fields)."""
    digest = hashlib.sha256()
    for pid in sorted(disk._pages):
        digest.update(pid.to_bytes(8, "little"))
        digest.update(disk._pages[pid])
    return digest.hexdigest(), repr(disk.clock), astuple(disk.stats)


def _kv_build(n: int, seed: int, **params) -> SimulatedDisk:
    disk = _disk()
    heap = HeapFile.bulk_load(disk, KV, make_kv_records(n, seed=seed))
    build_ace_tree(heap, AceBuildParams(key_fields=("k",), seed=seed, **params))
    return disk


def build_merge_passes() -> list:
    """(a) 1-D, auto height; memory_pages=4 makes Phase 2 run intermediate
    merge passes before a multi-run final merge."""
    return [pin(_kv_build(3000, 2, memory_pages=4))]


def build_single_run() -> list:
    """(b) Small enough that Phase 2's sort is one run (page blocks)."""
    return [pin(_kv_build(500, 5))]


def build_list_blocks() -> list:
    """(c) Merges of decoded records: an arity-3 1-D build and a 2-D build."""
    arity3 = _kv_build(2000, 3, memory_pages=6, arity=3)
    disk = _disk()
    heap = HeapFile.bulk_load(disk, XY, make_xy_records(2000, seed=4))
    build_ace_tree(
        heap, AceBuildParams(key_fields=("x", "y"), seed=4, memory_pages=6)
    )
    return [pin(arity3), pin(disk)]


def build_streaming_merge() -> list:
    """(d) The streaming merge (``USE_FAST_PATH`` off)."""
    saved = external_sort.USE_FAST_PATH
    external_sort.USE_FAST_PATH = False
    try:
        return [pin(_kv_build(3000, 2, memory_pages=4))]
    finally:
        external_sort.USE_FAST_PATH = saved


def view_refreshes() -> list:
    """(e) Three insert + refresh rounds on a view."""
    disk = _disk()
    heap = HeapFile.bulk_load(disk, KV, make_kv_records(3000, seed=6))
    view = create_sample_view("v", heap, index_on=("k",), seed=6)
    heap.free()
    pins = []
    for round_no in range(3):
        view.insert(make_kv_records(150, seed=100 + round_no))
        view.refresh()
        pins.append(pin(disk))
    return pins


def baseline_builds() -> list:
    """(f) The other sinks: permuted file, B+-Tree and R-Tree loads."""
    pins = []
    for build in (
        lambda heap: build_permuted_file(heap, ("k",), seed=7, memory_pages=4),
        lambda heap: build_bplus_tree(heap, "k", memory_pages=4),
    ):
        disk = _disk()
        build(HeapFile.bulk_load(disk, KV, make_kv_records(2000, seed=7)))
        pins.append(pin(disk))
    disk = _disk()
    heap = HeapFile.bulk_load(disk, XY, make_xy_records(2000, seed=8))
    build_rtree(heap, ("x", "y"), memory_pages=4)
    pins.append(pin(disk))
    return pins


SCENARIOS = {
    "merge_passes": build_merge_passes,
    "single_run": build_single_run,
    "list_blocks": build_list_blocks,
    "streaming_merge": build_streaming_merge,
    "view_refreshes": view_refreshes,
    "baselines": baseline_builds,
}

#: (page digest, clock, DiskStats fields) per scenario step.
PINS: dict[str, list[tuple]] = {
    "baselines": [
        (
            "c6babab977182e435d5db5294368e020849587c64eae7c877a90a76143ac90be",
            "0.1956571599999976",
            (536, 636, 794, 378, 1097728, 1302528,
             0.18661375999999721, 0.009043400000000165),
        ),
        (
            "094cc894d8ca0027a0d7ad0df10a3f2934073f3b9f78c64607bbf0d65273b0fa",
            "0.13603003999999974",
            (396, 497, 536, 357, 811008, 1017856,
             0.12806143999999886, 0.007968599999999857),
        ),
        (
            "4993b399706e0aad486667376cdf4210060e2b9dfa8d85649312cc5f943c7a50",
            "0.06671900000000053",
            (160, 185, 223, 122, 327680, 378880,
             0.052736000000000206, 0.013982999999999923),
        ),
    ],
    "list_blocks": [
        (
            "59e2e55a5ee4714c82760fef952b41023f3db3c588fc30e79d3ee609fc34eaa9",
            "0.2107135999999951",
            (736, 739, 811, 664, 1507328, 1513472,
             0.19630079999999778, 0.014412800000000189),
        ),
        (
            "63aa9c1a75f7e9fae072614a1b27ee88ed3ddb126f2fb7ec720948e0b0a6ffc0",
            "0.043418240000000136",
            (128, 130, 137, 121, 262144, 266240,
             0.033341440000000076, 0.010076800000000016),
        ),
    ],
    "merge_passes": [
        (
            "63b3d6eb50065b257414fca055bc554f629379f2d32ae839dc3632b1655dc919",
            "0.6018144399999644",
            (1752, 1756, 2455, 1053, 3588096, 3596288,
             0.5746278399999819, 0.027186600000001285),
        ),
    ],
    "single_run": [
        (
            "b96de8f441cf03e9b5ad5134f06e9a46c3397e5d56cd03b22e64d0b5628e004b",
            "0.017993759999999963",
            (105, 107, 54, 158, 215040, 219136,
             0.015400959999999964, 0.002592800000000016),
        ),
    ],
    "streaming_merge": [
        (
            "63b3d6eb50065b257414fca055bc554f629379f2d32ae839dc3632b1655dc919",
            "0.6018144399999644",
            (1752, 1756, 2455, 1053, 3588096, 3596288,
             0.5746278399999819, 0.027186600000001285),
        ),
    ],
    "view_refreshes": [
        (
            "6bf21e415af050444ea005d0d34fe333114fb8a6d033222b6a2919d02b8e381a",
            "0.43772219999998346",
            (2002, 1603, 1574, 2031, 4100096, 3282944,
             0.3961855999999834, 0.04153660000000031),
        ),
        (
            "0a9999a6e8f7047b46df392019abd0e5fdc26021ba269e8b5f8859075f950560",
            "0.7233737199999596",
            (3272, 2462, 2644, 3090, 6701056, 5042176,
             0.6589235199999661, 0.06445019999999736),
        ),
        (
            "bd912407f8e0308244cd6db79d48bd148d7d0f310bf0cab8f3b30a39f6ea5fda",
            "1.016306119999934",
            (4589, 3360, 3736, 4213, 9398272, 6881280,
             0.9279283199999481, 0.08837780000000257),
        ),
    ],
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_pages_clock_and_stats_are_pinned(name):
    assert SCENARIOS[name]() == PINS[name]
