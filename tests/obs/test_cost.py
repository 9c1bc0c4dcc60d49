"""Cost accountant: per-tenant attribution, conservation, publication."""

from __future__ import annotations

from repro.obs import CONTEXT, COST, MetricsRegistry, TraceRecorder
from repro.obs.analyze import cost_record
from repro.obs.export import export_jsonl, validate_jsonl
from repro.storage import CostModel, SimulatedDisk
from repro.storage.recovery import read_page_resilient
from repro.testkit.faults import FaultEvent, FaultPlan, FaultyDisk


def _disk(page_size: int = 256) -> SimulatedDisk:
    return SimulatedDisk(page_size=page_size, cost=CostModel.scaled(page_size))


def _write_pages(disk, n: int = 4) -> int:
    start = disk.allocate(n)
    for i in range(n):
        disk.write_page(start + i, bytes([i]) * 16)
    return start


class TestAttribution:
    def test_reads_attributed_to_ambient_label_set(self):
        disk = _disk()
        start = _write_pages(disk)  # pre-arm traffic: not attributed
        # The charge points consult the module singleton (isolated
        # per-test by the autouse COST.reset() fixture).
        COST.arm()
        try:
            with CONTEXT.push(tenant="t0"):
                disk.read_page(start)
                disk.read_page(start + 1)
            with CONTEXT.push(tenant="t1"):
                disk.read_page(start + 2)
        finally:
            COST.disarm()
        snap = COST.snapshot()
        assert snap["page_reads"] == {"tenant=t0": 2, "tenant=t1": 1}
        assert snap["conserved"]

    def test_writes_and_unlabeled_bucket(self):
        COST.arm()
        try:
            disk = _disk()
            start = disk.allocate(2)
            disk.write_page(start, b"x")  # no ambient context
            with CONTEXT.push(tenant="t0"):
                disk.write_page(start + 1, b"y")
        finally:
            COST.disarm()
        snap = COST.snapshot()
        assert snap["page_writes"] == {"": 1, "tenant=t0": 1}
        assert snap["attributed_writes"] == snap["charged_writes"] == 2

    def test_touch_page_attributed_like_a_read(self):
        disk = _disk()
        start = _write_pages(disk, 3)
        COST.arm()
        try:
            with CONTEXT.push(query="q7"):
                for pid in range(start, start + 3):
                    disk.touch_page(pid)
            with CONTEXT.push(query="q8"):
                disk.read_page(start)
        finally:
            COST.disarm()
        snap = COST.snapshot()
        assert snap["page_reads"] == {"query=q7": 3, "query=q8": 1}
        assert snap["conserved"]

    def test_retry_backoff_io_attributed(self):
        plan = FaultPlan(events=[FaultEvent("read", 0, "transient", 0)])
        disk = FaultyDisk(page_size=256, cost=CostModel.scaled(256), plan=plan)
        start = _write_pages(disk)
        COST.arm()
        try:
            with CONTEXT.push(tenant="t9"):
                read_page_resilient(disk, start)
        finally:
            COST.disarm()
        snap = COST.snapshot()
        assert snap["retry_io_seconds"].get("tenant=t9", 0.0) > 0.0
        assert snap["conserved"]

    def test_disarmed_accountant_sees_nothing(self):
        disk = _disk()
        start = _write_pages(disk)
        assert not COST.enabled
        disk.read_page(start)
        snap = COST.snapshot()
        assert snap["page_reads"] == {}
        assert snap["attributed_reads"] == snap["charged_reads"] == 0


class TestConservation:
    def test_pre_arm_traffic_excluded_by_baseline(self):
        disk = _disk()
        start = _write_pages(disk, 4)
        disk.read_page(start)  # charged before arming: must not count
        COST.arm()
        try:
            disk.read_page(start + 1)
            disk.read_page(start + 2)
        finally:
            COST.disarm()
        snap = COST.snapshot()
        assert snap["attributed_reads"] == snap["charged_reads"] == 2
        assert snap["conserved"]

    def test_multiple_disks_sum(self):
        disk_a, disk_b = _disk(), _disk()
        start_a = _write_pages(disk_a)
        start_b = _write_pages(disk_b)
        COST.arm()
        try:
            disk_a.read_page(start_a)
            disk_b.read_page(start_b)
            disk_b.read_page(start_b + 1)
        finally:
            COST.disarm()
        assert COST.charged_totals()[0] == 3
        assert COST.attributed_totals()[0] == 3
        assert COST.conservation()["conserved"]

    def test_reset_clock_mid_capture_keeps_the_sum_computable(self):
        disk = _disk()
        start = _write_pages(disk)
        COST.arm()
        try:
            disk.read_page(start)
            disk.reset_clock()  # swaps in a fresh stats object
            start2 = _write_pages(disk)
            disk.read_page(start2)
        finally:
            COST.disarm()
        snap = COST.snapshot()
        assert snap["attributed_reads"] == snap["charged_reads"] == 2
        assert snap["conserved"]


class TestLifecycle:
    def test_recorder_arms_publishes_and_disarms(self):
        registry = MetricsRegistry()
        disk = _disk()
        start = _write_pages(disk)
        with TraceRecorder(metrics=registry):
            assert COST.enabled
            with CONTEXT.push(tenant="t0"):
                disk.read_page(start)
            with CONTEXT.push(tenant="t1"):
                disk.read_page(start + 1)
                disk.write_page(start + 2, b"z")
        assert not COST.enabled
        snapshot = registry.snapshot()
        assert set(snapshot) == {"counters", "gauges", "histograms"}
        assert snapshot["counters"]["obs.cost.page_reads"] == 2
        assert snapshot["counters"]["obs.cost.page_writes"] == 1
        # The ledger stays readable after disarm (trace report reads it),
        # split by label set.
        ledger = COST.snapshot()
        assert ledger["page_reads"] == {"tenant=t0": 1, "tenant=t1": 1}
        assert ledger["page_writes"] == {"tenant=t1": 1}
        assert ledger["conserved"]

    def test_rearm_clears_the_previous_ledger(self):
        disk = _disk()
        start = _write_pages(disk)
        COST.arm()
        disk.read_page(start)
        COST.disarm()
        COST.arm()
        try:
            disk.read_page(start + 1)
        finally:
            COST.disarm()
        snap = COST.snapshot()
        assert snap["attributed_reads"] == snap["charged_reads"] == 1

    def test_reset_drops_everything(self):
        disk = _disk()
        start = _write_pages(disk)
        COST.arm()
        disk.read_page(start)
        COST.reset()
        assert not COST.enabled
        snap = COST.snapshot()
        assert snap["page_reads"] == {}
        assert snap["attributed_reads"] == snap["charged_reads"] == 0

    def test_empty_publish_creates_no_families(self):
        registry = MetricsRegistry()
        COST.publish(registry)
        snap = registry.snapshot()
        assert "obs.cost.page_reads" not in snap["counters"]
        assert "obs.cost.page_writes" not in snap["counters"]


class TestCostRecord:
    def test_record_validates_and_round_trips(self, tmp_path):
        disk = _disk()
        start = _write_pages(disk)
        COST.arm()
        try:
            with CONTEXT.push(tenant="t0", query="q0"):
                disk.read_page(start)
        finally:
            COST.disarm()
        record = cost_record(COST.snapshot())
        assert record["kind"] == "cost" and record["v"] == 1
        assert record["page_reads"] == {"tenant=t0,query=q0": 1}
        path = tmp_path / "trace.jsonl"
        export_jsonl([], path, extra=[record])
        assert validate_jsonl(path) == []
