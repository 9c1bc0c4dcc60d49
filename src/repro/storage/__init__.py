"""Simulated storage substrate: disk, buffer manager, heap files, external sort."""

from .buffer import DecodeMemo, RecordPageCache
from .cost import CostModel
from .disk import DiskStats, SimulatedDisk
from .external_sort import external_sort, external_sort_to_sink, merge_runs
from .heapfile import PAGE_HEADER_SIZE, HeapFile
from .recovery import DEFAULT_RETRY, RetryPolicy, read_page_resilient
from .sample_cache import DEFAULT_BUDGET_BYTES, CacheStats, SampleCache

__all__ = [
    "CacheStats",
    "CostModel",
    "DEFAULT_BUDGET_BYTES",
    "DEFAULT_RETRY",
    "DecodeMemo",
    "DiskStats",
    "HeapFile",
    "PAGE_HEADER_SIZE",
    "RecordPageCache",
    "RetryPolicy",
    "SampleCache",
    "SimulatedDisk",
    "external_sort",
    "external_sort_to_sink",
    "merge_runs",
    "read_page_resilient",
]
