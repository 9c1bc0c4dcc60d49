"""The randomly permuted file baseline (paper Section II.A).

The relation is rewritten in a uniformly random order: each record gets a
random sort key, the file is externally sorted on it, and the key is
stripped as the sorted records are written back — exactly the TPMMS-based
procedure the paper describes for its experiments.

Sampling from a range predicate is then a sequential scan that keeps the
matching records: because the stored order is a uniform random permutation,
every scan prefix's matches are a uniform random sample (without
replacement) of the matching records.  The method's strength is sequential
bandwidth; its weakness is that the useful fraction of each page equals the
query's selectivity.
"""

from __future__ import annotations

from itertools import chain
from operator import itemgetter
from typing import Iterable, Iterator

from ..core.errors import QueryError
from ..core.intervals import Box
from ..core.records import Field, Record, Schema
from ..core.rng import derive_random
from ..obs.metrics import METRICS
from ..obs.tracer import TRACER
from ..storage.external_sort import external_sort_to_sink
from ..storage.heapfile import HeapFile
from .base import Batch

__all__ = ["PermutedFile", "build_permuted_file"]


def build_permuted_file(
    source: HeapFile,
    key_fields: tuple[str, ...],
    seed: int = 0,
    memory_pages: int = 64,
    name: str = "permuted",
) -> "PermutedFile":
    """Create a randomly permuted copy of ``source`` on the same disk.

    ``key_fields`` names the attributes range queries will constrain (they
    are not used for the permutation itself, only remembered so that
    :meth:`PermutedFile.sample` can evaluate predicates).
    """
    shuffle_rng = derive_random(seed, "permute")
    decorated_schema = Schema(
        [Field(source.schema.fresh_field_name("rand_"), "i8")]
        + list(source.schema.fields)
    )

    def decorate(record: Record) -> Record:
        return (shuffle_rng.getrandbits(62),) + record

    def strip(blocks: Iterator[Iterable[Record]]) -> HeapFile:
        records = chain.from_iterable(blocks)
        return HeapFile.bulk_load(
            source.disk, source.schema, (rec[1:] for rec in records), name=name
        )

    permuted = external_sort_to_sink(
        source,
        key=itemgetter(0),
        sink=strip,
        memory_pages=memory_pages,
        transform=decorate,
        output_schema=decorated_schema,
    )
    return PermutedFile(permuted, key_fields)


class PermutedFile:
    """A randomly permuted heap file with scan-based range sampling."""

    def __init__(self, heap: HeapFile, key_fields: tuple[str, ...]) -> None:
        self.heap = heap
        self.key_fields = tuple(key_fields)

    @property
    def num_records(self) -> int:
        return self.heap.num_records

    @property
    def num_pages(self) -> int:
        return self.heap.num_pages

    def sample(self, query: Box, seed: int = 0) -> Iterator[Batch]:
        """Scan the permutation front to back, emitting matching records.

        One batch per page: the page's matching records become available
        when its sequential read completes.  ``seed`` is accepted for
        interface uniformity; the permutation fixed at build time is the
        source of randomness.
        """
        if query.dims != len(self.key_fields):
            raise QueryError(
                f"query has {query.dims} dims, file indexes {len(self.key_fields)}"
            )
        disk = self.heap.disk
        sides = query.sides
        # Evaluate the predicate on lazily-decoded key columns and decode
        # only matching rows; at low selectivity most of each page is never
        # unpacked.  Charged cost is identical to a full scan — the useful
        # fraction of each *transfer* is what the cost model punishes.
        # The page read happens when the view generator advances, so the
        # span must wrap the explicit ``next()`` — and close before the
        # yield (a span never stays open across a generator suspension).
        views = iter(self.heap.scan_page_views())
        emitted = METRICS.counter("baseline.records") if TRACER.enabled else None
        while True:
            with TRACER.span("permuted.page", disk=disk) as sp:
                view = next(views, None)
                if view is None:
                    return
                columns = [view.column(name) for name in self.key_fields]
                if len(columns) == 1:
                    lo, hi = sides[0].lo, sides[0].hi  # Interval is [lo, hi)
                    matching_idx = [
                        i for i, x in enumerate(columns[0]) if lo <= x < hi
                    ]
                else:
                    matching_idx = [
                        i
                        for i, point in enumerate(zip(*columns))
                        if all(s.lo <= v < s.hi for s, v in zip(sides, point))
                    ]
                if not matching_idx:
                    matching: tuple[Record, ...] = ()
                elif 2 * len(matching_idx) >= view.count:
                    records = view.records  # mostly matching: batched decode
                    matching = tuple(records[i] for i in matching_idx)
                else:
                    matching = tuple(view.record(i) for i in matching_idx)
                if sp is not None:
                    sp.attrs["matched"] = len(matching)
            if emitted is not None and matching:
                emitted.inc(len(matching))
            yield Batch(records=matching, clock=disk.clock)

    def free(self) -> None:
        self.heap.free()
