"""Two-phase multiway merge sort (TPMMS) over heap files.

Both construction phases of the ACE Tree, the randomly permuted file, and
the B+-Tree bulk load all reduce to external sorting, exactly as in the
paper ("constructing an ACE-Tree from scratch requires two external sorts of
a large database table").  This implementation is the textbook TPMMS of
Garcia-Molina et al., the same algorithm the paper cites:

1. *Run generation*: read the input sequentially in memory-sized chunks,
   sort each chunk, write it back as a sorted run.
2. *Merge*: k-way merge the runs (multiple passes if there are more runs
   than the merge fan-in allows).

Two pipelining hooks keep pass counts equal to a real system's:

* ``transform`` rewrites records during run generation (the ACE Tree's
  Phase 2 uses it to attach leaf/section numbers without an extra pass);
* ``sink`` consumes the final merged stream instead of writing it to a heap
  file (Phase 2 uses it to build leaf nodes directly from the merge).  The
  stream arrives in *blocks*: each block holds the consecutive merged
  records between two run-page reads, so a sink that finishes a block
  before pulling the next one performs its own writes and charges in the
  order a record-at-a-time consumer would.

Wall-clock fast path — the *planned merge*.  Run generation keeps each
run's sorted keys (and, when no ``transform`` rewrites records, the packed
row bytes, shuffled with numpy and never decoded) in memory alongside the
on-disk run.  The merged order is then one stable sort over the
concatenated per-run keys: stability with runs concatenated in run order
reproduces exactly the tie order of ``heapq.merge``, and timsort's galloping
exploits the pre-sorted runs.  What remains of the merge is a *replay* of
the page accesses ``heapq.merge`` would have driven: the first page of every
run is read when the consumer's first pull primes the heap, each later run
page is read during the pull that follows the yield of the previous page's
last record, and output pages are written after every page-worth of pulls.
The simulated disk therefore sees the identical access sequence — same
reads, same writes, same interleaving, same seek/sequential classification,
same charge order — while the per-record Python heap machinery, record
decoding and re-encoding disappear from the real wall clock.

Runs too large to retain (``_RETAIN_LIMIT_BYTES``), and sorts where some
run lacks retained state, fall back to the streaming decorate-sort-
undecorate merge below, which is output- and cost-identical (pinned by
``tests/property``).  Setting ``USE_FAST_PATH = False`` forces the
streaming path everywhere, which the equivalence tests exercise.

All I/O flows through the simulated disk, so the sort's cost — including
the seeks caused by interleaving reads from many runs with output writes —
lands on the simulated clock.
"""

from __future__ import annotations

import heapq
import math
from itertools import repeat
from operator import itemgetter
from typing import Callable, Iterator, TypeVar

import numpy as np

from ..core.errors import SortError
from ..core.records import PageView, Record, Schema
from ..obs.tracer import TRACER
from .heapfile import PAGE_HEADER_SIZE, HeapFile
from .recovery import read_page_resilient

__all__ = ["external_sort", "external_sort_to_sink", "merge_runs"]

KeyFunc = Callable[[Record], object]
T = TypeVar("T")

_undecorate = itemgetter(2)

#: Master switch for the planned-merge fast path; the streaming merge is
#: used when False.  Exists so the property tests can pin the two paths
#: to identical outputs and identical simulated clocks.
USE_FAST_PATH = True

#: Retain per-run sort state (keys + payload) for the planned merge only
#: while the sorted payload fits this budget; larger sorts stream.
_RETAIN_LIMIT_BYTES = 256 << 20


class _FillSpan:
    """Manually managed ``external_sort.run_fill`` span over a read loop.

    Run generation pulls page views from a generator, so the simulated page
    reads happen at ``next()``; to attribute them, the fill span must be
    open *around* the pulls and closed before each run cut (so the write
    span is a sibling, not a child, and both stay leaf spans).  A context
    manager cannot straddle loop iterations like that, hence the explicit
    ensure/close pair; ``close`` is idempotent and exception-safe via the
    caller's ``finally``.
    """

    __slots__ = ("_disk", "_open")

    def __init__(self, disk) -> None:
        self._disk = disk
        self._open = None

    def ensure(self) -> None:
        if self._open is None:
            span = TRACER.span("external_sort.run_fill", disk=self._disk)
            span.__enter__()
            self._open = span

    def close(self) -> None:
        span = self._open
        if span is not None:
            self._open = None
            span.__exit__(None, None, None)


class _RunMeta:
    """In-memory sort state of one on-disk run, for the planned merge.

    ``keys`` are the run's sort keys in run (sorted) order — a numpy array
    on the vectorized column path, else a Python list.  Exactly one of
    ``rows`` (packed record bytes, ``(n, record_size)`` uint8) and
    ``records`` (decoded tuples) is set, matching how the run was built.
    """

    __slots__ = ("keys", "rows", "records")

    def __init__(self, keys, rows, records) -> None:
        self.keys = keys
        self.rows = rows
        self.records = records


def external_sort(
    source: HeapFile,
    key: KeyFunc | None = None,
    memory_pages: int = 64,
    name: str = "",
    free_source: bool = False,
    transform: Callable[[Record], Record] | None = None,
    output_schema: Schema | None = None,
    key_field: str | None = None,
    view_transform=None,
) -> HeapFile:
    """Sort ``source`` by ``key`` into a new heap file on the same disk.

    Args:
        source: the heap file to sort (left intact unless ``free_source``).
        key: sort key extractor applied to the (transformed) records; must
            be a pure function of the record.
        memory_pages: pages of sort memory; also bounds the merge fan-in
            (``memory_pages - 1`` input runs per merge pass).
        name: name for the output heap file.
        free_source: release the source file's pages once consumed.
        transform: optional per-record rewrite applied while reading the
            input (decoration), pipelined into run generation.
        output_schema: schema of the transformed records (defaults to the
            source schema; required if ``transform`` changes the layout).
        key_field: name of the schema column to sort on.  Declaring the
            key as a column (instead of an opaque callable) lets run
            generation extract keys straight from page bytes — vectorized
            for ``i8`` columns — without decoding records.  When given,
            ``key`` may be omitted; if both are given they must agree.
        view_transform: optional page-batched accelerator for
            ``transform``: called with each input :class:`PageView`, it
            returns ``(payload, keys)`` — the transformed records as packed
            bytes plus their sort keys as a numpy array, in record order.
            Must be byte- and key-equivalent to applying ``transform`` and
            ``key`` per record (which remain the semantic definition and
            the fallback when the fast path is off).

    Returns:
        A new :class:`HeapFile` with the records in key order.
    """
    with TRACER.span("external_sort.total", disk=source.disk):
        runs, schema = _generate_runs(
            source, key, memory_pages, transform, output_schema, free_source,
            key_field, view_transform,
        )
        if not runs:
            return HeapFile.create(source.disk, schema, name)
        with TRACER.span("external_sort.merge", disk=source.disk):
            key = _resolve_key(schema, key, key_field)
            fan_in = memory_pages - 1
            while len(runs) > 1:
                runs = _merge_pass(
                    runs, key, fan_in, name, need_meta=len(runs) > fan_in
                )
        result = runs[0]
        result.name = name
        if hasattr(result, "_sort_meta"):
            del result._sort_meta
        return result


def external_sort_to_sink(
    source: HeapFile,
    key: KeyFunc,
    sink: Callable[[Iterator[list[Record] | PageView]], T],
    memory_pages: int = 64,
    free_source: bool = False,
    transform: Callable[[Record], Record] | None = None,
    output_schema: Schema | None = None,
    key_field: str | None = None,
    view_transform=None,
) -> T:
    """Like :func:`external_sort`, but stream the result into ``sink``.

    The final merge is pipelined into ``sink`` instead of being written back
    to disk, mirroring how a real bulk loader consumes its last merge pass.
    ``sink`` receives an iterator of blocks of consecutive merged records:
    every run-page read of the merge happens while the sink pulls the next
    block, so each block is the records between two reads (one page per
    block when there is a single run).  A block from packed runs is a
    :class:`PageView` over the merged rows, decoded only if the sink
    iterates it; a merge of decoded records yields lists.  Returns
    whatever ``sink`` returns.  The intermediate runs are freed.
    """
    with TRACER.span("external_sort.total", disk=source.disk):
        runs, schema = _generate_runs(
            source, key, memory_pages, transform, output_schema, free_source,
            key_field, view_transform,
        )
        with TRACER.span("external_sort.merge", disk=source.disk):
            key = _resolve_key(schema, key, key_field)
            fan_in = memory_pages - 1
            while len(runs) > fan_in:
                runs = _merge_pass(runs, key, fan_in, "sink", need_meta=True)
        if not runs:
            return sink(iter(()))
        if len(runs) == 1:
            blocks: Iterator[list[Record] | PageView] = runs[0].scan_page_views()
        else:
            total = sum(run.num_records for run in runs)
            source.disk.charge_records(int(total * math.log2(len(runs))))
            metas = [getattr(run, "_sort_meta", None) for run in runs]
            if all(meta is not None for meta in metas):
                blocks = _planned_merge_blocks(runs, metas, schema)
            else:
                blocks = _streaming_blocks(runs, key)
        try:
            # The final merge is lazy: its run-page reads happen while the
            # sink pulls blocks, so the span must enclose the sink.
            with TRACER.span(
                "external_sort.final_merge", disk=source.disk, runs=len(runs)
            ):
                return sink(blocks)
        finally:
            for run in runs:
                run.free()


def merge_runs(
    runs: list[HeapFile],
    key: KeyFunc,
    name: str = "",
    _retain_meta: bool = False,
) -> HeapFile:
    """K-way merge sorted runs into one sorted heap file, freeing the inputs."""
    if not runs:
        raise SortError("merge_runs needs at least one run")
    disk = runs[0].disk
    schema = runs[0].schema
    if len(runs) == 1:
        # Nothing to merge; adopt the single run as the result.
        runs[0].name = name
        return runs[0]

    total = sum(run.num_records for run in runs)
    with TRACER.span(
        "external_sort.merge_runs", disk=disk, runs=len(runs), records=total
    ):
        # Charge merge CPU: n records x log2(k) heap comparisons.
        disk.charge_records(int(total * math.log2(len(runs))))

        metas = [getattr(run, "_sort_meta", None) for run in runs]
        if all(meta is not None for meta in metas):
            return _planned_merge_to_file(runs, metas, schema, name, _retain_meta)

        merged = heapq.merge(
            *(_decorated_scan(run, key, i) for i, run in enumerate(runs))
        )
        result = HeapFile.bulk_load(disk, schema, map(_undecorate, merged), name=name)
        for run in runs:
            run.free()
        return result


def _resolve_key(schema: Schema, key: KeyFunc | None, key_field: str | None):
    if key is not None:
        return key
    if key_field is None:
        raise SortError("external sort needs a key callable or a key_field")
    return schema.key_getter(key_field)


def _decorated_scan(
    run: HeapFile, key: KeyFunc, run_index: int
) -> Iterator[tuple]:
    """Scan a sorted run as ``(key, run_index, record)`` triples.

    ``heapq.merge`` over such streams needs no ``key=`` callable, and the
    run index breaks key ties by stream position — the same tie order the
    ``key=`` form guarantees.  Records themselves are never compared.
    """
    for page_records in run.scan_pages():
        yield from zip(map(key, page_records), repeat(run_index), page_records)


# ---------------------------------------------------------------------------
# Run generation
# ---------------------------------------------------------------------------


def _generate_runs(
    source: HeapFile,
    key: KeyFunc | None,
    memory_pages: int,
    transform: Callable[[Record], Record] | None,
    output_schema: Schema | None,
    free_source: bool,
    key_field: str | None = None,
    view_transform=None,
) -> tuple[list[HeapFile], Schema]:
    """Phase 1 of TPMMS: cut the input into sorted runs."""
    if memory_pages < 3:
        raise SortError(f"memory_pages must be >= 3, got {memory_pages}")
    schema = output_schema if output_schema is not None else source.schema
    if schema.record_size + PAGE_HEADER_SIZE > source.disk.page_size:
        raise SortError("output records do not fit a disk page")
    per_page = (source.disk.page_size - PAGE_HEADER_SIZE) // schema.record_size
    batch_capacity = memory_pages * max(per_page, 1)
    retain = (
        USE_FAST_PATH
        and source.num_records * schema.record_size <= _RETAIN_LIMIT_BYTES
    )

    with TRACER.span("external_sort.run_generation", disk=source.disk):
        raw_mode = (
            USE_FAST_PATH
            and transform is None
            and (output_schema is None or output_schema == source.schema)
        )
        if raw_mode:
            if key_field is None:
                key = _resolve_key(schema, key, key_field)
            runs = _generate_runs_raw(
                source, key, key_field, schema, batch_capacity, retain
            )
        elif USE_FAST_PATH and view_transform is not None:
            runs = _generate_runs_views(
                source, view_transform, schema, batch_capacity, retain
            )
        else:
            resolved = _resolve_key(schema, key, key_field)
            runs = _generate_runs_records(
                source, resolved, schema, batch_capacity, transform, retain
            )
        if free_source:
            source.free()
    return runs, schema


def _generate_runs_raw(
    source: HeapFile,
    key: KeyFunc | None,
    key_field: str | None,
    schema: Schema,
    batch_capacity: int,
    retain: bool,
) -> list[HeapFile]:
    """Run generation over raw page bytes (no ``transform``).

    Records are never decoded into tuples on this path unless the key is an
    opaque callable: keys come straight off the page payload (a zero-copy
    numpy column for ``i8`` key fields, a C-level single-column unpack
    otherwise) and rows move as byte blocks.  The serializer round-trip is
    the identity, so the written runs are byte-for-byte what the decoding
    path would produce, and page reads/writes and charges are unchanged.
    """
    disk = source.disk
    size = schema.record_size
    numeric = (
        key_field is not None
        and schema.fields[schema.field_index(key_field)].kind == "i8"
    )
    generic = key_field is None
    runs: list[HeapFile] = []
    payload_buf = bytearray()
    keys_py: list = []  # generic-callable keys, aligned with payload_buf
    buffered = 0

    def cut(count: int) -> None:
        nonlocal keys_py, buffered
        chunk = bytes(memoryview(payload_buf)[:count * size])
        del payload_buf[:count * size]
        buffered -= count
        if numeric:
            keys = np.frombuffer(chunk, dtype=schema.numpy_dtype(), count=count)[
                key_field
            ]
        elif generic:
            keys, keys_py = keys_py[:count], keys_py[count:]
        else:
            keys = schema.unpack_column(chunk, count, key_field)
        runs.append(
            _write_run_raw(
                disk, schema, keys, chunk, retain,
                f"{source.name}.run{len(runs)}",
            )
        )

    fill = _FillSpan(disk)
    views = iter(source.scan_page_views())
    try:
        while True:
            fill.ensure()
            view = next(views, None)
            if view is None:
                fill.close()
                break
            payload_buf += view.payload
            if generic:
                keys_py.extend(map(key, view.records))
            buffered += view.count
            # Cut runs at exactly batch_capacity records (possibly mid-page)
            # so run boundaries match record-at-a-time accumulation.
            while buffered >= batch_capacity:
                fill.close()
                cut(batch_capacity)
    finally:
        fill.close()
    if buffered:
        cut(buffered)
    return runs


def _write_run_raw(
    disk, schema: Schema, keys, payload: bytes, retain: bool, name: str
) -> HeapFile:
    """Sort one memory load of packed rows and write it out as a run."""
    size = schema.record_size
    n = len(payload) // size
    with TRACER.span("external_sort.write_run", disk=disk, records=n):
        # Charge CPU for the in-memory sort: ~n log2 n comparisons.
        disk.charge_records(int(n * math.log2(max(n, 2))))
        if isinstance(keys, np.ndarray):
            order = np.argsort(keys, kind="stable")
            sorted_keys = keys[order]
        else:
            order_list = sorted(range(n), key=keys.__getitem__)
            sorted_keys = [keys[i] for i in order_list]
            order = np.asarray(order_list, dtype=np.intp)
        rows = np.frombuffer(payload, dtype=np.uint8).reshape(n, size)
        sorted_rows = rows[order]
        run = HeapFile.bulk_load_packed(disk, schema, [sorted_rows], name=name)
    if retain:
        run._sort_meta = _RunMeta(sorted_keys, sorted_rows, None)
    return run


def _generate_runs_views(
    source: HeapFile,
    view_transform,
    schema: Schema,
    batch_capacity: int,
    retain: bool,
) -> list[HeapFile]:
    """Run generation through a page-batched ``view_transform``.

    Each input page is rewritten wholesale into transformed packed bytes
    plus a numpy key array; records never exist as tuples.  Run boundaries,
    charges and written bytes match the per-record ``transform`` path
    exactly (``view_transform``'s contract), so the two are interchangeable.
    """
    disk = source.disk
    size = schema.record_size
    runs: list[HeapFile] = []
    payload_buf = bytearray()
    key_parts: list[np.ndarray] = []  # aligned with payload_buf
    buffered = 0

    def cut(count: int) -> None:
        nonlocal buffered
        chunk = bytes(memoryview(payload_buf)[:count * size])
        del payload_buf[:count * size]
        allkeys = key_parts[0] if len(key_parts) == 1 else np.concatenate(key_parts)
        keys, rest = allkeys[:count], allkeys[count:]
        key_parts.clear()
        if len(rest):
            key_parts.append(rest)
        buffered -= count
        runs.append(
            _write_run_raw(
                disk, schema, keys, chunk, retain,
                f"{source.name}.run{len(runs)}",
            )
        )

    fill = _FillSpan(disk)
    views = iter(source.scan_page_views())
    try:
        while True:
            fill.ensure()
            view = next(views, None)
            if view is None:
                fill.close()
                break
            payload, keys = view_transform(view)
            payload_buf += payload
            key_parts.append(keys)
            buffered += view.count
            # Cut runs at exactly batch_capacity records (possibly mid-page)
            # so run boundaries match record-at-a-time accumulation.
            while buffered >= batch_capacity:
                fill.close()
                cut(batch_capacity)
    finally:
        fill.close()
    if buffered:
        cut(buffered)
    return runs


def _generate_runs_records(
    source: HeapFile,
    key: KeyFunc,
    schema: Schema,
    batch_capacity: int,
    transform: Callable[[Record], Record] | None,
    retain: bool,
) -> list[HeapFile]:
    """Run generation over decoded records (``transform`` present, or the
    fast path disabled)."""
    runs: list[HeapFile] = []
    batch: list[Record] = []
    fill = _FillSpan(source.disk)
    pages = iter(source.scan_pages())
    try:
        while True:
            fill.ensure()
            page_records = next(pages, None)
            if page_records is None:
                fill.close()
                break
            if transform is not None:
                page_records = [transform(record) for record in page_records]
            batch.extend(page_records)
            # Cut runs at exactly batch_capacity records (possibly mid-page)
            # so run boundaries match record-at-a-time accumulation.
            while len(batch) >= batch_capacity:
                fill.close()
                runs.append(
                    _write_run_records(
                        batch[:batch_capacity], source, schema, key, len(runs), retain
                    )
                )
                batch = batch[batch_capacity:]
    finally:
        fill.close()
    if batch:
        runs.append(
            _write_run_records(batch, source, schema, key, len(runs), retain)
        )
    return runs


def _write_run_records(
    batch: list[Record],
    source: HeapFile,
    schema: Schema,
    key: KeyFunc,
    run_no: int,
    retain: bool,
) -> HeapFile:
    """Sort one memory load of records and write it out as a run.

    Keys are computed once per record; an index sort on them reproduces the
    stable ``sort(key=...)`` permutation without comparing records.
    """
    n = len(batch)
    with TRACER.span("external_sort.write_run", disk=source.disk, records=n):
        # Charge CPU for the in-memory sort: ~n log2 n comparisons.
        source.disk.charge_records(int(n * math.log2(max(n, 2))))
        name = f"{source.name}.run{run_no}"
        if not retain:
            batch.sort(key=key)
            return HeapFile.bulk_load(source.disk, schema, batch, name=name)
        keys = list(map(key, batch))
        arr = _int64_keys(keys)
        if arr is not None:
            np_order = np.argsort(arr, kind="stable")
            sorted_records = [batch[i] for i in np_order.tolist()]
            run = HeapFile.bulk_load(source.disk, schema, sorted_records, name=name)
            run._sort_meta = _RunMeta(arr[np_order], None, sorted_records)
            return run
        order = sorted(range(n), key=keys.__getitem__)
        sorted_records = [batch[i] for i in order]
        run = HeapFile.bulk_load(source.disk, schema, sorted_records, name=name)
        run._sort_meta = _RunMeta([keys[i] for i in order], None, sorted_records)
        return run


def _int64_keys(keys: list) -> np.ndarray | None:
    """``keys`` as an int64 array when that preserves exact ordering.

    Only plain machine-word ints qualify: a stable numpy argsort over them
    is order-identical to the Python index sort.  Floats, tuples, bools and
    out-of-range ints return ``None`` (callers keep the Python sort).
    """
    if not keys or any(type(k) is not int for k in keys):
        return None
    try:
        return np.array(keys, dtype=np.int64)
    except OverflowError:
        # Expected for ints outside the 64-bit range (numpy refuses the
        # conversion); such keys keep the exact Python index sort.
        return None


def _merge_pass(
    runs: list[HeapFile],
    key: KeyFunc,
    fan_in: int,
    name: str,
    need_meta: bool = False,
) -> list[HeapFile]:
    """Merge groups of up to ``fan_in`` runs into longer runs."""
    merged: list[HeapFile] = []
    for i in range(0, len(runs), fan_in):
        group = runs[i:i + fan_in]
        merged.append(
            merge_runs(
                group, key, name=f"{name}.merge{len(merged)}",
                _retain_meta=need_meta,
            )
        )
    return merged


# ---------------------------------------------------------------------------
# Planned merge: precomputed order + exact page-access replay
# ---------------------------------------------------------------------------


def _merge_order(metas: list[_RunMeta]):
    """The merged order of runs concatenated in run order.

    Returns ``(morder, run_per_position, allkeys)``: a stable sort of the
    concatenated keys, whose tie behaviour — earlier run first, FIFO within
    a run — is exactly ``heapq.merge``'s.  Timsort/numpy's stable sort
    gallop over the pre-sorted runs, so this costs far less than n log k
    Python-level heap operations.
    """
    key_arrays = [meta.keys for meta in metas]
    if all(isinstance(keys, np.ndarray) for keys in key_arrays):
        allkeys = np.concatenate(key_arrays)
        morder = np.argsort(allkeys, kind="stable")
    else:
        allkeys = []
        for keys in key_arrays:
            # A mixed batch (rare: per-run int-key detection can differ)
            # compares as Python objects throughout.
            allkeys.extend(keys.tolist() if isinstance(keys, np.ndarray) else keys)
        morder = np.asarray(
            sorted(range(len(allkeys)), key=allkeys.__getitem__), dtype=np.intp
        )
    run_of = np.repeat(
        np.arange(len(metas), dtype=np.intp),
        [len(meta.keys) for meta in metas],
    )
    return morder, run_of[morder], allkeys


def _initial_reads(runs: list[HeapFile]) -> list[tuple[int, int]]:
    """(page id, record count) of every run's first page, in run order —
    the reads ``heapq.merge`` issues when its heap is primed."""
    per_page = runs[0].records_per_page
    return [
        (run.page_ids[0], min(per_page, run.num_records)) for run in runs
    ]


def _read_schedule(
    runs: list[HeapFile], run_per_position: np.ndarray
) -> list[tuple[int, int, int]]:
    """Later-page read events as ``(pull position, page id, record count)``.

    ``heapq.merge`` advances the stream that yielded record ``i-1`` while
    the consumer pulls record ``i``; a run's page ``p`` is therefore read
    during the pull that follows the yield of the run's record
    ``p*per_page - 1``.  (The formula also covers the single-stream
    ``yield from`` tail: once one run remains, every position belongs to
    it and the two read points coincide.)
    """
    events: list[tuple[int, int, int]] = []
    per_page = runs[0].records_per_page
    for r, run in enumerate(runs):
        positions = np.flatnonzero(run_per_position == r)
        page_ids = run.page_ids
        num_records = run.num_records
        for p in range(1, len(page_ids)):
            pull = int(positions[p * per_page - 1]) + 1
            events.append(
                (pull, page_ids[p], min(per_page, num_records - p * per_page))
            )
    events.sort()
    return events


def _planned_merge_to_file(
    runs: list[HeapFile],
    metas: list[_RunMeta],
    schema: Schema,
    name: str,
    retain_meta: bool,
) -> HeapFile:
    """Merge retained runs into a heap file, replaying the exact page
    access sequence of the streaming merge."""
    disk = runs[0].disk
    morder, run_per_position, allkeys = _merge_order(metas)
    total = len(morder)
    size = schema.record_size
    records: list[Record] | None = None
    rows: np.ndarray | None = None
    if metas[0].rows is not None:
        rows = np.concatenate([meta.rows for meta in metas])[morder]
        flat = memoryview(rows).cast("B")
    else:
        pooled: list[Record] = []
        for meta in metas:
            pooled.extend(meta.records)
        records = [pooled[i] for i in morder.tolist()]
    events = _read_schedule(runs, run_per_position)
    per_page = runs[0].records_per_page
    result = HeapFile(disk, schema, name)
    for pid, count in _initial_reads(runs):
        read_page_resilient(disk, pid)
        disk.charge_records(count)
    e, num_events = 0, len(events)
    for lo in range(0, total, per_page):
        hi = min(lo + per_page, total)
        # Run-page reads triggered by pulls lo..hi-1 precede this write.
        while e < num_events and events[e][0] < hi:
            _, pid, count = events[e]
            read_page_resilient(disk, pid)
            disk.charge_records(count)
            e += 1
        if rows is not None:
            result._write_packed_page(flat[lo * size:hi * size], hi - lo)
        else:
            result._write_full_page(records[lo:hi])
    for run in runs:
        run.free()
    if retain_meta:
        if isinstance(allkeys, np.ndarray):
            sorted_keys = allkeys[morder]
        else:
            sorted_keys = [allkeys[i] for i in morder.tolist()]
        result._sort_meta = _RunMeta(sorted_keys, rows, records)
    return result


def _planned_merge_blocks(
    runs: list[HeapFile], metas: list[_RunMeta], schema: Schema
) -> Iterator[list[Record] | PageView]:
    """Merged blocks from retained runs: the records between two of the
    streaming merge's page reads, with each read replayed between the
    blocks it separates.  Packed runs give :class:`PageView` blocks over
    the merged rows (nothing is decoded); retained records give lists."""
    disk = runs[0].disk
    morder, run_per_position, _allkeys = _merge_order(metas)
    total = len(morder)
    if metas[0].records is not None:
        pooled: list[Record] = []
        for meta in metas:
            pooled.extend(meta.records)
        items = [pooled[i] for i in morder.tolist()]

        def block(lo: int, hi: int) -> list[Record] | PageView:
            return items[lo:hi]
    else:
        rows = np.concatenate([meta.rows for meta in metas])[morder]
        flat = memoryview(rows).cast("B")
        size = schema.record_size

        def block(lo: int, hi: int) -> list[Record] | PageView:
            return PageView(schema, flat[lo * size:hi * size], hi - lo)
    events = _read_schedule(runs, run_per_position)
    initial = _initial_reads(runs)

    def blocks() -> Iterator[list[Record] | PageView]:
        charge = disk.charge_records
        for pid, count in initial:
            read_page_resilient(disk, pid)
            charge(count)
        prev = 0
        for pull, pid, count in events:
            yield block(prev, pull)
            # The pull of record `pull` advances the drained stream first.
            read_page_resilient(disk, pid)
            charge(count)
            prev = pull
        yield block(prev, total)

    return blocks()


def _streaming_blocks(runs: list[HeapFile], key: KeyFunc) -> Iterator[list[Record]]:
    """Merged blocks from ``heapq.merge`` over the on-disk runs.

    ``heapq.merge`` advances the run that yielded the previous record on
    the next pull, so run ``r``'s next page is read on the pull after its
    page-final record; a block ends with every such record.
    """
    per_page = runs[0].records_per_page
    sizes = [run.num_records for run in runs]
    taken = [0] * len(runs)
    block: list[Record] = []
    merged = heapq.merge(
        *(_decorated_scan(run, key, i) for i, run in enumerate(runs))
    )
    for _key, r, record in merged:
        block.append(record)
        taken[r] += 1
        if taken[r] % per_page == 0 and taken[r] < sizes[r]:
            yield block
            block = []
    if block:
        yield block
