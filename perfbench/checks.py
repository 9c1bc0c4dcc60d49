"""Correctness checks on streamed answers, and the stream tap they read.

An answer is correct when every emitted record satisfies its predicate, no
record repeats within the query, and -- if the stream ran dry -- the
emitted count equals the exact number of matching records, counted by the
benchmark from the keys it generated.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

__all__ = ["FIRST_K", "Tap", "check_answer", "exact_count"]

#: Sample count for the time-to-first-k metric (the paper's fast-first).
FIRST_K = 100


class Tap:
    """Iterator proxy over a batch stream: keeps every batch, notes the
    wall time the ``FIRST_K``-th sample arrived, and whether the stream
    ran dry."""

    __slots__ = ("_inner", "batches", "count", "first_k_at", "exhausted")

    def __init__(self, inner) -> None:
        self._inner = inner
        self.batches: list = []
        self.count = 0
        self.first_k_at: float | None = None
        self.exhausted = False

    def __iter__(self):
        return self

    def __next__(self):
        try:
            batch = next(self._inner)
        except StopIteration:
            self.exhausted = True
            raise
        self.batches.append(batch)
        self.count += len(batch.records)
        if self.first_k_at is None and self.count >= FIRST_K:
            self.first_k_at = perf_counter()
        return batch


def exact_count(sorted_keys: np.ndarray, lo: int, hi: int) -> int:
    """Number of keys in ``[lo, hi)``."""
    return int(np.searchsorted(sorted_keys, hi, "left")
               - np.searchsorted(sorted_keys, lo, "left"))


def check_answer(batches, lo: int, hi: int, key_index: int, exhausted: bool,
                 exact: int) -> list[str]:
    """Problems with one streamed answer (empty when it is correct)."""
    records = [record for batch in batches for record in batch.records]
    problems = []
    outside = sum(1 for record in records if not lo <= record[key_index] < hi)
    if outside:
        problems.append(f"{outside} records outside [{lo}, {hi})")
    distinct = len(set(records))
    if distinct != len(records):
        problems.append(f"{len(records) - distinct} repeated records")
    if exhausted and len(records) != exact:
        problems.append(
            f"stream exhausted after {len(records)} records, {exact} match"
        )
    return problems
