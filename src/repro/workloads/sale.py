"""Synthetic ``SALE`` relation generators (paper Section VIII).

Experiment 1 uses a ``SALE(DAY, CUST, PART, SUPP)`` relation of 100-byte
records with range predicates on ``DAY``; Experiment 2 adds an ``AMOUNT``
attribute and draws ``(DAY, AMOUNT)`` from a bivariate uniform distribution.
These generators reproduce both at configurable scale: the figures are
normalized (% of relation vs % of scan time), so the relation size is a
fidelity/runtime knob, not part of the result.
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterator

import numpy as np

from ..core.records import Field, Record, Schema
from ..core.rng import derive
from ..storage.heapfile import HeapFile
from ..storage.disk import SimulatedDisk

__all__ = [
    "DAY_DOMAIN",
    "sale_schema_1d",
    "sale_schema_2d",
    "generate_sale_1d",
    "generate_sale_2d",
]

#: 1-D DAY keys are uniform integers in [0, DAY_DOMAIN).
DAY_DOMAIN = 1_000_000_000

_GEN_BATCH = 65536


def _zip_columns(columns: list[np.ndarray], has_pad: bool) -> Iterator[Record]:
    """One generated batch as records, from its numpy columns.

    ``tolist`` turns a whole column into Python ints or floats at once, each
    equal to ``int(column[i])`` or ``float(column[i])``, so the records equal
    those that indexing the arrays one element at a time builds.  The pad
    field, when the schema has one, is empty bytes.
    """
    values: list = [column.tolist() for column in columns]
    if has_pad:
        values.append(repeat(b""))
    return zip(*values)


def sale_schema_1d(record_size: int = 100) -> Schema:
    """SALE(DAY, CUST, PART, SUPP) padded to ``record_size`` bytes."""
    pad = record_size - 4 * 8
    if pad < 0:
        raise ValueError(f"record_size must be >= 32, got {record_size}")
    fields = [
        Field("day", "i8"),
        Field("cust", "i8"),
        Field("part", "i8"),
        Field("supp", "i8"),
    ]
    if pad:
        fields.append(Field("pad", "bytes", pad))
    return Schema(fields)


def sale_schema_2d(record_size: int = 100) -> Schema:
    """SALE(DAY, AMOUNT, CUST, SUPP) padded to ``record_size`` bytes."""
    pad = record_size - 4 * 8
    if pad < 0:
        raise ValueError(f"record_size must be >= 32, got {record_size}")
    fields = [
        Field("day", "f8"),
        Field("amount", "f8"),
        Field("cust", "i8"),
        Field("supp", "i8"),
    ]
    if pad:
        fields.append(Field("pad", "bytes", pad))
    return Schema(fields)


def generate_sale_1d(
    disk: SimulatedDisk,
    num_records: int,
    seed: int = 0,
    record_size: int = 100,
    name: str = "sale",
) -> HeapFile:
    """A 1-D SALE relation with uniform integer DAY keys."""
    schema = sale_schema_1d(record_size)
    has_pad = len(schema.fields) == 5

    def records() -> Iterator[Record]:
        rng = derive(seed, "sale-1d")
        remaining = num_records
        while remaining > 0:
            batch = min(remaining, _GEN_BATCH)
            days = rng.integers(0, DAY_DOMAIN, size=batch)
            others = rng.integers(0, 1_000_000, size=(batch, 3))
            yield from _zip_columns([days, *others.T], has_pad)
            remaining -= batch

    return HeapFile.bulk_load(disk, schema, records(), name=name)


def generate_sale_2d(
    disk: SimulatedDisk,
    num_records: int,
    seed: int = 0,
    record_size: int = 100,
    name: str = "sale2d",
) -> HeapFile:
    """A 2-D SALE relation with (DAY, AMOUNT) ~ bivariate uniform on [0,1)^2."""
    schema = sale_schema_2d(record_size)
    has_pad = len(schema.fields) == 5

    def records() -> Iterator[Record]:
        rng = derive(seed, "sale-2d")
        remaining = num_records
        while remaining > 0:
            batch = min(remaining, _GEN_BATCH)
            points = rng.random(size=(batch, 2))
            others = rng.integers(0, 1_000_000, size=(batch, 2))
            yield from _zip_columns([*points.T, *others.T], has_pad)
            remaining -= batch

    return HeapFile.bulk_load(disk, schema, records(), name=name)
