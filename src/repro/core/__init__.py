"""Core primitives: errors, RNG discipline, intervals, schemas, statistics."""

from .errors import (
    BufferPoolError,
    EstimatorError,
    HeapFileError,
    IndexBuildError,
    InvariantViolation,
    PageCorruptionError,
    PageError,
    ParseError,
    QueryError,
    ReproError,
    SchemaError,
    SerializationError,
    SortError,
    StorageError,
    TransientPageError,
    ViewError,
)
from .intervals import Box, Interval
from .records import Field, Record, Schema
from .rng import derive, derive_random, make_rng, spawn

__all__ = [
    "Box",
    "BufferPoolError",
    "EstimatorError",
    "Field",
    "HeapFileError",
    "IndexBuildError",
    "Interval",
    "InvariantViolation",
    "PageCorruptionError",
    "PageError",
    "ParseError",
    "QueryError",
    "Record",
    "ReproError",
    "Schema",
    "SchemaError",
    "SerializationError",
    "SortError",
    "StorageError",
    "TransientPageError",
    "ViewError",
    "derive",
    "derive_random",
    "make_rng",
    "spawn",
]
