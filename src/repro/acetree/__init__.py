"""The ACE Tree: the paper's primary contribution.

Public surface:

* :func:`build_ace_tree` / :class:`AceBuildParams` — bulk construction
  (two external sorts, paper Section V).
* :class:`AceTree` — the built index; ``tree.sample(tree.query((lo, hi)))``
  opens an online random-sample stream.
* :class:`SampleStream` / :class:`SampleBatch` — the Shuttle/Combine query
  algorithm (Section VI).
* :class:`TreeGeometry`, :class:`InternalNodeView` —
  structural views used by tests and by the k-d extension (Section VII,
  available by listing several ``key_fields``).
* :mod:`analysis` helpers for Lemma 1 / Lemma 2.
"""

from .analysis import (
    expected_section_size,
    fixed_leaf_utilization,
    lemma1_applicability_limit,
    lemma1_lower_bound,
)
from .build import AceBuildParams, AceBuildReport, build_ace_tree
from .geometry import TreeGeometry, choose_height
from .nodes import InternalNodeView
from .query import SampleBatch, SampleStream
from .storage import LeafStore, LeafStoreWriter
from .tree import AceTree

__all__ = [
    "AceBuildParams",
    "AceBuildReport",
    "AceTree",
    "InternalNodeView",
    "LeafStore",
    "LeafStoreWriter",
    "SampleBatch",
    "SampleStream",
    "TreeGeometry",
    "build_ace_tree",
    "choose_height",
    "expected_section_size",
    "fixed_leaf_utilization",
    "lemma1_applicability_limit",
    "lemma1_lower_bound",
]
