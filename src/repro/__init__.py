"""repro: Materialized Sample Views for Database Approximation (ACE Tree).

A from-scratch reproduction of Joshi & Jermaine's ACE Tree paper (ICDE 2006
/ IEEE TKDE): a materialized, indexed *sample view* that streams online
random samples from arbitrary range predicates, together with the storage
substrate, baselines, and benchmark harness needed to regenerate every
figure of the paper's evaluation.

Quickstart::

    from repro import (
        SimulatedDisk, CostModel, generate_sale_1d, create_sample_view,
    )

    disk = SimulatedDisk(page_size=4096, cost=CostModel.scaled(4096))
    sale = generate_sale_1d(disk, num_records=100_000, seed=0)
    view = create_sample_view("mysam", sale, index_on=("day",))
    query = view.query((100_000_000, 200_000_000))  # DAY BETWEEN a AND b
    for batch in view.sample(query):
        ...  # every prefix is a uniform random sample of the matching rows

Subpackages:

* :mod:`repro.core` — schemas, records, interval geometry, RNG discipline.
* :mod:`repro.storage` — simulated disk, buffer pool, heap files, TPMMS
  external sort.
* :mod:`repro.acetree` — the ACE Tree (construction, Shuttle/Combine
  query algorithm, k-d extension, Lemma 1/2 analysis).
* :mod:`repro.baselines` — randomly permuted file, ranked B+-Tree
  (Antoshenkov sampling), STR R-Tree (ranked + Olken sampling).
* :mod:`repro.view` — the materialized-sample-view facade, SQL-ish DDL,
  catalog, differential-file updates.
* :mod:`repro.apps` — online aggregation, streaming K-means, frequent-item
  estimation.
* :mod:`repro.workloads` / :mod:`repro.bench` — the paper's SALE workloads
  and the per-figure benchmark harness.
"""

from typing import TYPE_CHECKING

from ._lazy import lazy_exports

__version__ = "1.0.0"

__all__ = [
    "AceBuildParams",
    "AceTree",
    "Box",
    "Catalog",
    "CostModel",
    "Field",
    "FrequentItemEstimator",
    "HeapFile",
    "Interval",
    "MaterializedSampleView",
    "OnlineAggregator",
    "PermutedFile",
    "RTree",
    "RankedBPlusTree",
    "Record",
    "ReproError",
    "SampleBatch",
    "SampleStream",
    "Schema",
    "SimulatedDisk",
    "StreamingKMeans",
    "build_ace_tree",
    "build_bplus_tree",
    "build_permuted_file",
    "build_rtree",
    "create_sample_view",
    "external_sort",
    "generate_sale_1d",
    "generate_sale_2d",
    "queries_1d",
    "queries_2d",
    "__version__",
]

#: Each public name under the subpackage that defines it; ``import repro``
#: imports a subpackage on the first use of one of its names.
_EXPORTS = {
    "acetree": ("AceBuildParams", "AceTree", "SampleBatch", "SampleStream",
                "build_ace_tree"),
    "apps": ("FrequentItemEstimator", "OnlineAggregator", "StreamingKMeans"),
    "baselines": ("PermutedFile", "RTree", "RankedBPlusTree",
                  "build_bplus_tree", "build_permuted_file", "build_rtree"),
    "core": ("Box", "Field", "Interval", "Record", "ReproError", "Schema"),
    "storage": ("CostModel", "HeapFile", "SimulatedDisk", "external_sort"),
    "view": ("Catalog", "MaterializedSampleView", "create_sample_view"),
    "workloads": ("generate_sale_1d", "generate_sale_2d", "queries_1d",
                  "queries_2d"),
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

if TYPE_CHECKING:  # pragma: no cover - static analysis only
    from .acetree import (
        AceBuildParams,
        AceTree,
        SampleBatch,
        SampleStream,
        build_ace_tree,
    )
    from .apps import FrequentItemEstimator, OnlineAggregator, StreamingKMeans
    from .baselines import (
        PermutedFile,
        RTree,
        RankedBPlusTree,
        build_bplus_tree,
        build_permuted_file,
        build_rtree,
    )
    from .core import Box, Field, Interval, Record, ReproError, Schema
    from .storage import CostModel, HeapFile, SimulatedDisk, external_sort
    from .view import Catalog, MaterializedSampleView, create_sample_view
    from .workloads import generate_sale_1d, generate_sale_2d, queries_1d, queries_2d
