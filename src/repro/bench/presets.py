"""The figure and scale presets of the paper's evaluation, engine-free.

:data:`SCALES` names the relation sizes the experiments run at and
:data:`FIGURES` the experiments behind the paper's Figures 11-18.  They
are plain data: ``python -m repro`` reads them to build the ``figures``,
``trace`` and ``list`` arguments without importing the engine, and
:mod:`repro.bench.figures` re-exports them next to the experiments that
run them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["Scale", "SCALES", "FigureSpec", "FIGURES"]


@dataclass(frozen=True)
class Scale:
    """A relation size + matching structure parameters for the experiments.

    ``leaf_records`` controls the ACE Tree height: the expected leaf holds
    roughly this many records (the paper's variable-size leaves span several
    pages; larger leaves amortize the per-leaf seek over more records).
    """

    name: str
    num_records: int
    page_size: int = 4096
    record_size: int = 100
    leaf_records: int = 256
    seek_to_transfer: float = 10.0
    memory_pages: int = 64
    num_queries: int = 10
    completion_queries: int = 3

    @property
    def height(self) -> int:
        """ACE Tree height giving ~``leaf_records`` records per leaf."""
        leaves = max(2, self.num_records // self.leaf_records)
        return max(3, int(math.log2(leaves)) + 1)

    @property
    def leaf_cache_pages(self) -> int:
        """Tree-baseline buffer size: ~5% of the relation, as in the paper
        (1 GB of RAM against a 20 GB relation)."""
        relation_pages = math.ceil(
            self.num_records * self.record_size / self.page_size
        )
        return max(64, relation_pages // 20)


SCALES: dict[str, Scale] = {  # repro: shared[frozen] constant table of scale presets
    "small": Scale(
        name="small",
        num_records=2**14,
        page_size=2048,
        leaf_records=128,
        num_queries=3,
        completion_queries=2,
    ),
    "medium": Scale(name="medium", num_records=2**19),
    "large": Scale(name="large", num_records=2**20),
}


@dataclass(frozen=True)
class FigureSpec:
    """One figure of the paper's evaluation section."""

    figure: str
    title: str
    dims: int
    selectivity: float
    window_fraction: float | None  # None => run to completion (Figure 14)
    buffer_metric: bool = False  # Figure 15 tracks bucket occupancy
    expected_shape: str = ""


FIGURES: dict[str, FigureSpec] = {  # repro: shared[frozen] constant table of figure specs
    "fig11": FigureSpec(
        "fig11", "1-D sampling race, selectivity 0.25%", 1, 0.0025, 0.04,
        expected_shape="ACE first by a wide margin; B+ second; permuted ~flat",
    ),
    "fig12": FigureSpec(
        "fig12", "1-D sampling race, selectivity 2.5%", 1, 0.025, 0.04,
        expected_shape="ACE first; permuted second; B+ hugs the x-axis",
    ),
    "fig13": FigureSpec(
        "fig13", "1-D sampling race, selectivity 25%", 1, 0.25, 0.04,
        expected_shape="permuted file leads (its label sits above ACE's in the "
        "paper's plot); ACE clearly second; B+ pinned near zero",
    ),
    "fig14": FigureSpec(
        "fig14", "1-D race to completion, selectivity 2.5%", 1, 0.025, None,
        expected_shape=(
            "permuted finishes first (~100% of scan); crossover vs ACE happens "
            "only after ACE has returned most matching records; B+ finishes last"
        ),
    ),
    "fig15a": FigureSpec(
        "fig15a", "ACE buffered records, selectivity 0.25%", 1, 0.0025, 0.11,
        buffer_metric=True,
        expected_shape="small, fluctuating fraction of the relation buffered",
    ),
    "fig15b": FigureSpec(
        "fig15b", "ACE buffered records, selectivity 2.5%", 1, 0.025, 0.11,
        buffer_metric=True,
        expected_shape="small, fluctuating fraction of the relation buffered",
    ),
    "fig16": FigureSpec(
        "fig16", "2-D sampling race, selectivity 0.25%", 2, 0.0025, 0.05,
        expected_shape="ACE first; R-Tree second; permuted ~flat",
    ),
    "fig17": FigureSpec(
        "fig17", "2-D sampling race, selectivity 2.5%", 2, 0.025, 0.05,
        expected_shape="ACE first; permuted second; R-Tree near zero",
    ),
    "fig18": FigureSpec(
        "fig18", "2-D sampling race, selectivity 25%", 2, 0.25, 0.05,
        expected_shape="permuted file leads; ACE second; R-Tree near zero",
    ),
}
