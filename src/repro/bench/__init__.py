"""Benchmark harness: sampling races, per-figure experiments, reporting.

Submodules are imported lazily (PEP 562, :mod:`repro._lazy`) so that
importing ``repro.bench`` for a single symbol does not drag in the figure
harness (which itself imports the whole library).  The figure and scale
presets come from the engine-free :mod:`repro.bench.presets`.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

#: Each public name under the submodule that defines it.
_EXPORTS = {
    "figures": ("ACE", "BPLUS", "PERMUTED", "RTREE", "ExperimentContext",
                "FigureResult", "clear_context_cache", "get_context",
                "run_figure"),
    "model": ("ExperimentModel",),
    "presets": ("FIGURES", "SCALES", "FigureSpec", "Scale"),
    "race": ("AveragedCurve", "RaceCurve", "average_curves", "make_grid",
             "run_race"),
    "report": ("format_figure", "format_summary"),
}

__all__ = sorted(name for names in _EXPORTS.values() for name in names)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

if TYPE_CHECKING:  # pragma: no cover - static analysis only
    from .figures import (  # noqa: F401
        ACE,
        BPLUS,
        PERMUTED,
        RTREE,
        ExperimentContext,
        FigureResult,
        clear_context_cache,
        get_context,
        run_figure,
    )
    from .model import ExperimentModel  # noqa: F401
    from .presets import FIGURES, SCALES, FigureSpec, Scale  # noqa: F401
    from .race import (  # noqa: F401
        AveragedCurve,
        RaceCurve,
        average_curves,
        make_grid,
        run_race,
    )
    from .report import format_figure, format_summary  # noqa: F401
