"""Benchmark harness: sampling races, per-figure experiments, reporting.

Submodules are imported lazily (PEP 562) so that importing ``repro.bench``
for a single symbol does not drag in the figure harness (which itself
imports the whole library).
"""

from typing import TYPE_CHECKING

_FIGURE_EXPORTS = {
    "ACE",
    "BPLUS",
    "FIGURES",
    "PERMUTED",
    "RTREE",
    "SCALES",
    "ExperimentContext",
    "FigureResult",
    "FigureSpec",
    "Scale",
    "clear_context_cache",
    "get_context",
    "run_figure",
}
_MODEL_EXPORTS = {"ExperimentModel"}
_RACE_EXPORTS = {"AveragedCurve", "RaceCurve", "average_curves", "make_grid", "run_race"}
_REPORT_EXPORTS = {"format_figure", "format_summary"}

__all__ = sorted(
    _FIGURE_EXPORTS
    | _MODEL_EXPORTS
    | _RACE_EXPORTS
    | _REPORT_EXPORTS
)

if TYPE_CHECKING:  # pragma: no cover - static analysis only
    from .figures import (  # noqa: F401
        ACE,
        BPLUS,
        FIGURES,
        PERMUTED,
        RTREE,
        SCALES,
        ExperimentContext,
        FigureResult,
        FigureSpec,
        Scale,
        clear_context_cache,
        get_context,
        run_figure,
    )
    from .model import ExperimentModel  # noqa: F401
    from .race import (  # noqa: F401
        AveragedCurve,
        RaceCurve,
        average_curves,
        make_grid,
        run_race,
    )
    from .report import format_figure, format_summary  # noqa: F401


def __getattr__(name: str):
    if name in _FIGURE_EXPORTS:
        from . import figures as module
    elif name in _MODEL_EXPORTS:
        from . import model as module
    elif name in _RACE_EXPORTS:
        from . import race as module
    elif name in _REPORT_EXPORTS:
        from . import report as module
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(module, name)
    globals()[name] = value  # cache for subsequent lookups
    return value
