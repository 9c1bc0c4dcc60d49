"""Static analysis and runtime sanitizers for the repro codebase.

Two halves guard the invariants the paper's claims rest on:

* :mod:`repro.analysis.lint` / :mod:`repro.analysis.rules` — an AST lint
  pass (``python -m repro lint``) enforcing the RNG-derivation discipline,
  simulated-clock integrity, float-comparison hygiene on index keys, and
  package layering.
* :mod:`repro.analysis.invariants` — runtime checkers for ACE-Tree
  structure (:func:`check_tree`), sample uniformity and cost conservation
  (:func:`check_sample`), and live stream state (:func:`check_stream`).

See ``docs/ANALYSIS.md`` for the rule catalogue and extension guide.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports
from .lint import (
    RULES,
    Finding,
    findings_to_json,
    format_findings,
    lint_file,
    lint_paths,
)
from . import rules as _rules  # noqa: F401  (registers the project rules)

__all__ = [
    "Finding",
    "RULES",
    "SampleCheckReport",
    "check_sample",
    "check_stream",
    "check_tree",
    "findings_to_json",
    "format_findings",
    "lint_file",
    "lint_paths",
]

#: The runtime checkers load the engine's statistics (scipy), so they are
#: imported on first use; the lint pass above needs only the standard
#: library.
_EXPORTS = {
    "invariants": ("SampleCheckReport", "check_sample", "check_stream",
                   "check_tree"),
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

if TYPE_CHECKING:  # pragma: no cover - static analysis only
    from .invariants import SampleCheckReport, check_sample, check_stream, check_tree
