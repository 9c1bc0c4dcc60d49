"""Deterministic fault injection + differential-oracle testing (``repro.testkit``).

The paper's central claim — the Shuttle/Combine stream is an always-uniform
online sample for any range predicate — is a *statistical* invariant, and
the ROADMAP's north star is a production system that must also survive bad
hardware.  This package is the machinery that hunts violations of both
automatically instead of waiting for a bad seed:

* :mod:`repro.testkit.faults` — a seeded, schedule-driven fault-injection
  layer over :class:`~repro.storage.disk.SimulatedDisk`: transient read
  errors, torn writes, bit-flip corruption, latency spikes.  Every injected
  event is recorded in a :class:`~repro.testkit.faults.FaultPlan` that can
  be serialized and replayed bit-for-bit.
* :mod:`repro.testkit.generators` — seeded scenario generators (datasets,
  tree shapes, range queries, fault rates) for the fuzz harness, plus the
  shrinking-friendly Hypothesis strategies shared by ``tests/property/``.
* :mod:`repro.testkit.stats` — the one shared tolerance helper for
  chi-square / KS statistical assertions, so thresholds cannot drift
  between test files.
* :mod:`repro.testkit.oracle` — differential checks of any sampler stream
  against a brute-force in-memory reference: exact result-set containment,
  duplicate detection, clock monotonicity, and statistical prefix
  uniformity.
* :mod:`repro.testkit.harness` — the one fuzz loop, replay payload,
  ``replay`` and verdict for both scenario kinds.  Classic scenarios race
  the ACE Tree, B+-Tree, and permuted-file samplers against the oracle
  under clean and fault-injected runs plus a cold-then-warm sample-cache
  pass, with deliberately-broken mutant modes (Combine drops cells; the
  cache serves stale entries) for validating the oracle itself.
* :mod:`repro.testkit.serve` — the serve kind (``fuzz --serve``):
  seeded multi-tenant scenarios race the deterministic serve scheduler
  against solo runs of the same queries (scheduling must never leak
  into results), plus fairness/accounting checks and the
  unfair-scheduler/budget-leak mutants (see docs/SERVING.md).
* :mod:`repro.testkit.cli` — ``python -m repro testkit fuzz|replay``.

See ``docs/TESTING.md`` for the fault taxonomy, the oracle's equivalence
criteria, and the replay workflow.
"""

from .faults import FAULT_KINDS, FaultEvent, FaultPlan, FaultyDisk
from .harness import (
    MUTATIONS,
    FuzzReport,
    ScenarioVerdict,
    StaleSampleCache,
    fuzz,
    replay,
    run_scenario,
)
from .generators import Scenario, generate_scenario, make_records
from .oracle import DifferentialReport, check_stream, reference_matching
from .serve import (
    SERVE_MUTATIONS,
    BudgetLeakScheduler,
    ServeScenario,
    UnfairScheduler,
    fairness_bound,
    generate_serve_scenario,
    run_serve_scenario,
)
from .stats import ChiSquareResult, assert_uniform, chi_square, prefix_vs_population

__all__ = [
    "BudgetLeakScheduler",
    "ChiSquareResult",
    "DifferentialReport",
    "FAULT_KINDS",
    "FaultEvent",
    "FaultPlan",
    "FaultyDisk",
    "FuzzReport",
    "MUTATIONS",
    "SERVE_MUTATIONS",
    "Scenario",
    "ScenarioVerdict",
    "ServeScenario",
    "StaleSampleCache",
    "UnfairScheduler",
    "assert_uniform",
    "check_stream",
    "chi_square",
    "fairness_bound",
    "fuzz",
    "generate_scenario",
    "generate_serve_scenario",
    "make_records",
    "prefix_vs_population",
    "reference_matching",
    "replay",
    "run_scenario",
    "run_serve_scenario",
]
