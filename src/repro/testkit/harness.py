"""The fuzz harness: generated scenarios, racing samplers, replayable verdicts.

One *scenario* (see :mod:`repro.testkit.generators`) is run as: build the
heap file, the ACE Tree, the ranked B+-Tree, and the permuted file on one
:class:`~repro.testkit.faults.FaultyDisk`; then drain every sampler for
every query and judge each stream with the differential oracle.  A run is
performed twice per fuzz iteration — once clean, once under the scenario's
fault rates — so both the statistical invariants and the recovery paths
are exercised from the same case.

Any failing case serializes to a small JSON *replay payload* — scenario
parameters plus the frozen fault event list — that
``python -m repro testkit replay`` (or :func:`replay` directly) re-runs
deterministically: same faults at the same access ordinals, same verdict.

After the clean/faulted query loop every scenario runs a *cold-then-warm*
pass: the same queries re-run against an attached
:class:`~repro.storage.sample_cache.SampleCache` — once to populate it,
once all-hits — and both streams face the same oracle.  Cache-warm
streams must be indistinguishable from cold ones.

The harness can also sabotage itself: ``mutation="combine-drop"`` swaps in
a :class:`BrokenCombineStream` whose Combine silently discards one
required interval's cells, ``mutation="cache-stale"`` swaps in a
:class:`StaleSampleCache` that serves the wrong leaf's cells on warm
hits, and ``mutation="shared-memo"`` interleaves two simulated tenants'
leaf reads over one shared sample cache so it sees an A-B-A writer
episode.  The differential oracle must catch the first two and the
access-ordinal sanitizer (:mod:`repro.analysis.invariants`) the third —
these are the self-tests proving the oracle and sanitizer have teeth.

``sanitize=True`` (CLI ``--sanitize-access``) arms the sanitizer on any
run: the tree's leaf decode memo and the attached sample cache are
wrapped, every stream drains inside a per-stream writer context, and
single-writer-per-tick plus episode-confinement are asserted throughout.
Clean scenarios must pass with it armed — that is the runtime proof that
the ``shared[confined]`` annotations the program analyzer accepts are
honest.

Serve scenarios (:mod:`repro.testkit.serve`) are the harness's second
kind: ``fuzz(serve=True)`` runs them through the same loop, and their
payloads carry ``mode="serve"``, which :func:`replay` dispatches on.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from ..acetree import AceBuildParams, build_ace_tree
from ..acetree.query import SampleStream
from ..analysis.invariants import AccessOrdinalSanitizer
from ..core.errors import InvariantViolation, ReproError
from ..core.rng import derive_random
from ..obs.context import CONTEXT
from ..obs.flight import FLIGHT, FLIGHT_VERSION
from ..storage.cost import CostModel
from ..storage.heapfile import HeapFile
from ..storage.sample_cache import SampleCache
from .faults import FaultPlan, FaultyDisk
from .generators import KV_SCHEMA, Scenario, generate_scenario, make_records
from .oracle import DifferentialReport, check_stream, reference_matching

if TYPE_CHECKING:  # pragma: no cover - the serve runner imports this module
    from .serve import ServeScenario

__all__ = [
    "MUTATIONS",
    "BrokenCombineStream",
    "FuzzReport",
    "ScenarioVerdict",
    "StaleSampleCache",
    "fuzz",
    "replay",
    "run_scenario",
]

#: Known sabotage modes for oracle/sanitizer self-tests.
MUTATIONS: tuple[str, ...] = ("combine-drop", "cache-stale", "shared-memo")

#: Replay payload format version.
REPLAY_VERSION = 1


class BrokenCombineStream(SampleStream):
    """A deliberately broken Shuttle: Combine drops an interval's cells.

    At every section level ``s >= 2`` the cell belonging to the *first*
    required interval is popped and discarded instead of emitted.  The
    stream therefore (a) silently loses matching records — caught by the
    oracle's exactness check — and (b) biases every emitted prefix against
    that key region — caught by the statistical-equivalence check.  Used
    only by the harness's mutation mode; never constructed by product code.
    """

    _combine_fast_path = False  # every cell must flow through the broken drain

    def _drain_level(self, s):
        bucket = self._buckets[s - 1]
        required = self._required_intervals(s)
        out = []
        while all(bucket.get(j) for j in required):
            for i, j in enumerate(required):
                cell = bucket[j].pop(0)
                self.stats.buffered_records -= len(cell)
                if s >= 2 and i == 0:
                    continue  # the sabotage: this cell vanishes
                out.append(cell)
        return out


class StaleSampleCache(SampleCache):
    """A deliberately broken sample cache: hits serve the wrong leaf.

    The first view ever inserted is pinned and served back for *every*
    subsequent hit regardless of the requested key — the classic
    mis-keyed/stale-entry cache bug.  A warm stream then re-emits the
    pinned leaf's records for every other leaf (caught by the oracle's
    duplicate-identity check) and never emits those leaves' real records
    (caught by the completeness check).  Used only by the harness's
    mutation mode; never constructed by product code.
    """

    def __init__(self) -> None:
        super().__init__()
        self._pinned = None

    def put(self, key: tuple, value: object, nbytes: int) -> None:
        if self._pinned is None:
            self._pinned = value
        super().put(key, value, nbytes)

    def get(self, key: tuple):
        value = super().get(key)
        return None if value is None else self._pinned


@dataclass
class ScenarioVerdict:
    """The oracle's judgement of one scenario under one fault plan.

    One type for both scenario kinds: a classic run may set
    ``build_aborted``; a serve run fills ``scheduler_failures`` and
    ``serve_report``.
    """

    scenario: Scenario | ServeScenario
    faults_active: bool
    mutation: str | None = None
    build_aborted: str | None = None
    reports: list[DifferentialReport] = field(default_factory=list)
    scheduler_failures: list[str] = field(default_factory=list)
    injected: int = 0
    serve_report: dict | None = None

    @property
    def failure_lines(self) -> list[str]:
        lines: list[str] = []
        if self.build_aborted and not self.faults_active:
            lines.append(f"build aborted without faults: {self.build_aborted}")
        lines.extend(self.scheduler_failures)
        for report in self.reports:
            for message in report.failures:
                lines.append(f"{report.sampler} {report.query}: {message}")
        return lines

    @property
    def ok(self) -> bool:
        return not self.failure_lines


def _arm_sanitizer(tree) -> AccessOrdinalSanitizer:
    """A sanitizer on the tree's disk clock, wrapping its leaf decode memo.

    Armed *after* the build: the builders own the structures exclusively,
    the query phases are what must prove confinement.
    """
    sanitizer = AccessOrdinalSanitizer(lambda: tree.disk.clock)
    tree.leaf_store._memo = sanitizer.wrap(
        "LeafStore.decode_memo", tree.leaf_store._memo,
        write_ops=("put", "clear"), read_ops=("get",))
    return sanitizer


def run_scenario(
    scenario: Scenario,
    plan: FaultPlan | None = None,
    mutation: str | None = None,
    sanitize: bool | None = None,
) -> tuple[ScenarioVerdict, FaultPlan]:
    """Build the scenario on a fault-injected disk and judge every sampler.

    Returns the verdict together with the plan actually used (whose
    ``injected`` list is the replayable fault record).  A build aborted by
    an injected fault is a *detected* failure — the engine raised a typed
    error instead of corrupting silently — and is only a verdict failure
    when no faults were active.

    ``sanitize`` arms the access-ordinal sanitizer (default: only for the
    ``"shared-memo"`` mutation, which exists to trip it).
    """
    from ..baselines import build_bplus_tree, build_permuted_file

    if mutation is not None and mutation not in MUTATIONS:
        raise ValueError(f"unknown mutation {mutation!r}; expected {MUTATIONS}")
    if sanitize is None:
        sanitize = mutation == "shared-memo"
    plan = plan if plan is not None else FaultPlan()
    verdict = ScenarioVerdict(
        scenario=scenario, faults_active=plan.active, mutation=mutation
    )
    disk = FaultyDisk(
        page_size=scenario.page_size,
        cost=CostModel.scaled(scenario.page_size),
        plan=plan,
    )
    records = make_records(scenario)
    try:
        heap = HeapFile.bulk_load(disk, KV_SCHEMA, records)
        tree = build_ace_tree(
            heap,
            AceBuildParams(
                key_fields=("k",), height=scenario.height,
                arity=scenario.arity, seed=scenario.seed,
            ),
        )
        bplus = build_bplus_tree(heap, "k", leaf_cache_pages=16)
        permuted = build_permuted_file(heap, ("k",), seed=scenario.seed)
    except ReproError as exc:
        verdict.build_aborted = f"{type(exc).__name__}: {exc}"
        verdict.injected = len(plan.injected)
        return verdict, plan

    sanitizer = _arm_sanitizer(tree) if sanitize else None

    if mutation == "shared-memo":
        verdict.reports.append(
            _shared_memo_mutant(tree, scenario, sanitizer, plan.active))
        verdict.injected = len(plan.injected)
        return verdict, plan

    degraded_ok = plan.active
    policy = "skip" if degraded_ok else "raise"
    for query_index, (lo, hi) in enumerate(scenario.queries):
        box = tree.query((lo, hi))
        matching = reference_matching(records, box)
        seed = scenario.seed + query_index

        def make_ace():
            if mutation == "combine-drop":
                return BrokenCombineStream(
                    tree, box, seed=seed, lost_leaf_policy=policy)
            return tree.sample(box, seed=seed, lost_leaf_policy=policy)

        streams = [
            ("ace", make_ace),
            ("bplus", lambda: bplus.sample(box, seed=seed)),
            ("permuted", lambda: permuted.sample(box, seed=seed)),
        ]
        for name, make_stream in streams:
            with CONTEXT.push(sampler=name, query=f"q{query_index}"):
                verdict.reports.append(_checked_stream(
                    sanitizer, f"{name}:q{query_index}", name, make_stream,
                    matching, (lo, hi), degraded_ok,
                ))

    # Cold-then-warm differential pass.  Appended *after* the historical
    # phases so their fault access ordinals (and hence every existing
    # replay payload) are untouched.  Each query runs twice against an
    # attached sample cache — a populate pass that fills it from disk and
    # a warm pass served from residency — and both face the same oracle:
    # cache-warm streams must be indistinguishable from cold ones.
    cache = StaleSampleCache() if mutation == "cache-stale" else SampleCache()
    tree.attach_sample_cache(_sanitized_cache(sanitizer, cache))
    try:
        for query_index, (lo, hi) in enumerate(scenario.queries):
            box = tree.query((lo, hi))
            matching = reference_matching(records, box)
            seed = scenario.seed + query_index
            for name in ("ace-populate", "ace-warm"):
                def make_cached():
                    return tree.sample(box, seed=seed, lost_leaf_policy=policy)

                with CONTEXT.push(sampler=name, query=f"q{query_index}"):
                    verdict.reports.append(_checked_stream(
                        sanitizer, f"{name}:q{query_index}", name, make_cached,
                        matching, (lo, hi), degraded_ok,
                    ))
    finally:
        tree.detach_sample_cache()
    verdict.injected = len(plan.injected)
    return verdict, plan


def _checked_stream(sanitizer, writer_tag, name, make_stream, matching,
                    query, degraded_ok) -> DifferentialReport:
    """Create and judge one stream, inside one sanitizer writer episode.

    A sanitizer trip is always a verdict failure, even in fault phases
    where aborted streams are otherwise tolerated: faults never excuse a
    confinement violation.
    """
    owner = sanitizer.writer(writer_tag) if sanitizer is not None else nullcontext()
    try:
        with owner:
            report = check_stream(
                name, make_stream(), matching, query=query,
                degraded_ok=degraded_ok,
            )
    except InvariantViolation as exc:
        report = DifferentialReport(sampler=name, query=query,
                                    failures=[str(exc)])
        return report
    if report.aborted is not None:
        if not degraded_ok:
            report.failures.append(
                f"stream aborted without faults: {report.aborted}"
            )
        elif "sanitizer:" in report.aborted:
            report.failures.append(
                f"confinement violated under faults: {report.aborted}"
            )
    return report


def _sanitized_cache(sanitizer: AccessOrdinalSanitizer | None, cache):
    """``cache``, wrapped so the sanitizer sees its writes when armed."""
    if sanitizer is None:
        return cache
    return sanitizer.wrap("SampleCache", cache,
                          write_ops=("put", "clear"), read_ops=("get", "peek"))


def _shared_memo_mutant(tree, scenario: Scenario,
                        sanitizer: AccessOrdinalSanitizer | None,
                        faults_active: bool) -> DifferentialReport:
    """Interleave two simulated tenants' leaf reads over one sample cache.

    The attached cache admits no leaf (a one-byte budget), so every leaf
    read ``put``s into it.  Tenants A, B and A then each take one batch of
    their own whole-domain stream: the third tenant's ``put`` is the A-B-A
    writer-episode pattern a concurrency-unsafe scheduler would produce.
    The sanitizer MUST trip; the trip is reported as the verdict failure
    that the mutation self-test asserts on (a silent pass means the
    sanitizer has no teeth).  A typed error (an injected fault the reads
    did not survive) is recorded as an aborted stream, as in
    :func:`_checked_stream`.
    """
    domain = tree.geometry.domain
    report = DifferentialReport(
        sampler="ace-shared", query=(domain.sides[0].lo, domain.sides[0].hi))
    # With sanitize=False the mutant runs uninstrumented and passes
    # silently — demonstrating exactly the blindness the sanitizer fixes.
    owner = sanitizer.writer if sanitizer is not None else (
        lambda tag: nullcontext())
    tree.attach_sample_cache(
        _sanitized_cache(sanitizer, SampleCache(budget_bytes=1)))
    try:
        for i, tenant in enumerate(("tenant-A", "tenant-B", "tenant-A")):
            with owner(tenant), CONTEXT.push(tenant=tenant):
                next(tree.sample(domain, seed=scenario.seed + i))
    except InvariantViolation as exc:
        report.failures.append(str(exc))
    except ReproError as exc:
        report.aborted = f"{type(exc).__name__}: {exc}"
        if not faults_active:
            report.failures.append(
                f"stream aborted without faults: {report.aborted}")
    finally:
        tree.detach_sample_cache()
    return report


@dataclass(frozen=True)
class _Kind:
    """Everything that differs between the harness's two scenario kinds."""

    generate: Callable      # (seed, with_faults=) -> scenario
    run: Callable           # (scenario, plan=, mutation=, sanitize=) -> (verdict, plan)
    scenario_type: type     # rebuilds the scenario from a payload
    rng_tag: str            # the fuzz run's case-seed stream
    trip_reason: str        # flight-recorder trip reason, before ":<phase>"
    mode: str | None        # the payload's "mode" (absent when None)


def _kinds() -> dict[bool, _Kind]:
    """The two scenario kinds, keyed by ``serve``.

    Built on use: the serve runner imports this module.
    """
    from .serve import ServeScenario, generate_serve_scenario, run_serve_scenario

    return {
        False: _Kind(generate_scenario, run_scenario, Scenario,
                     "testkit-fuzz", "oracle-failure", None),
        True: _Kind(generate_serve_scenario, run_serve_scenario, ServeScenario,
                    "testkit-serve-fuzz", "serve-oracle-failure", "serve"),
    }


def _replay_payload(kind, scenario, plan, mutation, verdict, flight,
                    fuzz_seed, iteration, phase, sanitize) -> dict:
    payload = {
        "v": REPLAY_VERSION,
        "kind": "testkit-replay",
        "fuzz_seed": fuzz_seed,
        "iteration": iteration,
        "phase": phase,
        "mutation": mutation,
        "scenario": scenario.as_dict(),
        "plan": plan.to_replay().as_dict(),
        "failures": verdict.failure_lines,
        # Optional keys from here on: version-1 payloads without them
        # replay unchanged.  replay() ignores the flight window, and the
        # runners re-derive sanitize's default from the mutation.
        "flight": flight,
    }
    if kind.mode is not None:
        payload["mode"] = kind.mode
    if sanitize is not None:
        payload["sanitize"] = sanitize
    return payload


@dataclass
class FuzzReport:
    """Aggregate outcome of one fuzz run."""

    seed: int
    iterations: int
    mutation: str | None = None
    scenarios_run: int = 0
    queries_checked: int = 0
    injected_events: int = 0
    failures: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def fuzz(
    seed: int = 0,
    iterations: int = 20,
    with_faults: bool = True,
    mutation: str | None = None,
    max_failures: int = 8,
    sanitize: bool | None = None,
    serve: bool = False,
) -> FuzzReport:
    """Run ``iterations`` generated scenarios, clean and (optionally) faulted.

    ``serve=True`` fuzzes serve scenarios with the solo-vs-interleaved
    oracle (:mod:`repro.testkit.serve`) instead of the sampler race.  Each
    failing run is captured as a replay payload in
    :attr:`FuzzReport.failures`; the run stops early once ``max_failures``
    cases are collected (a broken engine would otherwise fail every case).
    """
    kind = _kinds()[serve]
    report = FuzzReport(seed=seed, iterations=iterations, mutation=mutation)
    case_rng = derive_random(seed, kind.rng_tag)
    for iteration in range(iterations):
        case_seed = case_rng.getrandbits(32)
        scenario = kind.generate(case_seed, with_faults=with_faults)
        phases: list[tuple[str, FaultPlan]] = [("clean", FaultPlan())]
        if with_faults and scenario.rates:
            phases.append(
                ("faulted", FaultPlan(seed=case_seed, rates=scenario.rates))
            )
        for phase, plan in phases:
            # Each phase flies with the recorder armed (arming clears the
            # ring): on an oracle failure the last-moments event window is
            # attached to the replay payload.  Recording is read-only on
            # the simulated clock, so verdicts are unaffected.
            with FLIGHT.recording():
                verdict, plan = kind.run(
                    scenario, plan=plan, mutation=mutation, sanitize=sanitize)
                flight = None
                if not verdict.ok:
                    reason = f"{kind.trip_reason}:{phase}"
                    FLIGHT.trip(reason)
                    flight = {
                        "v": FLIGHT_VERSION,
                        "reason": reason,
                        "events": FLIGHT.snapshot(),
                        "dropped": FLIGHT.dropped,
                    }
            report.scenarios_run += 1
            report.queries_checked += len(verdict.reports)
            report.injected_events += len(plan.injected)
            if not verdict.ok:
                report.failures.append(_replay_payload(
                    kind, scenario, plan, mutation, verdict, flight,
                    fuzz_seed=seed, iteration=iteration, phase=phase,
                    sanitize=sanitize,
                ))
                if len(report.failures) >= max_failures:
                    return report
    return report


def replay(payload: dict) -> tuple[ScenarioVerdict, FaultPlan]:
    """Re-run a replay payload: identical faults, deterministic verdict.

    The payload's ``mode`` names its kind: absent for a classic scenario,
    ``"serve"`` for a serve one, whose plan re-fires each recorded event at
    its ``(op, tenant scope, ordinal)`` slot however the runs interleave.
    Any other mode is rejected.  The returned plan's ``injected`` list
    should match the payload's recorded events exactly — the CLI checks
    this and reports any drift (which would mean the workload is no longer
    access-for-access identical, e.g. after a code change).
    """
    if not isinstance(payload, dict) or payload.get("kind") != "testkit-replay":
        raise ValueError("not a testkit replay payload")
    if payload.get("v") != REPLAY_VERSION:
        raise ValueError(f"unsupported replay payload version {payload.get('v')!r}")
    mode = payload.get("mode")
    if "mode" in payload and mode != "serve":
        raise ValueError(f"unknown replay payload mode {mode!r}: a serve-mode "
                         "payload has mode 'serve', a classic one no mode")
    kind = _kinds()[mode == "serve"]
    scenario = kind.scenario_type.from_dict(payload["scenario"])
    plan = FaultPlan.from_dict(payload["plan"])
    return kind.run(scenario, plan=plan, mutation=payload.get("mutation"),
                    sanitize=payload.get("sanitize"))
