"""Serve scenarios: the solo-vs-interleaved differential oracle.

``python -m repro testkit fuzz --serve`` races the deterministic
multi-tenant scheduler (:class:`repro.serve.scheduler.ServeScheduler`)
against N isolated sequential runs of the same queries.  One
:class:`ServeScenario` fixes everything — dataset, tree shape, tenant
count, traffic shape, fault rates — from a single seed.  This module is
the serve kind of :mod:`repro.testkit.harness`: the harness's one
``fuzz`` loop runs it, and a failing case serializes to a ``mode="serve"``
payload that the one ``replay`` re-runs.

The oracle judges one interleaved run on five axes:

1. **solo equivalence** — each tenant's emitted batch sequence must equal,
   record for record, the sequence the same queries emit on a fresh
   identical build drained solo (scheduling must never leak into
   results).  This holds even under injected faults: ordinals are scoped
   per tenant (see :mod:`repro.testkit.faults`), so the same faults fire
   at the same accesses solo and interleaved.
2. **stream correctness** — every interleaved stream also faces the
   classic differential oracle (:func:`repro.testkit.oracle.check_stream`):
   containment, exactness at exhaustion, clock monotonicity, and
   chi-square prefix uniformity.
3. **fairness** — no runnable tenant waits more than a DRR-derived bound
   of scheduling turns (:func:`fairness_bound`); a starved tenant is a
   verdict failure.
4. **accounting** — arrivals/admissions/completions conserve per tenant,
   and the scheduler's per-tenant page ledger must reconcile with the
   cost accountant's attributed ledger (``budget_audit``).
5. **confinement** (``--sanitize-access``) — every mutation of the shared
   engine state happens inside the scheduler's quantum, proving the
   ``shared[owner=serve.scheduler]`` annotations at runtime.

Two sabotage modes give the oracle its teeth: ``"unfair-scheduler"``
starves the first tenant (caught by the fairness bound) and
``"budget-leak"`` attributes one tenant's page charges to its neighbour
(caught by the budget audit).  Both must FAIL when enabled — that is the
mutation self-test the CI serve job runs.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field

from ..acetree import AceBuildParams, build_ace_tree
from ..acetree.query import SampleStream
from ..core.errors import InvariantViolation, ReproError
from ..core.intervals import Box
from ..core.rng import derive_random
from ..obs.cost import COST
from ..serve.scheduler import ServeConfig, ServeScheduler
from ..serve.workload import WORKLOAD_SHAPES, Workload, WorkloadSpec
from ..storage.cost import CostModel
from ..storage.heapfile import HeapFile
from .faults import FaultPlan, FaultyDisk
from .generators import DISTRIBUTIONS, KV_SCHEMA, Scenario, make_records
from .harness import ScenarioVerdict, _arm_sanitizer
from .oracle import DifferentialReport, check_stream, reference_matching

__all__ = [
    "SERVE_MUTATIONS",
    "BudgetLeakScheduler",
    "ServeScenario",
    "UnfairScheduler",
    "fairness_bound",
    "generate_serve_scenario",
    "run_serve_scenario",
]

#: Scheduler sabotage modes for the serve-oracle self-tests.
SERVE_MUTATIONS: tuple[str, ...] = ("unfair-scheduler", "budget-leak")


@dataclass(frozen=True)
class ServeScenario:
    """One fully-determined serve fuzz case.

    Everything downstream — records, tree, workload bounds, stream seeds,
    fault draws — derives from :attr:`seed`, so the scenario serializes to
    this dataclass alone (the serve twin of
    :class:`repro.testkit.generators.Scenario`).
    """

    seed: int
    n: int
    key_range: int
    distribution: str
    height: int
    arity: int
    page_size: int
    tenants: int
    queries_per_tenant: int
    shape: str
    closed_loop: bool
    quantum_pages: int
    selectivity: float
    mean_gap: float
    rates: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "seed": self.seed, "n": self.n, "key_range": self.key_range,
            "distribution": self.distribution, "height": self.height,
            "arity": self.arity, "page_size": self.page_size,
            "tenants": self.tenants,
            "queries_per_tenant": self.queries_per_tenant,
            "shape": self.shape, "closed_loop": self.closed_loop,
            "quantum_pages": self.quantum_pages,
            "selectivity": self.selectivity,
            "mean_gap": self.mean_gap,
            "rates": dict(self.rates),
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "ServeScenario":
        return cls(
            seed=obj["seed"], n=obj["n"], key_range=obj["key_range"],
            distribution=obj["distribution"], height=obj["height"],
            arity=obj["arity"], page_size=obj["page_size"],
            tenants=obj["tenants"],
            queries_per_tenant=obj["queries_per_tenant"],
            shape=obj["shape"], closed_loop=obj["closed_loop"],
            quantum_pages=obj["quantum_pages"],
            selectivity=obj["selectivity"],
            mean_gap=obj["mean_gap"],
            rates=dict(obj.get("rates", {})),
        )


def generate_serve_scenario(seed: int, with_faults: bool = True) -> ServeScenario:
    """Draw one serve scenario; the same seed always yields the same one.

    Fault rates are restricted to ``read.transient`` and ``read.latency``:
    both are absorbed per access without mutating stored pages, so a
    tenant's solo and interleaved runs stay comparable.  ``read.corrupt``
    rots the shared page itself — whichever tenant reads it next is
    poisoned by another tenant's fault draw — which breaks the solo
    oracle by design, not by bug, so serve scenarios never schedule it.
    """
    rng = derive_random(seed, "testkit-serve-scenario")
    # Trees tall enough (8-32 leaves) that a drain takes many scheduling
    # quanta, and arrival gaps on the order of a few page reads: tenants
    # genuinely contend, so fairness and interleaving are actually
    # exercised rather than every query running alone in the ring.
    n = rng.randrange(400, 1200)
    key_range = rng.choice((1_000, 10_000))
    distribution = rng.choice(DISTRIBUTIONS)
    height = rng.randrange(4, 7)
    arity = 2
    page_size = rng.choice((512, 1024))
    tenants = rng.randrange(3, 7)
    queries_per_tenant = rng.randrange(2, 4)
    shape = rng.choice(WORKLOAD_SHAPES)
    closed_loop = rng.random() < 0.5
    quantum_pages = rng.choice((4, 8))
    selectivity = rng.choice((0.3, 0.5, 0.8))
    mean_gap = rng.choice((0.0005, 0.002))
    rates: dict[str, float] = {}
    if with_faults:
        rates = {
            "read.transient": rng.choice((0.0, 0.005, 0.02)),
            "read.latency": rng.choice((0.0, 0.01)),
        }
        rates = {k: v for k, v in rates.items() if v > 0.0}
    return ServeScenario(
        seed=seed, n=n, key_range=key_range, distribution=distribution,
        height=height, arity=arity, page_size=page_size, tenants=tenants,
        queries_per_tenant=queries_per_tenant, shape=shape,
        closed_loop=closed_loop, quantum_pages=quantum_pages,
        selectivity=selectivity, mean_gap=mean_gap, rates=rates,
    )


def fairness_bound(scenario: ServeScenario) -> int:
    """Max scheduling turns a runnable tenant may wait under fair DRR.

    The ring rotates move-to-back: a tenant entering at the tail is ahead
    of every later admission and re-queue, so it advances one slot per
    turn and is served within ``ring size - 1 <= tenants - 1`` turns.
    ``tenants`` (one slack turn) is therefore a *sound* bound for the
    fair scheduler, while a starved tenant's wait grows with the other
    tenants' total service — several ring passes at least.
    """
    return scenario.tenants


# -- sabotaged schedulers (oracle self-tests) -------------------------------


class UnfairScheduler(ServeScheduler):
    """A deliberately unfair scheduler: the first tenant is never chosen.

    ``_pick_index`` skips ``t0`` whenever any other tenant is runnable, so
    ``t0`` is served only once everyone else has drained — its
    ``max_waiting`` grows with the whole backlog's service time and blows
    through :func:`fairness_bound`.  Used only by the serve fuzz harness's
    mutation mode; never constructed by product code.
    """

    victim = "t0"

    def _pick_index(self) -> int:
        for index, name in enumerate(self._ring):
            if name != self.victim:
                return index
        return 0


class BudgetLeakScheduler(ServeScheduler):
    """A deliberately leaky scheduler: ``t0``'s charges bill its neighbour.

    ``_step_labels`` relabels every ``t0`` step as ``t1``, so the cost
    accountant attributes ``t0``'s page reads to ``t1`` while the
    scheduler's own ledger keys the true tenant.  Global conservation
    still balances — only the per-tenant ``budget_audit`` reconciliation
    catches it.  Used only by the serve fuzz harness's mutation mode;
    never constructed by product code.
    """

    leaker = "t0"
    beneficiary = "t1"

    def _step_labels(self, run) -> dict:
        labels = super()._step_labels(run)
        if labels["tenant"] == self.leaker:
            labels["tenant"] = self.beneficiary
        return labels


# -- running one scenario ---------------------------------------------------


class _DrainedStream(list):
    """Pre-drained batches with the ``degraded`` flag ``check_stream`` reads."""

    def __init__(self, batches, degraded: bool) -> None:
        super().__init__(batches)
        self.degraded = degraded


def _build_world(scenario: ServeScenario, plan: FaultPlan):
    """Fresh disk + records + tree for one run; faults exempt the build.

    The build runs disarmed so (a) it cannot abort and (b) serve-time
    fault ordinals start at zero in every world — the alignment that makes
    solo and interleaved draws comparable and payloads replayable.
    """
    disk = FaultyDisk(
        page_size=scenario.page_size,
        cost=CostModel.scaled(scenario.page_size),
        plan=plan,
    )
    disk.armed = False
    records = make_records(Scenario(
        seed=scenario.seed, n=scenario.n, key_range=scenario.key_range,
        distribution=scenario.distribution, height=scenario.height,
        arity=scenario.arity, page_size=scenario.page_size, queries=(),
    ))
    heap = HeapFile.bulk_load(disk, KV_SCHEMA, records)
    tree = build_ace_tree(heap, AceBuildParams(
        key_fields=("k",), height=scenario.height, arity=scenario.arity,
        seed=scenario.seed,
    ))
    disk.reset_clock()
    disk.armed = True
    return records, tree


def _workload_for(scenario: ServeScenario, tree) -> Workload:
    domain = tree.geometry.domain.sides[0]
    spec = WorkloadSpec(
        shape=scenario.shape,
        tenants=scenario.tenants,
        queries_per_tenant=scenario.queries_per_tenant,
        closed_loop=scenario.closed_loop,
        mean_gap=scenario.mean_gap,
        selectivity=scenario.selectivity,
        key_lo=domain.lo,
        key_hi=domain.hi,
    )
    return Workload(spec, seed=scenario.seed)


def _twin_plan(plan: FaultPlan) -> FaultPlan:
    """A fresh plan firing the same faults as ``plan`` did.

    Per-``(op, scope)`` RNG streams and ordinals mean a schedule-mode twin
    (same seed + rates) and a replay-mode twin (same events) both strike a
    tenant's accesses identically no matter how runs interleave.
    """
    if plan.events is not None:
        return FaultPlan(seed=plan.seed, events=list(plan.events))
    return FaultPlan(seed=plan.seed, rates=dict(plan.rates))


def _solo_sequences(scenario: ServeScenario, workload: Workload,
                    plan: FaultPlan) -> dict:
    """Each tenant's queries drained solo: ``{(tenant, qid): batches}``.

    One fresh world serves all tenants *sequentially* (the "N isolated
    runs" of the oracle): per-scope fault ordinals make each tenant's
    schedule independent of who ran before it, and leaf accesses charge
    identically whether or not a decode memo hit, so sharing the world
    changes nothing a tenant can observe.
    """
    _, tree = _build_world(scenario, _twin_plan(plan))
    out: dict[tuple[str, str], list] = {}
    for tenant in workload.tenant_names():
        tree.disk.scope = tenant
        for request in workload.requests(tenant):
            box = Box.from_bounds([request.lo], [request.hi])
            stream = SampleStream(
                tree, box, seed=request.stream_seed, lost_leaf_policy="skip"
            )
            out[(tenant, request.query_id)] = list(stream)
    return out


def run_serve_scenario(
    scenario: ServeScenario,
    plan: FaultPlan | None = None,
    mutation: str | None = None,
    sanitize: bool | None = None,
) -> tuple[ScenarioVerdict, FaultPlan]:
    """Run one interleaved serve and judge it against its solo twins.

    Returns the verdict together with the plan actually used (whose
    ``injected`` list is the replayable fault record).  ``sanitize`` arms
    the access-ordinal sanitizer with the scheduler's quantum as the sole
    sanctioned writer of the shared engine state.
    """
    if mutation is not None and mutation not in SERVE_MUTATIONS:
        raise ValueError(
            f"unknown serve mutation {mutation!r}; expected {SERVE_MUTATIONS}"
        )
    plan = plan if plan is not None else FaultPlan(
        seed=scenario.seed, rates=dict(scenario.rates)
    )
    verdict = ScenarioVerdict(
        scenario=scenario, faults_active=plan.active, mutation=mutation
    )

    records, tree = _build_world(scenario, plan)
    workload = _workload_for(scenario, tree)
    config = ServeConfig(
        queue_cap=max(8, scenario.tenants * scenario.queries_per_tenant),
        quantum_pages=scenario.quantum_pages,
        page_budget=None,
        target_epsilon=None,   # drain to exhaustion: exactness applies
        max_samples=None,
        lost_leaf_policy="skip",
    )

    step_guard = nullcontext
    if sanitize:
        sanitizer = _arm_sanitizer(tree)
        step_guard = lambda: sanitizer.writer("serve-scheduler")

    scheduler_cls = {
        None: ServeScheduler,
        "unfair-scheduler": UnfairScheduler,
        "budget-leak": BudgetLeakScheduler,
    }[mutation]

    COST.reset()
    COST.arm()
    try:
        scheduler = scheduler_cls(
            tree, workload, config,
            collect_records=True,
            step_guard=step_guard,
        )
        report = scheduler.run()
    except InvariantViolation as exc:
        verdict.scheduler_failures.append(f"sanitizer tripped: {exc}")
        verdict.injected = len(plan.injected)
        return verdict, plan
    except ReproError as exc:
        verdict.scheduler_failures.append(
            f"serve run aborted: {type(exc).__name__}: {exc}"
        )
        verdict.injected = len(plan.injected)
        return verdict, plan
    finally:
        COST.disarm()
    verdict.serve_report = report.as_dict()

    # -- accounting: arrivals conserve, everything admitted completed ------
    bound = fairness_bound(scenario)
    for name, stats in verdict.serve_report["tenants"].items():
        if stats["arrived"] != (stats["admitted"] + stats["rejected_queue"]
                                + stats["rejected_budget"]):
            verdict.scheduler_failures.append(
                f"accounting: tenant {name} arrivals do not conserve: {stats}"
            )
        if stats["completed"] != stats["admitted"]:
            verdict.scheduler_failures.append(
                f"accounting: tenant {name} admitted {stats['admitted']} "
                f"queries but completed {stats['completed']}"
            )
        if stats["max_waiting"] > bound:
            verdict.scheduler_failures.append(
                f"fairness: tenant {name} waited {stats['max_waiting']} "
                f"scheduling turns while runnable (bound {bound})"
            )

    # -- budget audit: per-tenant ledger vs cost attribution ---------------
    audit = verdict.serve_report["budget_audit"]
    if audit["checked"] and not audit["ok"]:
        for name, entry in audit["tenants"].items():
            if entry.get("ok") is False:
                verdict.scheduler_failures.append(
                    f"budget-audit: tenant {name} scheduler ledger "
                    f"{entry['scheduler']} != attributed {entry['attributed']}"
                )
        for name in audit["stray_tenants"]:
            verdict.scheduler_failures.append(
                f"budget-audit: pages attributed to unknown tenant {name!r}"
            )

    # -- solo equivalence + classic stream oracle --------------------------
    try:
        solo = _solo_sequences(scenario, workload, plan)
    except ReproError as exc:
        verdict.scheduler_failures.append(
            f"solo run aborted: {type(exc).__name__}: {exc}"
        )
        verdict.injected = len(plan.injected)
        return verdict, plan
    degraded_ok = plan.active
    for name in workload.tenant_names():
        state = scheduler.tenants[name]
        for run in state.finished_runs:
            qid = run.request.query_id
            label = f"serve:{name}:{qid}"
            interleaved = [tuple(b.records) for b in run.batches]
            alone = [tuple(b.records) for b in solo.get((name, qid), [])]
            if interleaved != alone:
                divergent = len(alone)
                for i, (a, b) in enumerate(zip(interleaved, alone)):
                    if a != b:
                        divergent = i
                        break
                report_ = DifferentialReport(
                    sampler=label, query=(run.request.lo, run.request.hi))
                report_.failures.append(
                    f"interleaved stream diverges from solo at batch "
                    f"{divergent} ({len(interleaved)} vs {len(alone)} "
                    "batches) — scheduling leaked into results"
                )
                verdict.reports.append(report_)
                continue
            box = Box.from_bounds([run.request.lo], [run.request.hi])
            matching = reference_matching(records, box)
            verdict.reports.append(check_stream(
                label,
                _DrainedStream(run.batches, run.degraded),
                matching,
                query=(run.request.lo, run.request.hi),
                degraded_ok=degraded_ok,
            ))
    verdict.injected = len(plan.injected)
    return verdict, plan
