"""Deterministic multi-tenant serve scheduler (ROADMAP item 1).

A discrete-event loop over the **simulated clock** that interleaves many
concurrent Shuttle traversals (:class:`~repro.acetree.query.SampleStream`)
sharing one tree, buffer pool, and disk:

* **Arrivals** come from a seeded :class:`~repro.serve.workload.Workload`
  — open-loop (arrival times fixed up front) or closed-loop (each tenant
  thinks for one gap after a completion, then submits its next query).
* **Admission control**: a bounded global queue of admitted-but-unserved
  requests; overflow is rejected and counted, never silently dropped.
* **Fair scheduling**: deficit round robin in *page-read quanta*.  Each
  tenant in the ring accumulates ``quantum_pages`` of deficit per turn and
  spends it on traversal steps (one stab = one leaf read = one step); a
  step that charges no pages (cache hit, final flush) spends one unit so
  quanta always terminate.  Served tenants rotate to the back of the ring
  and admissions append, so a runnable tenant is served within ring-size
  turns — the wait bound the serve fuzz oracle enforces.
* **Budgets**: a per-tenant page ledger enforced against the scheduler's
  own step accounting and audited, tenant by tenant, against the
  :data:`~repro.obs.cost.COST` accountant's attributed ledger — a charge
  attributed to the wrong tenant fails the audit even though the global
  conservation check still balances.
* **Completion**: a query finishes when its time-to-accuracy target is
  met (the PR 4 stopping rule, via
  :class:`~repro.obs.quality.StreamQualityMonitor`), when its stream is
  exhausted, or at the sample cap.  A finished run keeps its counts and
  monitor but releases its stream, so memory follows the queries in
  flight, not the queries answered.

Every step of every admitted query runs under
``CONTEXT.push(tenant=..., query=...)``, so traces, labeled metrics,
quality records, SLO burn rates, and cost attribution all see the serving
interleaving for free.

**Determinism.**  The loop has no wall-clock reads and no unseeded
randomness: event order is (simulated time, submission sequence), ring
order is admission order under move-to-back rotation, and each stream's
emitted records depend only on
its own seed — so a same-seed run is bit-identical, which ``trace diff``
proves and the CI serve-smoke job pins.  The solo-vs-interleaved property
(each tenant's record stream equals what it would have gotten alone) is
the ``testkit fuzz --serve`` differential oracle.

**Mutation hooks.**  ``_pick_index`` (ring choice) and ``_step_labels``
(context labels per step) exist so the testkit's unfair-scheduler and
budget-leak mutants can break exactly one invariant each; the fuzz
harness must catch both.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, field

from ..acetree.query import SampleStream
from ..core.intervals import Box
from ..obs.context import CONTEXT
from ..obs.cost import COST
from ..obs.quality import QualityConfig, QualitySession
from ..obs.tracer import TRACER
from .workload import ServeRequest, Workload

__all__ = ["QueryRun", "ServeConfig", "ServeReport", "ServeScheduler", "TenantState"]


@dataclass(frozen=True)
class ServeConfig:
    """Scheduler policy knobs (all deterministic)."""

    #: Bounded admission queue: max admitted-but-unfinished requests
    #: (backlogs + active runs) across all tenants.
    queue_cap: int = 256
    #: DRR quantum, in page reads per scheduling turn.
    quantum_pages: int = 8
    #: Per-tenant page budget; ``None`` disables enforcement.
    page_budget: int | None = None
    #: Relative CI half-width at which a query is "answered"; must be one
    #: of the monitor's ``tta_targets`` (the scheduler raises otherwise).
    #: ``None`` drains to exhaustion.
    target_epsilon: float | None = 0.05
    #: Per-query sample cap (safety valve for selective queries whose CI
    #: cannot reach the target before the stream drains anyway).
    max_samples: int | None = 4000
    #: Hard stop after this many scheduler steps; ``None`` = run to done.
    max_steps: int | None = None
    #: Forwarded to every stream (serve keeps sampling under lost leaves).
    lost_leaf_policy: str = "skip"


@dataclass
class QueryRun:
    """One admitted query in flight."""

    request: ServeRequest
    #: The live stream; ``None`` once the run finishes (see :attr:`degraded`).
    stream: object
    monitor: object
    arrival: float
    #: Pages this run charged (scheduler ledger, keyed by the TRUE tenant).
    pages: int = 0
    steps: int = 0
    samples: int = 0
    finished: bool = False
    #: "target" | "exhausted" | "sample-cap" | "budget" | "horizon"
    reason: str = ""
    completed_clock: float | None = None
    #: The stream's ``degraded`` flag, copied when the run finishes and
    #: releases its stream (memory follows the queries in flight).
    degraded: bool = False
    #: Emitted batches, kept only when the scheduler collects records for
    #: the differential oracle.
    batches: list = field(default_factory=list)


@dataclass
class TenantState:
    """Everything the scheduler tracks per tenant."""

    name: str
    #: Closed-loop requests not yet submitted (open-loop leaves it empty).
    pending: deque = field(default_factory=deque)
    #: Admitted requests waiting for the tenant's active slot.
    backlog: deque = field(default_factory=deque)
    active: QueryRun | None = None
    deficit: float = 0.0
    pages: int = 0
    budget_exhausted: bool = False
    arrived: int = 0
    admitted: int = 0
    rejected_queue: int = 0
    rejected_budget: int = 0
    completed: int = 0
    target_hits: int = 0
    #: Completed runs' time-to-target (sim seconds, includes queue wait).
    tta: list = field(default_factory=list)
    #: Consecutive scheduling turns spent runnable but not chosen; the
    #: running maximum is the starvation signal the fuzz oracle bounds.
    waiting: int = 0
    max_waiting: int = 0
    finished_runs: list = field(default_factory=list)

    def has_work(self) -> bool:
        return self.active is not None or bool(self.backlog)


def percentile(values: list, q: float) -> float | None:
    """Nearest-rank percentile of ``values`` at quantile ``q`` in (0, 1]."""
    if not values:
        return None
    ordered = sorted(values)
    rank = min(len(ordered), max(1, math.ceil(q * len(ordered))))
    return ordered[rank - 1]


@dataclass
class ServeReport:
    """Everything a serve run produced, JSON-ready via :meth:`as_dict`."""

    clock: float
    steps: int
    turns: int
    tenants: dict
    budget_audit: dict
    slo: list = field(default_factory=list)

    def totals(self) -> dict:
        keys = ("arrived", "admitted", "rejected_queue", "rejected_budget",
                "completed", "target_hits", "pages")
        out = {k: 0 for k in keys}
        for stats in self.tenants.values():
            for k in keys:
                out[k] += stats[k]
        out["max_waiting"] = max(
            (s["max_waiting"] for s in self.tenants.values()), default=0
        )
        return out

    def tta_values(self) -> list:
        out = []
        for stats in self.tenants.values():
            out.extend(stats["tta"])
        return out

    def as_dict(self) -> dict:
        tta = self.tta_values()
        return {
            "kind": "serve-report",
            "v": 1,
            "clock": self.clock,
            "steps": self.steps,
            "turns": self.turns,
            "totals": self.totals(),
            "tta_p50_sim_s": percentile(tta, 0.50),
            "tta_p99_sim_s": percentile(tta, 0.99),
            "tenants": self.tenants,
            "budget_audit": self.budget_audit,
            "slo": self.slo,
        }


class ServeScheduler:  # repro: shared[owner=serve.scheduler] the owner itself: all shared engine state is mutated only inside its step quanta
    """Deficit-round-robin serve loop over one tree and its disk.

    Args:
        tree: the built :class:`~repro.acetree.tree.AceTree` to serve from.
        workload: seeded request/arrival source.
        config: scheduling policy.
        session: quality session receiving one monitor per admitted query
            (a fresh one is created when omitted).
        quality_config: monitor knobs for the default session.
        collect_records: keep each run's emitted batches (the differential
            oracle needs the exact record sequences; the CLI does not).
        step_guard: zero-arg callable returning a context manager entered
            around every scheduling quantum (stream creation included) —
            the fuzz harness passes the access-ordinal sanitizer's
            ``writer("serve-scheduler")`` here, making scheduler ownership
            of the shared engine state a *checked* claim rather than a
            comment.
    """

    def __init__(
        self,
        tree,
        workload: Workload,
        config: ServeConfig | None = None,
        *,
        session: QualitySession | None = None,
        quality_config: QualityConfig | None = None,
        collect_records: bool = False,
        step_guard=None,
    ) -> None:
        self.tree = tree
        self.disk = tree.disk
        self.workload = workload
        self.config = config if config is not None else ServeConfig()
        if session is None:
            session = QualitySession(
                config=quality_config if quality_config is not None
                else QualityConfig()
            )
        target = self.config.target_epsilon
        if target is not None and target not in session.config.tta_targets:
            # The monitor records crossings only at its own targets, so any
            # other value would be answered (and reported) at the next
            # smaller one.
            raise ValueError(
                f"target_epsilon {target!r} is not one of the quality "
                f"monitor's tta_targets {session.config.tta_targets!r}"
            )
        self.session = session
        self.collect_records = collect_records
        self._step_guard = step_guard if step_guard is not None else nullcontext
        self._key_field = tree.key_fields[0]
        self._key_of = tree.schema.key_getter(self._key_field)
        self.tenants: dict[str, TenantState] = {
            name: TenantState(name) for name in workload.tenant_names()
        }
        #: (arrival time, submission seq, request) min-heap; ties break on
        #: the deterministic submission sequence.
        self._events: list = []
        self._seq = 0
        #: Ring of tenant names with work: served tenants rotate to the
        #: back, admissions append — so a runnable tenant's wait is
        #: provably bounded by the ring size.
        self._ring: list[str] = []
        self._queued = 0
        self.steps = 0
        self.turns = 0
        self._cost_armed = COST.enabled

    # -- event seeding --------------------------------------------------

    def _push_event(self, when: float, request: ServeRequest) -> None:
        heapq.heappush(self._events, (when, self._seq, request))
        self._seq += 1

    def _seed_events(self) -> None:
        workload = self.workload
        if workload.spec.closed_loop:
            # Tenant order here fixes the submission-sequence tiebreak.
            for name in workload.tenant_names():
                state = self.tenants[name]
                state.pending.extend(workload.requests(name))
                first = state.pending.popleft()
                gap = workload.next_gap(name, 0.0)
                self._push_event(gap, ServeRequest(
                    tenant=first.tenant, query_id=first.query_id,
                    lo=first.lo, hi=first.hi,
                    stream_seed=first.stream_seed, arrival=gap,
                ))
        else:
            for name in workload.tenant_names():
                for request in workload.open_arrivals(name):
                    self._push_event(request.arrival, request)

    # -- admission ------------------------------------------------------

    def _admit_due(self) -> None:
        while self._events and self._events[0][0] <= self.disk.clock:
            _, _, request = heapq.heappop(self._events)
            state = self.tenants[request.tenant]
            state.arrived += 1
            if state.budget_exhausted:
                state.rejected_budget += 1
                continue
            if self._queued >= self.config.queue_cap:
                state.rejected_queue += 1
                continue
            state.admitted += 1
            self._queued += 1
            state.backlog.append(request)
            if state.name not in self._ring:
                self._ring.append(state.name)

    # -- scheduling -----------------------------------------------------

    def _pick_index(self) -> int:
        """Ring index to serve next.  Default: the head of the ring.

        Tenants rotate move-to-back after each quantum, so the default is
        exact round robin with a wait bound of ``ring size - 1`` turns.
        The unfair-scheduler mutant overrides this to skip a victim; the
        per-tenant ``max_waiting`` counter is how the fuzz oracle notices.
        """
        return 0

    def _step_labels(self, run: QueryRun) -> dict:
        """Context labels a traversal step runs under.

        The budget-leak mutant overrides this to attribute a tenant's
        pages to its neighbour; the per-tenant audit against
        :meth:`CostAccountant.reads_by_label` is how that is caught.
        """
        return {"tenant": run.request.tenant, "query": run.request.query_id}

    def _activate(self, state: TenantState) -> QueryRun | None:
        if state.active is not None:
            return state.active
        if not state.backlog:
            return None
        request = state.backlog.popleft()
        box = Box.from_bounds([request.lo], [request.hi])
        with CONTEXT.push(tenant=request.tenant, query=request.query_id):
            stream = SampleStream(
                self.tree, box, seed=request.stream_seed,
                lost_leaf_policy=self.config.lost_leaf_policy,
            )
            monitor = self.session.monitor(
                label=f"{request.tenant}/{request.query_id}",
                key_of=self._key_of,
                lo=request.lo,
                hi=request.hi,
                group=request.tenant,
                population=self.tree.estimate_count(box),
            )
        # TTA counts from submission, so queue wait is part of the answer
        # latency a tenant experiences.
        monitor.start_sim = request.arrival
        state.active = QueryRun(
            request=request, stream=stream, monitor=monitor,
            arrival=request.arrival,
        )
        return state.active

    def _step(self, run: QueryRun) -> int:
        """One traversal step under the run's context; returns pages read."""
        disk = self.disk
        config = self.config
        with CONTEXT.push(**self._step_labels(run)):
            before = disk.stats.page_reads
            with TRACER.span("serve.step", disk=disk) as sp:
                try:
                    batch = next(run.stream)
                except StopIteration:
                    batch = None
                pages = disk.stats.page_reads - before
                if sp is not None:
                    sp.attrs["pages"] = pages
            run.steps += 1
            self.steps += 1
            if batch is None:
                self._finish(run, "exhausted")
                return pages
            run.samples += batch.count
            if self.collect_records:
                run.batches.append(batch)
            run.monitor.observe_batch(batch.records, batch.clock)
            if self._target_met(run):
                self._finish(run, "target")
            elif run.stream.exhausted:
                self._finish(run, "exhausted")
            elif (config.max_samples is not None
                  and run.samples >= config.max_samples):
                self._finish(run, "sample-cap")
        return pages

    def _target_met(self, run: QueryRun) -> bool:
        target = self.config.target_epsilon
        if target is None:
            return False
        return any(
            record.epsilon <= target + 1e-12
            for record in run.monitor.estimator.tta
        )

    def _finish(self, run: QueryRun, reason: str) -> None:
        run.completed_clock = self.disk.clock
        if run.stream.degraded and not run.monitor.degraded:
            run.monitor.mark_degraded(
                f"stream degraded (lost leaves: {run.stream.lost_leaves})"
            )
        state = self.tenants[run.request.tenant]
        self._retire(state, run, reason)
        state.completed += 1
        if reason == "target":
            state.target_hits += 1
            target = self.config.target_epsilon
            hit = min(
                (r for r in run.monitor.estimator.tta
                 if r.epsilon <= target + 1e-12),
                key=lambda r: r.epsilon,
            )
            state.tta.append(hit.sim_seconds)
        # Closed loop: the completion is what triggers the next submission.
        if self.workload.spec.closed_loop and state.pending:
            nxt = state.pending.popleft()
            when = self.disk.clock + self.workload.next_gap(
                state.name, self.disk.clock
            )
            self._push_event(when, ServeRequest(
                tenant=nxt.tenant, query_id=nxt.query_id,
                lo=nxt.lo, hi=nxt.hi,
                stream_seed=nxt.stream_seed, arrival=when,
            ))

    def _stop_tenant_budget(self, state: TenantState) -> None:
        """Budget exhausted: terminate the active run, deny the backlog."""
        state.budget_exhausted = True
        run = state.active
        if run is not None:
            run.monitor.mark_degraded(
                f"page budget exhausted after {state.pages} pages"
            )
            self._finish(run, "budget")
            # _finish records a completion; a budget stop is not one.
            state.completed -= 1
            state.finished_runs[-1].reason = "budget"
        while state.backlog:
            state.backlog.popleft()
            state.rejected_budget += 1
            self._queued -= 1

    def _serve_quantum(self, state: TenantState) -> None:
        config = self.config
        state.deficit += config.quantum_pages
        if self.disk.can_fault:
            # Scope injected-fault ordinals to the tenant for the whole
            # quantum (stream creation included), so a tenant's fault
            # schedule replays fault-for-fault across interleavings.
            self.disk.scope = state.name
        with self._step_guard():
            while state.deficit > 0 and state.has_work():
                run = self._activate(state)
                if run is None:  # pragma: no cover - has_work() guards this
                    break
                pages = self._step(run)
                # A free step (cache hit, flush) still spends one unit so
                # the quantum terminates; a multi-page leaf spends its true
                # cost.
                state.deficit -= max(pages, 1)
                state.pages += pages
                run.pages += pages
                budget = config.page_budget
                if (budget is not None and state.pages >= budget
                        and not state.budget_exhausted):
                    self._stop_tenant_budget(state)
                    break
        if not state.has_work():
            # Standard DRR: a tenant leaving the ring forfeits its deficit.
            state.deficit = 0.0

    # -- the loop -------------------------------------------------------

    def run(self) -> ServeReport:
        self._seed_events()
        config = self.config
        disk = self.disk
        while True:
            self._admit_due()
            self._ring = [n for n in self._ring if self.tenants[n].has_work()]
            if not self._ring:
                if not self._events:
                    break
                # Idle: jump the simulated clock to the next arrival.
                disk.advance_clock(self._events[0][0])
                continue
            index = self._pick_index() % len(self._ring)
            name = self._ring.pop(index)
            self.tenants[name].waiting = 0
            for other in self._ring:
                state = self.tenants[other]
                state.waiting += 1
                if state.waiting > state.max_waiting:
                    state.max_waiting = state.waiting
            self.turns += 1
            self._serve_quantum(self.tenants[name])
            if self.tenants[name].has_work():
                self._ring.append(name)
            if config.max_steps is not None and self.steps >= config.max_steps:
                self._abandon_rest("horizon")
                break
        return self._report()

    def _abandon_rest(self, reason: str) -> None:
        """Horizon hit: finalize whatever is still in flight, unanswered."""
        for state in self.tenants.values():
            if state.active is not None:
                self._retire(state, state.active, reason)

    def _retire(self, state: TenantState, run: QueryRun, reason: str) -> None:
        """Move the tenant's active run to ``finished_runs``, dropping its stream.

        Only the stream's ``degraded`` flag is read after this (the serve
        oracle), so it is copied onto the run and the stream's per-level
        state is released.
        """
        run.finished = True
        run.reason = reason
        run.monitor.finalize()
        run.degraded = run.stream.degraded
        run.stream = None
        state.finished_runs.append(run)
        state.active = None
        self._queued -= 1

    # -- reporting ------------------------------------------------------

    def budget_audit(self) -> dict:
        """Reconcile the scheduler's ledger with cost attribution.

        Only meaningful when the accountant was armed for the whole run
        (``checked`` says so); then every tenant's scheduler-counted pages
        must equal the pages :data:`COST` attributed to that tenant label.
        """
        checked = self._cost_armed and (COST.enabled or bool(
            COST.reads_by_label()
        ))
        attributed = COST.reads_by_label("tenant") if checked else {}
        per_tenant = {}
        ok = True
        for name, state in sorted(self.tenants.items()):
            entry = {
                "scheduler": state.pages,
                "attributed": attributed.get(name, 0) if checked else None,
            }
            if checked:
                entry["ok"] = entry["scheduler"] == entry["attributed"]
                ok = ok and entry["ok"]
            per_tenant[name] = entry
        # Attribution to a label no tenant owns is a leak too.
        stray = sorted(set(attributed) - set(self.tenants)) if checked else []
        if stray:
            ok = False
        return {
            "checked": checked,
            "ok": ok if checked else None,
            "stray_tenants": stray,
            "tenants": per_tenant,
        }

    def _report(self) -> ServeReport:
        self.session.finalize()
        tenants = {}
        for name, state in sorted(self.tenants.items()):
            tenants[name] = {
                "arrived": state.arrived,
                "admitted": state.admitted,
                "rejected_queue": state.rejected_queue,
                "rejected_budget": state.rejected_budget,
                "completed": state.completed,
                "target_hits": state.target_hits,
                "pages": state.pages,
                "budget_exhausted": state.budget_exhausted,
                "max_waiting": state.max_waiting,
                "tta": list(state.tta),
                "tta_p50_sim_s": percentile(state.tta, 0.50),
                "tta_p99_sim_s": percentile(state.tta, 0.99),
            }
        return ServeReport(
            clock=self.disk.clock,
            steps=self.steps,
            turns=self.turns,
            tenants=tenants,
            budget_audit=self.budget_audit(),
        )
