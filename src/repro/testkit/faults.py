"""Deterministic fault injection for the simulated disk.

:class:`FaultyDisk` is a drop-in :class:`~repro.storage.disk.SimulatedDisk`
that consults a :class:`FaultPlan` before every page access.  The plan has
two modes:

* **schedule mode** — built from a seed and per-kind rates; each access
  makes exactly one deterministic RNG draw to decide whether (and how) to
  inject.  Every injected event is recorded.
* **replay mode** — built from a list of recorded :class:`FaultEvent`\\ s;
  faults fire at exactly the recorded ``(op, ordinal)`` positions with the
  recorded parameters, and no RNG is consulted at all.

Because injection is keyed on the *ordinal* of the access (the n-th read /
n-th write since the disk was created), a replay against the same workload
reproduces the identical fault sequence, which is the foundation of the
``python -m repro testkit replay`` workflow.

**Scopes (interleaved workloads).**  A single global ordinal couples the
fault schedule to the exact interleaving of accesses — fatal for the serve
scheduler, where the order in which tenants hit the disk is a scheduling
decision, not a property of any one tenant's workload.  :class:`FaultyDisk`
therefore carries a mutable :attr:`~FaultyDisk.scope` (the serve scheduler
sets it to the active tenant around every quantum) and counts ordinals
**per (op, scope)**.  Schedule-mode draws use one RNG stream per
``(op, scope)`` and replay slots key on ``(op, scope, ordinal)``, so a
tenant's fault schedule depends only on its own access sequence: the same
faults fire solo, under any interleaving, and under ``testkit replay``.
The default scope ``""`` preserves the historical single-stream behaviour
bit for bit, and scope-less serialized events load unchanged.

The taxonomy (see ``docs/TESTING.md``):

``transient``
    The read attempt fails with
    :class:`~repro.core.errors.TransientPageError`.  The attempt still
    pays its seek/transfer time (the arm moved, the platter spun) but
    transfers no data, so ``page_reads``/``bytes_read`` are *not*
    incremented.  Recoverable via :func:`repro.storage.recovery.read_page_resilient`.
``corrupt``
    One bit of the stored page is flipped before the read is served.  The
    page's checksum (recorded at write time) no longer matches, so the
    read raises :class:`~repro.core.errors.PageCorruptionError` — a
    *persistent* fault that retries cannot fix.
``torn``
    A write is acknowledged but only a prefix of the page reaches the
    platter; the tail reads back as zeros.  The checksum covers the
    intended bytes, so the tear is detected on the next read of that page
    (unless the torn tail was zeros anyway, in which case the tear is
    harmless — also realistic).
``latency``
    The access succeeds but an extra deterministic delay is charged to
    the simulated clock via :meth:`SimulatedDisk.charge_io`.

A :class:`FaultyDisk` with an empty plan is *bit-identical* to a plain
``SimulatedDisk`` on the simulated clock and every counter: the fast path
makes no RNG draws and charges nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.errors import ReproError, TransientPageError
from ..core.rng import derive_random
from ..obs.flight import FLIGHT
from ..storage.cost import CostModel
from ..storage.disk import SimulatedDisk

__all__ = ["FAULT_KINDS", "FaultEvent", "FaultPlan", "FaultyDisk"]

#: ``(op, kind)`` pairs the injector understands, also the rate-dict keys
#: of schedule mode (e.g. ``{"read.transient": 0.01}``).
FAULT_KINDS: tuple[str, ...] = (
    "read.transient",
    "read.corrupt",
    "read.latency",
    "write.torn",
    "write.latency",
)

#: Injected latency spikes are drawn uniformly from this range (simulated
#: seconds) — an order of magnitude above a seek, below a full retry storm.
_LATENCY_RANGE = (0.01, 0.1)


class FaultPlanError(ReproError):
    """A fault plan was malformed (bad rates, bad serialized form)."""


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault, fully determined: replaying it needs no RNG.

    ``op`` is ``"read"`` or ``"write"``; ``ordinal`` is the index of the
    access among all accesses of that op *within its scope* since disk
    creation (``scope=""`` — the default — is the whole-disk scope).
    ``detail`` carries the kind-specific parameters (``bit`` for
    ``corrupt``, ``keep_bytes`` for ``torn``, ``seconds`` for ``latency``).
    """

    op: str
    ordinal: int
    kind: str
    page: int
    detail: dict = field(default_factory=dict)
    scope: str = ""

    def as_dict(self) -> dict:
        out = {"op": self.op, "ordinal": self.ordinal,
               "kind": self.kind, "page": self.page}
        if self.detail:
            out["detail"] = dict(self.detail)
        # Omitted when default: scope-less payloads stay v1-identical.
        if self.scope:
            out["scope"] = self.scope
        return out

    @classmethod
    def from_dict(cls, obj: dict) -> "FaultEvent":
        try:
            return cls(
                op=obj["op"], ordinal=obj["ordinal"], kind=obj["kind"],
                page=obj["page"], detail=dict(obj.get("detail", {})),
                scope=obj.get("scope", ""),
            )
        except (KeyError, TypeError) as exc:
            raise FaultPlanError(f"malformed fault event {obj!r}") from exc


class FaultPlan:
    """Decides, deterministically, which accesses fault and how.

    Args:
        seed: base seed for schedule-mode draws (ignored in replay mode).
        rates: per-kind injection probabilities, keyed by :data:`FAULT_KINDS`
            entries.  Omitted kinds never fire.  An empty/None dict is the
            *null plan*: nothing fires and no RNG is ever consulted.
        events: recorded events to replay.  Passing this switches the plan
            to replay mode (``rates`` must then be None).

    Every event that actually fires — in either mode — is appended to
    :attr:`injected`, so a schedule-mode run can be frozen via
    :meth:`to_replay` and re-run exactly.
    """

    def __init__(
        self,
        seed: int = 0,
        rates: dict[str, float] | None = None,
        events: list[FaultEvent] | None = None,
    ) -> None:
        if events is not None and rates:
            raise FaultPlanError("a plan is either scheduled (rates) or "
                                 "replayed (events), not both")
        self.seed = seed
        self.rates = dict(rates) if rates else {}
        for key, rate in self.rates.items():
            if key not in FAULT_KINDS:
                raise FaultPlanError(
                    f"unknown fault kind {key!r}; expected one of {FAULT_KINDS}"
                )
            if not 0.0 <= rate <= 1.0:
                raise FaultPlanError(f"rate for {key!r} must be in [0, 1], got {rate}")
        self.events = list(events) if events is not None else None
        self.injected: list[FaultEvent] = []  # repro: shared[owner=serve.scheduler] appended per access; serve runs append only under the scheduler's step quantum
        if self.events is not None:
            self._by_slot = {(e.op, e.scope, e.ordinal): e for e in self.events}
        else:
            self._by_slot = None
        # One private stream per (op, scope) so neither read/write nor
        # cross-scope interleaving can perturb another stream's draws.
        self._streams: dict[tuple[str, str], object] = {}

    # -- introspection -----------------------------------------------------

    @property
    def mode(self) -> str:
        return "replay" if self.events is not None else "schedule"

    @property
    def active(self) -> bool:
        """Whether this plan can ever fire (False for the null plan)."""
        if self.events is not None:
            return bool(self.events)
        return any(rate > 0.0 for rate in self.rates.values())

    # -- the injection decision --------------------------------------------

    def draw(
        self, op: str, ordinal: int, page: int, page_size: int, scope: str = ""
    ) -> FaultEvent | None:
        """The fault (if any) for access ``(op, scope, ordinal)`` on ``page``.

        Deterministic: in replay mode a dictionary lookup; in schedule mode
        exactly one uniform draw per access (plus parameter draws only when
        a fault fires), from a stream derived solely from the plan seed and
        the scope — so one scope's schedule is independent of how its
        accesses interleave with any other scope's.
        """
        if self._by_slot is not None:
            return self._by_slot.get((op, scope, ordinal))
        kinds = [(k, r) for k, r in self.rates.items()
                 if k.startswith(op + ".") and r > 0.0]
        if not kinds:
            return None
        rng = self._streams.get((op, scope))
        if rng is None:
            # The unscoped tags match the historical per-op derivation bit
            # for bit, so every pre-scope schedule replays unchanged.
            tags = ("testkit-faults", op) if not scope else (
                "testkit-faults", op, scope
            )
            rng = derive_random(self.seed, *tags)
            self._streams[(op, scope)] = rng
        u = rng.random()
        acc = 0.0
        for key, rate in kinds:
            acc += rate
            if u < acc:
                kind = key.split(".", 1)[1]
                return FaultEvent(op, ordinal, kind, page,
                                  self._draw_detail(kind, rng, page_size),
                                  scope)
        return None

    def record(self, event: FaultEvent) -> None:
        """Note that ``event`` actually fired against the workload."""
        self.injected.append(event)
        if FLIGHT.enabled:
            FLIGHT.record_fault(event.as_dict())

    @staticmethod
    def _draw_detail(kind: str, rng, page_size: int) -> dict:
        if kind == "corrupt":
            return {"bit": rng.randrange(page_size * 8)}
        if kind == "torn":
            return {"keep_bytes": rng.randrange(page_size)}
        if kind == "latency":
            lo, hi = _LATENCY_RANGE
            return {"seconds": lo + (hi - lo) * rng.random()}
        return {}

    # -- (de)serialization -------------------------------------------------

    def to_replay(self) -> "FaultPlan":
        """Freeze the events injected so far into a replay-mode plan."""
        return FaultPlan(seed=self.seed, events=list(self.injected))

    def as_dict(self) -> dict:
        out: dict = {"v": 1, "mode": self.mode, "seed": self.seed}
        if self.mode == "schedule":
            out["rates"] = dict(self.rates)
        else:
            out["events"] = [e.as_dict() for e in self.events or []]
        out["injected"] = [e.as_dict() for e in self.injected]
        return out

    @classmethod
    def from_dict(cls, obj: dict) -> "FaultPlan":
        """Rebuild a plan from :meth:`as_dict` output.

        A serialized *schedule* plan comes back as a schedule plan (same
        seed and rates reproduce the same draws); a *replay* plan comes
        back with its event list.  The ``injected`` log is not restored —
        the rebuilt plan re-records as it runs.
        """
        if not isinstance(obj, dict) or obj.get("v") != 1:
            raise FaultPlanError(f"unsupported fault plan payload: {obj!r}")
        mode = obj.get("mode")
        if mode == "schedule":
            return cls(seed=obj.get("seed", 0), rates=obj.get("rates") or {})
        if mode == "replay":
            events = [FaultEvent.from_dict(e) for e in obj.get("events", [])]
            return cls(seed=obj.get("seed", 0), events=events)
        raise FaultPlanError(f"unknown fault plan mode {mode!r}")


class FaultyDisk(SimulatedDisk):
    """A :class:`SimulatedDisk` that injects faults per a :class:`FaultPlan`.

    With the null plan (the default), behaviour — clock, stats, bytes — is
    bit-identical to the parent class.  Setting :attr:`armed` to False
    temporarily disables injection *and* ordinal counting, so a harness can
    exempt a phase (e.g. build) while keeping replay ordinals aligned.

    :attr:`scope` names the stream of accesses currently hitting the disk
    (``""`` by default).  The serve scheduler sets it to the active tenant
    for the duration of each scheduling quantum; ordinals are counted per
    ``(op, scope)``, decoupling every tenant's fault schedule from the
    interleaving.
    """

    can_fault = True

    def __init__(
        self,
        page_size: int = 8192,
        cost: CostModel | None = None,
        checksums: bool = True,
        plan: FaultPlan | None = None,
    ) -> None:
        super().__init__(page_size, cost, checksums)
        self.plan = plan if plan is not None else FaultPlan()
        self.armed = True
        #: Ordinal namespace for subsequent accesses (set by the scheduler).
        self.scope = ""
        self._read_ordinals: dict[str, int] = {}
        self._write_ordinals: dict[str, int] = {}

    def read_page(self, pid: int) -> bytes:
        if not (self.armed and self.plan.active):
            return super().read_page(pid)
        scope = self.scope
        ordinal = self._read_ordinals.get(scope, 0)
        self._read_ordinals[scope] = ordinal + 1
        event = self.plan.draw("read", ordinal, pid, self.page_size, scope)
        if event is None:
            return super().read_page(pid)
        if event.kind == "latency":
            self.charge_io(event.detail["seconds"])
            self.plan.record(event)
            return super().read_page(pid)
        if event.kind == "transient":
            # The attempt seeks and spins but transfers nothing: charge the
            # access, leave page/byte counters alone.
            self._charge_access(pid)
            self.plan.record(event)
            raise TransientPageError(
                f"injected transient read error on page {pid} "
                f"(ordinal {event.ordinal})"
            )
        if event.kind == "corrupt":
            # Flip a stored bit behind the checksum's back; only pages that
            # were actually written can rot (an unwritten page has neither
            # data nor a checksum to contradict it).
            if pid in self._pages:
                self._flip_bit(pid, event.detail["bit"])
                self.plan.record(event)
            return super().read_page(pid)
        raise FaultPlanError(f"unknown read fault kind {event.kind!r}")

    def touch_page(self, pid: int) -> None:
        # A memo-backed touch must stay access-for-access identical to a
        # real read under injection: same ordinals, same fault kinds, same
        # checksum verification of the (possibly rotted) stored bytes.
        self.read_page(pid)

    def write_page(self, pid: int, data: bytes) -> None:
        if not (self.armed and self.plan.active):
            super().write_page(pid, data)
            return
        scope = self.scope
        ordinal = self._write_ordinals.get(scope, 0)
        self._write_ordinals[scope] = ordinal + 1
        event = self.plan.draw("write", ordinal, pid, self.page_size, scope)
        if event is None:
            super().write_page(pid, data)
            return
        if event.kind == "latency":
            self.charge_io(event.detail["seconds"])
            self.plan.record(event)
            super().write_page(pid, data)
            return
        if event.kind == "torn":
            # The full write is charged and acknowledged (checksum covers
            # the intended bytes) but only a prefix lands; the zero tail is
            # caught by the stale checksum on the next read.
            super().write_page(pid, data)
            keep = event.detail["keep_bytes"]
            full = self._pages[pid]
            self._pages[pid] = full[:keep] + bytes(self.page_size - keep)
            self.plan.record(event)
            return
        raise FaultPlanError(f"unknown write fault kind {event.kind!r}")

    def _flip_bit(self, pid: int, bit: int) -> None:
        data = bytearray(self._pages[pid])
        data[(bit // 8) % len(data)] ^= 1 << (bit % 8)
        self._pages[pid] = bytes(data)
