"""SLO objectives with multi-window burn-rate evaluation (simulated clock).

The paper's contract is statistical: *accuracy delivered per unit of
simulated I/O* (BlinkDB states the same surface as "within 5% error at
95% confidence by time T").  This module turns that contract into
declared **objectives** over the signals the observability layer already
produces, and evaluates them deterministically — every timestamp is the
simulated disk clock, so an attached SLO evaluation is bit-identical run
to run and safe to gate on.

Three objective kinds:

* ``tta`` — over quality-record estimator timelines: an event is *good*
  when the CLT half-width is within ``target`` (relative to the running
  estimate).  Burn rates are computed over trailing windows of the
  observed simulated-time span; ``deadline_sim_s`` optionally checks the
  stream's time-to-accuracy record against a deadline.
* ``ratio`` — over counters: ``numerator / sum(denominator)`` must reach
  ``minimum`` (e.g. ``sample_cache.hits / (hits + misses)``).
* ``threshold`` — a counter must stay at or below ``bound``
  (e.g. ``storage.read_retries``).

**Burn rate** follows the SRE multi-window form: with error budget
``1 - goal``, a window's burn rate is ``bad_fraction / budget`` — burn 1
means exactly consuming budget, burn 10 means consuming it ten times as
fast.  An objective **fires** only when *every* configured window burns
at or above its threshold (the long window filters blips, the short
window guarantees the problem is still live).  ``ratio``/``threshold``
objectives have no time series; they simply fire when out of compliance.

``tta`` results are reported **per label set**: quality records carry
their monitor's telemetry-context labels, and an unlabeled aggregate row
(label ``""``) covers the whole population.  Counters are aggregates, so
``ratio``/``threshold`` objectives report that aggregate row only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .context import canonical_label_set, render_label_set

__all__ = [
    "DEFAULT_WINDOWS",
    "BurnWindow",
    "Objective",
    "SloStatus",
    "default_objectives",
    "evaluate_slos",
]


@dataclass(frozen=True, slots=True)
class BurnWindow:
    """One evaluation window: a trailing fraction of the observed span."""

    fraction: float
    threshold: float

    def __post_init__(self) -> None:
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError(f"window fraction must be in (0, 1]: {self.fraction}")
        if self.threshold <= 0.0:
            raise ValueError(f"burn threshold must be positive: {self.threshold}")


#: Long/medium/short trailing windows with SRE-style escalating thresholds.
DEFAULT_WINDOWS: tuple[BurnWindow, ...] = (
    BurnWindow(1.0, 1.0),
    BurnWindow(0.25, 2.0),
    BurnWindow(0.05, 10.0),
)

_KINDS = ("tta", "ratio", "threshold")


@dataclass(frozen=True, slots=True)
class Objective:
    """One declared objective (see module docstring for the kinds)."""

    name: str
    kind: str
    goal: float = 0.95
    # tta
    target: float | None = None
    deadline_sim_s: float | None = None
    # ratio
    numerator: str | None = None
    denominator: tuple = ()
    minimum: float | None = None
    # threshold
    metric: str | None = None
    bound: float | None = None
    windows: tuple = DEFAULT_WINDOWS

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown objective kind {self.kind!r}; one of {_KINDS}")
        if not 0.0 < self.goal < 1.0:
            raise ValueError(f"goal must be in (0, 1): {self.goal}")
        if self.kind == "tta" and self.target is None:
            raise ValueError("tta objectives need target=<relative half-width>")
        if self.kind == "ratio" and (self.numerator is None or not self.denominator
                                     or self.minimum is None):
            raise ValueError("ratio objectives need numerator/denominator/minimum")
        if self.kind == "threshold" and (self.metric is None or self.bound is None):
            raise ValueError("threshold objectives need metric/bound")


@dataclass(slots=True)
class SloStatus:
    """Evaluation outcome for one (objective, label set) pair."""

    objective: str
    kind: str
    labels: str  # rendered label set; "" is the aggregate row
    value: float | None  # compliance (tta) / ratio / counter value
    events: int = 0
    bad: int = 0
    firing: bool = False
    windows: list = field(default_factory=list)
    detail: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "objective": self.objective,
            "kind": self.kind,
            "labels": self.labels,
            "value": self.value,
            "events": self.events,
            "bad": self.bad,
            "firing": self.firing,
            "windows": list(self.windows),
            "detail": dict(self.detail),
        }


def default_objectives() -> tuple[Objective, ...]:
    """The stock objectives: the paper's contract plus the serve hot spots."""
    return (
        Objective(
            name="tta_rel_halfwidth_5pct",
            kind="tta",
            goal=0.9,
            target=0.05,
        ),
        Objective(
            name="sample_cache_hit_rate",
            kind="ratio",
            goal=0.95,
            numerator="sample_cache.hits",
            denominator=("sample_cache.hits", "sample_cache.misses"),
            minimum=0.5,
        ),
        Objective(
            name="storage_read_retries",
            kind="threshold",
            goal=0.99,
            metric="storage.read_retries",
            bound=0.0,
        ),
    )


# ---------------------------------------------------------------------------
# tta evaluation over quality records
# ---------------------------------------------------------------------------


def _record_label(record: dict) -> str:
    labels = record.get("labels")
    if not labels:
        return ""
    return render_label_set(canonical_label_set(labels))


def _tta_events(record: dict, target: float) -> list[tuple[float, bool]]:
    """(sim clock, good?) per estimator timeline point of one record."""
    events = []
    for point in record.get("estimator", {}).get("timeline", ()):
        half = point.get("half_width")
        if half is None or point.get("n", 0) < 2:
            continue
        mean = point.get("mean", 0.0)
        good = abs(mean) > 0.0 and half <= target * abs(mean)
        events.append((point["clock"], good))
    return events


def _burn_windows(
    events: list[tuple[float, bool]], goal: float, windows: tuple
) -> tuple[list[dict], bool]:
    budget = 1.0 - goal
    t_min = min(t for t, _ in events)
    t_max = max(t for t, _ in events)
    span = t_max - t_min
    rows = []
    firing = bool(windows)
    for window in windows:
        cutoff = t_max - window.fraction * span
        in_window = [good for t, good in events if t >= cutoff]
        bad = sum(1 for good in in_window if not good)
        bad_fraction = bad / len(in_window) if in_window else 0.0
        burn = bad_fraction / budget if budget > 0 else (0.0 if bad == 0 else float("inf"))
        window_firing = bool(in_window) and burn >= window.threshold
        rows.append({
            "fraction": window.fraction,
            "threshold": window.threshold,
            "events": len(in_window),
            "bad": bad,
            "burn": burn,
            "firing": window_firing,
        })
        firing = firing and window_firing
    return rows, firing


def _eval_tta(objective: Objective, quality: list[dict]) -> list[SloStatus]:
    groups: dict[str, list[tuple[int, dict]]] = {}
    for index, record in enumerate(quality):
        entry = (index, record)
        groups.setdefault("", []).append(entry)
        label = _record_label(record)
        if label:
            groups.setdefault(label, []).append(entry)
    statuses = []
    for label, entries in sorted(groups.items()):
        events: list[tuple[float, bool, int]] = []
        deadline_hits = 0
        for index, record in entries:
            events.extend(
                (t, good, index) for t, good in _tta_events(record, objective.target)
            )
            if objective.deadline_sim_s is not None:
                met = any(
                    tta["epsilon"] <= objective.target
                    and tta["sim_seconds"] <= objective.deadline_sim_s
                    for tta in record.get("estimator", {}).get("tta", ())
                )
                deadline_hits += 1 if met else 0
        status = SloStatus(objective.name, "tta", label, None)
        status.detail["streams"] = len(entries)
        if objective.deadline_sim_s is not None:
            status.detail["deadline_sim_s"] = objective.deadline_sim_s
            status.detail["deadline_met"] = deadline_hits
        if not events:
            statuses.append(status)
            continue
        events.sort(key=lambda e: (e[0], e[2]))
        flat = [(t, good) for t, good, _ in events]
        bad = sum(1 for _, good in flat if not good)
        status.events = len(flat)
        status.bad = bad
        status.value = 1.0 - bad / len(flat)
        status.windows, status.firing = _burn_windows(
            flat, objective.goal, objective.windows
        )
        statuses.append(status)
    return statuses


# ---------------------------------------------------------------------------
# counter-based evaluation (ratio / threshold)
# ---------------------------------------------------------------------------


def _counter_value(snapshot: dict, name: str) -> float:
    """One counter's aggregate value (0 when the run never bumped it)."""
    return float(snapshot.get("counters", {}).get(name, 0.0))


def _eval_ratio(objective: Objective, snapshot: dict) -> SloStatus:
    numerator = _counter_value(snapshot, objective.numerator)
    denominator = 0.0
    for part in objective.denominator:
        denominator += _counter_value(snapshot, part)
    value = numerator / denominator if denominator else None
    firing = value is not None and value < objective.minimum
    status = SloStatus(objective.name, "ratio", "", value, firing=firing)
    status.events = int(denominator)
    status.detail["minimum"] = objective.minimum
    return status


def _eval_threshold(objective: Objective, snapshot: dict) -> SloStatus:
    value = _counter_value(snapshot, objective.metric)
    firing = value > objective.bound
    status = SloStatus(objective.name, "threshold", "", value, firing=firing)
    status.detail["bound"] = objective.bound
    return status


def evaluate_slos(
    objectives=None,
    quality: list[dict] | None = None,
    metrics: dict | None = None,
) -> list[SloStatus]:
    """Evaluate *objectives* against quality records and a metrics snapshot.

    ``quality`` feeds ``tta`` objectives; ``metrics`` (a registry snapshot
    dict) feeds ``ratio``/``threshold`` ones.  Objectives whose inputs are
    absent evaluate to a single empty aggregate row rather than erroring,
    so one call works for partial data (e.g. a metrics-only bench run).
    """
    if objectives is None:
        objectives = default_objectives()
    statuses: list[SloStatus] = []
    for objective in objectives:
        if objective.kind == "tta":
            if quality:
                statuses.extend(_eval_tta(objective, quality))
            else:
                statuses.append(SloStatus(objective.name, "tta", "", None))
        elif objective.kind == "ratio":
            statuses.append(_eval_ratio(objective, metrics or {}))
        else:
            statuses.append(_eval_threshold(objective, metrics or {}))
    return statuses
