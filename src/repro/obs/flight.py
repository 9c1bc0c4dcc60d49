"""Flight recorder: a bounded ring of the last N telemetry events.

Post-hoc traces explain a whole run; the flight recorder explains the
*last few milliseconds before something went wrong*.  It is a fixed-size
ring buffer that — while armed — captures every finished span, every
labeled metric update, every finalized quality record, and every injected
storage fault, overwriting the oldest events once full.  Memory is
bounded by construction and the disarmed cost is one attribute check per
event source (the same branch discipline as the tracer's no-op span
path), so instrumented call sites never pay for it in production
paths.

``dump()`` writes the ring as a **kind-versioned JSONL artifact** using
the same schema registry as :mod:`repro.obs.export` — ``python -m repro
trace validate`` accepts a flight dump unchanged.  The first line is a
``"kind": "flight"`` header (``v`` = :data:`FLIGHT_VERSION`) carrying the
trip reason and drop count; the remaining lines are the events in arrival
order.

Automatic trips — call sites invoke :meth:`FlightRecorder.trip`:

* the testkit differential oracle, on a failing scenario (the events are
  also embedded into the replay payload under the optional ``"flight"``
  key — see :mod:`repro.testkit.harness`);
* storage recovery, when retries exhaust or a leaf is lost to a
  :class:`~repro.storage.disk.PageCorruptionError`;
* the bench regression gate, when ``--compare`` fails deterministically.

``trip()`` is a no-op while disarmed; when armed it counts the trip and,
if ``auto_dump_path`` is set, writes the dump immediately.

Wall-clock span fields differ run to run, so dump files are not
byte-identical across runs — :func:`deterministic_view` projects events
onto their simulated-clock/deterministic fields, and *that* view is
replay-stable (asserted under ``testkit replay`` in the test suite).
"""

from __future__ import annotations

from contextlib import contextmanager
from itertools import chain
from pathlib import Path
from threading import Lock

from .export import span_to_dict, strip_wall_keys, write_records
from .tracer import TRACER

__all__ = [
    "FLIGHT",
    "FLIGHT_VERSION",
    "FlightRecorder",
    "deterministic_view",
    "write_dump",
]

FLIGHT_VERSION = 1

DEFAULT_CAPACITY = 256


def write_dump(events, path, reason: str, dropped: int = 0) -> Path:
    """Write *events* as a flight-dump JSONL artifact; returns the path."""
    header = {
        "kind": "flight",
        "v": FLIGHT_VERSION,
        "reason": str(reason),
        "events": len(events),
        "dropped": int(dropped),
    }
    write_records(path, chain((header,), events))
    return Path(path)


def deterministic_view(events) -> list[dict]:
    """Events projected onto their replay-stable fields.

    Strips wall-clock measurements (the :func:`~repro.obs.export.strip_wall_keys`
    projection shared with the trace-diff normalizer) and renumbers span
    ids densely in arrival order: the tracer's id counter is
    process-global, so raw ids differ between two otherwise identical
    runs.  Parent links are remapped consistently (an out-of-ring parent
    becomes ``None``).
    """
    id_map: dict = {}
    for event in events:
        span_id = event.get("span_id")
        if span_id is not None and span_id not in id_map:
            id_map[span_id] = len(id_map) + 1
    view = []
    for event in events:
        cleaned = strip_wall_keys(event)
        if "span_id" in cleaned:
            cleaned["span_id"] = id_map.get(cleaned["span_id"])
        if "parent_id" in cleaned:
            cleaned["parent_id"] = id_map.get(cleaned["parent_id"])
        view.append(cleaned)
    return view


class FlightRecorder:  # repro: shared[lock=_lock] bounded event ring; every mutation holds _lock
    """Fixed-capacity event ring (see module docstring).  One instance: :data:`FLIGHT`."""

    __slots__ = (
        "enabled",
        "capacity",
        "auto_dump_path",
        "trips",
        "last_reason",
        "_ring",
        "_seq",
        "_lock",
        "_installed",
    )

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("flight recorder capacity must be >= 1")
        self.enabled = False
        self.capacity = capacity
        self.auto_dump_path: Path | None = None
        self.trips = 0
        self.last_reason: str | None = None
        self._ring: list = []
        self._seq = 0
        self._lock = Lock()
        self._installed = False

    # -- arming ---------------------------------------------------------

    def arm(self, capacity: int | None = None, auto_dump_path=None) -> None:
        """Start capturing (clears the ring); spans flow in via the tracer."""
        with self._lock:
            if capacity is not None:
                if capacity < 1:
                    raise ValueError("flight recorder capacity must be >= 1")
                self.capacity = capacity
            self.auto_dump_path = Path(auto_dump_path) if auto_dump_path else None
            self._ring = [None] * self.capacity
            self._seq = 0
            self.trips = 0
            self.last_reason = None
            self.enabled = True
        if not self._installed:
            TRACER.add_listener(self._on_span)
            self._installed = True

    def disarm(self) -> None:
        if self._installed:
            TRACER.remove_listener(self._on_span)
            self._installed = False
        with self._lock:
            self.enabled = False

    @contextmanager
    def recording(self, capacity: int | None = None, auto_dump_path=None):
        """Arm the recorder *and* full tracing for the ``with`` body.

        Tracing is read-only on the simulated clock, so wrapping a run in
        ``recording()`` cannot perturb its deterministic outputs; prior
        tracer/recorder state is restored on exit.
        """
        was_tracing = TRACER.enabled
        self.arm(capacity=capacity, auto_dump_path=auto_dump_path)
        if not was_tracing:
            TRACER.enable()
        try:
            yield self
        finally:
            if not was_tracing:
                TRACER.disable()
            self.disarm()

    # -- event intake ---------------------------------------------------

    def _record(self, event: dict) -> None:
        with self._lock:
            if not self.enabled or not self._ring:
                return
            self._ring[self._seq % len(self._ring)] = event
            self._seq += 1

    def _on_span(self, record) -> None:
        if not self.enabled:
            return
        self._record({"kind": "span", **span_to_dict(record)})

    def record_metric(self, name: str, metric: str, value, label_set=None) -> None:
        """Capture one metric update (``metric`` is counter/gauge/histogram)."""
        if not self.enabled:
            return
        event = {
            "kind": "metric",
            "v": FLIGHT_VERSION,
            "name": name,
            "metric": metric,
            "value": float(value),
        }
        if label_set:
            event["labels"] = dict(label_set)
        self._record(event)

    def record_fault(self, event_dict: dict) -> None:
        """Capture one injected storage fault (``FaultEvent.as_dict()``).

        The fault's own ``kind`` (transient/corrupt/torn/latency) moves to
        the ``fault`` key; ``kind`` is reserved for the record kind.
        """
        if not self.enabled:
            return
        event = {
            "kind": "fault",
            "v": FLIGHT_VERSION,
            "op": event_dict["op"],
            "ordinal": event_dict["ordinal"],
            "fault": event_dict["kind"],
            "page": event_dict["page"],
        }
        detail = event_dict.get("detail")
        if detail:
            event["detail"] = dict(detail)
        self._record(event)

    def record_quality(self, record: dict) -> None:
        """Capture one finalized quality record (already ``"kind": "quality"``)."""
        if not self.enabled:
            return
        self._record(dict(record))

    # -- readout --------------------------------------------------------

    @property
    def dropped(self) -> int:
        """Events overwritten since arming (ring wrapped this many times)."""
        with self._lock:
            return max(0, self._seq - len(self._ring)) if self._ring else 0

    def snapshot(self) -> list[dict]:
        """The retained events, oldest first."""
        with self._lock:
            ring, seq = self._ring, self._seq
            if not ring or seq == 0:
                return []
            n = len(ring)
            if seq <= n:
                return list(ring[:seq])
            start = seq % n
            return list(ring[start:]) + list(ring[:start])

    def dump(self, path=None, reason: str = "manual") -> Path:
        """Write the ring to *path* (default ``auto_dump_path``) as JSONL."""
        target = path if path is not None else self.auto_dump_path
        if target is None:
            raise ValueError("no dump path: pass one or arm with auto_dump_path")
        return write_dump(self.snapshot(), target, reason, dropped=self.dropped)

    def trip(self, reason: str):
        """Note an automatic-dump trigger; dumps if a path is configured.

        Returns the dump path when a file was written, else ``None``.
        Disarmed recorders ignore trips entirely, so library code may call
        this unconditionally on its failure paths.
        """
        with self._lock:
            if not self.enabled:
                return None
            self.trips += 1
            self.last_reason = reason
            target = self.auto_dump_path
        if target is not None:
            return self.dump(target, reason)
        return None


FLIGHT = FlightRecorder()  # repro: shared[lock=_lock] process-wide flight ring; mutation holds FlightRecorder._lock
