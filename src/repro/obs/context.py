"""Thread-local telemetry context: tenant/query/sampler baggage.

Per-tenant views only pay off if the *same* label values reach every
record a request produces — the quality record, the cost ledger's page
charges, the histogram exemplars.  Threading a
``tenant=`` argument through every call site would couple the whole
engine to the telemetry layer, so instead the baggage rides here: a
per-thread stack of label dicts that instrumented call sites read
ambiently.

::

    with CONTEXT.push(tenant="t0", query="q3"):
        run_query(...)            # every charge and record inside gets both labels

* Pushes **merge**: an inner ``push(sampler="ace")`` sees the outer
  tenant/query too; the inner frame pops on exit.
* Keys are validated against the registered label vocabulary
  (:data:`LABEL_KEYS`).  Values are stringified on push.
* The stack is ``threading.local``: concurrent request threads carry
  disjoint baggage, which is exactly the propagation model ROADMAP
  item 1's scheduler needs (one tenant per traversal step).

* Each frame also carries its **canonical key** — the
  :func:`canonical_label_set` of the merged baggage, computed once by
  ``push`` while it validates the keys.  :meth:`TelemetryContext.label_key`
  returns it, so exemplar label sets and cost attribution read the key
  once per push instead of re-canonicalizing per update.

An empty context yields an empty label dict and the empty key ``()``.
"""

from __future__ import annotations

from contextlib import contextmanager
from threading import local

__all__ = [
    "CONTEXT",
    "LABEL_KEYS",
    "TelemetryContext",
    "canonical_label_set",
    "render_label_set",
]

#: The registered label vocabulary, in canonical rendering order.  The
#: order is fixed (not alphabetical) so label sets serialize identically
#: everywhere: ``tenant=t0,query=q1,sampler=ace`` never permutes.
LABEL_KEYS = ("tenant", "query", "sampler", "shard", "section")

_LABEL_RANK = {key: rank for rank, key in enumerate(LABEL_KEYS)}  # repro: shared[frozen] derived vocabulary index, read-only


def canonical_label_set(labels: dict) -> tuple:
    """Validate *labels* and return the canonical ``((key, str(value)), ...)``.

    Raises :class:`ValueError` for keys outside :data:`LABEL_KEYS`; the
    result tuple is ordered by vocabulary rank, so equal label dicts map
    to equal (hashable) tuples regardless of construction order.
    """
    for key in labels:
        if key not in _LABEL_RANK:
            raise ValueError(
                f"unknown label key {key!r}; the registered vocabulary is "
                f"{', '.join(LABEL_KEYS)}"
            )
    return tuple(
        sorted(
            ((key, str(value)) for key, value in labels.items()),
            key=lambda pair: _LABEL_RANK[pair[0]],
        )
    )


def render_label_set(label_set: tuple) -> str:
    """Canonical text form of a label-set tuple: ``tenant=t0,query=q1``."""
    return ",".join(f"{key}={value}" for key, value in label_set)


class _Frames(local):  # repro: shared[confined] one frame stack per thread (threading.local)
    """One thread's frame stack: ``(merged baggage, canonical key)`` pairs.

    ``threading.local`` runs ``__init__`` on each thread's first access, so
    every thread starts from the empty frame.
    """

    def __init__(self) -> None:
        self.stack = [({}, ())]


class TelemetryContext:
    """Per-thread stack of merged label dicts (see module docstring)."""

    __slots__ = ("_local",)

    def __init__(self) -> None:
        self._local = _Frames()

    def _stack(self) -> list:
        return self._local.stack

    def current(self) -> dict:
        """The active merged baggage (treat as read-only; ``{}`` when empty)."""
        return self._local.stack[-1][0]

    #: Alias: the baggage *is* the label dict.
    labels = current

    def label_key(self) -> tuple:
        """``canonical_label_set(current())``, computed once per push."""
        return self._local.stack[-1][1]

    @contextmanager
    def push(self, **baggage):
        """Push *baggage* merged over the current frame for the ``with`` body."""
        stack = self._local.stack
        merged = {**stack[-1][0], **{k: str(v) for k, v in baggage.items()}}
        # The enclosing frame's keys are already valid, so canonicalizing
        # the merge validates *baggage* before the stack is mutated.
        key = canonical_label_set(merged)
        stack.append((merged, key))
        try:
            yield merged
        finally:
            stack.pop()

    def clear(self) -> None:
        """Drop every frame on the calling thread (test isolation hook)."""
        self._local.stack = [({}, ())]


CONTEXT = TelemetryContext()  # repro: shared[confined] per-thread baggage stack (threading.local)
