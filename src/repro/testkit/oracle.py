"""Differential oracle: sampler streams versus a brute-force reference.

Every sampler under test (ACE Tree, ranked B+-Tree, permuted file) obeys
the same contract — batches of records matching a range query, uniform at
every prefix, exact at exhaustion.  The oracle checks a drained stream
against a trivially-correct in-memory reference on four axes:

1. **containment** — every emitted record matches the query (is in the
   reference multiset) and no record is emitted twice;
2. **exactness** — at exhaustion the emitted multiset equals the matching
   multiset exactly (skipped for streams that declared themselves
   ``degraded`` after surviving injected faults — they are *allowed* to
   lose records, but must still satisfy containment);
3. **clock sanity** — batch availability times are non-decreasing;
4. **statistical equivalence** — the first-K prefix's key distribution is
   chi-square-consistent with the matching population
   (:func:`repro.testkit.stats.prefix_vs_population`), since a stream can
   be exact at exhaustion yet biased early (the exact failure mode of a
   broken Combine).

Failures are strings, accumulated in a :class:`DifferentialReport`;
anything non-empty is a verdict against the sampler.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .stats import DEFAULT_P_FLOOR, prefix_vs_population

__all__ = ["DifferentialReport", "check_stream", "reference_matching"]

#: Cap on the prefix length used for the statistical check; beyond this the
#: prefix is most of the population and the test degenerates.
_MAX_PREFIX = 200


@dataclass
class DifferentialReport:
    """The oracle's verdict on one (sampler, query) pair."""

    sampler: str
    query: tuple
    emitted: int = 0
    expected: int = 0
    degraded: bool = False
    aborted: str | None = None
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def reference_matching(records, box) -> list:
    """Brute-force scan: the records matching ``box`` on their key.

    The key is the first field (the ``(key, unique_id)`` convention of
    :mod:`repro.testkit.generators`), matched with the same
    ``Box.contains_point`` predicate every sampler uses, so reference and
    sampler agree on boundary semantics by construction.
    """
    return [r for r in records if box.contains_point((r[0],))]


def check_stream(
    sampler: str,
    batches,
    matching,
    query: tuple = (),
    p_floor: float = DEFAULT_P_FLOOR,
    degraded_ok: bool = False,
) -> DifferentialReport:
    """Drain ``batches`` and judge them against the ``matching`` reference.

    ``degraded_ok`` permits a stream to come up short *if and only if* it
    flags itself degraded (the fault-injected graceful-degradation path);
    an undegraded stream is always held to exactness.
    """
    report = DifferentialReport(sampler=sampler, query=tuple(query),
                                expected=len(matching))
    emitted: list = []
    last_clock = None
    try:
        for batch in batches:
            if last_clock is not None and batch.clock < last_clock:
                report.failures.append(
                    f"clock went backwards: {batch.clock} after {last_clock}"
                )
            last_clock = batch.clock
            emitted.extend(batch.records)
    except Exception as exc:  # repro: allow[EXC001] the oracle reports any crash as a verdict, never raises
        report.aborted = f"{type(exc).__name__}: {exc}"
    report.emitted = len(emitted)
    report.degraded = bool(getattr(batches, "degraded", False))
    if report.degraded and not degraded_ok:
        report.failures.append("stream degraded without faults injected")

    # Identity is the unique second column; duplicates mean with-replacement
    # sampling or a double-drained bucket.
    emitted_ids = Counter(r[1] for r in emitted)
    dups = [rid for rid, count in emitted_ids.items() if count > 1]
    if dups:
        report.failures.append(
            f"{len(dups)} record(s) emitted more than once (e.g. id {dups[0]})"
        )
    matching_ids = Counter(r[1] for r in matching)
    strays = [rid for rid in emitted_ids if rid not in matching_ids]
    if strays:
        report.failures.append(
            f"{len(strays)} emitted record(s) outside the query "
            f"(e.g. id {strays[0]})"
        )

    if report.aborted is None and not (report.degraded and degraded_ok):
        if emitted_ids != matching_ids:
            missing = sum((matching_ids - emitted_ids).values())
            report.failures.append(
                f"exhausted stream emitted {report.emitted} of "
                f"{report.expected} matching records ({missing} missing)"
            )

    # Statistical equivalence on the clean prefix only: a degraded or
    # aborted stream already explained its bias.
    if report.aborted is None and not report.degraded and not strays:
        k = min(_MAX_PREFIX, max(20, len(matching) // 2))
        verdict = prefix_vs_population(
            [r[0] for r in emitted[:k]], [r[0] for r in matching]
        )
        if verdict is not None and not verdict.ok(p_floor):
            report.failures.append(
                f"first-{k} prefix biased vs population: {verdict.describe()}"
            )
    return report
