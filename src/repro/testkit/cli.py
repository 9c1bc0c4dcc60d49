"""``python -m repro testkit fuzz|replay`` — the differential fuzz harness.

Exit codes follow the repo convention: ``0`` all checks passed, ``1`` the
oracle found at least one failure (or a replay did not reproduce), ``2``
usage/configuration error.  ``fuzz`` writes the first failing case as a
replay payload (JSON) so the exact fault sequence can be re-run::

    python -m repro testkit fuzz --seed 7 --iterations 40
    python -m repro testkit fuzz --mutation combine-drop   # oracle self-test
    python -m repro testkit fuzz --mutation cache-stale    # cache-oracle self-test
    python -m repro testkit fuzz --mutation shared-memo    # sanitizer self-test
    python -m repro testkit fuzz --sanitize-access         # confinement proof
    python -m repro testkit fuzz --serve                   # solo-vs-interleaved
    python -m repro testkit fuzz --serve --mutation unfair-scheduler
    python -m repro testkit fuzz --serve --mutation budget-leak
    python -m repro testkit replay testkit_failure.json

``--serve`` switches to the serve-scheduler oracle
(:mod:`repro.testkit.serve`): seeded multi-tenant scenarios race the
deterministic scheduler against isolated sequential runs of the same
queries.  Serve replay payloads carry ``mode="serve"``, which ``replay``
dispatches on; a payload with any other mode is rejected (exit ``2``).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from ..obs.flight import write_dump
from .faults import FaultPlanError
from .harness import MUTATIONS, fuzz, replay
from .serve import SERVE_MUTATIONS

__all__ = ["add_testkit_parser", "run_testkit"]


def add_testkit_parser(testkit) -> None:
    """Add the ``testkit`` modes and arguments to its (created) subparser."""
    mode = testkit.add_subparsers(dest="testkit_command", required=True)

    fuzz_p = mode.add_parser(
        "fuzz", help="run generated scenarios, clean and fault-injected"
    )
    fuzz_p.add_argument("--seed", type=int, default=0,
                        help="fuzz seed (default 0)")
    fuzz_p.add_argument("--iterations", type=int, default=20,
                        help="generated scenarios to run (default 20)")
    fuzz_p.add_argument("--no-faults", action="store_true",
                        help="clean runs only: skip the fault-injected phase")
    fuzz_p.add_argument("--serve", action="store_true",
                        help="fuzz the multi-tenant serve scheduler with the "
                        "solo-vs-interleaved differential oracle")
    fuzz_p.add_argument("--mutation", choices=MUTATIONS + SERVE_MUTATIONS,
                        default=None,
                        help="sabotage the engine under test (oracle "
                        "self-test: the run must FAIL); serve mutations "
                        "require --serve")
    fuzz_p.add_argument("--max-failures", type=int, default=8,
                        help="stop after this many failing cases (default 8)")
    fuzz_p.add_argument("--sanitize-access", action="store_true",
                        help="arm the access-ordinal sanitizer on every run "
                        "(on by default only for --mutation shared-memo)")
    fuzz_p.add_argument("--out", type=Path, default=Path("testkit_failure.json"),
                        help="replay payload file for the first failing case "
                        "(default testkit_failure.json)")

    replay_p = mode.add_parser(
        "replay", help="re-run a recorded failing case deterministically"
    )
    replay_p.add_argument("payload", type=Path,
                          help="replay payload written by a failing fuzz run")


def _run_fuzz(args) -> int:
    if args.iterations <= 0 or args.max_failures <= 0:
        print("testkit fuzz: --iterations and --max-failures must be positive",
              file=sys.stderr)
        return 2
    if args.mutation in SERVE_MUTATIONS and not args.serve:
        print(f"testkit fuzz: --mutation {args.mutation} requires --serve",
              file=sys.stderr)
        return 2
    if args.serve and args.mutation in MUTATIONS:
        print(f"testkit fuzz: --mutation {args.mutation} is a sampler "
              "mutation; drop --serve", file=sys.stderr)
        return 2
    report = fuzz(
        seed=args.seed,
        iterations=args.iterations,
        with_faults=not args.no_faults,
        mutation=args.mutation,
        max_failures=args.max_failures,
        sanitize=True if args.sanitize_access else None,
        serve=args.serve,
    )
    print(f"testkit fuzz: seed={report.seed} scenarios={report.scenarios_run} "
          f"queries={report.queries_checked} "
          f"injected_faults={report.injected_events} "
          f"failures={len(report.failures)}")
    if report.ok:
        print("testkit fuzz: all oracle checks passed")
        return 0
    first = report.failures[0]
    for line in first["failures"]:
        print(f"testkit fuzz: FAIL {line}", file=sys.stderr)
    args.out.write_text(json.dumps(first, indent=2, sort_keys=True) + "\n")
    print(f"testkit fuzz: replay payload -> {args.out}", file=sys.stderr)
    flight = first.get("flight")
    if flight and flight.get("events"):
        dump_path = args.out.with_suffix(".flight.jsonl")
        write_dump(flight["events"], dump_path, flight["reason"],
                   dropped=flight.get("dropped", 0))
        print(f"testkit fuzz: flight dump -> {dump_path}", file=sys.stderr)
        _diff_replay_flight(first)
    return 1


def _diff_replay_flight(first: dict) -> None:
    """Classify the first failure: does a replay fly the same way?

    Re-runs the failing case under a fresh flight recording and
    lockstep-diffs the deterministic views of the two event sequences
    (:func:`repro.obs.analyze.diff_event_views`, wall keys stripped).
    An empty diff means the failure replays event-for-event — a
    deterministic bug, not flaky fault timing; a non-empty one names the
    first divergent event.  Advisory only: the exit code is already 1.
    """
    from ..obs.analyze import diff_event_views
    from ..obs.flight import FLIGHT

    recorded = first["flight"]["events"]
    try:
        with FLIGHT.recording():
            replay(first)
            FLIGHT.trip(first["flight"]["reason"])
            replayed = FLIGHT.snapshot()
    except (ValueError, FaultPlanError, KeyError) as exc:
        print(f"testkit fuzz: flight diff skipped ({exc})", file=sys.stderr)
        return
    verdict = diff_event_views(recorded, replayed)
    if verdict["identical"]:
        print("testkit fuzz: flight diff: replay is event-identical over "
              f"{verdict['aligned']} event(s) — deterministic failure",
              file=sys.stderr)
    else:
        print("testkit fuzz: flight diff: replay DIVERGED — first divergent "
              f"{verdict['first_divergent']}", file=sys.stderr)


def _run_replay(args) -> int:
    try:
        payload = json.loads(args.payload.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"testkit replay: cannot read {args.payload}: {exc}",
              file=sys.stderr)
        return 2
    try:
        verdict, plan = replay(payload)
    except (ValueError, FaultPlanError, KeyError) as exc:
        print(f"testkit replay: malformed payload: {exc}", file=sys.stderr)
        return 2
    recorded = payload["plan"].get("events", [])
    replayed = [event.as_dict() for event in plan.injected]
    print(f"testkit replay: scenario seed={verdict.scenario.seed} "
          f"injected={len(replayed)} recorded={len(recorded)}")
    drift = replayed != recorded
    expected = payload.get("failures", [])
    reproduced = verdict.failure_lines == expected
    if drift:
        print("testkit replay: FAULT SEQUENCE DRIFT — the workload no longer "
              "replays access-for-access (code change since recording?)",
              file=sys.stderr)
    if not reproduced:
        print("testkit replay: verdict differs from the recorded run "
              f"({len(verdict.failure_lines)} vs {len(expected)} failures)",
              file=sys.stderr)
    for line in verdict.failure_lines:
        print(f"testkit replay: FAIL {line}", file=sys.stderr)
    if verdict.failure_lines or drift or not reproduced:
        if reproduced and not drift:
            # Faithfully reproducing a recorded failure still exits
            # non-zero — the engine under test is failing, like the
            # original run said.
            print("testkit replay: reproduced the recorded verdict exactly")
        return 1
    print("testkit replay: clean run reproduced (no failures)")
    return 0


def run_testkit(args) -> int:
    if args.testkit_command == "fuzz":
        return _run_fuzz(args)
    return _run_replay(args)
