"""The fuzz harness end to end: clean runs, mutants, faults, replay."""

import pytest

from repro.acetree import AceBuildParams, build_ace_tree
from repro.storage import CostModel, HeapFile
from repro.testkit import (
    FaultPlan,
    FuzzReport,
    Scenario,
    fuzz,
    generate_scenario,
    make_records,
    replay,
    run_scenario,
)
from repro.testkit.faults import FaultyDisk
from repro.testkit.generators import KV_SCHEMA
from repro.testkit.harness import _arm_sanitizer


class TestScenarioGeneration:
    def test_generation_is_deterministic(self):
        a, b = generate_scenario(7), generate_scenario(7)
        assert a == b
        assert make_records(a) == make_records(b)

    def test_scenarios_vary_with_seed(self):
        shapes = {
            (s.n, s.height, s.page_size, s.distribution)
            for s in (generate_scenario(i) for i in range(10))
        }
        assert len(shapes) > 3

    def test_no_faults_flag_strips_rates(self):
        assert generate_scenario(3, with_faults=False).rates == {}

    def test_round_trips_through_dict(self):
        scenario = generate_scenario(11)
        assert Scenario.from_dict(scenario.as_dict()) == scenario

    def test_records_unique_in_second_column(self):
        scenario = generate_scenario(5)
        ids = [r[1] for r in make_records(scenario)]
        assert len(ids) == len(set(ids)) == scenario.n


class TestRunScenario:
    def test_clean_scenario_passes_the_oracle(self):
        scenario = generate_scenario(0, with_faults=False)
        verdict, plan = run_scenario(scenario)
        assert verdict.ok, verdict.failure_lines
        assert not verdict.faults_active
        assert plan.injected == []
        # Three cold samplers plus the cache populate/warm passes.
        assert len(verdict.reports) == 5 * len(scenario.queries)

    def test_unknown_mutation_rejected(self):
        with pytest.raises(ValueError, match="unknown mutation"):
            run_scenario(generate_scenario(0), mutation="nonsense")

    def test_faulted_scenario_recovers_or_degrades_gracefully(self):
        scenario = generate_scenario(1, with_faults=False)
        plan = FaultPlan(seed=scenario.seed, rates={"read.transient": 0.05,
                                                    "read.latency": 0.05})
        verdict, plan = run_scenario(scenario, plan=plan)
        assert verdict.faults_active
        assert verdict.ok, verdict.failure_lines


class TestFuzz:
    def test_clean_fuzz_is_green(self):
        report = fuzz(seed=0, iterations=2)
        assert report.ok, report.failures
        assert report.scenarios_run >= 2
        assert report.queries_checked > 0

    def test_broken_combine_is_caught_within_budget(self):
        report = fuzz(seed=0, iterations=4, with_faults=False,
                      mutation="combine-drop", max_failures=1)
        assert not report.ok
        assert any("ace" in line for payload in report.failures
                   for line in payload["failures"])
        # Only the ACE stream is sabotaged; the baselines must stay green.
        assert not any(line.startswith(("bplus", "permuted"))
                       for payload in report.failures
                       for line in payload["failures"])

    def test_stale_cache_is_caught_within_budget(self):
        report = fuzz(seed=0, iterations=4, with_faults=False,
                      mutation="cache-stale", max_failures=1)
        assert not report.ok
        failing = [line for payload in report.failures
                   for line in payload["failures"]]
        assert failing
        # Only the warm pass ever sees a sabotaged hit — the cold
        # samplers and the populate pass (all misses) must stay green.
        assert all(line.startswith("ace-warm") for line in failing)

    def test_max_failures_stops_early(self):
        report = fuzz(seed=0, iterations=10, with_faults=False,
                      mutation="combine-drop", max_failures=1)
        assert len(report.failures) == 1

    def test_report_dataclass_defaults(self):
        assert FuzzReport(seed=0, iterations=0).ok


class TestSanitizer:
    """The access-ordinal sanitizer under the real harness workload."""

    def test_sanitized_clean_fuzz_is_green(self):
        # The confinement proof: real traversals, cold and cache-warm,
        # clean and faulted, never trip the sanitizer.
        report = fuzz(seed=0, iterations=3, sanitize=True)
        assert report.ok, report.failures

    def test_shared_memo_mutant_trips_deterministically(self):
        report = fuzz(seed=0, iterations=2, with_faults=False,
                      mutation="shared-memo", max_failures=1)
        assert not report.ok
        (payload,) = report.failures
        (line,) = payload["failures"]
        assert line.startswith("ace-shared")
        assert "sanitizer:" in line
        assert "SampleCache.put" in line

    def test_shared_memo_names_both_tenants(self):
        scenario = generate_scenario(0, with_faults=False)
        verdict, _ = run_scenario(scenario, mutation="shared-memo")
        assert not verdict.ok
        (line,) = verdict.failure_lines
        assert "interleaved writer episodes on SampleCache.put" in line
        assert "tenant-A" in line and "tenant-B" in line

    def test_shared_memo_under_faults_never_raises(self):
        # A leaf read that does not survive its injected faults ends the
        # mutant as an aborted stream; nothing escapes run_scenario.
        report = fuzz(seed=0, iterations=4, mutation="shared-memo",
                      max_failures=100)
        assert report.failures
        for payload in report.failures:
            for line in payload["failures"]:
                assert "SampleCache.put" in line, line

    def test_stream_creation_writes_no_shared_state(self):
        # Creating a stream computes its covering sets locally: three
        # creations under A-B-A writers at one clock tick trip nothing.
        scenario = generate_scenario(0, with_faults=False)
        disk = FaultyDisk(page_size=scenario.page_size,
                          cost=CostModel.scaled(scenario.page_size),
                          plan=FaultPlan())
        heap = HeapFile.bulk_load(disk, KV_SCHEMA, make_records(scenario))
        tree = build_ace_tree(heap, AceBuildParams(
            key_fields=("k",), height=scenario.height,
            arity=scenario.arity, seed=scenario.seed))
        sanitizer = _arm_sanitizer(tree)
        clock = tree.disk.clock
        for i, tenant in enumerate(("tenant-A", "tenant-B", "tenant-A")):
            lo, hi = scenario.queries[i]
            with sanitizer.writer(tenant):
                tree.sample(tree.query((lo, hi)), seed=scenario.seed + i)
        assert tree.disk.clock == clock
        assert sanitizer.stats == {}  # no wrapped structure was touched

    def test_shared_memo_without_sanitizer_is_rejected_by_default_logic(self):
        # sanitize=None auto-arms for the shared-memo mutation; forcing it
        # off turns the mutant into a silent pass — the exact blindness
        # the self-test exists to rule out.
        scenario = generate_scenario(0, with_faults=False)
        verdict, _ = run_scenario(scenario, mutation="shared-memo",
                                  sanitize=False)
        assert verdict.ok

    def test_sanitized_clean_scenario_reports_match_unsanitized(self):
        scenario = generate_scenario(2, with_faults=False)
        plain, _ = run_scenario(scenario)
        sanitized, _ = run_scenario(scenario, sanitize=True)
        assert plain.ok and sanitized.ok
        assert len(plain.reports) == len(sanitized.reports)


class TestReplay:
    def _first_failure(self, mutation="combine-drop"):
        report = fuzz(seed=0, iterations=4, with_faults=False,
                      mutation=mutation, max_failures=1)
        assert report.failures
        return report.failures[0]

    @pytest.mark.parametrize("mutation",
                             ["combine-drop", "cache-stale", "shared-memo"])
    def test_replay_reproduces_verdict_and_events(self, mutation):
        payload = self._first_failure(mutation)
        verdict, plan = replay(payload)
        assert verdict.failure_lines == payload["failures"]
        assert [e.as_dict() for e in plan.injected] == \
            payload["plan"]["events"]

    def test_faulted_replay_reinjects_identical_events(self):
        scenario = generate_scenario(1, with_faults=False)
        plan = FaultPlan(seed=scenario.seed,
                         rates={"read.transient": 0.1, "read.latency": 0.1})
        verdict, plan = run_scenario(scenario, plan=plan)
        assert plan.injected, "expected at least one injected fault"
        replayed_verdict, replayed_plan = run_scenario(
            scenario, plan=plan.to_replay()
        )
        assert [e.as_dict() for e in replayed_plan.injected] == \
            [e.as_dict() for e in plan.injected]
        assert replayed_verdict.failure_lines == verdict.failure_lines

    def test_malformed_payloads_rejected(self):
        with pytest.raises(ValueError, match="not a testkit replay"):
            replay({"kind": "something-else"})
        with pytest.raises(ValueError, match="version"):
            replay({"kind": "testkit-replay", "v": 99})


@pytest.mark.tier2
class TestDeepFuzz:
    """Nightly-depth runs: bounded on PRs, this class only runs with -m tier2."""

    def test_long_clean_and_faulted_fuzz(self):
        report = fuzz(seed=2026, iterations=40)
        assert report.ok, report.failures[:2]
        assert report.injected_events > 0, "fault phases never fired"

    def test_mutant_caught_across_many_seeds(self):
        from repro.testkit import MUTATIONS

        for mutation in MUTATIONS:
            for seed in (1, 2, 3):
                report = fuzz(seed=seed, iterations=8, with_faults=False,
                              mutation=mutation, max_failures=1)
                assert not report.ok, \
                    f"{mutation} mutant survived fuzz seed {seed}"
