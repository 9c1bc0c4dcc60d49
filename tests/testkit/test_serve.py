"""The serve fuzz oracle: solo equivalence, mutants, fault-for-fault replay."""

import pytest

from repro.testkit import (
    FaultPlan,
    ServeScenario,
    fairness_bound,
    fuzz,
    generate_serve_scenario,
    replay,
    run_serve_scenario,
)

# Probed once: small (n<500), contended (5-6 tenants), catches both
# mutants, and schedules real read faults (seed 34 injects ~18 events).
CONTENDED_SEED = 0
FAULTED_SEED = 34


class TestScenarioGeneration:
    def test_generation_is_deterministic(self):
        assert generate_serve_scenario(7) == generate_serve_scenario(7)

    def test_scenarios_vary_with_seed(self):
        shapes = {
            (s.n, s.tenants, s.shape, s.closed_loop)
            for s in (generate_serve_scenario(i) for i in range(12))
        }
        assert len(shapes) > 4

    def test_round_trips_through_dict(self):
        scenario = generate_serve_scenario(11)
        assert ServeScenario.from_dict(scenario.as_dict()) == scenario

    def test_no_faults_flag_strips_rates(self):
        assert generate_serve_scenario(3, with_faults=False).rates == {}

    def test_serve_rates_never_corrupt_shared_pages(self):
        # read.corrupt rots the page itself; whichever tenant reads next is
        # poisoned by another tenant's draw, which breaks the solo oracle
        # by design — serve scenarios must never schedule it.
        for seed in range(30):
            rates = generate_serve_scenario(seed).rates
            assert set(rates) <= {"read.transient", "read.latency"}


class TestRunServeScenario:
    def test_clean_contended_scenario_passes(self):
        scenario = generate_serve_scenario(CONTENDED_SEED, with_faults=False)
        verdict, plan = run_serve_scenario(scenario)
        assert verdict.ok, verdict.failure_lines
        assert plan.injected == []
        assert verdict.serve_report["totals"]["completed"] > 0

    def test_faulted_scenario_still_matches_solo(self):
        # Per-tenant fault scopes: the same faults strike solo and
        # interleaved, so equivalence holds even under injection.
        scenario = generate_serve_scenario(FAULTED_SEED)
        assert scenario.rates
        plan = FaultPlan(seed=scenario.seed, rates=dict(scenario.rates))
        verdict, plan = run_serve_scenario(scenario, plan=plan)
        assert verdict.ok, verdict.failure_lines
        assert verdict.faults_active
        assert len(plan.injected) > 0

    def test_lost_leaf_runs_reach_the_oracle_degraded(self):
        # Retries exhaust at this rate, so leaves are lost and every
        # stream comes up short: the oracle accepts that only from a
        # stream that says it is degraded.
        scenario = generate_serve_scenario(FAULTED_SEED)
        plan = FaultPlan(seed=scenario.seed, rates={"read.transient": 0.5})
        verdict, plan = run_serve_scenario(scenario, plan=plan)
        assert verdict.ok, verdict.failure_lines
        assert verdict.reports
        assert all(report.degraded for report in verdict.reports)

    def test_unknown_mutation_rejected(self):
        with pytest.raises(ValueError, match="unknown serve mutation"):
            run_serve_scenario(generate_serve_scenario(0), mutation="nonsense")

    def test_sanitized_run_stays_clean(self):
        scenario = generate_serve_scenario(CONTENDED_SEED, with_faults=False)
        verdict, _ = run_serve_scenario(scenario, sanitize=True)
        assert verdict.ok, verdict.failure_lines


class TestMutants:
    def test_unfair_scheduler_breaks_the_fairness_bound(self):
        scenario = generate_serve_scenario(CONTENDED_SEED, with_faults=False)
        verdict, _ = run_serve_scenario(scenario, mutation="unfair-scheduler")
        assert not verdict.ok
        fairness = [l for l in verdict.failure_lines
                    if l.startswith("fairness:")]
        assert fairness, verdict.failure_lines
        assert f"(bound {fairness_bound(scenario)})" in fairness[0]

    def test_budget_leak_fails_the_audit_not_conservation(self):
        scenario = generate_serve_scenario(CONTENDED_SEED, with_faults=False)
        verdict, _ = run_serve_scenario(scenario, mutation="budget-leak")
        assert not verdict.ok
        audit = [l for l in verdict.failure_lines
                 if l.startswith("budget-audit:")]
        assert audit, verdict.failure_lines
        # Global conservation still balances — only attribution is wrong.
        assert not any(l.startswith("accounting:")
                       for l in verdict.failure_lines)


class TestFuzzServe:
    def test_clean_mini_fuzz_passes(self):
        report = fuzz(seed=0, iterations=2, serve=True)
        assert report.ok, report.failures
        assert report.scenarios_run >= 2
        assert report.queries_checked > 0

    def test_both_mutants_caught_with_replay_payloads(self):
        for mutation, marker in (("unfair-scheduler", "fairness:"),
                                 ("budget-leak", "budget-audit:")):
            report = fuzz(seed=0, iterations=1, with_faults=False,
                          mutation=mutation, max_failures=1, serve=True)
            assert not report.ok, mutation
            payload = report.failures[0]
            assert payload["mode"] == "serve"
            assert payload["mutation"] == mutation
            assert any(marker in line for line in payload["failures"])
            assert payload["flight"]["events"]


class TestReplayServe:
    def test_fuzz_payload_replays_verdict_for_verdict(self):
        report = fuzz(seed=0, iterations=1, with_faults=False,
                      mutation="unfair-scheduler", max_failures=1, serve=True)
        payload = report.failures[0]
        verdict, plan = replay(payload)
        assert verdict.failure_lines == payload["failures"]
        assert [e.as_dict() for e in plan.injected] == (
            payload["plan"]["events"]
        )

    def test_faulted_failure_replays_fault_for_fault(self):
        # The regression the (op, tenant scope, ordinal) keying exists
        # for: a recorded serve failure must re-fire every fault at the
        # same access and reproduce the verdict byte for byte.
        scenario = generate_serve_scenario(FAULTED_SEED)
        plan = FaultPlan(seed=scenario.seed, rates=dict(scenario.rates))
        first, plan = run_serve_scenario(scenario, plan=plan,
                                         mutation="unfair-scheduler")
        assert not first.ok
        assert plan.injected, "this seed must schedule real faults"
        payload = {
            "v": 1, "kind": "testkit-replay", "mode": "serve",
            "mutation": "unfair-scheduler",
            "scenario": scenario.as_dict(),
            "plan": plan.to_replay().as_dict(),
            "failures": first.failure_lines,
        }
        second, replan = replay(payload)
        assert second.failure_lines == first.failure_lines
        assert ([e.as_dict() for e in replan.injected]
                == [e.as_dict() for e in plan.injected])

    def test_wrong_mode_rejected(self):
        # A classic payload has no mode at all; a mode that is set must
        # be "serve", or the payload would replay as the wrong kind.
        for mode in (None, "classic", "Serve", ["serve"]):
            with pytest.raises(ValueError, match="unknown replay payload mode"):
                replay({"v": 1, "kind": "testkit-replay", "mode": mode})

    def test_wrong_kind_rejected(self):
        with pytest.raises(ValueError, match="not a testkit replay"):
            replay({"kind": "benchmark-result"})

    def test_wrong_version_rejected(self):
        with pytest.raises(ValueError, match="version"):
            replay({"v": 99, "kind": "testkit-replay", "mode": "serve"})
