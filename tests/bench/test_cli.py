"""Tests for the ``python -m repro`` CLI."""

import pytest

from repro.bench import clear_context_cache
from repro.bench.cli import main


@pytest.fixture(autouse=True)
def _clear_cache():
    yield
    clear_context_cache()


class TestList:
    def test_lists_all_figures(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig11", "fig14", "fig15a", "fig18"):
            assert name in out


class TestFigures:
    def test_runs_one_figure(self, capsys, tmp_path):
        code = main([
            "figures", "fig12", "--scale", "small", "--queries", "1",
            "--out", str(tmp_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "fig12" in out
        assert "% scan time" in out
        assert (tmp_path / "fig12.txt").exists()
        assert "leader at" in (tmp_path / "fig12.txt").read_text()

    def test_unknown_figure_rejected(self, capsys):
        assert main(["figures", "fig99"]) == 2
        assert "unknown figure" in capsys.readouterr().err

    def test_seed_changes_queries(self, capsys):
        main(["figures", "fig12", "--scale", "small", "--queries", "1",
              "--seed", "1"])
        first = capsys.readouterr().out
        main(["figures", "fig12", "--scale", "small", "--queries", "1",
              "--seed", "2"])
        second = capsys.readouterr().out
        assert first != second


class TestBench:
    def test_json_output_has_traced_build_breakdown(self, capsys):
        import json

        assert main(["bench", "--json", "--n", "1500", "--repeat", "1"]) == 0
        results = json.loads(capsys.readouterr().out)
        assert "profile" not in results
        breakdown = results["ace_build"]["best_run_profile_seconds"]
        assert set(breakdown) == {
            "ace_build.phase1", "ace_build.split_keys", "ace_build.phase2",
            "external_sort.run_generation", "external_sort.merge",
        }
        assert breakdown["ace_build.phase1"] > 0
        assert breakdown["ace_build.phase2"] > 0
        auto = results["ace_build_auto"]
        assert set(auto) == {"seconds", "split_keys_seconds", "sim_seconds",
                             "page_reads", "page_writes"}
        assert 0 < auto["split_keys_seconds"] < auto["seconds"]
        refresh = results["view_refresh"]
        assert set(refresh) == {"seconds", "sim_seconds", "page_reads",
                                "page_writes"}
        assert refresh["seconds"] > 0 and refresh["page_writes"] > 0
        overhead = results["span_overhead"]
        assert set(overhead) == {"spans_per_run", "noop_ns_per_span"}
        assert overhead["noop_ns_per_span"] < 5_000  # near-free when disabled
        assert results["ace_query"]["samples_per_s"] > 0
        online = results["online_agg"]
        assert online["answers"] == 3
        assert online["answer_seconds"] > 0
        assert online["progress_sim_seconds"] > 0
        assert online["samples"] > 0
        program = results["program_lint"]
        # The blocking CI pass must stay inside its 5-second budget.
        assert program["wall_seconds"] < 5.0
        assert program["files"] > 50
        assert program["call_edges"] > 0

    def test_program_lint_counts_ignored_by_regress_rules(self):
        from repro.obs.regress import classify

        assert classify("program_lint.files") == "ignore"
        assert classify("program_lint.functions") == "ignore"
        assert classify("program_lint.call_edges") == "ignore"
        assert classify("program_lint.findings") == "ignore"
        assert classify("program_lint.wall_seconds") == "lower_better"

    def test_online_agg_targets_gated_exactly(self):
        from repro.obs.regress import classify

        assert classify("online_agg.progress_sim_seconds") == "exact"
        assert classify("online_agg.samples") == "exact"
        assert classify("online_agg.answer_seconds") == "lower_better"

    def test_invalid_args_rejected(self, capsys):
        assert main(["bench", "--n", "0"]) == 2
        assert "positive" in capsys.readouterr().err

    def test_compare_requires_baseline(self, capsys):
        assert main(["bench", "--compare"]) == 2
        assert "--baseline" in capsys.readouterr().err

    def test_compare_gates_on_deterministic_regressions(self, capsys, tmp_path):
        """Self-compare exits 0; an injected exact drift exits non-zero."""
        import json

        baseline = tmp_path / "baseline.json"
        assert main(["bench", "--json", "--n", "800", "--repeat", "1",
                     "--out", str(baseline)]) == 0
        capsys.readouterr()
        # Same code, same seed: every deterministic metric matches exactly.
        verdict_path = tmp_path / "verdict.json"
        code = main(["bench", "--n", "800", "--repeat", "1",
                     "--baseline", str(baseline), "--compare",
                     "--verdict", str(verdict_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "0 deterministic failure(s)" in out
        verdict = json.loads(verdict_path.read_text())
        assert verdict["status"] in ("ok", "advisory-regression")
        assert verdict["deterministic_failures"] == []
        # Injected regression: perturb a simulated-clock metric.
        tampered = json.loads(baseline.read_text())
        tampered["external_sort"]["sim_seconds"] += 0.001
        bad = tmp_path / "tampered.json"
        bad.write_text(json.dumps(tampered))
        code = main(["bench", "--n", "800", "--repeat", "1",
                     "--baseline", str(bad), "--compare"])
        assert code == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_compare_unreadable_baseline(self, capsys, tmp_path):
        code = main(["bench", "--n", "800", "--repeat", "1",
                     "--baseline", str(tmp_path / "missing.json"),
                     "--compare"])
        assert code == 2
        assert "cannot read baseline" in capsys.readouterr().err


class TestTrace:
    def test_trace_query_writes_valid_trace_and_report(self, capsys, tmp_path):
        from repro.obs import validate_jsonl
        from repro.obs.tracer import TRACER

        out = tmp_path / "trace.jsonl"
        assert main(["trace", "query", "--out", str(out)]) == 0
        assert not TRACER.enabled  # recorder uninstalled on the way out
        stdout = capsys.readouterr().out
        assert "valid JSONL" in stdout
        assert "== top spans by wall-clock time (cumulative) ==" in stdout
        assert "== simulated page-read attribution ==" in stdout
        assert out.exists()
        assert (tmp_path / "trace.chrome.json").exists()
        assert validate_jsonl(out) == []

    def test_trace_query_attribution_is_high(self, capsys, tmp_path):
        import re

        out = tmp_path / "trace.jsonl"
        assert main(["trace", "query", "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        match = re.search(r"attributed to leaf spans\s*: \d+  \((\d+\.\d)%\)",
                          stdout)
        assert match, stdout
        assert float(match.group(1)) >= 95.0

    def test_trace_build_produces_build_spans(self, capsys, tmp_path):
        from repro.obs import load_jsonl

        out = tmp_path / "trace.jsonl"
        assert main(["trace", "build", "--out", str(out)]) == 0
        names = {s.name for s in load_jsonl(out)}
        assert "ace_build.phase1" in names
        assert "ace_build.phase2" in names
        assert "external_sort.run_fill" in names

    def test_trace_rejects_names_for_non_figure_ops(self, capsys, tmp_path):
        code = main(["trace", "query", "fig12",
                     "--out", str(tmp_path / "t.jsonl")])
        assert code == 2
        assert "figure" in capsys.readouterr().err

    def test_trace_rejects_unknown_figure(self, capsys, tmp_path):
        code = main(["trace", "figure", "fig99",
                     "--out", str(tmp_path / "t.jsonl")])
        assert code == 2
        assert "unknown figure" in capsys.readouterr().err

    def test_trace_query_prints_quality_sections(self, capsys, tmp_path):
        from repro.obs import load_quality_jsonl

        out = tmp_path / "trace.jsonl"
        assert main(["trace", "query", "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "== quality: uniformity" in stdout
        assert "== quality: time-to-accuracy" in stdout
        assert "== quality: CI half-width vs sim time" in stdout
        records = load_quality_jsonl(out)
        assert len(records) == 3  # one per traced query
        assert all(r["group"] == "ACE Tree" for r in records)
        assert all(r["uniformity"]["ok"] for r in records)

    def test_trace_validate_accepts_good_rejects_corrupted(
        self, capsys, tmp_path
    ):
        """The validator must exit non-zero on a schema violation."""
        out = tmp_path / "trace.jsonl"
        assert main(["trace", "build", "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["trace", "validate", str(out)]) == 0
        assert "valid" in capsys.readouterr().out
        # Corrupt one line: drop a required key from the first record.
        import json

        lines = out.read_text().splitlines()
        first = json.loads(lines[0])
        del first["start_wall"]
        corrupted = tmp_path / "corrupted.jsonl"
        corrupted.write_text("\n".join([json.dumps(first)] + lines[1:]) + "\n")
        assert main(["trace", "validate", str(corrupted)]) == 1
        err = capsys.readouterr().err
        assert "INVALID" in err and "start_wall" in err

    def test_trace_validate_needs_a_file(self, capsys, tmp_path):
        assert main(["trace", "validate"]) == 2
        assert main(["trace", "validate", str(tmp_path / "nope.jsonl")]) == 1

    def test_figures_trace_flag_records_figure_spans(self, capsys, tmp_path):
        from repro.obs import load_jsonl, validate_jsonl

        out = tmp_path / "fig.jsonl"
        code = main(["figures", "fig12", "--scale", "small", "--queries", "1",
                     "--trace", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "% scan time" in stdout  # normal figure output still present
        assert "valid JSONL" in stdout
        assert validate_jsonl(out) == []
        names = {s.name for s in load_jsonl(out)}
        assert "figure.fig12" in names
        assert "figure.race" in names
        assert "ace_query.stab" in names
