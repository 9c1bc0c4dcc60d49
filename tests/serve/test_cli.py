"""``python -m repro serve`` smoke: exit codes, artifacts, determinism."""

import json

import pytest

from repro.bench.cli import main


def _serve(tmp_path, name="serve.jsonl", *extra):
    out = tmp_path / name
    argv = ["serve", "--tenants", "3", "--queries", "1",
            "--records", "2000", "--seed", "3", "--out", str(out), *extra]
    return main(argv), out


class TestServeCli:
    def test_smoke_writes_trace_and_report(self, tmp_path, capsys):
        status, out = _serve(tmp_path)
        assert status == 0
        captured = capsys.readouterr().out
        assert "serve report" in captured
        assert "time-to-accuracy" in captured
        assert out.exists()
        report = json.loads(out.with_suffix(".report.json").read_text())
        assert report["kind"] == "serve-report"
        assert report["totals"]["arrived"] == 3
        assert report["totals"]["completed"] > 0

    def test_same_seed_reports_are_byte_identical(self, tmp_path):
        status_a, out_a = _serve(tmp_path, "a.jsonl")
        status_b, out_b = _serve(tmp_path, "b.jsonl")
        assert status_a == status_b == 0
        assert (out_a.with_suffix(".report.json").read_bytes()
                == out_b.with_suffix(".report.json").read_bytes())

    def test_budget_flag_reaches_the_audit(self, tmp_path, capsys):
        status, out = _serve(tmp_path, "budget.jsonl", "--budget", "4")
        assert status == 0
        report = json.loads(out.with_suffix(".report.json").read_text())
        assert any(s["budget_exhausted"]
                   for s in report["tenants"].values())
        assert report["budget_audit"]["checked"] in (True, False)

    @pytest.mark.parametrize("flag,value", [
        ("--tenants", "0"), ("--queries", "0"), ("--records", "0"),
    ])
    def test_nonpositive_sizes_exit_two(self, tmp_path, flag, value, capsys):
        out = tmp_path / "bad.jsonl"
        assert main(["serve", flag, value, "--out", str(out)]) == 2
        assert "must be positive" in capsys.readouterr().err

    def test_epsilon_outside_the_monitor_targets_exits_two(self, tmp_path,
                                                          capsys):
        out = tmp_path / "bad.jsonl"
        assert main(["serve", "--epsilon", "0.03", "--out", str(out)]) == 2
        assert "--epsilon must be 0 or one of" in capsys.readouterr().err
        assert not out.exists()
