"""``python -m repro testkit`` exit codes — pinned, since CI keys off them."""

import json

import pytest

from repro.bench.cli import main


def _fuzz(tmp_path, *extra):
    out = tmp_path / "failure.json"
    argv = ["testkit", "fuzz", "--seed", "0", "--iterations", "2",
            "--out", str(out), *extra]
    return main(argv), out


class TestFuzzExitCodes:
    def test_clean_fuzz_exits_zero(self, tmp_path, capsys):
        status, out = _fuzz(tmp_path)
        assert status == 0
        assert not out.exists()
        assert "all oracle checks passed" in capsys.readouterr().out

    def test_mutant_fuzz_exits_one_and_writes_payload(self, tmp_path, capsys):
        status, out = _fuzz(tmp_path, "--no-faults", "--mutation",
                            "combine-drop", "--max-failures", "1")
        assert status == 1
        assert "FAIL" in capsys.readouterr().err
        payload = json.loads(out.read_text())
        assert payload["kind"] == "testkit-replay"
        assert "mode" not in payload
        assert payload["mutation"] == "combine-drop"
        assert payload["failures"]

    def test_sanitize_access_clean_exits_zero(self, tmp_path, capsys):
        status, out = _fuzz(tmp_path, "--sanitize-access")
        assert status == 0
        assert not out.exists()

    def test_shared_memo_mutant_exits_one_with_sanitizer_payload(
            self, tmp_path, capsys):
        status, out = _fuzz(tmp_path, "--no-faults", "--mutation",
                            "shared-memo", "--max-failures", "1")
        assert status == 1
        assert "sanitizer:" in capsys.readouterr().err
        payload = json.loads(out.read_text())
        assert payload["mutation"] == "shared-memo"
        (line,) = payload["failures"]
        for name in ("SampleCache.put", "tenant-A", "tenant-B"):
            assert name in line

    def test_nonpositive_iterations_exit_two(self, tmp_path):
        status, _ = _fuzz(tmp_path, "--iterations", "0")
        assert status == 2
        status, _ = _fuzz(tmp_path, "--max-failures", "0")
        assert status == 2

    def test_unknown_mutation_is_a_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            _fuzz(tmp_path, "--mutation", "nonsense")
        assert excinfo.value.code == 2


class TestReplayExitCodes:
    def _recorded_failure(self, tmp_path):
        status, out = _fuzz(tmp_path, "--no-faults", "--mutation",
                            "combine-drop", "--max-failures", "1")
        assert status == 1 and out.exists()
        return out

    def test_replay_of_failing_case_exits_one_reproducing_exactly(
        self, tmp_path, capsys
    ):
        out = self._recorded_failure(tmp_path)
        capsys.readouterr()
        assert main(["testkit", "replay", str(out)]) == 1
        captured = capsys.readouterr()
        assert "reproduced the recorded verdict exactly" in captured.out
        assert "DRIFT" not in captured.err

    def test_missing_payload_exits_two(self, tmp_path):
        assert main(["testkit", "replay", str(tmp_path / "nope.json")]) == 2

    def test_garbage_json_exits_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["testkit", "replay", str(bad)]) == 2

    def test_wrong_kind_exits_two(self, tmp_path):
        bad = tmp_path / "other.json"
        bad.write_text(json.dumps({"kind": "benchmark-result"}))
        assert main(["testkit", "replay", str(bad)]) == 2

    def test_non_object_payload_exits_two(self, tmp_path):
        bad = tmp_path / "list.json"
        bad.write_text(json.dumps([1, 2]))
        assert main(["testkit", "replay", str(bad)]) == 2

    @pytest.mark.parametrize("mode", [None, "classic", "bogus"])
    def test_unknown_mode_exits_two(self, tmp_path, capsys, mode):
        # A mode other than "serve" must not replay as a classic payload.
        out = self._recorded_failure(tmp_path)
        payload = json.loads(out.read_text())
        payload["mode"] = mode
        out.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["testkit", "replay", str(out)]) == 2
        assert "unknown replay payload mode" in capsys.readouterr().err

    def test_tampered_verdict_detected(self, tmp_path, capsys):
        out = self._recorded_failure(tmp_path)
        payload = json.loads(out.read_text())
        payload["failures"] = payload["failures"] + ["invented failure"]
        out.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["testkit", "replay", str(out)]) == 1
        assert "verdict differs" in capsys.readouterr().err


class TestServeFuzzExitCodes:
    def _serve_fuzz(self, tmp_path, *extra):
        out = tmp_path / "serve_failure.json"
        argv = ["testkit", "fuzz", "--serve", "--seed", "0",
                "--iterations", "1", "--no-faults", "--out", str(out), *extra]
        return main(argv), out

    def test_clean_serve_fuzz_exits_zero(self, tmp_path, capsys):
        status, out = self._serve_fuzz(tmp_path)
        assert status == 0
        assert not out.exists()
        assert "all oracle checks passed" in capsys.readouterr().out

    @pytest.mark.parametrize("mutation,marker", [
        ("unfair-scheduler", "fairness:"),
        ("budget-leak", "budget-audit:"),
    ])
    def test_serve_mutants_exit_one_with_payload(self, tmp_path, capsys,
                                                 mutation, marker):
        status, out = self._serve_fuzz(tmp_path, "--mutation", mutation,
                                       "--max-failures", "1")
        assert status == 1
        assert marker in capsys.readouterr().err
        payload = json.loads(out.read_text())
        assert payload["mode"] == "serve"
        assert payload["mutation"] == mutation

    def test_serve_mutation_without_serve_flag_exits_two(self, tmp_path,
                                                         capsys):
        out = tmp_path / "x.json"
        status = main(["testkit", "fuzz", "--mutation", "unfair-scheduler",
                       "--out", str(out)])
        assert status == 2
        assert "requires --serve" in capsys.readouterr().err

    def test_sampler_mutation_with_serve_flag_exits_two(self, tmp_path,
                                                        capsys):
        out = tmp_path / "x.json"
        status = main(["testkit", "fuzz", "--serve", "--mutation",
                       "combine-drop", "--out", str(out)])
        assert status == 2
        assert "drop --serve" in capsys.readouterr().err

    def test_serve_replay_reproduces_exactly(self, tmp_path, capsys):
        status, out = self._serve_fuzz(tmp_path, "--mutation",
                                       "unfair-scheduler",
                                       "--max-failures", "1")
        assert status == 1 and out.exists()
        capsys.readouterr()
        assert main(["testkit", "replay", str(out)]) == 1
        captured = capsys.readouterr()
        assert "reproduced the recorded verdict exactly" in captured.out
        assert "DRIFT" not in captured.err
