"""Fixture-driven tests for every lint rule: exact IDs and line numbers.

The fixture tree under ``fixtures/repro/`` mirrors the package layout so
that module-relative rules (sanctioned modules, layering, acetree-only
float checks) resolve exactly as they do against ``src/repro``.
"""

import ast
import json
from pathlib import Path

import pytest

from repro.analysis import (
    RULES,
    findings_to_json,
    format_findings,
    lint_file,
    lint_paths,
)
from repro.analysis import rules
from repro.analysis.cli import run_lint
from repro.analysis.lint import SYNTAX_RULE, module_path_of

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "repro"


def lines_by_rule(findings):
    out = {}
    for f in findings:
        out.setdefault(f.rule, []).append(f.line)
    return out


class TestRegistry:
    def test_all_project_rules_registered(self):
        assert {
            "RNG001", "CLK001", "FLT001", "LAY001", "MUT001", "EXC001",
            "TST001", "HOT001", "OBS001", "OBS002", "STA001",
        } <= set(RULES)

    def test_duplicate_registration_rejected(self):
        from repro.analysis.lint import register

        with pytest.raises(ValueError):
            register("RNG001", "duplicate")(lambda ctx: [])


class TestModulePathOf:
    def test_inside_repro(self):
        assert module_path_of(Path("src/repro/core/rng.py")) == "core.rng"

    def test_fixture_tree_resolves_like_source(self):
        path = FIXTURES / "apps" / "bad_rng.py"
        assert module_path_of(path) == "apps.bad_rng"

    def test_outside_repro(self):
        assert module_path_of(Path("scripts/tool.py")) is None


class TestRng001:
    def test_every_construction_site_flagged(self):
        findings = lint_file(FIXTURES / "apps" / "bad_rng.py")
        assert lines_by_rule(findings) == {"RNG001": [10, 11, 12, 13, 14]}

    def test_message_points_at_derive(self):
        findings = lint_file(FIXTURES / "apps" / "bad_rng.py")
        assert all("derive" in f.message for f in findings)

    def test_sanctioned_module_exempt(self, tmp_path):
        target = tmp_path / "repro" / "core"
        target.mkdir(parents=True)
        path = target / "rng.py"
        path.write_text("import random\nr = random.Random(0)\n")
        assert lint_file(path) == []


class TestSta001:
    def test_every_import_site_flagged(self):
        # Line 3 (bare ``import scipy``) is fine; line 8 is suppressed.
        findings = lint_file(FIXTURES / "apps" / "bad_stats.py")
        assert lines_by_rule(findings) == {"STA001": [4, 5, 6, 7]}

    def test_message_points_at_core_stats(self):
        findings = lint_file(FIXTURES / "apps" / "bad_stats.py")
        by_line = {f.line: f.message for f in findings}
        assert by_line[4].startswith("scipy.stats used")
        assert by_line[5].startswith("scipy.special used")
        assert all("repro.core.stats" in m for m in by_line.values())

    def test_sanctioned_module_exempt(self, tmp_path):
        target = tmp_path / "repro" / "core"
        target.mkdir(parents=True)
        path = target / "stats.py"
        path.write_text("from scipy.special import chdtrc, ndtri\n")
        assert lint_file(path) == []

    def test_tests_keep_scipy_stats_as_the_reference(self, tmp_path):
        path = tmp_path / "test_reference.py"
        path.write_text("from scipy import stats\nz = stats.norm.ppf(0.975)\n")
        assert lint_file(path) == []


class TestClk001AndLay001:
    def test_clock_import_and_open_call_flagged(self):
        findings = lint_file(FIXTURES / "storage" / "bad_clock.py")
        by_rule = lines_by_rule(findings)
        assert by_rule["CLK001"] == [3, 10]

    def test_upward_import_flagged(self):
        findings = lint_file(FIXTURES / "storage" / "bad_clock.py")
        assert lines_by_rule(findings)["LAY001"] == [5]
        (lay,) = [f for f in findings if f.rule == "LAY001"]
        assert "storage" in lay.message and "bench" in lay.message


class TestFlt001:
    def test_float_equality_in_acetree_flagged(self):
        findings = lint_file(FIXTURES / "acetree" / "bad_float.py")
        assert lines_by_rule(findings) == {"FLT001": [5, 7, 9]}

    def test_rule_scoped_to_acetree(self, tmp_path):
        target = tmp_path / "repro" / "apps"
        target.mkdir(parents=True)
        path = target / "free.py"
        path.write_text("def f(x):\n    return x == 0.5\n")
        assert lint_file(path) == []


class TestMut001AndExc001:
    def test_mutable_default_and_broad_excepts(self):
        findings = lint_file(FIXTURES / "core" / "bad_generic.py")
        by_rule = lines_by_rule(findings)
        assert by_rule == {"MUT001": [4], "EXC001": [12, 19]}

    def test_broad_except_with_reraise_allowed(self):
        # Line 26 of the fixture is ``except Exception:`` + bare ``raise``.
        findings = lint_file(FIXTURES / "core" / "bad_generic.py")
        assert 26 not in [f.line for f in findings]


class TestHot001:
    def test_eager_sites_flagged_boundaries_exempt(self):
        findings = lint_file(FIXTURES / "acetree" / "query.py")
        hot = [f for f in findings if f.rule == "HOT001"]
        # Lines 5-7 materialize inside the loop; line 8 carries an allow
        # comment; ``records``/``take`` are sanctioned boundaries.
        assert [f.line for f in hot] == [5, 6, 7]
        assert all("PERFORMANCE" in f.message for f in hot)

    def test_every_listed_name_is_defined(self):
        # A name that no function in the package defines guards nothing:
        # both tables must follow renames and deletions.
        src = Path(rules.__file__).resolve().parents[1]
        defined = {
            node.name
            for path in src.rglob("*.py")
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        listed = rules._HOT_EAGER_CALLS | rules._HOT_SANCTIONED_FUNCS
        assert listed - defined == set()

    def test_rule_scoped_to_hot_modules(self, tmp_path):
        target = tmp_path / "repro" / "acetree"
        target.mkdir(parents=True)
        path = target / "build.py"
        path.write_text("def f(page):\n    return page.records\n")
        assert lint_file(path) == []


class TestTst001:
    def test_every_patch_form_flagged(self):
        findings = lint_file(FIXTURES / "tests" / "bad_disk_patch.py")
        assert lines_by_rule(findings) == {"TST001": [5, 6, 7, 11]}
        assert all("FaultyDisk" in f.message for f in findings)

    def test_rule_scoped_to_test_trees(self, tmp_path):
        # Same code outside a tests/ directory (i.e. the library itself,
        # where FaultyDisk legitimately overrides read_page) is exempt.
        target = tmp_path / "repro" / "storage"
        target.mkdir(parents=True)
        path = target / "faulty.py"
        path.write_text("def f(disk):\n    disk.read_page = None\n")
        assert lint_file(path) == []

    def test_ordinary_attribute_assignment_clean(self):
        findings = lint_file(FIXTURES / "tests" / "bad_disk_patch.py")
        assert 12 not in [f.line for f in findings]


class TestObs001:
    def test_bad_names_flagged(self):
        findings = lint_file(FIXTURES / "apps" / "bad_metrics.py")
        assert lines_by_rule(findings) == {"OBS001": [7, 9]}

    def test_messages_name_the_fix(self):
        findings = lint_file(FIXTURES / "apps" / "bad_metrics.py")
        by_line = {f.line: f.message for f in findings}
        assert "dot-namespaced" in by_line[7]
        assert "dot-namespaced" in by_line[9]

    def test_dynamic_names_exempt(self, tmp_path):
        target = tmp_path / "repro" / "apps"
        target.mkdir(parents=True)
        path = target / "dyn.py"
        path.write_text(
            "from repro.obs import METRICS\n"
            "def f(level, name):\n"
            "    METRICS.counter(f'stab.level.{level}').inc()\n"
            "    METRICS.gauge(name).set(1)\n"
        )
        assert lint_file(path) == []

    def test_non_registry_receivers_exempt(self, tmp_path):
        # PROFILE.counter() *reads* a profiler counter; only registry
        # constructors are name-checked.
        target = tmp_path / "repro" / "apps"
        target.mkdir(parents=True)
        path = target / "prof.py"
        path.write_text(
            "from repro.core.profile import PROFILE\n"
            "n = PROFILE.counter('pages')\n"
        )
        assert lint_file(path) == []


class TestObs002:
    def test_every_capture_site_flagged(self):
        findings = lint_file(FIXTURES / "apps" / "bad_cost.py")
        assert lines_by_rule(findings) == {"OBS002": [7, 8, 9, 10]}

    def test_messages_name_the_boundary(self):
        findings = lint_file(FIXTURES / "apps" / "bad_cost.py")
        by_line = {f.line: f.message for f in findings}
        assert "storage charge points" in by_line[7]
        assert "storage charge points" in by_line[8]
        assert "current_span_id" in by_line[9]
        assert "span_id=" in by_line[10]

    def test_sanctioned_modules_exempt(self, tmp_path):
        # The same calls inside a storage charge point lint clean.
        target = tmp_path / "repro" / "storage"
        target.mkdir(parents=True)
        path = target / "disk.py"
        path.write_text(
            "from repro.obs.cost import COST\n"
            "def read(stats):\n"
            "    COST.record_reads(stats)\n"
        )
        assert lint_file(path) == []

    def test_snapshot_and_reset_not_flagged(self, tmp_path):
        # Only ledger mutators are fenced; reading the accountant is fine.
        target = tmp_path / "repro" / "apps"
        target.mkdir(parents=True)
        path = target / "read_cost.py"
        path.write_text(
            "from repro.obs import COST\n"
            "def show():\n"
            "    ledger = COST.snapshot()\n"
            "    COST.reset()\n"
            "    return ledger\n"
        )
        assert lint_file(path) == []


class TestGoodFixture:
    def test_sanctioned_patterns_lint_clean(self):
        findings = lint_file(FIXTURES / "view" / "good.py")
        assert findings == [], format_findings(findings)


class TestSuppression:
    def test_allow_comment_silences_only_named_rule(self, tmp_path):
        path = tmp_path / "mixed.py"
        path.write_text(
            "import time  # repro: allow[CLK001] justified here\n"
            "import random\n"
            "r = random.Random(0)\n"
        )
        findings = lint_file(path)
        assert lines_by_rule(findings) == {"RNG001": [3]}

    def test_suppression_is_line_scoped(self, tmp_path):
        path = tmp_path / "scoped.py"
        path.write_text(
            "# repro: allow[CLK001] wrong line, must not apply below\n"
            "import time\n"
        )
        findings = lint_file(path)
        assert lines_by_rule(findings) == {"CLK001": [2]}

    def test_multiple_ids_in_one_comment(self, tmp_path):
        path = tmp_path / "multi.py"
        path.write_text(
            "import time, random  # repro: allow[CLK001, RNG001] demo\n"
        )
        assert lint_file(path) == []

    def test_suppression_covers_whole_multiline_statement(self, tmp_path):
        # Regression: the allow comment sits on the *closing* line of a
        # statement whose finding anchors on the opening line.  Suppression
        # is statement-scoped, so it must still apply.
        path = tmp_path / "repro" / "apps"
        path.mkdir(parents=True)
        target = path / "span.py"
        target.write_text(
            "import random\n"
            "r = random.Random(\n"
            "    0,\n"
            ")  # repro: allow[RNG001] seeded demo generator\n"
        )
        assert lint_file(target) == []

    def test_suppression_does_not_leak_past_statement_end(self, tmp_path):
        # The comment's statement ends on its own line; the next statement
        # must still be flagged.
        path = tmp_path / "repro" / "apps"
        path.mkdir(parents=True)
        target = path / "leak.py"
        target.write_text(
            "import random\n"
            "r = random.Random(0)  # repro: allow[RNG001] this one only\n"
            "s = random.Random(1)\n"
        )
        findings = lint_file(target)
        assert lines_by_rule(findings) == {"RNG001": [3]}


class TestOutput:
    def test_json_fields(self):
        findings = lint_file(FIXTURES / "apps" / "bad_rng.py")
        decoded = json.loads(findings_to_json(findings))
        assert len(decoded) == 5
        first = decoded[0]
        assert set(first) == {"rule", "path", "line", "col", "message"}
        assert first["rule"] == "RNG001" and first["line"] == 10

    def test_human_report_has_locations_and_summary(self):
        findings = lint_file(FIXTURES / "apps" / "bad_rng.py")
        report = format_findings(findings)
        assert "bad_rng.py:10:" in report
        assert "lint: 5 finding(s) (RNG001 x5)" in report

    def test_clean_report(self):
        assert format_findings([]) == "lint: clean"

    def test_syntax_error_becomes_finding(self, tmp_path):
        path = tmp_path / "broken.py"
        path.write_text("def broken(:\n")
        (finding,) = lint_file(path)
        assert finding.rule == SYNTAX_RULE

    def test_recursion_skips_fixture_subtrees(self):
        # Whole-tree runs (e.g. `lint --select TST001 tests`) must not
        # report the deliberately-bad fixtures; explicit paths still do.
        findings = lint_paths([FIXTURES.parent.parent])
        assert findings == [], format_findings(findings)

    def test_lint_paths_expands_directories(self):
        findings = lint_paths([FIXTURES])
        rules_seen = {f.rule for f in findings}
        assert {
            "RNG001", "CLK001", "FLT001", "LAY001", "MUT001", "EXC001",
            "TST001", "HOT001", "OBS001", "OBS002", "STA001",
        } == rules_seen


class TestCli:
    def test_findings_exit_1(self, capsys):
        assert run_lint([str(FIXTURES / "apps")]) == 1
        assert "RNG001" in capsys.readouterr().out

    def test_clean_exit_0(self, capsys):
        assert run_lint([str(FIXTURES / "view" / "good.py")]) == 0
        assert "lint: clean" in capsys.readouterr().out

    def test_missing_path_exit_2(self, capsys):
        assert run_lint(["no/such/path.py"]) == 2

    def test_json_mode(self, capsys):
        assert run_lint([str(FIXTURES / "acetree")], as_json=True) == 1
        decoded = json.loads(capsys.readouterr().out)
        assert {f["rule"] for f in decoded} == {"FLT001", "HOT001"}

    def test_select_restricts_to_named_rules(self, capsys):
        # The fixture tree trips six rules; --select TST001 sees only one.
        assert run_lint([str(FIXTURES)], select=["TST001"]) == 1
        out = capsys.readouterr().out
        assert "TST001" in out and "RNG001" not in out

    def test_select_unknown_rule_exit_2(self, capsys):
        assert run_lint([str(FIXTURES)], select=["NOPE99"]) == 2
        assert "unknown rule" in capsys.readouterr().err
