"""Noise-aware benchmark regression comparison (``repro.obs.regress``)."""

from __future__ import annotations

import pytest

from repro.obs import RegressionReport, compare_benchmarks, render_diff
from repro.obs.regress import classify, flatten_metrics


def _tree(**overrides):
    """A small bench-result tree; overrides patch leaf values by dotted path."""
    tree = {
        "meta": {"n_records": 20000, "python": "3.11.0"},
        "codec": {
            "record_size_bytes": 100,
            "pack_many_mb_per_s": 500.0,
        },
        "external_sort": {
            "sim_seconds": 1.25,
            "page_reads": 610,
            "key_field_seconds": 0.010,
        },
        "ace_query": {
            "sim_seconds_to_first_k": 0.031,
            "leaves_read": 17,
            "samples_per_s": 15000.0,
        },
    }
    for path, value in overrides.items():
        node = tree
        *parents, leaf = path.split(".")
        for key in parents:
            node = node.setdefault(key, {})
        node[leaf] = value
    return tree


class TestClassification:
    @pytest.mark.parametrize("path,kind", [
        ("external_sort.sim_seconds", "exact"),
        ("ace_query.sim_seconds_to_first_k", "exact"),
        ("ace_query.leaves_read", "exact"),
        ("external_sort.page_reads", "exact"),
        ("codec.record_size_bytes", "exact"),
        ("figure_sim.fig12.pct_at_2.ace_tree", "exact"),
        ("codec.pack_many_mb_per_s", "higher_better"),
        ("external_sort.key_field_seconds", "lower_better"),
        ("span_overhead.noop_ns_per_span", "lower_better"),
        # Rows only older committed baselines carry: the label overhead
        # section and the drop counter measured a cardinality cap that no
        # longer exists, so none of them gates.
        ("obs_label_overhead.unlabeled_ns_per_inc", "lower_better"),
        ("obs_label_overhead.labeled_ns_per_inc", "lower_better"),
        ("obs_label_overhead.labeled_overhead_ratio", "unclassified"),
        ("obs_label_overhead.dropped_label_sets", "unclassified"),
        ("obs_label_overhead.cap_fallback_ok", "unclassified"),
        ("metrics.counters.obs.metrics.dropped_label_sets", "ignore"),
        ("meta.n_records", "ignore"),
        ("profile.ace_build.phase1", "ignore"),
        ("metrics.counters.buffer.hit", "ignore"),
    ])
    def test_default_rules(self, path, kind):
        assert classify(path) == kind

    def test_flatten_skips_strings_and_bools(self):
        flat = flatten_metrics({"a": {"b": 1, "s": "x", "t": True}, "c": 2.5})
        assert flat == {"a.b": 1, "c": 2.5}


class TestCompare:
    def test_identical_trees_are_ok(self):
        report = compare_benchmarks(_tree(), _tree())
        assert report.status == "ok"
        assert report.exit_code() == 0
        assert report.deterministic_failures == []

    def test_exact_drift_gates(self):
        current = _tree(**{"external_sort.sim_seconds": 1.2500001})
        report = compare_benchmarks(_tree(), current)
        assert report.status == "deterministic-regression"
        assert report.exit_code() == 1
        (row,) = report.deterministic_failures
        assert row.path == "external_sort.sim_seconds"

    def test_wall_noise_within_tolerance_is_ok(self):
        current = _tree(**{"codec.pack_many_mb_per_s": 450.0})  # -10%
        report = compare_benchmarks(_tree(), current, tolerance=0.25)
        assert report.status == "ok"

    def test_wall_regression_is_advisory_only(self):
        current = _tree(**{"codec.pack_many_mb_per_s": 300.0})  # -40%
        report = compare_benchmarks(_tree(), current, tolerance=0.25)
        assert report.status == "advisory-regression"
        assert report.exit_code() == 0  # never gates CI
        (row,) = report.advisory_regressions
        assert row.path == "codec.pack_many_mb_per_s"

    def test_lower_better_direction(self):
        faster = _tree(**{"external_sort.key_field_seconds": 0.005})
        report = compare_benchmarks(_tree(), faster, tolerance=0.25)
        assert [r.path for r in report.improvements] == [
            "external_sort.key_field_seconds"
        ]
        slower = _tree(**{"external_sort.key_field_seconds": 0.020})
        assert compare_benchmarks(
            _tree(), slower, tolerance=0.25
        ).status == "advisory-regression"

    def test_missing_exact_metric_gates(self):
        current = _tree()
        del current["ace_query"]["leaves_read"]
        report = compare_benchmarks(_tree(), current)
        assert report.exit_code() == 1
        (row,) = report.deterministic_failures
        assert row.path == "ace_query.leaves_read"
        assert row.status == "missing"

    def test_new_metric_never_gates(self):
        current = _tree(**{"figure_sim.fig12.pct_at_2.ace_tree": 3.5})
        report = compare_benchmarks(_tree(), current)
        assert report.status == "ok"
        assert any(row.status == "new" for row in report.rows)

    def test_config_mismatch_is_an_error_not_a_regression(self):
        current = _tree(**{"meta.n_records": 40000})
        report = compare_benchmarks(_tree(), current)
        assert report.status == "config-mismatch"
        assert report.exit_code() == 2
        assert "n_records" in report.config_errors[0]

    def test_verdict_is_machine_readable(self):
        current = _tree(**{
            "external_sort.sim_seconds": 1.3,
            "codec.pack_many_mb_per_s": 300.0,
        })
        verdict = compare_benchmarks(_tree(), current).verdict()
        assert verdict["status"] == "deterministic-regression"
        assert len(verdict["deterministic_failures"]) == 1
        assert len(verdict["advisory_regressions"]) == 1
        assert verdict["compared"] > 0
        assert verdict["v"] == 1


class TestRenderDiff:
    def test_table_orders_regressions_first(self):
        current = _tree(**{
            "external_sort.sim_seconds": 1.3,
            "external_sort.key_field_seconds": 0.005,
        })
        text = render_diff(compare_benchmarks(_tree(), current))
        assert "deterministic-regression" in text
        lines = text.splitlines()
        sim_line = next(i for i, l in enumerate(lines) if "sim_seconds" in l)
        improved_line = next(
            i for i, l in enumerate(lines) if "key_field_seconds" in l
        )
        assert sim_line < improved_line
        assert "REGRESSED" in lines[sim_line]
        assert "1 deterministic failure(s)" in text

    def test_clean_diff_says_so(self):
        text = render_diff(compare_benchmarks(_tree(), _tree()))
        assert "no differences outside tolerance" in text

    def test_empty_report_renders(self):
        assert "ok" in render_diff(RegressionReport())
