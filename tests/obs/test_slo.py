"""SLO engine: burn windows on the simulated clock, per-label tta rows."""

from __future__ import annotations

import pytest

from repro.obs.slo import (
    DEFAULT_WINDOWS,
    BurnWindow,
    Objective,
    default_objectives,
    evaluate_slos,
)


def _quality_record(timeline, labels=None):
    record = {
        "kind": "quality",
        "estimator": {"timeline": timeline, "tta": []},
    }
    if labels:
        record["labels"] = labels
    return record


def _timeline(points):
    """(clock, mean, half_width) triples -> estimator timeline dicts."""
    return [
        {"clock": clock, "n": 10, "mean": mean, "half_width": half}
        for clock, mean, half in points
    ]


class TestValidation:
    def test_window_fraction_bounds(self):
        with pytest.raises(ValueError):
            BurnWindow(0.0, 1.0)
        with pytest.raises(ValueError):
            BurnWindow(1.5, 1.0)
        with pytest.raises(ValueError):
            BurnWindow(0.5, 0.0)

    def test_objective_kind_and_required_fields(self):
        with pytest.raises(ValueError, match="unknown objective kind"):
            Objective(name="x", kind="latency")
        with pytest.raises(ValueError, match="target"):
            Objective(name="x", kind="tta")
        with pytest.raises(ValueError, match="numerator"):
            Objective(name="x", kind="ratio")
        with pytest.raises(ValueError, match="metric"):
            Objective(name="x", kind="threshold")

    def test_default_windows_escalate(self):
        fractions = [w.fraction for w in DEFAULT_WINDOWS]
        thresholds = [w.threshold for w in DEFAULT_WINDOWS]
        assert fractions == sorted(fractions, reverse=True)
        assert thresholds == sorted(thresholds)


class TestTtaBurnRate:
    def _objective(self, goal=0.5):
        return Objective(
            name="tta", kind="tta", goal=goal, target=0.05,
            windows=(BurnWindow(1.0, 1.0), BurnWindow(0.5, 1.0)),
        )

    def test_all_good_never_fires(self):
        quality = [_quality_record(_timeline(
            [(t, 100.0, 1.0) for t in (0.0, 1.0, 2.0, 3.0)]
        ))]
        (status,) = evaluate_slos([self._objective()], quality=quality)
        assert status.value == 1.0
        assert not status.firing
        assert all(not w["firing"] for w in status.windows)

    def test_fires_only_when_every_window_burns(self):
        # Bad early, good late: the long window burns, the short one does
        # not, so the alert stays quiet (transient early badness).
        early_bad = _quality_record(_timeline(
            [(0.0, 100.0, 50.0), (1.0, 100.0, 50.0),
             (2.0, 100.0, 1.0), (3.0, 100.0, 1.0)]
        ))
        (status,) = evaluate_slos(
            [self._objective(goal=0.9)], quality=[early_bad]
        )
        long_w, short_w = status.windows
        assert long_w["firing"]
        assert not short_w["firing"]
        assert not status.firing

    def test_fires_when_badness_is_recent_and_sustained(self):
        all_bad = _quality_record(_timeline(
            [(t, 100.0, 50.0) for t in (0.0, 1.0, 2.0, 3.0)]
        ))
        (status,) = evaluate_slos(
            [self._objective(goal=0.9)], quality=[all_bad]
        )
        assert status.firing
        assert all(w["firing"] for w in status.windows)

    def test_per_label_rows_plus_aggregate(self):
        good = _quality_record(
            _timeline([(0.0, 100.0, 1.0), (1.0, 100.0, 1.0)]),
            labels={"tenant": "t0"},
        )
        bad = _quality_record(
            _timeline([(0.0, 100.0, 50.0), (1.0, 100.0, 50.0)]),
            labels={"tenant": "t1"},
        )
        statuses = evaluate_slos(
            [self._objective(goal=0.9)], quality=[good, bad]
        )
        by_label = {s.labels: s for s in statuses}
        assert set(by_label) == {"", "tenant=t0", "tenant=t1"}
        assert by_label["tenant=t0"].value == 1.0
        assert by_label["tenant=t1"].firing
        assert by_label[""].value == 0.5  # aggregate mixes both streams

    def test_evaluation_is_deterministic(self):
        quality = [
            _quality_record(
                _timeline([(0.0, 100.0, 50.0), (1.0, 100.0, 1.0)]),
                labels={"tenant": f"t{i}"},
            )
            for i in range(3)
        ]
        a = [s.as_dict() for s in evaluate_slos(quality=quality)]
        b = [s.as_dict() for s in evaluate_slos(quality=quality)]
        assert a == b


class TestCounterObjectives:
    def test_ratio_fires_below_minimum(self):
        objective = Objective(
            name="hit_rate", kind="ratio", goal=0.95,
            numerator="sample_cache.hits",
            denominator=("sample_cache.hits", "sample_cache.misses"),
            minimum=0.5,
        )
        snapshot = {
            "counters": {"sample_cache.hits": 6, "sample_cache.misses": 14},
        }
        (status,) = evaluate_slos([objective], metrics=snapshot)
        assert status.labels == ""
        assert status.value == 0.3
        assert status.events == 20
        assert status.firing  # 6/20 < 0.5

    def test_ratio_with_zero_denominator_stays_quiet(self):
        objective = Objective(
            name="hit_rate", kind="ratio", goal=0.95,
            numerator="sample_cache.hits",
            denominator=("sample_cache.hits", "sample_cache.misses"),
            minimum=0.5,
        )
        (status,) = evaluate_slos([objective], metrics={"counters": {}})
        assert status.value is None
        assert not status.firing

    def test_threshold_fires_above_bound(self):
        objective = Objective(
            name="retries", kind="threshold", goal=0.99,
            metric="storage.read_retries", bound=0.0,
        )
        # A snapshot written before metrics became aggregates may carry a
        # ``labeled`` section; counter objectives read the aggregate only.
        snapshot = {
            "counters": {"storage.read_retries": 2},
            "labeled": {"counters": {
                "storage.read_retries": {"tenant=t0": 2},
            }},
        }
        (status,) = evaluate_slos([objective], metrics=snapshot)
        assert status.firing
        assert (status.labels, status.value) == ("", 2.0)


class TestDefaults:
    def test_stock_objectives_cover_all_kinds(self):
        kinds = {o.kind for o in default_objectives()}
        assert kinds == {"tta", "ratio", "threshold"}

    def test_no_inputs_evaluates_to_quiet_rows(self):
        statuses = evaluate_slos()
        assert statuses  # one row per stock objective at least
        assert not any(s.firing for s in statuses)
