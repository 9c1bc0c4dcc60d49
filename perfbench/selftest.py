"""The benchmark's self-tests: ``python3 perfbench/run.py --self-test``.

They check the benchmark rather than the program: metric names and units
agree with ``BENCHMARK.json``, the input generators are pure functions of
the seed, the traced run's wrappers come off cleanly and its self times
reconcile, the program's counts repeat exactly for a seed, and the
correctness checks catch a deliberately broken Shuttle/Combine stream.
"""

from __future__ import annotations

import importlib
import json
import re
import traceback
from time import perf_counter

import inputs
import run
import tracing
import workloads
from workloads import Agg1D, Tally, answer, exact_count

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


class _SmallAgg(Agg1D):
    """agg-1d shrunk to a 20k-record tree for quick checks."""

    records = 20_000
    fixed_queries = 40


def _small_tree(seed: int):
    workload = _SmallAgg()
    state = workload.setup(seed)
    workload.prepare(state)
    return workload, state


def test_metric_names() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for group, declared in (("end_to_end", run.END_TO_END),
                            ("per_layer", run.PER_LAYER)):
        for name, unit in declared:
            assert NAME.match(name), f"bad metric name {name!r}"
            assert UNIT.match(unit), f"bad unit {unit!r} of {name}"
        listed = [(m["name"], m["unit"]) for m in spec[group]]
        assert listed == list(declared), f"BENCHMARK.json {group} != run.py"
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names)), "metric names repeat"
    assert {w["name"] for w in spec["workloads"]} == set(
        workloads.make_workloads(run.OUT))
    for entry in spec["workloads"]:
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    for metric in spec["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25, metric
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": max(m["bound"] for m in spec["end_to_end"])} in spec["end_to_end"]


def test_generators_are_pure() -> None:
    domain = 1_000_000_000
    makers = (
        lambda seed: inputs.agg_queries(seed, 300, domain),
        lambda seed: inputs.serve_arrivals(seed, 16, 4, domain, 2.0, 0.05, 0.025),
        lambda seed: inputs.view_inserts(seed, 3, 200, domain),
        lambda seed: inputs.view_queries(seed, 3, 12, domain),
    )
    for make in makers:
        assert make(7) == make(7), "same seed, different inputs"
        assert make(7) != make(8), "different seed, same inputs"


def _bound_attributes() -> dict:
    """Every (owner, attribute) an entry point is reachable through."""
    found = {}
    for module_name, path, _kind, _name in tracing.ENTRY_POINTS:
        module = importlib.import_module(module_name)
        if "." in path:
            class_name, attr = path.split(".")
            owner = getattr(module, class_name)
            found[(id(owner), attr)] = (owner, attr, owner.__dict__[attr])
        else:
            original = module.__dict__[path]
            for binder in [module] + tracing._binders(original):
                found[(id(binder), path)] = (binder, path, original)
    return found


def test_traced_run_restores_and_reconciles() -> None:
    before = _bound_attributes()
    workload = _SmallAgg()
    tracer = tracing.SpanTracer()
    tally = Tally(tracer=tracer)
    patches = tracing.install(tracer)
    try:
        for owner, attr, original in before.values():
            assert owner.__dict__[attr] is not original, f"{attr} not wrapped"
        start = perf_counter()
        state = workload.setup(5)
        workload.prepare(state)
        workload.fixed(state, tally)
        wall = perf_counter() - start
    finally:
        wrong = patches.restore()
    assert not wrong, f"not restored: {wrong}"
    for owner, attr, original in before.values():
        assert owner.__dict__[attr] is original, f"{attr} still wrapped"
    assert not tally.failures, tally.failures
    reconciled = tracer.reconcile(wall)
    assert reconciled["ok"], reconciled
    names = {record[1] for record in tracer.records}
    for layer in ("workloads.generate", "storage.heapfile.bulk_load",
                  "storage.external_sort", "acetree.build",
                  "acetree.storage.read_leaf", "acetree.query.next",
                  "acetree.query.materialize", "storage.sample_cache",
                  "apps.online_agg"):
        assert layer in names, f"no {layer} span"
    by_id = {record[0]: record for record in tracer.records}
    for span_id, name, start, end, parent, _query in tracer.records:
        assert start <= end
        if parent is not None:
            outer = by_id[parent]
            assert outer[2] <= start and end <= outer[3], f"{name} escapes parent"
    assert any(record[5] is not None for record in tracer.records), \
        "no span carries a query id"


def test_counts_repeat_for_a_seed() -> None:
    def counts(seed):
        workload, state = _small_tree(seed)
        return workload.fixed(state, Tally())

    first = counts(3)
    assert counts(3) == first, "counts differ between runs of one seed"
    assert counts(4) != first, "a different seed gave identical counts"


def test_checks_catch_broken_combine() -> None:
    from repro.testkit.harness import BrokenCombineStream

    workload, state = _small_tree(9)
    tree = state.tree
    tree.detach_sample_cache()  # every leaf must go through the stream
    queries = inputs.agg_queries(9, 60, workloads.sale.DAY_DOMAIN)

    def failures(open_stream) -> list:
        tally = Tally()
        for query in queries:
            answer(open_stream, tree.estimate_count, query, tree.schema,
                   state.disk, exact_count(state.keys, query.lo, query.hi),
                   tally)
        return tally.failures

    good = failures(lambda box, seed: tree.sample(box, seed=seed))
    assert not good, f"checks fail a correct stream: {good[:3]}"
    broken = failures(lambda box, seed: BrokenCombineStream(tree, box, seed=seed))
    assert broken, "checks passed a stream that drops Combine cells"


TESTS = (
    test_metric_names,
    test_generators_are_pure,
    test_traced_run_restores_and_reconciles,
    test_counts_repeat_for_a_seed,
    test_checks_catch_broken_combine,
)


def main() -> int:
    failed = 0
    for test in TESTS:
        try:
            test()
        except Exception:
            failed += 1
            print(f"FAIL {test.__name__}")
            traceback.print_exc()
        else:
            print(f"ok   {test.__name__}")
    print(f"{len(TESTS) - failed}/{len(TESTS)} self-tests passed")
    return 1 if failed else 0
