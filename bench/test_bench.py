"""Tests of the benchmark itself: reference checks, failure counting and tracing."""

import json
import sys
import types

import pytest

import run
from spantrace import Tracer

sys.path.insert(0, str(run.SRC))
import workloads  # noqa: E402  (needs src on the path)


def _one_task(workload, name):
    workload.tasks = [t for t in workload.tasks if t.name == name]
    return workload


@pytest.fixture
def fixtures_workload(tmp_path):
    return workloads.build("exact-fixtures", run.ROOT, 0, tmp_path)


def test_corrupted_reference_coefficient_is_wrong(fixtures_workload):
    workload = _one_task(fixtures_workload, "readme:charpoly-oracle")
    reference = workloads.load_reference()
    clean = run.Outcome()
    run.run_pass(workload, workload.expected_views(reference), 0, clean, None)
    assert (clean.attempted, clean.failed, clean.wrong) == (1, 0, 0)

    terms = reference["readme:charpoly-oracle"]["charpoly"]["coeffs"][1]["terms"]
    terms[0]["c"] = str(int(terms[0]["c"]) + 1)
    corrupted = run.Outcome()
    run.run_pass(workload, workload.expected_views(reference), 0, corrupted, None)
    assert (corrupted.attempted, corrupted.failed, corrupted.wrong) == (1, 0, 1)


def test_raising_task_counts_as_failed():
    def boom(seed):
        raise ValueError("task failure")

    tasks = [
        workloads.Task("raises", run=boom, view=lambda r: r),
        workloads.Task("fine", run=lambda seed: 7, view=lambda r: r),
    ]
    workload = workloads.Workload("fake", tasks, det_argv=[])
    outcome = run.measure(workload, {"raises": None, "fine": 7}, seconds=0, seed=0)
    assert (outcome.attempted, outcome.failed, outcome.wrong) == (2, 1, 0)
    assert len(outcome.passes) == 1


@pytest.mark.parametrize("seed_per_pass, seeds", [(True, [5, 1005, 2005]), (False, [5, 5, 5])])
def test_passes_draw_their_seeds_from_the_run_seed(seed_per_pass, seeds):
    seen = []
    tasks = [workloads.Task("record", run=seen.append, view=lambda r: None)]
    workload = workloads.Workload("fake", tasks, det_argv=[], seed_per_pass=seed_per_pass)
    outcome = run.measure(workload, {"record": None}, seconds=0, seed=5, min_passes=3)
    assert seen == seeds
    assert (len(outcome.passes), outcome.failed, outcome.wrong) == (3, 0, 0)


def test_nested_self_times_add_up_to_the_parent_total():
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])
    lib = types.ModuleType("lib")
    user = types.ModuleType("user")

    def leaf():
        now[0] += 1.0

    def mid():
        now[0] += 2.0
        user.leaf()
        now[0] += 0.5
        user.leaf()

    def top():
        lib.mid()
        now[0] += 3.0

    lib.leaf, lib.mid, lib.top = leaf, mid, top
    user.leaf = leaf  # a `from lib import leaf` binding
    tracer.install([lib, user], [(lib, "leaf", None), (lib, "mid", None), (lib, "top", None)])
    try:
        lib.top()
    finally:
        tracer.uninstall()
    stats = tracer.summary()
    assert stats["lib.leaf"].calls == 2
    assert stats["lib.leaf"].self_s == 2.0
    assert stats["lib.mid"].self_s == 2.5
    assert stats["lib.top"].self_s == 3.0
    assert stats["lib.top"].total_s == 7.5
    assert sum(s.self_s for s in tracer.spans) == stats["lib.top"].total_s
    assert (lib.leaf, lib.mid, lib.top, user.leaf) == (leaf, mid, top, leaf)


def _cnull_functions():
    return {
        (name, attr): value
        for name, module in sys.modules.items()
        if name == "cnull" or name.startswith("cnull.")
        for attr, value in vars(module).items()
        if callable(value)
    }


def test_wrappers_are_removed_after_a_traced_run(fixtures_workload):
    from cnull import charpoly, numroots

    workload = _one_task(fixtures_workload, "readme:charpoly-oracle")
    expected = workload.expected_views(workloads.load_reference())
    before = _cnull_functions()
    tracer = Tracer()
    outcome = run.measure(workload, expected, 0, 0, tracer, *run.trace_targets())
    assert (len(outcome.passes), len(outcome.traced_passes), outcome.failed, outcome.wrong) == (1, 1, 0, 0)
    assert any(s.name == "charpoly.build_charpoly" for s in tracer.spans)
    after = _cnull_functions()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert charpoly.roots_from_coeffs is numroots.roots_from_coeffs

    metrics = run.layer_metrics(tracer, outcome)
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert sorted(metrics) == sorted(m["name"] for m in spec["per_layer"])
    assert sorted(run.END_TO_END_UNITS) == sorted(m["name"] for m in spec["end_to_end"])
    assert metrics["charpoly.fiber_solves_per_node"] == 2.0
