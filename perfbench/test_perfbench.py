"""Tests of the benchmark itself: the counts that must repeat exactly, the
span accounting, the output checks and the result format."""
import dataclasses
import json
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest

import checks
import run
import speed
from momaplan import execution, harness, motion, planning
from tracing import Tracer
from workloads import WORKLOADS, Log, Round, install_layers

HERE = Path(__file__).resolve().parent
SEED = 42


def _traced_rounds(workload, rounds: int):
    """One traced set-up, then each round in its own phase ``round<k>``."""
    log = Log(keep_runs=workload.keep_runs)
    with Tracer() as tracer:
        install_layers(tracer, log)
        state = workload.setup(SEED)
        walls = []
        for k in range(rounds):
            tracer.phase = log.phase = f"round{k}"
            start = perf_counter()
            workload.round(state, k, log)
            walls.append(perf_counter() - start)
    return tracer, log, state, walls


@pytest.fixture(scope="module")
def replan():
    return _traced_rounds(WORKLOADS["replan_t8_chair_top"], 2)


def test_replan_counts_per_call_are_exact(replan):
    tracer, log, _, _ = replan
    for k in range(2):
        phase = f"round{k}"
        stats = tracer.stats(phase)
        assert stats["planning.plan_task"].calls == 1
        assert stats["feasibility.compute_feasibility_map"].calls == 200
        assert "feasibility.trial_outcomes" not in stats  # every map is cached
        assert stats["feasibility.task_feasibility"].calls == 200
        assert tracer.counts[(phase, "planning.candidates")] == 5000
    # The cold set-up plan computes the maps: the mug lid stacks on the mug
    # and shares its unload point, so 40 of its 200 requests already hit.
    setup = tracer.stats("setup")
    assert setup["feasibility.compute_feasibility_map"].calls == 200
    assert setup["feasibility.trial_outcomes"].calls == 160


@pytest.mark.parametrize("name", ["experiment_t1_easy", "calibrate_sigma"])
def test_other_workloads_dominant_layer(name):
    workload = WORKLOADS[name]
    tracer, log, state, walls = _traced_rounds(workload, 1)
    stats = tracer.stats("round0")
    if name == "experiment_t1_easy":
        dominant = stats["feasibility.trial_outcomes"].seconds
    else:
        dominant = sum(st.self_seconds for n, st in stats.items() if n.startswith("execution."))
    assert dominant > 0.5 * walls[0]
    workload.check(state, log)
    assert not log.failed


def test_replan_dominant_layers(replan):
    tracer, _, _, walls = replan
    for k, wall in enumerate(walls):
        stats = tracer.stats(f"round{k}")
        search = (stats["planning.plan_task"].self_seconds
                  + sum(st.seconds for n, st in stats.items() if n.startswith("motion."))
                  + stats["feasibility.task_feasibility"].seconds)
        assert search > 0.5 * wall


def test_self_times_cover_traced_wall_time(replan):
    tracer, _, _, walls = replan
    for k, wall in enumerate(walls):
        phase = f"round{k}"
        self_total = sum(st.self_seconds for st in tracer.stats(phase).values())
        assert self_total == pytest.approx(tracer.root_seconds(phase), rel=1e-9)
        assert 0.9 * wall <= self_total <= wall


def test_tracer_restores_every_binding(replan):
    assert harness.plan_task is planning.plan_task
    assert harness.execute_plan is execution.execute_plan
    assert planning.plan_task.__module__ == "momaplan.planning"
    assert motion.Navigator.astar.__qualname__ == "Navigator.astar"
    assert motion.dijkstra.__name__ == "dijkstra"


def test_checks_reject_wrong_outputs(replan):
    _, log, state, _ = replan
    plan = log.records[0][2]
    point = state.points[0]
    assert checks.plan_problems(plan, point.goal.atoms) == []
    assert checks.path_problems(point.scene, plan) == []
    assert checks.execution_problems(plan, True, plan.cost) == []

    assert checks.plan_problems(dataclasses.replace(plan, utility=plan.utility + 0.01),
                                point.goal.atoms)
    assert checks.plan_problems(dataclasses.replace(plan, order=plan.order[::-1]),
                                point.goal.atoms)
    assert checks.execution_problems(plan, True, plan.cost + 1e-6)
    assert checks.verification_problems(True, 0.75)

    nav = motion.navigator_for(point.scene)
    step = plan.steps[0]
    blocked = tuple(int(i) for i in np.argwhere(nav.blocked)[0])
    cells = (*step.path_to_unload.cells[:-1], blocked, step.path_to_unload.cells[-1])
    bad_path = dataclasses.replace(step.path_to_unload, cells=cells)
    bad_step = dataclasses.replace(step, path_to_unload=bad_path)
    bad_plan = dataclasses.replace(plan, steps=[bad_step, *plan.steps[1:]])
    assert checks.path_problems(point.scene, bad_plan)


def test_benchmark_json_lists_what_the_runner_prints(replan):
    tracer, log, _, _ = replan
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [name for name, _, _ in run.END_TO_END]
    log.timed_seconds = 1.0
    log.setup_seconds.append(1.0)
    printed = list(run.layer_metrics(tracer, log, log)) + ["success_rate", "calib_gap.max",
                                                           "error_rate"]
    assert [m["name"] for m in spec["per_layer"]] == printed
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: run.layer_unit(name) for name in printed}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_slowdown_runs_the_kernel_at_least_min_runs_times(monkeypatch):
    runs = []
    monkeypatch.setattr(speed, "kernel", lambda: runs.append(1))
    assert speed.slowdown(0.0) > 0
    assert len(runs) == speed.MIN_RUNS


def test_end_to_end_metrics_are_scaled_by_each_phase_slowdown():
    workload = WORKLOADS["replan_t8_chair_top"]
    log = Log(setup_seconds=[2.0, 4.0, 9.0], setup_slowdowns=[2.0, 2.0, 3.0])
    # A round on a host twice as slow as the reference, then one at it.
    log.rounds = [Round(2.0, 1, 10, 1.0, 2.0), Round(1.0, 1, 10, 0.5, 1.0)]
    log.plans = [("timed", (0, 0), 300.0, None, None, 0),
                 ("timed", (1, 0), 150.0, None, None, 1)]
    scaled, measured = run.end_to_end_metrics(workload, None, log)
    assert measured["setup_s"] == 4.0 and scaled["setup_s"] == 2.0
    assert measured["trials_per_s"] == pytest.approx(2 / 3.0)
    assert scaled["trials_per_s"] == pytest.approx(2 / 2.0)
    assert measured["executions_per_s"] == pytest.approx(20 / 1.5)
    assert scaled["executions_per_s"] == pytest.approx(20 / 1.0)
    assert measured["plan_ms.p50"] == pytest.approx(225.0)
    assert scaled["plan_ms.p50"] == pytest.approx(150.0)


def test_runner_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text((HERE.parent / "BENCHMARK.json").read_text())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "replan_t8_chair_top",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout.strip() == ""
