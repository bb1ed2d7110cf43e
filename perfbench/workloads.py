"""The benchmark's three workloads and the passes that run them.

Every workload has a set-up, which builds scenes and goals and leaves the
caches a user would have warm, and a timed phase made of rounds of
operations. ``run_pass`` repeats the set-up, then runs rounds until a time
budget or a round count is reached. The timed phase records what the
program returned; each workload's ``check`` inspects it afterwards, so no check
runs inside the timed phase.

Calls go through module attributes (``planning.plan_task(...)``) so that a
tracer installed on those bindings sees them.
"""
from __future__ import annotations

import sys
import traceback
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from momaplan import (
    execution,
    feasibility,
    goalgen,
    grounding,
    harness,
    motion,
    planning,
    relations,
    world,
)

import checks
import speed
from tracing import Tracer

TARGET = harness.TARGET_TABLE
PLAN_SEED = 42  # the plans re-planned and replayed, for every --seed (see PlanAndReplay)


class Round(NamedTuple):
    seconds: float
    operations: int
    executions: int
    execution_seconds: float  # inside execute_plan
    slowdown: float  # the host's, sampled right after the round; 1.0 unsampled


@dataclass
class Log:
    """What one pass observed, for metrics and for the checks."""

    phase: str = "setup"
    ops: int = 0
    tag: object = None  # the operation in progress, for captured calls
    failed: dict[int, list[str]] = field(default_factory=dict)  # op -> problems
    round: int = -1  # the timed round in progress
    setup_seconds: list[float] = field(default_factory=list)
    setup_slowdowns: list[float] = field(default_factory=list)
    timed_seconds: float = 0.0
    rounds: list[Round] = field(default_factory=list)
    # (phase, tag, milliseconds, plan, call args, round) per plan_task call
    plans: list[tuple] = field(default_factory=list)
    executions: int = 0
    execution_seconds: float = 0.0
    # (tag, scene, plan, result) per execute_plan call, kept only when the
    # workload calls execute_plan indirectly and needs the results
    captured_runs: list[tuple] = field(default_factory=list)
    keep_runs: bool = False
    records: list = field(default_factory=list)

    def begin(self, tag) -> int:
        op = self.ops
        self.ops += 1
        self.tag = (op, tag)
        return op

    def fail(self, op: int, problems: list[str]) -> None:
        if problems:
            self.failed.setdefault(op, []).extend(problems)

    def on_plan(self, plan, args, kwargs, seconds) -> None:
        self.plans.append((self.phase, self.tag, seconds * 1e3, plan, args, self.round))

    def on_execute(self, result, args, kwargs, seconds) -> None:
        self.executions += 1
        self.execution_seconds += seconds
        if self.keep_runs:
            self.captured_runs.append((self.tag, args[0], args[1], result))


def install_end_to_end(tracer: Tracer, log: Log) -> None:
    """The two timers every pass needs: plan latency and execution time."""
    tracer.time_function(planning, "plan_task", log.on_plan)
    tracer.time_function(execution, "execute_plan", log.on_execute)


def install_layers(tracer: Tracer, log: Log) -> None:
    """Spans at every layer boundary plus counters on hot, cheap calls."""

    def on_plan(plan, args, kwargs, seconds):
        log.on_plan(plan, args, kwargs, seconds)
        tracer.add("planning.candidates", plan.candidates_evaluated)

    def on_execute(result, args, kwargs, seconds):
        log.on_execute(result, args, kwargs, seconds)
        tracer.add("execution.successes", int(result.success))

    def on_grounding(result, args, kwargs, seconds):
        tracer.add("grounding.configurations", len(result.configurations))

    tracer.span_function("planning.plan_task", planning, "plan_task", on_result=on_plan)
    tracer.span_function("execution.execute_plan", execution, "execute_plan", on_result=on_execute)
    tracer.span_function("execution.verify_goal", execution, "verify_goal")
    tracer.span_function("execution.relation_satisfaction", execution, "relation_satisfaction")
    tracer.span_function("harness.run_trial", harness, "run_trial")
    tracer.span_function("goalgen.generate_goal", goalgen, "generate_goal")
    tracer.count_method("goalgen.backend_calls", goalgen.ScriptedBackend, "complete")
    tracer.span_function("relations.check_consistency", relations, "check_consistency")
    tracer.span_function("grounding.sample_configurations", grounding, "sample_configurations",
                         on_result=on_grounding)
    tracer.span_function("feasibility.compute_feasibility_map", feasibility,
                         "compute_feasibility_map")
    tracer.span_function("feasibility.trial_outcomes", feasibility, "trial_outcomes")
    tracer.span_function("feasibility.task_feasibility", feasibility, "task_feasibility")
    tracer.count_method("motion.cost_field", motion.Navigator, "cost_field")
    tracer.span_function("motion.dijkstra", motion, "dijkstra")
    tracer.span_method("motion.astar", motion.Navigator, "astar")
    tracer.span_method("motion.navigator", motion.Navigator, "__init__")
    tracer.count_method("world.solid_rects", world.SceneState, "solid_rects")
    tracer.count_method("world.cell_centers", world.SymbolicLocation, "cell_centers")


def run_pass(workload, seed: int, log: Log, tracer: Tracer, setups: int,
             seconds: float | None = None, rounds: int | None = None,
             min_setup_seconds: float = 0.0, sample_speed: bool = False):
    """Set up ``setups`` times and until ``min_setup_seconds`` have been spent
    setting up (each time from scratch), then run the timed phase
    on the last set-up: whole rounds until ``seconds`` have passed, or
    exactly ``rounds`` rounds. With ``sample_speed``, the host's slowdown is
    sampled after each set-up and each round, outside their times. Returns
    the last set-up's state."""
    state = None
    while len(log.setup_seconds) < setups or sum(log.setup_seconds) < min_setup_seconds:
        tracer.phase = log.phase = "setup"
        start = perf_counter()
        state = workload.setup(seed)
        log.setup_seconds.append(perf_counter() - start)
        log.setup_slowdowns.append(
            speed.slowdown(log.setup_seconds[-1]) if sample_speed else 1.0)
    tracer.phase = log.phase = "timed"
    start = perf_counter()
    k = 0
    while True:
        log.round = k
        before = (perf_counter(), log.ops, log.executions, log.execution_seconds)
        workload.round(state, k, log)
        took = perf_counter() - before[0]
        log.timed_seconds += took
        log.rounds.append(Round(took, log.ops - before[1], log.executions - before[2],
                                log.execution_seconds - before[3],
                                speed.slowdown(took) if sample_speed else 1.0))
        k += 1
        elapsed = perf_counter() - start
        if (rounds is not None and k >= rounds) or (rounds is None and elapsed >= seconds):
            break
    log.tag = None
    log.round = -1
    return state


def _guarded(log: Log, op: int, call):
    """Run one operation; an exception counts it as failed."""
    try:
        return call()
    except Exception as exc:  # an operation that raises is a failed operation
        traceback.print_exc(file=sys.stderr)
        log.fail(op, [f"raised {type(exc).__name__}: {exc}"])
        return None


def _goal(task: int):
    return goalgen.generate_goal(list(harness.TASK_OBJECTS[task]),
                                 harness.scripted_backend_for_task(task))


def _ground(scene, goal, rng, configurations: int):
    radii = {o.id: o.footprint_radius for o in scene.objects}
    return grounding.sample_configurations(
        goal, radii, scene.table(TARGET).half_extents, rng,
        grounding.GroundingParams(configurations=configurations),
    )


def _verify(scene, goal, result) -> tuple[bool, float]:
    table = scene.table(TARGET)
    verified = result.success and execution.verify_goal(
        table, goal.atoms, result.final_positions, result.final_layers)
    satisfaction = execution.relation_satisfaction(
        table, goal.atoms, result.final_positions, result.final_layers)
    return verified, satisfaction


def _share(flags) -> float:
    flags = list(flags)
    return sum(flags) / len(flags) if flags else 0.0


class Experiment:
    """``harness.run_trial`` for every system, round robin, on task 1 easy
    with three grounded configurations (the comparative experiment's
    set-up). Each round is one trial index for all four systems."""

    name = "experiment_t1_easy"
    keep_runs = True
    setups = 3
    rounds_per_trace_second = 0.2

    def setup(self, seed: int):
        scene = harness.make_scene(1, "easy", seed)
        goal = _goal(1)
        motion.navigator_for(scene)
        config = harness.ExperimentConfig(task=1, environment="easy", seed=seed, configurations=3)
        return SimpleNamespace(scene=scene, goal=goal, config=config)

    def round(self, state, k: int, log: Log) -> None:
        for system in harness.SYSTEMS:
            op = log.begin(system)
            record = _guarded(log, op, lambda: harness.run_trial(
                state.scene, system, state.goal, state.config, k))
            if record is not None:
                log.records.append((op, system, record))

    def plan_samples(self, log: Log) -> list[tuple[float, int]]:
        return [(ms, k) for phase, tag, ms, _, _, k in log.plans
                if phase == "timed" and tag[1] == "llm_grop"]

    def utilities(self, state, log: Log) -> list[float]:
        return [r.planned_utility for _, system, r in log.records
                if system == "llm_grop" and r.planned_utility is not None]

    def check(self, state, log: Log) -> None:
        for phase, tag, _, plan, args, _ in log.plans:
            if phase == "timed":
                log.fail(tag[0], checks.plan_problems(plan, args[3]))
        for tag, scene, plan, result in log.captured_runs:
            log.fail(tag[0], checks.path_problems(scene, plan))
            log.fail(tag[0], checks.execution_problems(plan, result.success, result.executed_cost))
        for op, _, record in log.records:
            log.fail(op, checks.verification_problems(record.verified, record.satisfaction))

    def quality(self, state, log: Log) -> dict[str, float]:
        llm = [r for _, system, r in log.records if system == "llm_grop"]
        gaps = []
        for system in ("llm_grop", "grop"):
            rows = [r for _, s, r in log.records if s == system and r.planned_feasibility is not None]
            if rows:
                gaps.append(abs(np.mean([r.planned_feasibility for r in rows])
                                - _share(r.completed for r in rows)))
        return {
            "success_rate": _share(r.verified for r in llm),
            "calib_gap.max": max(gaps, default=0.0),
        }


@dataclass
class _Point:
    scene: object
    goal: object
    configurations: list
    params: feasibility.FeasibilityParams


class PlanAndReplay:
    """Re-planning with a warm map cache, then noisy replays of each plan.

    The set-up grounds every (task, environment, arrival sigma) point and
    plans it once with a cold cache. Each timed round re-plans every point
    with a new standing-draw seed, so every map request hits the cache, and
    replays the new plan ``replays`` times. One re-plan with its replays is
    one operation.

    ``PLAN_SEED`` fixes the scenes, grounding draws and standing draws, and
    so the plans, instead of taking them from ``--seed``, which then draws
    only the arrival noise. A replay stops at its first failure, so replay
    time follows the plans' success rates, which differ by half between the
    groundings of different seeds; fixed plans keep the replay rate
    comparable across seeds.
    """

    keep_runs = False

    def __init__(self, name: str, points, configurations: int, replays: int,
                 setups: int, rounds_per_trace_second: float):
        self.name = name
        self.points = points
        self.configurations = configurations
        self.replays = replays
        self.setups = setups
        self.rounds_per_trace_second = rounds_per_trace_second

    def setup(self, seed: int):
        points = []
        for index, (task, environment, sigma) in enumerate(self.points):
            scene = harness.make_scene(task, environment, PLAN_SEED)
            goal = _goal(task)
            grounded = _ground(scene, goal, np.random.default_rng((PLAN_SEED, index)),
                               self.configurations)
            params = feasibility.FeasibilityParams(nav_sigma_xy=sigma)
            planning.plan_task(scene, TARGET, grounded.configurations, goal.atoms,
                               planning.PlanningParams(feasibility=params, stand_seed=0))
            points.append(_Point(scene, goal, grounded.configurations, params))
        return SimpleNamespace(points=points, seed=seed)

    def round(self, state, k: int, log: Log) -> None:
        for index, point in enumerate(state.points):
            op = log.begin(index)

            def replan():
                params = planning.PlanningParams(feasibility=point.params,
                                                 stand_seed=(PLAN_SEED << 20) + k + 1)
                plan = planning.plan_task(point.scene, TARGET, point.configurations,
                                          point.goal.atoms, params)
                rng = np.random.default_rng((state.seed, k, index))
                outcomes = Counter()
                for _ in range(self.replays):
                    result = execution.execute_plan(point.scene, plan, rng, point.params)
                    outcomes[(result.success, result.executed_cost,
                              *_verify(point.scene, point.goal, result))] += 1
                return plan, outcomes

            done = _guarded(log, op, replan)
            if done is not None:
                log.records.append((op, index, *done))

    def plan_samples(self, log: Log) -> list[tuple[float, int]]:
        return [(ms, k) for phase, _, ms, _, _, k in log.plans if phase == "timed"]

    def utilities(self, state, log: Log) -> list[float]:
        return [plan.utility for _, _, plan, _ in log.records]

    def check(self, state, log: Log) -> None:
        for op, index, plan, outcomes in log.records:
            point = state.points[index]
            log.fail(op, checks.plan_problems(plan, point.goal.atoms))
            log.fail(op, checks.path_problems(point.scene, plan))
            for outcome in outcomes:
                log.fail(op, checks.run_problems(plan, *outcome))

    def quality(self, state, log: Log) -> dict[str, float]:
        def share(position: int, records) -> float:
            runs = sum(n for *_, outcomes in records for n in outcomes.values())
            hits = sum(n for *_, outcomes in records for key, n in outcomes.items() if key[position])
            return hits / runs if runs else 0.0

        gaps = []
        for index in range(len(self.points)):
            mine = [r for r in log.records if r[1] == index]
            if mine:
                planned = np.mean([plan.feasibility for _, _, plan, _ in mine])
                gaps.append(abs(planned - share(0, mine)))
        return {"success_rate": share(2, log.records), "calib_gap.max": max(gaps, default=0.0)}


WORKLOADS = {w.name: w for w in (
    Experiment(),
    # Every call walks the 500-candidate cap over ten configurations.
    PlanAndReplay("replan_t8_chair_top", ((8, "chair_top", 0.01),), configurations=10,
                  replays=10, setups=3, rounds_per_trace_second=1.0),
    # Replays dominate; planned F is compared with success at three noise levels.
    PlanAndReplay("calibrate_sigma",
                  ((1, "easy", 0.01), (8, "chair_top", 0.05), (9, "chair_bottom", 0.08)),
                  configurations=1, replays=1000, setups=5, rounds_per_trace_second=0.25),
)}
