import dataclasses
import functools
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from momaplan import execution, harness
from momaplan.execution import (
    MANIPULATION,
    NAVIGATION,
    VERIFY_TOL,
    _reach_clear,
    execute_plan,
    relation_satisfaction,
    verify_goal,
)
from momaplan.feasibility import FeasibilityParams
from momaplan.geometry import segment_rect_distance
from momaplan.goalgen import generate_goal
from momaplan.grounding import GroundingParams, sample_configurations
from momaplan.harness import (
    ENVIRONMENTS,
    OBJECT_CATALOG,
    TASK_OBJECTS,
    ExperimentConfig,
    make_scene,
    scripted_backend_for_task,
)
from momaplan.motion import robot_collides
from momaplan.planning import PlanningParams, plan_task
from momaplan.relations import ALIGNMENT_TOL, RELATION_NAMES, PlacementAtom, satisfied_atoms
from momaplan.world import TableSpec

from oracles import execute_plan_block_draw, metric_atom_holds, plan_success_probability

RADII = {name: spec[0] for name, spec in OBJECT_CATALOG.items()}

FAST_FEA = FeasibilityParams(trials_per_cell=3)


@pytest.fixture(scope="module")
def plan1(goal1):
    scene = make_scene(1, "easy", seed=42)
    table = scene.table("dining")
    configs = sample_configurations(
        goal1,
        RADII,
        table.half_extents,
        np.random.default_rng(0),
        GroundingParams(configurations=3),
    ).configurations
    plan = plan_task(scene, "dining", configs, goal1.atoms, PlanningParams(feasibility=FAST_FEA))
    return scene, plan


def _run_until_success(scene, plan, params=FAST_FEA, tries=50):
    for seed in range(tries):
        result = execute_plan(scene, plan, np.random.default_rng(seed), params)
        if result.success:
            return result
    raise AssertionError(f"no successful run in {tries} tries")


def test_successful_run_costs_exactly_the_plan(plan1):
    scene, plan = plan1
    seed = next(s for s in range(50)
                if execute_plan(scene, plan, np.random.default_rng(s), FAST_FEA).success)
    rng = np.random.default_rng(seed)
    result = execute_plan(scene, plan, rng, FAST_FEA)
    assert result.executed_cost == pytest.approx(plan.cost)
    assert result.objects_delivered == len(plan.steps)
    assert result.failure_kind is None
    assert result.failed_object is None
    assert result.success and result.failed_stage is None
    # Two standard normals per arrival, two arrivals per step.
    ref = np.random.default_rng(seed)
    ref.standard_normal(4 * len(plan.steps))
    assert rng.bit_generator.state == ref.bit_generator.state


def test_delivered_objects_land_exactly_on_target(plan1):
    scene, plan = plan1
    result = _run_until_success(scene, plan)
    for step in plan.steps:
        assert result.final_positions[step.object_id] == step.target_world
        assert result.final_layers[step.object_id] == step.target_layer


def test_successful_run_verifies_goal(plan1, goal1):
    scene, plan = plan1
    result = _run_until_success(scene, plan)
    table = scene.table("dining")
    assert verify_goal(table, goal1.atoms, result.final_positions, result.final_layers)
    assert relation_satisfaction(
        table, goal1.atoms, result.final_positions, result.final_layers
    ) == 1.0


def test_successful_runs_verify_goal_in_bulk(plan1, goal1):
    """Placement on success is exact, so goal verification should hold for
    essentially every successful run, not just a lucky one."""
    scene, plan = plan1
    table = scene.table("dining")
    successes = 0
    verified = 0
    for seed in range(100):
        result = execute_plan(scene, plan, np.random.default_rng(seed), FAST_FEA)
        if not result.success:
            continue
        successes += 1
        if verify_goal(table, goal1.atoms, result.final_positions, result.final_layers):
            verified += 1
    assert successes >= 30
    assert verified >= 0.95 * successes


def test_execution_is_deterministic_per_seed(plan1):
    scene, plan = plan1
    a = execute_plan(scene, plan, np.random.default_rng(5), FAST_FEA)
    b = execute_plan(scene, plan, np.random.default_rng(5), FAST_FEA)
    assert a == b


def test_huge_arrival_noise_fails_navigation(plan1):
    scene, plan = plan1
    params = FeasibilityParams(nav_sigma_xy=1.5)
    outcomes = [
        execute_plan(scene, plan, np.random.default_rng(s), params) for s in range(30)
    ]
    failures = [r for r in outcomes if not r.success]
    assert failures, "1.5 m arrival noise should sink most runs"
    assert any(r.failure_kind == NAVIGATION for r in failures)
    for r in failures:
        assert r.failure_kind in (NAVIGATION, MANIPULATION)
        assert r.failed_object is not None
        assert r.objects_delivered < len(plan.steps)


def test_failing_run_logs_run_failed_line(plan1, caplog):
    """A failed run logs one debug line naming its failure kind, stage and
    object."""
    scene, plan = plan1
    params = FeasibilityParams(reach_radius=0.05)
    caplog.set_level(logging.DEBUG, logger="momaplan.execution")
    result = execute_plan(scene, plan, np.random.default_rng(0), params)
    assert [r.getMessage() for r in caplog.records] == [
        f"run failed: {MANIPULATION} during unload of {result.failed_object}"]


def test_tiny_reach_fails_manipulation(plan1):
    scene, plan = plan1
    params = FeasibilityParams(reach_radius=0.05)
    result = execute_plan(scene, plan, np.random.default_rng(0), params)
    assert not result.success
    assert result.failure_kind == MANIPULATION
    assert result.failed_stage == "unload"
    assert result.objects_delivered == 0


def test_run_halts_at_first_failure(plan1):
    scene, plan = plan1
    params = FeasibilityParams(reach_radius=0.05)
    rng = np.random.default_rng(1)
    result = execute_plan(scene, plan, rng, params)
    assert not result.success and result.failed_stage == "unload"
    failed_idx = [s.object_id for s in plan.steps].index(result.failed_object)
    assert result.objects_delivered == failed_idx
    # The whole run's noise, the arrivals after the failing unload included.
    assert failed_idx < len(plan.steps) - 1
    ref = np.random.default_rng(1)
    ref.standard_normal(4 * len(plan.steps))
    assert rng.bit_generator.state == ref.bit_generator.state
    # Undelivered objects never move off their source tables.
    for step in plan.steps[failed_idx:]:
        src = scene.table(step.source_table)
        spec = scene.object(step.object_id)
        assert result.final_positions[step.object_id] == pytest.approx(
            src.to_world(*spec.initial_position)
        )


def test_failed_run_cost_counts_only_traveled_legs(plan1):
    scene, plan = plan1
    params = FeasibilityParams(reach_radius=0.05)
    result = execute_plan(scene, plan, np.random.default_rng(2), params)
    assert result.failure_kind == MANIPULATION
    first = plan.steps[0]
    # Reached the load spot (leg + load charge) and drove to the unload spot,
    # then the reach check failed before the unload charge.
    assert result.executed_cost == pytest.approx(
        first.leg_to_load + 0.5 + first.leg_to_unload
    )


def test_result_dicts_belong_to_their_run(plan1):
    """Mutating one run's final positions and layers touches neither the
    scene's start positions nor the next run's result."""
    scene, plan = plan1
    start = dict(scene.start_positions)
    first = execute_plan(scene, plan, np.random.default_rng(7), FAST_FEA)
    again = execute_plan(scene, plan, np.random.default_rng(7), FAST_FEA)
    expected = dataclasses.replace(again, final_positions=dict(again.final_positions),
                                   final_layers=dict(again.final_layers))
    for object_id in first.final_positions:
        first.final_positions[object_id] = (99.0, 99.0)
        first.final_layers[object_id] = 99
    first.final_positions["ghost"] = (0.0, 0.0)
    first.final_layers["ghost"] = 0
    assert dict(scene.start_positions) == start
    assert again == expected
    assert execute_plan(scene, plan, np.random.default_rng(7), FAST_FEA) == expected


def test_verify_goal_tolerance():
    table = make_scene(1, "easy", seed=0).table("dining")
    atoms = [PlacementAtom("left_of", "a", "b")]
    base = table.to_world(0.0, 0.0)
    left = table.to_world(-0.05, 0.0)
    positions = {"a": left, "b": base}
    layers = {"a": 0, "b": 0}
    assert verify_goal(table, atoms, positions, layers)
    assert not verify_goal(table, atoms, {"a": base, "b": left}, layers)
    assert relation_satisfaction(table, atoms, {"a": base, "b": left}, layers) == 0.0
    assert relation_satisfaction(table, [], positions, layers) == 1.0


_GOAL_NAMES = ("a", "b")


@st.composite
def _goal_atoms(draw):
    relation = draw(st.sampled_from(RELATION_NAMES))
    subject, reference = draw(st.permutations(_GOAL_NAMES))
    return PlacementAtom(relation, subject, None if relation == "centered_on_table" else reference)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_goal_checks_match_the_table_frame_referee(data):
    """On a table centered off the origin, ``verify_goal`` and
    ``relation_satisfaction`` equal converting every position with
    ``TableSpec.to_table_frame`` and applying the oracle's sign check.
    Positions sit at the center plus offsets drawn at exactly 0,
    +-VERIFY_TOL and +-ALIGNMENT_TOL. A center coordinate of +-2**-8 keeps
    those offsets exact in the table frame, so flags land exactly on the
    tolerance and on zero; one anywhere in +-5 m rounds them."""
    coord = st.one_of(st.sampled_from([2.0**-8, -(2.0**-8)]), st.floats(-5.0, 5.0, allow_nan=False))
    table = TableSpec("dining", (data.draw(coord), data.draw(coord)), (0.6, 0.4))
    offset = st.one_of(
        st.sampled_from([0.0, VERIFY_TOL, -VERIFY_TOL, ALIGNMENT_TOL, -ALIGNMENT_TOL]),
        st.floats(-0.2, 0.2, allow_nan=False),
    )
    positions = {
        o: (table.center[0] + data.draw(offset), table.center[1] + data.draw(offset))
        for o in _GOAL_NAMES
    }
    layers = {o: data.draw(st.integers(0, 1)) for o in _GOAL_NAMES}
    atoms = data.draw(st.lists(_goal_atoms(), max_size=4))

    frame = {o: table.to_table_frame(x, y) for o, (x, y) in positions.items()}
    flags = [metric_atom_holds(a, frame, layers, VERIFY_TOL) for a in atoms]
    verified = verify_goal(table, atoms, positions, layers)
    satisfaction = relation_satisfaction(table, atoms, positions, layers)
    assert verified == all(flags)
    assert satisfaction == (sum(flags) / len(flags) if atoms else 1.0)
    assert verified == (satisfaction == 1.0)
    for atom, flag in zip(atoms, flags):
        assert satisfied_atoms([atom], frame, layers, VERIFY_TOL) == [flag]


def test_partial_satisfaction_fraction():
    table = make_scene(1, "easy", seed=0).table("dining")
    atoms = [
        PlacementAtom("left_of", "a", "b"),
        PlacementAtom("above", "a", "b"),
    ]
    positions = {"a": table.to_world(-0.05, 0.0), "b": table.to_world(0.0, 0.0)}
    layers = {"a": 0, "b": 0}
    assert relation_satisfaction(table, atoms, positions, layers) == 0.5


@functools.cache
def _replay_inputs(task: int, environment: str):
    scene = make_scene(task, environment, seed=42)
    goal = generate_goal(list(TASK_OBJECTS[task]), scripted_backend_for_task(task))
    radii = {o.id: o.footprint_radius for o in scene.objects}
    configs = sample_configurations(
        goal, radii, scene.table("dining").half_extents, np.random.default_rng(task),
        GroundingParams(configurations=1),
    ).configurations
    return scene, goal, configs


@functools.cache
def _replay_plan(task: int, environment: str, sigma: float):
    scene, goal, configs = _replay_inputs(task, environment)
    params = FeasibilityParams(nav_sigma_xy=sigma, trials_per_cell=3)
    plan = plan_task(scene, "dining", configs, goal.atoms, PlanningParams(feasibility=params))
    return scene, plan, params


def _replay_cases():
    """Every task, environment and sigma on numpy's default PCG64, plus
    task 8 x chair_bottom on every other bit generator, whose saved states
    have other layouts."""
    for task in (1, 8, 9):
        for environment in ("easy", "chair_top", "chair_bottom", "random"):
            for sigma in (0.01, 0.05, 0.08, 0.15):
                yield pytest.param(task, environment, sigma, "PCG64",
                                   id=f"{task}-{environment}-{sigma}")
    for bit_generator in ("PCG64DXSM", "MT19937", "Philox", "SFC64"):
        for sigma in (0.01, 0.08, 0.15):
            yield pytest.param(8, "chair_bottom", sigma, bit_generator,
                               id=f"8-chair_bottom-{sigma}-{bit_generator}")


def _same_state(a, b) -> bool:
    """Equality of two ``bit_generator.state`` values; MT19937 and Philox
    hold arrays in theirs."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    return np.array_equal(a, b)


def _replay_against_oracle(task, environment, sigma, bit_generator, runs=300):
    """Replay ``runs`` times on one shared generator per side, checking
    every result and generator state against the block-draw referee, and
    the state against a third generator that only draws ``4 *
    len(plan.steps)`` standard normals per run; return the
    ``(failed_stage, failure_kind, failed step index)`` of every stop."""
    scene, plan, params = _replay_plan(task, environment, sigma)
    seed = (task, round(sigma * 100))
    rng, ref_rng, counted = (np.random.Generator(getattr(np.random, bit_generator)(seed))
                             for _ in range(3))
    stops = []
    for _ in range(runs):
        result = execute_plan(scene, plan, rng, params)
        assert result == execute_plan_block_draw(scene, plan, ref_rng, params)
        assert _same_state(rng.bit_generator.state, ref_rng.bit_generator.state)
        counted.standard_normal(4 * len(plan.steps))
        assert _same_state(rng.bit_generator.state, counted.bit_generator.state)
        if not result.success:
            stops.append((result.failed_stage, result.failure_kind, result.objects_delivered))
    return stops


@pytest.mark.parametrize("task, environment, sigma, bit_generator", _replay_cases())
def test_replays_match_the_two_call_rollout(task, environment, sigma, bit_generator):
    """300 replays on one shared generator per side: ``execute_plan`` gives
    the block-draw referee's results exactly, and leaves its generator in
    the same state after every run, also after a run that stops early. The
    referee makes every collision and reach test in full, so at sigma 0.15,
    where more arrivals land near furniture edges, this referees the
    early-outs too, and some run stops after a delivered step."""
    stops = _replay_against_oracle(task, environment, sigma, bit_generator)
    if sigma >= 0.08:
        assert stops, "large noise should fail some replays"
    if sigma == 0.15:
        assert any(step > 0 for *_, step in stops), "some run should stop after step 0"


@pytest.mark.parametrize("task, environment, sigma",
                         [(1, "chair_bottom", 0.01), (8, "chair_bottom", 0.01), (1, "easy", 0.08)])
def test_replays_succeed_at_the_exact_plan_probability(task, environment, sigma):
    """20,000 replays succeed at the rate ``plan_success_probability``
    integrates, within 4 binomial standard errors, at a near-certain, an
    even and a rare point."""
    scene, plan, params = _replay_plan(task, environment, sigma)
    probability = plan_success_probability(scene, plan, params)
    assert 0.0 < probability < 1.0
    rng = np.random.default_rng(10_000)
    runs = 20_000
    rate = sum(execute_plan(scene, plan, rng, params).success for _ in range(runs)) / runs
    assert abs(rate - probability) <= 4 * math.sqrt(probability * (1 - probability) / runs)


@pytest.mark.parametrize("bit_generator", ["PCG64", "PCG64DXSM", "MT19937", "Philox", "SFC64"])
def test_every_stop_point_leaves_the_oracle_state(bit_generator):
    """Over every task and environment at sigma 0.15, runs stop after step
    0 at each of the three stop points: load navigation, unload navigation
    and unload manipulation. Each such run must still consume exactly
    ``4 * len(plan.steps)`` standard normals, its whole noise, and leave the
    generator where the block-draw referee does."""
    late = {
        (stage, kind)
        for task in (1, 8, 9)
        for environment in ("easy", "chair_top", "chair_bottom", "random")
        for stage, kind, step in _replay_against_oracle(task, environment, 0.15, bit_generator)
        if step > 0
    }
    assert late == {("load", NAVIGATION), ("unload", NAVIGATION), ("unload", MANIPULATION)}


@functools.cache
def _system_plans(task: int, environment: str):
    """The scene and each system's plan of trial 0 (a baseline's may be cut
    short at routing)."""
    scene = make_scene(task, environment, seed=42)
    goal = generate_goal(list(TASK_OBJECTS[task]), scripted_backend_for_task(task))
    config = ExperimentConfig(task=task, environment=environment, configurations=2,
                              feasibility=FAST_FEA)
    return scene, [
        harness.plan_llm_grop(scene, goal, config, 0)[0],
        harness._plan_latp(scene, goal, config, 0)[0],
        harness._plan_tpra(scene, config, 0)[0],
        harness._plan_grop(scene, config, 0)[0],
    ]


@pytest.mark.parametrize("task", [1, 8, 9])
@pytest.mark.parametrize("environment", ENVIRONMENTS)
def test_free_space_radii_are_exact_and_conservative(task, environment):
    """Every step's radii are the exact distances they name, and arrivals
    at 1e-8 inside a stage's fast-path radius, in 64 directions, pass that
    stage's full tests: no collision, and for unloading a clear reach line
    within reach, at reach radius 0.8 and 0.5."""
    scene, plans = _system_plans(task, environment)
    directions = [(math.cos(a), math.sin(a)) for a in np.linspace(0.0, 2 * math.pi, 64, endpoint=False)]
    checked = 0
    for step in (step for plan in plans for step in plan.steps):
        load, unload, target = step.load_pose, step.unload_pose, step.target_world
        assert step.load_clearance == pytest.approx(
            min(r.distance_to(load.x, load.y) for r in scene.solid_rects()) - scene.robot_radius,
            abs=1e-12)
        line = min(segment_rect_distance(unload.xy, target, r)
                   for r in scene.reach_blockers(step.target_table))
        assert step.unload_clearance == pytest.approx(min(
            min(r.distance_to(unload.x, unload.y) for r in scene.solid_rects()) - scene.robot_radius,
            line), abs=1e-12)
        assert step.reach_distance == math.dist(unload.xy, target)
        for reach_radius in (0.8, 0.5):
            params = FeasibilityParams(reach_radius=reach_radius)
            for pose, radius, reaches in (
                (load, step.load_clearance, False),
                (unload, min(step.unload_clearance, reach_radius - step.reach_distance), True),
            ):
                if radius <= 1e-8:
                    continue
                d = radius - 1e-8
                for cx, cy in directions:
                    arrival = (pose.x + d * cx, pose.y + d * cy)
                    assert not robot_collides(scene, *arrival), (step, arrival)
                    if reaches:
                        assert _reach_clear(scene, arrival, target, step.target_table, params)
                    checked += 1
    assert checked >= 64 * len(plans), "too few stages have a positive radius"


def test_clear_arrivals_skip_the_collision_test(monkeypatch):
    """At sigma 0.01 on task 1 / easy, at least 90% of arrivals lie inside
    their stage's radius and never reach ``robot_collides``."""
    scene, plan, params = _replay_plan(1, "easy", 0.01)
    calls = 0

    def counting(*args):
        nonlocal calls
        calls += 1
        return robot_collides(*args)

    monkeypatch.setattr(execution, "robot_collides", counting)
    rng = np.random.default_rng(0)
    arrivals = 0
    for _ in range(500):
        result = execute_plan(scene, plan, rng, params)
        if result.success:
            arrivals += 2 * len(plan.steps)
        else:
            arrivals += 2 * result.objects_delivered + (1 if result.failed_stage == "load" else 2)
    assert calls <= 0.1 * arrivals, (calls, arrivals)
