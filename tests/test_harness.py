import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest
import yaml

from momaplan import harness
from momaplan.feasibility import FeasibilityParams
from momaplan.goalgen import generate_goal
from momaplan.harness import (
    ENVIRONMENTS,
    SYSTEMS,
    TASK_OBJECTS,
    ConfigError,
    ExperimentConfig,
    build_report,
    dump_report,
    make_scene,
    report_bytes,
    run_experiment,
    run_trial,
    scripted_backend_for_task,
)

from momaplan.motion import navigator_for
from momaplan.planning import Router

from oracles import execute_plan_two_calls, nearest_usable_center

FAST = FeasibilityParams(trials_per_cell=3, task_draws=10)


def fast_config(**overrides):
    base = dict(task=1, environment="easy", trials=2, seed=42, configurations=2, feasibility=FAST)
    base.update(overrides)
    return ExperimentConfig(**base)


def test_make_scene_rejects_bad_inputs():
    with pytest.raises(ValueError, match="unknown task"):
        make_scene(99)
    with pytest.raises(ValueError, match="unknown environment"):
        make_scene(1, "zero_g")


def test_scene_composition():
    for task, objects in TASK_OBJECTS.items():
        scene = make_scene(task, "easy", seed=task)
        assert tuple(o.id for o in scene.objects) == objects
        assert {t.id for t in scene.tables} == {"dining", "side_left", "side_right"}
        assert scene.obstacles == ()
    # Objects alternate between the two pickup tables in listed order.
    scene = make_scene(1, "easy", seed=0)
    sides = [o.initial_location for o in scene.objects]
    assert sides == ["side_left", "side_right", "side_left"]


def test_chair_environments_place_one_chair():
    top = make_scene(1, "chair_top", seed=0)
    assert len(top.obstacles) == 1
    assert top.obstacles[0].center[1] > 0
    bottom = make_scene(1, "chair_bottom", seed=0)
    assert bottom.obstacles[0].center[1] < 0
    # The random environment derives the chair side from the seed alone.
    sides = {tuple(make_scene(1, "random", seed=s).obstacles[0].center) for s in range(12)}
    assert len(sides) > 1
    again = make_scene(1, "random", seed=3)
    assert make_scene(1, "random", seed=3).obstacles == again.obstacles


def test_config_from_yaml_roundtrip(tmp_path):
    path = tmp_path / "exp.yaml"
    path.write_text(
        yaml.safe_dump(
            {
                "task": 4,
                "environment": "chair_top",
                "systems": ["llm_grop", "tpra"],
                "trials": 7,
                "seed": 3,
                "configurations": 5,
                "feasibility": {"trials_per_cell": 2},
            }
        )
    )
    config = ExperimentConfig.from_yaml(path)
    assert config.task == 4
    assert config.environment == "chair_top"
    assert config.systems == ("llm_grop", "tpra")
    assert config.trials == 7
    assert config.feasibility.trials_per_cell == 2
    assert config.feasibility.reach_radius == FeasibilityParams().reach_radius


def test_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "exp.yaml"
    path.write_text("task: 1\nworkers: 4\n")
    with pytest.raises(ValueError, match="unknown config keys"):
        ExperimentConfig.from_yaml(path)


@pytest.mark.parametrize(
    "text, message",
    [
        ("- task\n", "config must be a mapping"),
        ("task: 99\n", "unknown task 99"),
        ("environment: zero_g\n", "unknown environment"),
        ("seed: true\n", "seed must be int"),
        ("trials: -3\n", "trials must be positive, got -3"),
        ("trials: 0\n", "trials must be positive, got 0"),
        ("configurations: 0\n", "configurations must be positive, got 0"),
        ("systems: llm_grop\n", "systems must be a list"),
        ("systems: [llm_grop, oracle]\n", "systems must be a list"),
        ("feasibility: 3\n", "feasibility must be a mapping"),
        ("feasibility: {trials: 3}\n", "unknown feasibility keys"),
        ("feasibility: {reach_radius: far}\n", "reach_radius must be float"),
        ("feasibility: {trials_per_cell: 0}\n", "trials_per_cell must be at least 1"),
        ("feasibility: {task_draws: 0}\n", "task_draws must be at least 1"),
        ("feasibility: {nav_sigma_xy: -0.01}\n", "nav_sigma_xy must be non-negative"),
        ("feasibility: {nav_sigma_theta: -1}\n", "nav_sigma_theta must be non-negative"),
        ("feasibility: {reach_radius: 0}\n", "reach_radius must be positive"),
    ],
)
def test_config_rejects_malformed_values(tmp_path, text, message):
    path = tmp_path / "exp.yaml"
    path.write_text(text)
    with pytest.raises(ConfigError, match=message):
        ExperimentConfig.from_yaml(path)


def test_config_accepts_int_for_float(tmp_path):
    path = tmp_path / "exp.yaml"
    path.write_text("feasibility: {reach_radius: 1}\n")
    assert ExperimentConfig.from_yaml(path).feasibility.reach_radius == 1


@pytest.fixture(scope="module")
def trial_setup(goal1):
    config = fast_config()
    scene = make_scene(config.task, config.environment, config.seed)
    return scene, goal1, config


@pytest.mark.parametrize("system", SYSTEMS)
def test_run_trial_each_system(trial_setup, system):
    scene, goal, config = trial_setup
    record = run_trial(scene, system, goal, config, trial=0)
    assert record.system == system
    assert record.trial == 0
    assert 0.0 <= record.satisfaction <= 1.0
    assert record.executed_cost >= 0.0
    assert record.objects_delivered <= len(scene.objects)
    if system in ("llm_grop", "grop"):
        assert record.planned_feasibility is not None
        assert record.planned_utility is not None
    else:
        assert record.planned_feasibility is None
        assert record.planned_utility is None
    if record.success:
        assert record.completed and record.verified
        assert record.failure_kind is None
    else:
        assert record.failure_kind is not None


def test_trial_is_deterministic(trial_setup):
    scene, goal, config = trial_setup
    a = run_trial(scene, "llm_grop", goal, config, trial=1)
    b = run_trial(scene, "llm_grop", goal, config, trial=1)
    assert a == b
    c = run_trial(scene, "llm_grop", goal, config, trial=2)
    assert (a.executed_cost, a.planned_cost) != (c.executed_cost, c.planned_cost)


def test_unreachable_baseline_stand_becomes_navigation_failure(goal1):
    """Chair blocks the north band: a baseline that drew a stand there must
    report a navigation failure, not a planning refusal."""
    config = fast_config(environment="chair_top", trials=8)
    scene = make_scene(config.task, config.environment, config.seed)
    records = [run_trial(scene, "latp", goal1, config, t) for t in range(config.trials)]
    kinds = {r.failure_kind for r in records if not r.success}
    assert "planning" not in kinds
    truncated = [r for r in records if r.failure_kind == "navigation"]
    assert truncated, "some uniform draws should land behind the chair"
    for r in truncated:
        assert not r.completed and not r.success


def test_truncated_baseline_costs_its_routed_prefix(goal1):
    """A baseline plan cut at a leg behind the chair costs exactly its
    routed steps' path lengths plus 1.0 per step (one load and one unload
    charge), and every routed step carries its path to the unload stand."""
    config = fast_config(environment="chair_top", trials=8)
    scene = make_scene(config.task, config.environment, config.seed)
    plans = [harness._plan_latp(scene, goal1, config, t)[0] for t in range(config.trials)]
    truncated = [plan for plan in plans if plan.truncated and plan.steps]
    assert truncated, "some uniform draws should land behind the chair after a routed step"
    for plan in truncated:
        assert len(plan.steps) < len(TASK_OBJECTS[config.task])
        cost = 0.0
        for step in plan.steps:
            assert step.path_to_unload.cells[-1] == step.unload_cell
            cost += (step.path_to_load.cost if step.path_to_load else 0.0) + step.path_to_unload.cost
        assert plan.cost == cost + 1.0 * len(plan.steps)


def test_report_config_section_loads_back_as_an_equal_config(tmp_path):
    """The config section of a report, written out as a config file, loads
    into the config that produced it, with no field at its default."""
    config = ExperimentConfig(
        task=3,
        environment="chair_bottom",
        systems=("tpra", "latp"),
        trials=4,
        seed=7,
        configurations=5,
        feasibility=FeasibilityParams(trials_per_cell=4, nav_sigma_xy=0.02, nav_sigma_theta=0.05,
                                      reach_radius=0.7, task_draws=12),
    )
    for ours, default in ((config, ExperimentConfig()), (config.feasibility, FeasibilityParams())):
        for f in dataclasses.fields(ours):
            assert getattr(ours, f.name) != getattr(default, f.name), f.name
    goal = generate_goal(list(TASK_OBJECTS[3]), scripted_backend_for_task(3))
    report = yaml.safe_load(report_bytes(build_report(config, goal, [])))
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(report["config"]))
    assert ExperimentConfig.from_yaml(path) == config


def test_run_experiment_report_layout(tmp_path):
    config = fast_config(systems=("llm_grop", "tpra"))
    log_path = tmp_path / "trials.jsonl"
    report = run_experiment(config, log_path=log_path)
    assert set(report) == {"version", "config", "goal", "aggregates", "trials"}
    assert set(report["aggregates"]) == {"llm_grop", "tpra"}
    assert len(report["trials"]) == 2 * config.trials
    for system, agg in report["aggregates"].items():
        assert agg["trials"] == config.trials
    lines = [json.loads(l) for l in log_path.read_text().splitlines()]
    assert len(lines) == len(report["trials"])
    # A log line is its report record plus the trace, which the report leaves out.
    assert [{k: v for k, v in l.items() if k != "trace"} for l in lines] == report["trials"]
    assert all(set(l["trace"]) == {"failed_object", "failed_stage"} for l in lines)


def test_report_bytes_reproducible(tmp_path):
    config = fast_config(trials=1, systems=("llm_grop",))
    a = report_bytes(run_experiment(config))
    b = report_bytes(run_experiment(config))
    assert a == b
    out = tmp_path / "report.yaml"
    dump_report(run_experiment(config), out)
    assert out.read_bytes() == a
    parsed = yaml.safe_load(a)
    assert parsed["config"]["task"] == 1


def test_report_digest_is_pinned():
    """The report bytes of one fixed experiment. Any change to a random
    stream's layout or to a planning rule moves this digest; update it only
    on purpose and record why in CHANGES.md."""
    config = ExperimentConfig(task=8, environment="chair_top", trials=2, configurations=3, seed=42)
    digest = hashlib.sha256(report_bytes(run_experiment(config))).hexdigest()
    assert digest == "e88cda6d58783da25ea2e84a5df96fb2cb044449e50c44516a733d8a9d3b16ea"


def test_build_report_aggregates():
    from momaplan.harness import TrialRecord

    def rec(system, trial, success, cost, satisfaction, failure=None):
        return TrialRecord(
            system=system,
            trial=trial,
            completed=success,
            verified=success,
            success=success,
            satisfaction=satisfaction,
            executed_cost=cost,
            planned_cost=cost,
            planned_feasibility=None,
            planned_utility=None,
            objects_delivered=3 if success else 1,
            failure_kind=failure,
            goal_attempts=1,
        )

    records = [
        rec("latp", 0, True, 10.0, 1.0),
        rec("latp", 1, False, 4.0, 0.5, failure="navigation"),
        rec("latp", 2, False, 2.0, 0.0, failure="navigation"),
    ]
    from momaplan.goalgen import GeneratedGoal
    from momaplan.relations import PlacementAtom

    goal = GeneratedGoal([PlacementAtom("centered_on_table", "a")], {}, attempts=1)
    report = build_report(fast_config(), goal, records)
    agg = report["aggregates"]["latp"]
    assert agg["trials"] == 3
    assert agg["success_rate"] == pytest.approx(1 / 3)
    assert agg["completion_rate"] == pytest.approx(1 / 3)
    assert agg["mean_satisfaction"] == pytest.approx(0.5)
    assert agg["mean_cost_all"] == pytest.approx(16.0 / 3)
    assert agg["mean_cost_success"] == pytest.approx(10.0)
    assert agg["failures"] == {"navigation": 2}
    assert report["goal"]["atoms"] == ["centered_on_table(a)"]


def test_environments_roster():
    assert ENVIRONMENTS == ("easy", "chair_top", "chair_bottom", "random")
    assert SYSTEMS == ("llm_grop", "latp", "tpra", "grop")
    backend = scripted_backend_for_task(1)
    assert backend.responses


def cut_stage(scene, config, trial, plan):
    """The stage at which a latp plan's legs stop connecting, found from
    the cost fields: the trial's uniform stand draws replayed, the cut
    step's loading cell found by the one-point rule from the previous
    stand, and ``load`` when there is none or its field is infinite at the
    previous stand, ``unload`` when it is infinite at the unload stand."""
    nav = navigator_for(scene)
    router = Router(scene)
    band = router.band(harness.TARGET_TABLE)
    table = scene.table(harness.TARGET_TABLE)
    targets = [table.to_world(*plan.configuration.positions[obj]) for obj in plan.order]
    rng = harness._trial_rng(config, "latp", trial, 2)
    stands = harness._uniform_inreach_options(band, targets, rng, config.feasibility)
    k = len(plan.steps)
    prev_point = scene.robot_pose.xy if k == 0 else tuple(band.centers[stands[k - 1]].tolist())
    source = router.band(scene.object(plan.order[k]).initial_location)
    load_point = nearest_usable_center(source, prev_point)
    if load_point is None:
        return "load"
    field = nav.cost_field(nav.cell_of(*load_point))
    if math.isinf(field[nav.cell_of(*prev_point)]):
        return "load"
    assert math.isinf(field[nav.cell_of(*band.centers[stands[k]])]), "the legs connect"
    return "unload"


@pytest.mark.parametrize("environment", ["easy", "chair_top"])
def test_jsonl_trace_names_the_failed_object_and_stage(tmp_path, environment):
    """Each ``run --log`` line carries a ``trace`` with the object and stage
    its run failed at. The expected values
    come from re-planning the trial and replaying it with the former
    two-call rollout: the last step it traced, or, for a plan cut short at
    routing, the first unrouted object and the stage ``cut_stage`` finds
    from the cost fields. Easy at sigma 0.08 fails both in navigation and
    in manipulation; chair_top cuts baseline plans behind the chair."""
    config = ExperimentConfig(task=1, environment=environment, trials=6, seed=42,
                              configurations=1, systems=("llm_grop", "latp"),
                              feasibility=FeasibilityParams(nav_sigma_xy=0.08))
    log_path = tmp_path / "trials.jsonl"
    run_experiment(config, log_path=log_path)
    lines = [json.loads(line) for line in log_path.read_text().splitlines()]
    scene = make_scene(config.task, config.environment, config.seed)
    goal = generate_goal(list(TASK_OBJECTS[config.task]), scripted_backend_for_task(config.task))
    seen = set()
    for line in lines:
        trace = line["trace"]
        if line["failure_kind"] not in ("navigation", "manipulation"):
            assert trace == {"failed_object": None, "failed_stage": None}
            continue
        planner = harness._plan_llm_grop if line["system"] == "llm_grop" else harness._plan_latp
        plan, _ = planner(scene, goal, config, line["trial"])
        rng = harness._trial_rng(config, line["system"], line["trial"], 1)
        result = execute_plan_two_calls(scene, plan, rng, config.feasibility)
        if result.success:
            assert line["system"] == "latp" and line["failure_kind"] == "navigation"
            expected = {"failed_object": plan.order[len(plan.steps)],
                        "failed_stage": cut_stage(scene, config, line["trial"], plan)}
            assert plan.truncated == expected["failed_stage"]
        else:
            failed = result.trace[-1]
            assert failed.failure_kind == line["failure_kind"]
            expected = {"failed_object": failed.object_id, "failed_stage": failed.stage}
        assert trace == expected
        seen.add((line["failure_kind"], expected["failed_stage"]))
    if environment == "easy":
        assert {("navigation", "unload"), ("manipulation", "unload")} <= seen
    else:
        assert ("navigation", "unload") in seen
