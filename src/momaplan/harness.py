"""Experiment harness: benchmark tasks, scenes, systems and run reports.

The benchmark is a desk-scale dining setup: one target table flanked by
standing bands, two pickup tables holding the objects, and optionally a
chair blocking one side. Nine numbered tasks name object sets of growing
size. Four systems are compared:

* ``llm_grop``   - the full pipeline: language-model goals, multi-sample
                   grounding, feasibility-aware utility-optimal planning.
* ``latp``       - language-model goals grounded at their nominal layout,
                   unloading from a uniformly drawn in-reach standing cell,
                   objects in goal order (no feasibility or utility search).
* ``tpra``       - random collision-free placements, uniform in-reach
                   standing cells, catalog object order.
* ``grop``       - one random placement configuration, then the full
                   feasibility-aware utility-optimal planner.

All four systems load from the same stands and pay for the same legs:
``planning.Router`` picks each loading stand (the free pickup-band cell
nearest the previous stand, facing the object), builds the paths and
prices the plan. A baseline leg that does not connect cuts the plan to
its routed prefix, which then ends in a navigation failure.

Every trial simulates execution under arrival noise, verifies the final
arrangement against the task's canonical relational goal, and logs cost.
Reports are plain nested dictionaries serialized with sorted keys and no
timestamps, so a (task, environment, seed) triple reproduces its report
byte for byte.
"""
from __future__ import annotations

import json
import logging
import math
from collections import Counter
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .execution import ExecutionResult, execute_plan, relation_satisfaction, verify_goal
from .feasibility import FeasibilityParams
from .goalgen import GeneratedGoal, ScriptedBackend, bundled_script_path, generate_goal
from .grounding import (
    Configuration,
    GroundingError,
    GroundingParams,
    nominal_layout,
    sample_configurations,
)
from .motion import MotionError
from .planning import (
    BandIndex,
    PlanningError,
    PlanningParams,
    Router,
    SelectedPlan,
    plan_task,
)
from .relations import goal_objects
from .world import (
    ObjectSpec,
    ObstacleSpec,
    Pose2D,
    SceneState,
    TableSpec,
    build_scene,
    has_type,
    read_yaml,
)

log = logging.getLogger(__name__)

SYSTEMS = ("llm_grop", "latp", "tpra", "grop")
ENVIRONMENTS = ("easy", "chair_top", "chair_bottom", "random")

# Object footprint radii (m) at desk scale, plus whether other objects may
# be stacked on top.
OBJECT_CATALOG: dict[str, tuple[float, bool]] = {
    "dinner_plate": (0.025, True),
    "dinner_fork": (0.012, False),
    "dinner_knife": (0.012, False),
    "bread_plate": (0.022, True),
    "water_cup": (0.015, False),
    "bread": (0.016, False),
    "mug": (0.016, True),
    "mug_mat": (0.020, True),
    "fruit_bowl": (0.022, True),
    "strawberry": (0.009, False),
    "mug_lid": (0.013, False),
}

TASK_OBJECTS: dict[int, tuple[str, ...]] = {
    1: ("dinner_plate", "dinner_fork", "dinner_knife"),
    2: ("bread_plate", "water_cup", "bread"),
    3: ("mug", "bread_plate", "mug_mat"),
    4: ("fruit_bowl", "mug", "strawberry"),
    5: ("mug", "dinner_plate", "mug_lid"),
    6: ("dinner_plate", "dinner_fork", "mug", "mug_lid"),
    7: ("dinner_plate", "dinner_fork", "dinner_knife", "strawberry"),
    8: ("dinner_plate", "dinner_fork", "dinner_knife", "mug", "mug_lid"),
    9: ("dinner_plate", "dinner_fork", "dinner_knife", "water_cup", "strawberry"),
}

TARGET_TABLE = "dining"

_DINING = TableSpec(TARGET_TABLE, (0.0, 0.0), (0.6, 0.15))
_PICKUP_LEFT = TableSpec("side_left", (-2.0, -2.0), (0.4, 0.3))
_PICKUP_RIGHT = TableSpec("side_right", (2.0, -2.0), (0.4, 0.3))
_ROBOT_START = Pose2D(0.0, -2.5, math.pi / 2)
_CHAIR_HALF = 0.225
# Uniform draws tried per object before a random placement gives up.
_RANDOM_PLACEMENT_ATTEMPTS = 2000


def _chair(side: str) -> ObstacleSpec:
    hx, hy = _DINING.half_extents
    centers = {
        "north": (0.0, hy + _CHAIR_HALF),
        "south": (0.0, -hy - _CHAIR_HALF),
        "east": (hx + _CHAIR_HALF, 0.0),
        "west": (-hx - _CHAIR_HALF, 0.0),
    }
    return ObstacleSpec("chair", centers[side], (_CHAIR_HALF, _CHAIR_HALF))


class ConfigError(ValueError):
    """Raised when an experiment input is refused: a config file, a flag
    or a library caller's value."""


def _check_scene(task: int, environment: str) -> None:
    if task not in TASK_OBJECTS:
        raise ConfigError(f"unknown task {task!r}")
    if environment not in ENVIRONMENTS:
        raise ConfigError(f"unknown environment {environment!r}")


def make_scene(task: int, environment: str = "easy", seed: int = 0) -> SceneState:
    """Benchmark scene for one task: objects alternate between the two
    pickup tables in catalog order."""
    _check_scene(task, environment)
    objects = []
    for i, name in enumerate(TASK_OBJECTS[task]):
        radius, stackable = OBJECT_CATALOG[name]
        table = _PICKUP_LEFT.id if i % 2 == 0 else _PICKUP_RIGHT.id
        objects.append(ObjectSpec(name, radius, table, supports_stacking=stackable))
    obstacles: list[ObstacleSpec] = []
    if environment == "chair_top":
        obstacles.append(_chair("north"))
    elif environment == "chair_bottom":
        obstacles.append(_chair("south"))
    elif environment == "random":
        side = np.random.default_rng(seed).choice(["north", "south", "east", "west"])
        obstacles.append(_chair(str(side)))
    return build_scene(
        [_DINING, _PICKUP_LEFT, _PICKUP_RIGHT],
        obstacles,
        objects,
        _ROBOT_START,
        rng_seed=seed,
    )


def scripted_backend_for_task(task: int) -> ScriptedBackend:
    return ScriptedBackend.from_yaml(bundled_script_path(task))


# ---------------------------------------------------------------------------
# Experiment configuration


def _check_fields(path: str | Path, section: str, data: object, defaults: object) -> None:
    """Reject a section that is not a mapping, keys its defaults lack, and
    scalars of another type than their default (an int passes for a float)."""
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: {section} must be a mapping")
    extra = set(data) - set(defaults.__dataclass_fields__)  # type: ignore[attr-defined]
    if extra:
        raise ConfigError(f"{path}: unknown {section} keys {sorted(map(str, extra))}")
    for key, value in data.items():
        kind = type(getattr(defaults, key))
        if kind not in (int, float, str):
            continue  # nested sections are checked by their own rules
        if not has_type(value, kind):
            raise ConfigError(f"{path}: {key} must be {kind.__name__}, got {value!r}")


@dataclass
class ExperimentConfig:
    task: int = 1
    environment: str = "easy"
    systems: tuple[str, ...] = SYSTEMS
    trials: int = 20
    seed: int = 42
    configurations: int = 10  # grounded samples per goal
    feasibility: FeasibilityParams = field(default_factory=FeasibilityParams)

    def __post_init__(self) -> None:
        self.systems = tuple(self.systems)
        # The range rules of every loader; ``from_yaml`` prefixes the path.
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        for key in ("trials", "configurations"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be positive, got {getattr(self, key)}")
        _check_scene(self.task, self.environment)
        if not all(s in SYSTEMS for s in self.systems):
            raise ConfigError(f"systems must be drawn from {list(SYSTEMS)}, got {list(self.systems)}")
        # A repeated system would run, and count, each of its trials twice.
        if not self.systems or len(set(self.systems)) < len(self.systems):
            raise ConfigError(f"systems must name at least one system, each once, "
                              f"got {list(self.systems)}")

    @classmethod
    def from_yaml(cls, path: str | Path) -> "ExperimentConfig":
        data = read_yaml(path, ConfigError) or {}
        _check_fields(path, "config", data, cls())
        if "systems" in data:
            if not isinstance(data["systems"], list):
                raise ConfigError(f"{path}: systems must be a list drawn from {list(SYSTEMS)}")
        if "feasibility" in data:
            _check_fields(path, "feasibility", data["feasibility"], FeasibilityParams())
        try:
            data["feasibility"] = FeasibilityParams(**data.get("feasibility", {}))
            return cls(**data)
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from exc

    def to_dict(self) -> dict:
        return {**asdict(self), "systems": list(self.systems)}


@dataclass
class TrialRecord:
    system: str
    trial: int
    completed: bool
    verified: bool
    success: bool
    satisfaction: float
    executed_cost: float
    planned_cost: float | None
    planned_feasibility: float | None
    planned_utility: float | None
    objects_delivered: int
    failure_kind: str | None
    goal_attempts: int | None
    # ``failed_object`` and ``failed_stage`` of a failed run (None when it
    # did not fail there), written to the per-trial JSONL only.
    trace: dict = field(default_factory=lambda: dict.fromkeys(("failed_object", "failed_stage")))

    def to_dict(self) -> dict:
        """Every report field (all but ``trace``), floats rounded to six decimals."""
        return {k: _round(v) if isinstance(v, float) else v
                for k, v in asdict(self).items() if k != "trace"}


def _round(value: float) -> float:
    return round(float(value), 6)


# ---------------------------------------------------------------------------
# System runners


def _trial_rng(config: ExperimentConfig, system: str, trial: int, stream: int) -> np.random.Generator:
    sys_idx = SYSTEMS.index(system)
    return np.random.default_rng(
        np.random.SeedSequence((config.seed, sys_idx, trial, stream))
    )


def _radii(scene: SceneState) -> dict[str, float]:
    return {o.id: o.footprint_radius for o in scene.objects}


def _random_configuration(
    scene: SceneState, objects: list[str], rng: np.random.Generator
) -> Configuration:
    """Uniform collision-free placements on the target table top."""
    table = scene.table(TARGET_TABLE)
    hx, hy = table.half_extents
    radii = _radii(scene)
    positions: dict[str, tuple[float, float]] = {}
    for obj in objects:
        r = radii[obj]
        for _ in range(_RANDOM_PLACEMENT_ATTEMPTS):
            x = rng.uniform(-hx + r, hx - r)
            y = rng.uniform(-hy + r, hy - r)
            if all(
                math.hypot(x - px, y - py) >= r + radii[other]
                for other, (px, py) in positions.items()
            ):
                positions[obj] = (x, y)
                break
        else:
            raise GroundingError(f"random placement failed for {obj!r}")
    return Configuration(positions, {o: 0 for o in objects})


def _uniform_inreach_options(
    band: BandIndex,
    targets: list[tuple[float, float]],
    rng: np.random.Generator,
    params: FeasibilityParams,
) -> list[int]:
    """Band index of an unload stand per target, drawn uniformly over the
    target table's band cells within arm's reach of it (any side, no
    feasibility analysis)."""
    stands: list[int] = []
    for target in targets:
        dist = np.hypot(band.centers[:, 0] - target[0], band.centers[:, 1] - target[1])
        in_reach = np.flatnonzero(dist <= params.reach_radius)
        if not len(in_reach):
            raise PlanningError(f"no band cell within reach of target {target}")
        stands.append(int(in_reach[int(rng.integers(len(in_reach)))]))
    return stands


def _baseline_plan(
    scene: SceneState,
    config: Configuration,
    order: list[str],
    rng: np.random.Generator,
    params: FeasibilityParams,
) -> SelectedPlan:
    """Route uniform in-reach unload stands in the given order. A leg that
    does not connect cuts the plan to its routed prefix and marks it
    truncated at that stage, so the failure shows up as a navigation
    breakdown at execution time rather than as a refusal to plan."""
    router = Router(scene)
    table = scene.table(TARGET_TABLE)
    targets = [table.to_world(*config.positions[obj]) for obj in order]
    stands = _uniform_inreach_options(router.band(TARGET_TABLE), targets, rng, params)
    unscored = [0.0] * len(order)  # baselines do not estimate feasibility
    steps, truncated, cost = router.route(
        TARGET_TABLE, order, stands, targets, [config.layers[obj] for obj in order],
        unscored, unscored)
    return SelectedPlan(
        config_index=0,
        plan_index=0,
        order=tuple(order),
        configuration=config,
        steps=steps,
        feasibility=0.0,
        cost=cost,
        utility=0.0,
        search_cost=cost,
        search_utility=0.0,
        candidates_evaluated=1,
        truncated=truncated,
    )


def plan_llm_grop(
    scene: SceneState, goal: GeneratedGoal, config: ExperimentConfig, trial: int
) -> tuple[SelectedPlan, int | None]:
    """The full pipeline's plan of one trial; ``momaplan plan`` prints trial 0's."""
    radii = _radii(scene)
    table = scene.table(TARGET_TABLE)
    grng = _trial_rng(config, "llm_grop", trial, 0)
    grounding = sample_configurations(
        goal,
        radii,
        table.half_extents,
        grng,
        GroundingParams(configurations=config.configurations),
    )
    params = PlanningParams(feasibility=config.feasibility, stand_seed=trial)
    plan = plan_task(scene, TARGET_TABLE, grounding.configurations, goal.atoms, params)
    return plan, goal.attempts


def _plan_latp(
    scene: SceneState, goal: GeneratedGoal, config: ExperimentConfig, trial: int
) -> tuple[SelectedPlan, int | None]:
    nominal = nominal_layout(goal)
    order = goal_objects(goal.atoms)
    rng = _trial_rng(config, "latp", trial, 2)
    plan = _baseline_plan(scene, nominal, order, rng, config.feasibility)
    return plan, goal.attempts


def _plan_tpra(
    scene: SceneState, config: ExperimentConfig, trial: int
) -> tuple[SelectedPlan, int | None]:
    order = [o.id for o in scene.objects]
    rng = _trial_rng(config, "tpra", trial, 2)
    placement = _random_configuration(scene, order, rng)
    plan = _baseline_plan(scene, placement, order, rng, config.feasibility)
    return plan, None


def _plan_grop(
    scene: SceneState, config: ExperimentConfig, trial: int
) -> tuple[SelectedPlan, int | None]:
    order = [o.id for o in scene.objects]
    rng = _trial_rng(config, "grop", trial, 2)
    placement = _random_configuration(scene, order, rng)
    params = PlanningParams(feasibility=config.feasibility, stand_seed=trial)
    plan = plan_task(scene, TARGET_TABLE, [placement], [], params)
    return plan, None


def run_trial(
    scene: SceneState,
    system: str,
    goal: GeneratedGoal,
    config: ExperimentConfig,
    trial: int,
) -> TrialRecord:
    """One planning + execution episode for one system."""
    try:
        if system == "llm_grop":
            plan, goal_attempts = plan_llm_grop(scene, goal, config, trial)
        elif system == "latp":
            plan, goal_attempts = _plan_latp(scene, goal, config, trial)
        elif system == "tpra":
            plan, goal_attempts = _plan_tpra(scene, config, trial)
        elif system == "grop":
            plan, goal_attempts = _plan_grop(scene, config, trial)
        else:
            raise ValueError(f"unknown system {system!r}")
    except (PlanningError, GroundingError, MotionError) as exc:
        log.warning("%s trial %d could not plan: %s", system, trial, exc)
        return TrialRecord(
            system=system,
            trial=trial,
            completed=False,
            verified=False,
            success=False,
            satisfaction=0.0,
            executed_cost=0.0,
            planned_cost=None,
            planned_feasibility=None,
            planned_utility=None,
            objects_delivered=0,
            failure_kind="planning",
            goal_attempts=None,
        )
    xrng = _trial_rng(config, system, trial, 1)
    result: ExecutionResult = execute_plan(scene, plan, xrng, config.feasibility)
    completed = result.success
    table = scene.table(TARGET_TABLE)
    verified = completed and verify_goal(
        table, goal.atoms, result.final_positions, result.final_layers
    )
    satisfaction = relation_satisfaction(
        table, goal.atoms, result.final_positions, result.final_layers
    )
    failure = result.failure_kind
    if completed and not verified:
        failure = "verification"
    return TrialRecord(
        system=system,
        trial=trial,
        completed=completed,
        verified=verified,
        success=verified,
        satisfaction=satisfaction,
        executed_cost=result.executed_cost,
        planned_cost=plan.cost,
        planned_feasibility=plan.feasibility if system in ("llm_grop", "grop") else None,
        planned_utility=plan.utility if system in ("llm_grop", "grop") else None,
        objects_delivered=result.objects_delivered,
        failure_kind=failure,
        goal_attempts=goal_attempts,
        trace={"failed_object": result.failed_object, "failed_stage": result.failed_stage},
    )


# ---------------------------------------------------------------------------
# Experiment driver


def run_experiment(
    config: ExperimentConfig,
    backend=None,
    log_path: str | Path | None = None,
) -> dict:
    """Run every (system, trial) episode and aggregate a report dict.

    The report contains only deterministic content (no timestamps, sorted
    serialization) so identical configs produce identical bytes.
    """
    scene = make_scene(config.task, config.environment, config.seed)
    backend = backend or scripted_backend_for_task(config.task)
    goal = generate_goal(list(TASK_OBJECTS[config.task]), backend)
    records: list[TrialRecord] = []
    log_fh = open(log_path, "w", encoding="utf-8") if log_path else None
    try:
        for system in config.systems:
            for trial in range(config.trials):
                record = run_trial(scene, system, goal, config, trial)
                records.append(record)
                if log_fh:
                    line = {**record.to_dict(), "trace": record.trace}
                    log_fh.write(json.dumps(line, sort_keys=True) + "\n")
    finally:
        if log_fh:
            log_fh.close()
    return build_report(config, goal, records)


def build_report(
    config: ExperimentConfig, goal: GeneratedGoal, records: list[TrialRecord]
) -> dict:
    by_system: dict[str, list[TrialRecord]] = {}
    for r in records:
        by_system.setdefault(r.system, []).append(r)
    aggregates = {}
    for system, rows in by_system.items():
        n = len(rows)
        successes = [r for r in rows if r.success]
        completed = [r for r in rows if r.completed]
        failure_counts = Counter(r.failure_kind for r in rows if r.failure_kind)
        aggregates[system] = {
            "trials": n,
            "success_rate": _round(len(successes) / n) if n else None,
            "completion_rate": _round(len(completed) / n) if n else None,
            "mean_satisfaction": _round(float(np.mean([r.satisfaction for r in rows]))) if rows else None,
            "mean_cost_all": _round(float(np.mean([r.executed_cost for r in rows]))) if rows else None,
            "mean_cost_success": (
                _round(float(np.mean([r.executed_cost for r in successes])))
                if successes
                else None
            ),
            "failures": dict(sorted(failure_counts.items())),
        }
    return {
        "version": __version__,
        "config": config.to_dict(),
        "goal": {
            "atoms": [str(a) for a in goal.atoms],
            "distances_m": {str(k): _round(v) for k, v in goal.distances_m.items()},
            "attempts": goal.attempts,
        },
        "aggregates": aggregates,
        "trials": [r.to_dict() for r in records],
    }


def dump_report(report: dict, path: str | Path) -> None:
    Path(path).write_bytes(report_bytes(report))


def report_bytes(report: dict) -> bytes:
    return yaml.safe_dump(report, sort_keys=True, default_flow_style=False).encode("utf-8")
