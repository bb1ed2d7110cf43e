"""Noisy rollout of a selected plan, mirroring the feasibility trial model.

Every navigation leg ends at the planned standing pose plus fresh Gaussian
arrival error; arriving in collision is a navigation failure. Loading is
treated as always succeeding once the robot stands at the loading spot.
Unloading succeeds when the arrival position is within arm's reach of the
placement target and the straight reach line stays clear of furniture other
than the target table; the object is then placed exactly at its planned
target. The rollout halts at the first failure.

The arrival noise parameters are the same FeasibilityParams the planner's
heatmaps were built with, so feasibility estimates and execution outcomes
are draws from one distribution. Each arrival is one draw call per pose,
from the same stream as a ``normal`` call for position and one for heading;
collision and reach tests are scalar loops over each ``Rect``'s stored bounds.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .feasibility import FeasibilityParams
from .geometry import segment_hits_rect
from .motion import robot_collides
from .planning import MANIPULATION_COST, SelectedPlan
from .relations import ALIGNMENT_TOL, PlacementAtom, satisfied_atoms
from .world import Pose2D, SceneState, TableSpec

log = logging.getLogger(__name__)

NAVIGATION = "navigation"
MANIPULATION = "manipulation"


@dataclass
class StepTrace:
    object_id: str
    stage: str  # "load" or "unload"
    commanded: Pose2D
    arrival: Pose2D
    ok: bool
    failure_kind: str | None = None


@dataclass
class ExecutionResult:
    success: bool
    failure_kind: str | None
    failed_object: str | None
    failed_stage: str | None
    objects_delivered: int
    executed_cost: float
    # World-frame positions of every object after the run (undelivered
    # objects stay where they started).
    final_positions: dict[str, tuple[float, float]]
    final_layers: dict[str, int]
    trace: list[StepTrace] = field(default_factory=list)


def _noisy_arrival(pose: Pose2D, params: FeasibilityParams, rng: np.random.Generator) -> Pose2D:
    # numpy's normal(loc, scale) is loc + scale * standard_normal, so this is
    # the stream and values of normal(0, sigma_xy, 2) then normal(0, sigma_theta).
    zx, zy, zt = rng.standard_normal(3).tolist()
    s, st = params.nav_sigma_xy, params.nav_sigma_theta
    return Pose2D(pose.x + (0.0 + s * zx), pose.y + (0.0 + s * zy), pose.theta + (0.0 + st * zt))


def _reach_clear(
    scene: SceneState,
    arrival: Pose2D,
    target: tuple[float, float],
    target_table: str,
    params: FeasibilityParams,
) -> bool:
    if math.hypot(arrival.x - target[0], arrival.y - target[1]) > params.reach_radius:
        return False
    for rect in scene.reach_blockers(target_table):
        if segment_hits_rect((arrival.x, arrival.y), target, rect):
            return False
    return True


def execute_plan(
    scene: SceneState,
    plan: SelectedPlan,
    rng: np.random.Generator,
    params: FeasibilityParams | None = None,
) -> ExecutionResult:
    """Simulate one run of a plan under arrival noise.

    Costs accrue per traveled leg plus a fixed charge per completed
    manipulation; a run that finishes therefore costs exactly the plan's
    planned cost.
    """
    params = params or FeasibilityParams()
    positions = dict(scene.start_positions)
    layers = {o.id: 0 for o in scene.objects}
    trace: list[StepTrace] = []
    cost = 0.0
    delivered = 0

    def result(kind: str | None = None, failed_object=None, stage=None) -> ExecutionResult:
        return ExecutionResult(
            success=kind is None,
            failure_kind=kind,
            failed_object=failed_object,
            failed_stage=stage,
            objects_delivered=delivered,
            executed_cost=cost,
            final_positions=positions,
            final_layers=layers,
            trace=trace,
        )

    def fail(step, stage: str, commanded: Pose2D, kind: str, arrival: Pose2D) -> ExecutionResult:
        trace.append(StepTrace(step.object_id, stage, commanded, arrival, False, kind))
        log.debug("run failed: %s during %s of %s", kind, stage, step.object_id)
        return result(kind, step.object_id, stage)

    for step in plan.steps:
        # Leg to the loading spot.
        cost += step.leg_to_load
        arrival = _noisy_arrival(step.load_pose, params, rng)
        if robot_collides(scene, arrival.x, arrival.y):
            return fail(step, "load", step.load_pose, NAVIGATION, arrival)
        # Loading itself is not modeled as failable.
        cost += MANIPULATION_COST
        trace.append(StepTrace(step.object_id, "load", step.load_pose, arrival, True))

        cost += step.leg_to_unload
        arrival = _noisy_arrival(step.unload_pose, params, rng)
        if robot_collides(scene, arrival.x, arrival.y):
            return fail(step, "unload", step.unload_pose, NAVIGATION, arrival)
        target_table = step.unload_location.split("/")[0]
        if not _reach_clear(scene, arrival, step.target_world, target_table, params):
            return fail(step, "unload", step.unload_pose, MANIPULATION, arrival)
        cost += MANIPULATION_COST
        positions[step.object_id] = step.target_world
        layers[step.object_id] = step.target_layer
        delivered += 1
        trace.append(StepTrace(step.object_id, "unload", step.unload_pose, arrival, True))
    return result()


def verify_goal(
    table: TableSpec,
    atoms: list[PlacementAtom],
    positions_world: dict[str, tuple[float, float]],
    layers: dict[str, int],
    tol: float = ALIGNMENT_TOL + 1e-6,
) -> bool:
    """Do the final world-frame positions satisfy every goal atom?

    Positions are converted into the target table's frame; objects that
    never reached the table simply fail their atoms.
    """
    frame = {o: table.to_table_frame(x, y) for o, (x, y) in positions_world.items()}
    return all(satisfied_atoms(atoms, frame, layers, tol))


def relation_satisfaction(
    table: TableSpec,
    atoms: list[PlacementAtom],
    positions_world: dict[str, tuple[float, float]],
    layers: dict[str, int],
    tol: float = ALIGNMENT_TOL + 1e-6,
) -> float:
    """Fraction of goal atoms holding in the final state."""
    if not atoms:
        return 1.0
    frame = {o: table.to_table_frame(x, y) for o, (x, y) in positions_world.items()}
    flags = satisfied_atoms(atoms, frame, layers, tol)
    return sum(flags) / len(flags)
