"""Noisy rollout of a selected plan, mirroring the feasibility trial model.

Every navigation leg ends at the planned standing pose plus fresh Gaussian
arrival error; arriving in collision is a navigation failure. Loading is
treated as always succeeding once the robot stands at the loading spot.
Unloading succeeds when the arrival position is within arm's reach of the
placement target and the straight reach line stays clear of furniture other
than the target table; the object is then placed exactly at its planned
target. The rollout halts at the first failure. A baseline plan cut short
at routing (``plan.truncated``) whose routed prefix runs clean fails in
navigation at its cut, on the first unrouted object.

The arrival noise parameters are the same FeasibilityParams the planner's
heatmaps were built with, so feasibility estimates and execution outcomes
are draws from one distribution. Each arrival is one draw call of three
standard normals, the stream of a ``normal`` call for position and one for
heading; the heading draw is discarded. Collision and reach tests are
scalar loops over stored ``Rect`` bounds with exact far-rectangle early-outs.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass

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
# Alignment tolerance of goal verification: the relation tolerance plus
# slack for rounding in the conversion into the table frame.
VERIFY_TOL = ALIGNMENT_TOL + 1e-6


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


def _noisy_arrival(
    pose: Pose2D, params: FeasibilityParams, rng: np.random.Generator
) -> tuple[float, float]:
    # numpy's normal(loc, scale) is loc + scale * standard_normal, so this is
    # the stream and values of normal(0, sigma_xy, 2); the third draw is the
    # discarded heading's.
    zx, zy, _ = rng.standard_normal(3).tolist()
    s = params.nav_sigma_xy
    return pose.x + (0.0 + s * zx), pose.y + (0.0 + s * zy)


def _reach_clear(
    scene: SceneState,
    arrival: tuple[float, float],
    target: tuple[float, float],
    target_table: str,
    params: FeasibilityParams,
) -> bool:
    if math.hypot(arrival[0] - target[0], arrival[1] - target[1]) > params.reach_radius:
        return False
    for rect in scene.reach_blockers(target_table):
        if segment_hits_rect(arrival, target, rect):
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
    cost = 0.0
    delivered = 0

    def result(kind: str | None = None, failed_object=None, stage=None) -> ExecutionResult:
        if kind is not None:
            log.debug("run failed: %s during %s of %s", kind, stage, failed_object)
        return ExecutionResult(
            success=kind is None,
            failure_kind=kind,
            failed_object=failed_object,
            failed_stage=stage,
            objects_delivered=delivered,
            executed_cost=cost,
            final_positions=positions,
            final_layers=layers,
        )

    for step in plan.steps:
        # Leg to the loading spot.
        cost += step.leg_to_load
        arrival = _noisy_arrival(step.load_pose, params, rng)
        if robot_collides(scene, *arrival):
            return result(NAVIGATION, step.object_id, "load")
        # Loading itself is not modeled as failable.
        cost += MANIPULATION_COST

        cost += step.leg_to_unload
        arrival = _noisy_arrival(step.unload_pose, params, rng)
        if robot_collides(scene, *arrival):
            return result(NAVIGATION, step.object_id, "unload")
        if not _reach_clear(scene, arrival, step.target_world, step.target_table, params):
            return result(MANIPULATION, step.object_id, "unload")
        cost += MANIPULATION_COST
        positions[step.object_id] = step.target_world
        layers[step.object_id] = step.target_layer
        delivered += 1
    if plan.truncated:
        # The routed prefix ran clean; the next object's legs have no path.
        return result(NAVIGATION, plan.order[len(plan.steps)], plan.truncated)
    return result()


def verify_goal(
    table: TableSpec,
    atoms: list[PlacementAtom],
    positions_world: dict[str, tuple[float, float]],
    layers: dict[str, int],
) -> bool:
    """Do the final world-frame positions satisfy every goal atom?

    Positions are converted into the target table's frame; objects that
    never reached the table simply fail their atoms.
    """
    frame = {o: table.to_table_frame(x, y) for o, (x, y) in positions_world.items()}
    return all(satisfied_atoms(atoms, frame, layers, VERIFY_TOL))


def relation_satisfaction(
    table: TableSpec,
    atoms: list[PlacementAtom],
    positions_world: dict[str, tuple[float, float]],
    layers: dict[str, int],
) -> float:
    """Fraction of goal atoms holding in the final state."""
    if not atoms:
        return 1.0
    frame = {o: table.to_table_frame(x, y) for o, (x, y) in positions_world.items()}
    flags = satisfied_atoms(atoms, frame, layers, VERIFY_TOL)
    return sum(flags) / len(flags)
