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

Arrival noise over (x, y) uses the FeasibilityParams the planner's maps were
built with, so maps and replays draw from one distribution. A run draws it in
one ``rng.normal(0.0, sigma, 4 * len(plan.steps))`` call (x and y per arrival,
two arrivals per step). Each value is ``0.0 + sigma * z`` for the ``z`` that
``standard_normal`` would draw, so any run uses ``4 * len(plan.steps)`` normals.

Most arrivals pass with one comparison. Each ``PlanStep`` carries
free-space radii fixed when it was routed: the load pose's clearance from
every solid rectangle, and the unload pose's clearance lowered to its
nominal reach line's distance from every reach blocker, with the unload
pose's distance to its target. An arrival offset ``o`` from its stand,
with ``|o|`` below the stage's radius less ``EARLY_OUT_SLACK`` (for
unloading, also below the reach radius less that distance), passes the
stage without a test. The disc centered at the arrival lies within ``|o|``
of the stand's, and each point of the perturbed reach line lies within
``|o|`` of the nominal line (point t moves by ``(1 - t) o``), so no test
could fail there, and the slack absorbs rounding. Every other arrival runs
the full collision and reach tests, scalar loops over stored ``Rect``
bounds with exact far-rectangle early-outs.

The goal checks hand world-frame positions and the table center to
``relations.satisfied_atoms``, where the atom rule lives.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .feasibility import FeasibilityParams
from .geometry import EARLY_OUT_SLACK, segment_hits_rect
from .motion import robot_collides
from .planning import MANIPULATION_COST, SelectedPlan
from .relations import ALIGNMENT_TOL, PlacementAtom, satisfied_atoms
from .world import SceneState, TableSpec

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
    planned cost. A plan is replayed in the scene it was routed in: its
    leg costs, paths and free-space radii are that scene's, and a radius
    taken to another scene could pass an arrival that collides there.
    """
    params = params or FeasibilityParams()
    steps = plan.steps
    # Offsets, read four at a time: x and y of the load arrival, then of the
    # unload arrival.
    noise = iter(rng.normal(0.0, params.nav_sigma_xy, 4 * len(steps)).tolist())
    cost = 0.0
    delivered = 0
    kind: str | None = None
    stage: str | None = None
    reach, slack = params.reach_radius, EARLY_OUT_SLACK
    for step, ox, oy, ux, uy in zip(steps, *[noise] * 4):
        # Leg to the loading spot. An arrival inside the stage's radius,
        # less the slack, passes its tests without running them.
        cost += step.leg_to_load
        r = step.load_clearance - slack
        if not (r > 0.0 and ox * ox + oy * oy < r * r):
            pose = step.load_pose
            if robot_collides(scene, pose.x + ox, pose.y + oy):
                kind, stage = NAVIGATION, "load"
                break
        # Loading itself is not modeled as failable.
        cost += MANIPULATION_COST

        cost += step.leg_to_unload
        r, within = step.unload_clearance, reach - step.reach_distance
        r = (r if r < within else within) - slack
        if not (r > 0.0 and ux * ux + uy * uy < r * r):
            pose = step.unload_pose
            arrival = pose.x + ux, pose.y + uy
            if robot_collides(scene, *arrival):
                kind, stage = NAVIGATION, "unload"
                break
            if not _reach_clear(scene, arrival, step.target_world, step.target_table, params):
                kind, stage = MANIPULATION, "unload"
                break
        cost += MANIPULATION_COST
        delivered += 1

    if kind is None and plan.truncated:
        # The routed prefix ran clean; the next object's legs have no path.
        kind, stage = NAVIGATION, plan.truncated
    # The first object not delivered (steps route a prefix of the order).
    failed_object = None if kind is None else plan.order[delivered]
    if kind is not None:
        log.debug("run failed: %s during %s of %s", kind, stage, failed_object)
    positions = scene.start_positions.copy()
    layers = dict.fromkeys(positions, 0)
    for step in steps[:delivered]:
        positions[step.object_id] = step.target_world
        layers[step.object_id] = step.target_layer
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


def verify_goal(
    table: TableSpec,
    atoms: list[PlacementAtom],
    positions_world: dict[str, tuple[float, float]],
    layers: dict[str, int],
) -> bool:
    """Do the final world-frame positions satisfy every goal atom?

    Positions are read in the target table's frame; objects that never
    reached the table simply fail their atoms.
    """
    return all(satisfied_atoms(atoms, positions_world, layers, VERIFY_TOL, table.center))


def relation_satisfaction(
    table: TableSpec,
    atoms: list[PlacementAtom],
    positions_world: dict[str, tuple[float, float]],
    layers: dict[str, int],
) -> float:
    """Fraction of goal atoms holding in the final state."""
    if not atoms:
        return 1.0
    flags = satisfied_atoms(atoms, positions_world, layers, VERIFY_TOL, table.center)
    return sum(flags) / len(flags)
