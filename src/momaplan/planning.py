"""Utility-optimal task-and-motion planning over candidate configurations.

A task plan moves each requested object from its source table to the target
table as a pair of actions: navigate to a loading spot and pick the object
up, then navigate to an unloading spot beside the target table and put the
object down. Candidate plans enumerate object orders (restricted so a
support is always placed before anything stacked on it) crossed with, per
object, which side of the target table to unload from, up to a fixed budget
in enumeration order.

Each candidate is scored against each grounded configuration by expected
utility: a fixed reward scaled by the plan's expected manipulation
feasibility, minus its cost. Feasibility averages one term per manipulation
(loading counts as certain; unloading uses the standing-spot analysis for
that side and unload point). Cost adds optimal navigation distances between
consecutive stands and a fixed charge per manipulation.

``Router`` holds the loading-stand, leg-routing and plan-cost rule, shared
with the baseline planners in ``harness``: ``legs`` picks one step's
loading stand and prices both of its legs with cached single-source cost
fields, and ``route`` turns a chosen plan into steps in one pass, reading
each leg off those same fields as an explicit grid path
(``Navigator.field_path``) and pricing the plan, so no A* runs while
planning; A* is the reference acceptance 4 checks. The planner prices
every candidate of a configuration from one leg table over (previous
stand, unload option) pairs, filled only for the pairs some candidate
reaches, and skips candidates with a leg that does not connect. The table
first finds the loading stands after every stand of the configuration in
one distance pass per source table. Only the winning plan is routed, and
its cost and utility are recomputed from its paths.

Standing spots are frozen deterministically: the unloading spot for a given
(configuration, object, side) triple is one probability-weighted draw from
the feasibility map, seeded from the scene seed, so re-planning reproduces
the same plan and execution replays the exact stands the planner scored.
Each unload option has two ``SeedSequence``-spawned ``PCG64`` streams, one
for its feasibility estimate and one for its stand draw; a planning call
derives all of them in one array pass (``feasibility.pcg64_states``) and
loads each in turn into one shared generator. Pricing a step reads only
the memoised loading cell; the loading pose is built for routed steps.
"""
from __future__ import annotations

import itertools
import logging
import math
from collections.abc import Iterable
from dataclasses import dataclass, field, replace

import numpy as np

from .feasibility import (
    FeasibilityParams,
    compute_feasibility_map,
    pcg64_states,
    sample_standing_cell,
    standing_pose,
    task_feasibility,
)
from .grounding import Configuration
from .motion import MotionPlan, Navigator, navigator_for
from .relations import ON_TOP_OF, PlacementAtom
from .world import Pose2D, SceneState, SymbolicLocation, symbolic_locations

log = logging.getLogger(__name__)

Cell = tuple[int, int]

REWARD = 100.0
MANIPULATION_COST = 0.5
MAX_PLANS = 500


class PlanningError(RuntimeError):
    """No candidate plan survived feasibility and connectivity screening."""


@dataclass
class PlanningParams:
    feasibility: FeasibilityParams = field(default_factory=FeasibilityParams)
    # Entropy word mixed into standing-draw seeds so repeated planning calls
    # on one scene can be made independent when desired.
    stand_seed: int = 0


@dataclass(frozen=True)
class PlanStep:
    object_id: str
    source_table: str
    load_pose: Pose2D
    load_cell: Cell
    unload_location: str
    unload_pose: Pose2D
    unload_cell: Cell
    target_world: tuple[float, float]
    target_layer: int
    fea_task: float
    fea_stand: float
    leg_to_load: float
    leg_to_unload: float
    path_to_load: MotionPlan | None  # None when the robot already stands there
    path_to_unload: MotionPlan


@dataclass
class SelectedPlan:
    config_index: int
    plan_index: int
    order: tuple[str, ...]
    sides: tuple[str, ...]
    configuration: Configuration
    steps: list[PlanStep]
    feasibility: float
    cost: float
    utility: float
    # Values seen during search, before the winning plan was routed along
    # explicit paths.
    search_cost: float
    search_utility: float
    candidates_evaluated: int
    # True when a leg could not be routed and the step list was cut short
    # (only baseline planners produce such plans; executing one ends in a
    # navigation failure at the cut).
    truncated: bool = False


def stacking_orders(
    objects: list[str], atoms: list[PlacementAtom], limit: int | None = None
) -> list[tuple[str, ...]]:
    """Object orders where every support precedes what stacks on it."""
    supports = {a.subject: a.reference for a in atoms if a.relation == ON_TOP_OF}
    orders: list[tuple[str, ...]] = []
    for perm in itertools.permutations(objects):
        pos = {o: i for i, o in enumerate(perm)}
        if all(
            pos[sub] > pos[sup]
            for sub, sup in supports.items()
            if sub in pos and sup in pos
        ):
            orders.append(perm)
            if limit is not None and len(orders) >= limit:
                break
    return orders


def enumerate_candidates(
    objects: list[str],
    atoms: list[PlacementAtom],
    sides: tuple[str, ...],
    max_plans: int,
) -> list[tuple[tuple[str, ...], tuple[str, ...]]]:
    """(order, per-object side) pairs in enumeration order, capped."""
    out: list[tuple[tuple[str, ...], tuple[str, ...]]] = []
    for order in stacking_orders(objects, atoms):
        for side_combo in itertools.product(sides, repeat=len(objects)):
            out.append((order, side_combo))
            if len(out) >= max_plans:
                return out
    return out


class BandIndex:
    """Flat arrays over every band cell of one table, location by location
    in row-major cell order, for nearest-usable-cell and in-reach queries.
    A cell is usable when ``Navigator.reachable_at`` holds at its center."""

    def __init__(self, nav: Navigator, locations: list[SymbolicLocation]):
        self.locations = locations
        grids = [loc.cell_centers().reshape(-1, 2) for loc in locations]
        self.centers = np.concatenate(grids)
        self.owner = np.repeat(np.arange(len(grids)), [len(grid) for grid in grids])
        self.usable = nav.reachable_at(self.centers)

    def nearest_free(self, points: np.ndarray) -> list[tuple[float, float] | None]:
        """Center of the usable cell nearest each of ``points``, shape
        (m, 2) (the first of ties), or None when no cell is usable; one
        distance pass for all of them."""
        if not self.usable.any():
            return [None] * len(points)
        d2 = (self.centers[:, 0] - points[:, :1]) ** 2 + (self.centers[:, 1] - points[:, 1:]) ** 2
        nearest = np.argmin(np.where(self.usable, d2, np.inf), axis=1)
        return [(x, y) for x, y in self.centers[nearest].tolist()]


@dataclass
class UnloadOption:
    """One way to put an object down: a standing pose beside the target
    table, facing the unload point, with the feasibility the planner scored
    for it (zero for the baselines, which score none)."""

    location: SymbolicLocation
    pose: Pose2D
    cell: Cell  # navigation grid cell of the standing pose
    target_world: tuple[float, float]
    layer: int
    fea_task: float = 0.0
    fea_stand: float = 0.0


class Router:
    """The loading-stand and leg-routing rule every system shares.

    A loading stand is the free band cell of the object's source table
    nearest the previous stand, in the robot's start component, facing the
    object. Both legs of a step are priced off the loading cell's cached
    cost field, so a search pricing thousands of candidates computes at
    most one field per distinct loading stand; ``route`` then reads the
    legs of a chosen plan off the same fields as explicit grid paths, with
    no search of their own, and prices the plan. Cost fields and band
    indices live in the scene's navigator, so every router of a scene
    shares them.
    """

    def __init__(self, scene: SceneState):
        self.scene = scene
        self.nav = navigator_for(scene)
        self._source = {o.id: o.initial_location for o in scene.objects}
        # The nearest-free rule reads the previous stand's point, so the
        # memo is keyed by that point, not by the grid cell it falls in.
        self._nearest: dict[tuple[str, tuple[float, float]], tuple[tuple[float, float], Cell] | None] = {}

    def band(self, table_id: str) -> BandIndex:
        """The band index of ``table_id``, built once per scene."""
        if table_id not in self.nav.bands:
            self.nav.bands[table_id] = BandIndex(self.nav, symbolic_locations(self.scene, table_id))
        return self.nav.bands[table_id]

    def load_stands(self, objects: Iterable[str], points: list[tuple[float, float]]) -> None:
        """Memoise the loading stand after each of ``points`` for every
        source table of ``objects``: one distance pass per table."""
        for table_id in dict.fromkeys(self._source[obj] for obj in objects):
            missing = [p for p in points if (table_id, p) not in self._nearest]
            if missing:
                found = self.band(table_id).nearest_free(np.array(missing))
                for prev_point, point in zip(missing, found):
                    self._nearest[(table_id, prev_point)] = (
                        None if point is None else (point, self.nav.cell_of(*point))
                    )

    def load_stand(
        self, obj: str, prev_point: tuple[float, float]
    ) -> tuple[tuple[float, float], Cell] | None:
        """Loading stand point and its grid cell for ``obj`` after standing
        at ``prev_point``; None when no band cell of its source table is
        reachable."""
        key = (self._source[obj], prev_point)
        if key not in self._nearest:
            self.load_stands([obj], [prev_point])
        return self._nearest[key]

    def load_pose(self, obj: str, point: tuple[float, float]) -> Pose2D:
        """Pose at a loading stand point, facing ``obj``."""
        x, y = point
        ox, oy = self.scene.start_positions[obj]
        return Pose2D(x, y, math.atan2(oy - y, ox - x))

    def legs(
        self, prev_cell: Cell, prev_point: tuple[float, float], obj: str, option: UnloadOption
    ) -> tuple[tuple[float, float], Cell, float, float] | None:
        """Loading stand point, load cell and both leg costs of one step:
        move ``obj`` to ``option`` after standing at ``prev_point`` in
        ``prev_cell``. None when there is no loading stand or a leg does
        not connect. Pricing builds no pose; ``route`` turns the point of a
        routed step into one."""
        found = self.load_stand(obj, prev_point)
        if found is None:
            return None
        load_point, load_cell = found
        load_field = self.nav.cost_field(load_cell)
        leg1 = 0.0 if prev_cell == load_cell else float(load_field[prev_cell])
        leg2 = float(load_field[option.cell])
        if math.isinf(leg1) or math.isinf(leg2):
            return None
        return load_point, load_cell, leg1, leg2

    def route(
        self, pairs: Iterable[tuple[str, UnloadOption]]
    ) -> tuple[list[PlanStep], bool, float]:
        """Route (object, unload option) pairs in order, each leg read off
        its loading cell's cached cost field as an explicit grid path.

        Returns the steps routed before the first leg that does not connect,
        whether every leg connected, and the cost of the routed steps: their
        path lengths plus ``MANIPULATION_COST`` per load and per unload.
        """
        prev_cell = self.nav.start_cell
        prev_point = self.scene.robot_pose.xy
        steps: list[PlanStep] = []
        connected = True
        for obj, option in pairs:
            legs = self.legs(prev_cell, prev_point, obj, option)
            if legs is None:
                connected = False
                break
            load_point, load_cell = legs[:2]
            to_load = self.nav.field_path(prev_cell, load_cell) if prev_cell != load_cell else None
            to_unload = self.nav.field_path(option.cell, load_cell)
            steps.append(
                PlanStep(
                    object_id=obj,
                    source_table=self._source[obj],
                    load_pose=self.load_pose(obj, load_point),
                    load_cell=load_cell,
                    unload_location=option.location.id,
                    unload_pose=option.pose,
                    unload_cell=option.cell,
                    target_world=option.target_world,
                    target_layer=option.layer,
                    fea_task=option.fea_task,
                    fea_stand=option.fea_stand,
                    leg_to_load=to_load.cost if to_load else 0.0,
                    leg_to_unload=to_unload.cost,
                    path_to_load=to_load,
                    path_to_unload=replace(to_unload, cells=to_unload.cells[::-1]),
                )
            )
            prev_cell = option.cell
            prev_point = option.pose.xy
        cost = sum(step.leg_to_load + step.leg_to_unload for step in steps)
        return steps, connected, cost + MANIPULATION_COST * 2 * len(steps)


def _unload_option(
    scene: SceneState,
    nav: Navigator,
    location: SymbolicLocation,
    target_world: tuple[float, float],
    layer: int,
    params: PlanningParams,
    gen: np.random.Generator,
    streams: tuple[tuple[int, int], tuple[int, int]],
) -> UnloadOption:
    """Score one unload option and freeze its stand: ``gen`` is loaded with
    the feasibility stream, then with the stand-draw stream, of
    ``streams`` (``PCG64`` ``(state, inc)`` pairs)."""
    fmap = compute_feasibility_map(scene, location, target_world, params.feasibility)
    fea_task = task_feasibility(fmap, _load(gen, streams[0]))
    cell = sample_standing_cell(fmap, _load(gen, streams[1]))
    pose = standing_pose(location, cell, target_world)
    return UnloadOption(
        location=location,
        pose=pose,
        cell=nav.cell_of(pose.x, pose.y),
        target_world=target_world,
        layer=layer,
        fea_task=fea_task,
        fea_stand=fmap.value_at(cell),
    )


def _load(gen: np.random.Generator, stream: tuple[int, int]) -> np.random.Generator:
    """``gen`` set to the start of the PCG64 stream ``(state, inc)``."""
    gen.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": stream[0], "inc": stream[1]},
        "has_uint32": 0,
        "uinteger": 0,
    }
    return gen


def _price_candidates(
    router: Router, choices: list[tuple[str, UnloadOption]], pairs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Navigation cost, summed unload feasibility and connectedness of every
    candidate of one configuration, priced from one leg table.

    ``pairs[c, k]`` codes step k of candidate c as ``prev * len(choices) +
    choice``, where ``prev`` is 0 at the robot's start and ``1 + j`` after
    unloading ``choices[j]``. Step k's pairs are priced once each, and only
    for candidates whose earlier steps connected, so the table asks for the
    cost fields that walking every candidate would. Both sums add column by
    column, so each candidate's equal its steps added one at a time.
    """
    stands = [(router.nav.start_cell, router.scene.robot_pose.xy)]
    stands += [(option.cell, option.pose.xy) for _, option in choices]
    router.load_stands((obj for obj, _ in choices), [point for _, point in stands])
    fea_task = np.array([option.fea_task for _, option in choices])
    step_cost = np.full(len(stands) * len(choices), np.nan)  # nan: not priced
    connected = np.ones(len(pairs), dtype=bool)
    nav_cost = np.zeros(len(pairs))
    fea_sum = np.zeros(len(pairs))
    for column in pairs.T:
        wanted = column[connected]
        for code in np.unique(wanted[np.isnan(step_cost[wanted])]).tolist():
            prev, choice = divmod(code, len(choices))
            legs = router.legs(*stands[prev], *choices[choice])
            step_cost[code] = math.inf if legs is None else legs[2] + legs[3]
        costs = step_cost[column]
        connected &= costs < math.inf
        nav_cost = nav_cost + costs
        fea_sum = fea_sum + fea_task[column % len(choices)]
    return nav_cost, fea_sum, connected


def plan_task(
    scene: SceneState,
    target_table: str,
    configurations: list[Configuration],
    atoms: list[PlacementAtom],
    params: PlanningParams | None = None,
) -> SelectedPlan:
    """Pick the utility-maximal (configuration, task plan) pair.

    Ties keep the lowest configuration index, then the lowest plan index.
    """
    params = params or PlanningParams()
    if not configurations:
        raise PlanningError("no grounded configurations to plan for")
    objects = list(configurations[0].positions)
    table = scene.table(target_table)
    router = Router(scene)
    target_locations = router.band(target_table).locations
    side_ids = tuple(loc.side for loc in target_locations)
    loc_by_side = {loc.side: loc for loc in target_locations}

    candidates = enumerate_candidates(objects, atoms, side_ids, MAX_PLANS)
    if not candidates:
        raise PlanningError("no admissible object orders")
    if router.nav.start_component < 0:
        raise PlanningError("robot start cell is blocked on the inflated grid")

    n = len(objects)
    manip_total = MANIPULATION_COST * 2 * n
    # Step k of candidate c unloads choice codes[c, k] = object * sides + side,
    # after standing at the start or at the previous step's choice.
    object_index = {obj: oi for oi, obj in enumerate(objects)}
    side_index = {side: si for si, side in enumerate(side_ids)}
    codes = np.array([
        [object_index[obj] * len(side_ids) + side_index[side] for obj, side in zip(*candidate)]
        for candidate in candidates
    ])
    prev = np.zeros_like(codes)
    prev[:, 1:] = codes[:, :-1] + 1
    pairs = prev * (n * len(side_ids)) + codes

    # Spawn key (m, oi, si, t) seeds unload option (object oi, side si) of
    # configuration m: t = 0 scores its feasibility, t = 1 draws its stand.
    streams = pcg64_states(
        (scene.rng_seed, params.stand_seed),
        np.indices((len(configurations), n, len(side_ids), 2)).reshape(4, -1).T,
    )
    option_streams = list(zip(streams[0::2], streams[1::2]))
    gen = np.random.Generator(np.random.PCG64(0))

    best: tuple[float, int, int] | None = None  # (utility, config_idx, plan_idx)
    best_choices: list[tuple[str, UnloadOption]] = []
    best_f = 0.0
    best_c = math.inf

    for m, config in enumerate(configurations):
        choices = [
            (obj, _unload_option(
                scene, router.nav, loc_by_side[side], table.to_world(*config.positions[obj]),
                config.layers[obj], params, gen,
                option_streams[(m * n + oi) * len(side_ids) + si],
            ))
            for oi, obj in enumerate(objects)
            for si, side in enumerate(side_ids)
        ]
        nav_cost, fea_sum, connected = _price_candidates(router, choices, pairs)
        fea = (n * 1.0 + fea_sum) / (2 * n)
        cost = nav_cost + manip_total
        utility = REWARD * fea - cost
        # Visit candidates in plan order, so the first of near-ties wins;
        # one that cannot beat the best so far is never visited.
        if best is not None:
            connected &= utility > best[0] + 1e-12
        for pi in np.flatnonzero(connected).tolist():
            if best is None or utility[pi] > best[0] + 1e-12:
                best = (float(utility[pi]), m, pi)
                best_choices = choices
                best_f = float(fea[pi])
                best_c = float(cost[pi])
    if best is None:
        raise PlanningError("every candidate plan was disconnected or infeasible")

    utility, m, pi = best
    order, sides_combo = candidates[pi]
    steps, _, final_cost = router.route(best_choices[code] for code in codes[pi].tolist())
    final_utility = REWARD * best_f - final_cost
    log.info(
        "selected config %d plan %d order=%s sides=%s F=%.3f C=%.2f U=%.2f",
        m, pi, order, sides_combo, best_f, final_cost, final_utility,
    )
    return SelectedPlan(
        config_index=m,
        plan_index=pi,
        order=order,
        sides=sides_combo,
        configuration=configurations[m],
        steps=steps,
        feasibility=best_f,
        cost=final_cost,
        utility=final_utility,
        search_cost=best_c,
        search_utility=utility,
        candidates_evaluated=len(candidates) * len(configurations),
    )
