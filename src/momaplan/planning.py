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
with the baseline planners in ``harness``. Every stand a leg starts from
is the robot's start or the center of a target-table band cell, so the
loading stand after it is kept per scene by band index
(``Router.loading_stands``). ``legs`` prices both legs of one step with the
loading cell's cached single-source cost field, and ``route`` turns a
chosen plan into steps in one pass, reading each leg off those same fields
as an explicit grid path (``Navigator.field_path``) and pricing the plan,
so no A* runs while planning; A* is the reference acceptance 4 checks. The
planner prices every candidate of a configuration from one leg table over
(previous stand, unload option) pairs: it gathers each pair's loading cell
from the stand tables, prices only the pairs some candidate reaches with
its earlier legs connected, one cost field per distinct loading cell, and
skips candidates with a leg that does not connect. Only the winning plan
is routed, and its cost and utility are recomputed from its paths.

Standing spots are frozen deterministically: the unloading spot for a given
(configuration, object, side) triple is one probability-weighted draw from
the feasibility map, seeded from the scene seed, so re-planning reproduces
the same plan and execution replays the exact stands the planner scored.
Each unload option has two ``SeedSequence``-spawned ``PCG64`` streams, one
for its feasibility estimate and one for its stand draw; a planning call
derives all of them in one array pass (``feasibility.pcg64_states``) and
loads each in turn into one shared generator. Pricing a step reads only
the loading cell; the loading pose is built for routed steps.
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
from .world import Pose2D, SceneState, SymbolicLocation, stacked_cell_centers, symbolic_locations

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
    in row-major cell order, for nearest-usable-cell and in-reach queries; a
    cell's position in them is its band index. ``centers`` is the one copy
    of the centers the locations read, ``cells`` the flat grid index of
    each center, and a cell is usable when ``Navigator.reachable_at`` holds
    at its center."""

    def __init__(self, nav: Navigator, locations: list[SymbolicLocation]):
        self.locations = locations
        sizes = [loc.dims[0] * loc.dims[1] for loc in locations]
        self._offset = dict(zip((loc.id for loc in locations), np.cumsum([0] + sizes).tolist()))
        self.centers = stacked_cell_centers(locations)
        self.owner = np.repeat(np.arange(len(locations)), sizes)
        self.cells = nav.flat_cells(self.centers)
        self.usable = nav.reachable_at(self.centers)

    def index(self, location: SymbolicLocation, cell: Cell) -> int:
        """Band index of ``cell`` of ``location``, one of this band's."""
        return self._offset[location.id] + cell[0] * location.dims[1] + cell[1]

    def nearest_free(self, points: np.ndarray) -> np.ndarray:
        """Band index of the usable cell nearest each of ``points``, shape
        (m, 2) (the first of ties), or -1 when no cell is usable; one
        distance pass for all of them."""
        if not self.usable.any():
            return np.full(len(points), -1)
        d2 = (self.centers[:, 0] - points[:, :1]) ** 2 + (self.centers[:, 1] - points[:, 1:]) ** 2
        return np.argmin(np.where(self.usable, d2, np.inf), axis=1)


@dataclass
class UnloadOption:
    """One way to put an object down: a standing pose beside the target
    table, facing the unload point, with the feasibility the planner scored
    for it (zero for the baselines, which score none)."""

    location: SymbolicLocation
    pose: Pose2D
    cell: Cell  # navigation grid cell of the standing pose
    band_index: int  # the stand's cell in its table's ``BandIndex``
    target_world: tuple[float, float]
    layer: int
    fea_task: float = 0.0
    fea_stand: float = 0.0


_UNSET = -2  # a stand-table entry not looked up yet


class Router:
    """The loading-stand and leg-routing rule every system shares.

    A loading stand is the usable band cell of the object's source table
    whose center is nearest the previous stand (the first of ties): a free
    cell in the robot's start component, faced toward the object. A
    previous stand is the robot's start or the center of a band cell, so
    the navigator keeps the rule's answers in per-scene tables by band
    index, one per (stand table, source table) with a last entry for the
    start, filled only for the stands some query asks for. Both legs of a
    step are priced off the loading cell's cached cost field, so a search
    pricing thousands of candidates computes at most one field per
    distinct loading stand; ``route`` then reads the legs of a chosen plan
    off the same fields as explicit grid paths, with no search of their
    own, and prices the plan. Cost fields, band indices and stand tables
    live in the scene's navigator, so every router of a scene shares them.
    """

    def __init__(self, scene: SceneState):
        self.scene = scene
        self.nav = navigator_for(scene)
        self.source = {o.id: o.initial_location for o in scene.objects}

    def band(self, table_id: str) -> BandIndex:
        """The band index of ``table_id``, built once per scene."""
        if table_id not in self.nav.bands:
            self.nav.bands[table_id] = BandIndex(self.nav, symbolic_locations(self.scene, table_id))
        return self.nav.bands[table_id]

    def loading_stands(self, source: str, table: str, stands: np.ndarray) -> np.ndarray:
        """Band index in ``source``'s band of the loading stand after each
        of ``stands``: a band cell of ``table``'s band, or -1 for the
        robot's start. -1 where no cell of the band is usable. Stands not
        asked for before are looked up in one distance pass and kept in the
        scene's table for (``table``, ``source``), whose last entry is the
        start's."""
        known = self.nav.stands.get((table, source))
        if known is None:
            size = len(self.band(table).centers) + 1
            known = self.nav.stands[(table, source)] = np.full(size, _UNSET, dtype=np.int32)
        missing = np.unique(stands[known[stands] == _UNSET])
        if len(missing):
            points = self.band(table).centers[missing]
            if missing[0] < 0:
                points[0] = self.scene.robot_pose.xy
            known[missing] = self.band(source).nearest_free(points)
        return known[stands]

    def load_pose(self, obj: str, point: tuple[float, float]) -> Pose2D:
        """Pose at a loading stand point, facing ``obj``."""
        x, y = point
        ox, oy = self.scene.start_positions[obj]
        return Pose2D(x, y, math.atan2(oy - y, ox - x))

    def legs(
        self, prev: UnloadOption | None, obj: str, option: UnloadOption
    ) -> tuple[tuple[float, float], Cell, float, float] | None:
        """Loading stand point, load cell and both leg costs of one step:
        move ``obj`` to ``option`` after standing at ``prev``, or at the
        robot's start when ``prev`` is None, with the stand read from the
        scene's stand tables. None when there is no loading stand or a leg
        does not connect."""
        source = self.source[obj]
        prev_cell, at = (self.nav.start_cell, -1) if prev is None else (prev.cell, prev.band_index)
        stand = self.loading_stands(source, (prev or option).location.table_id, np.array([at]))[0]
        if stand < 0:
            return None
        band = self.band(source)
        load_cell = divmod(int(band.cells[stand]), self.nav.grid.shape[1])
        load_field = self.nav.cost_field(load_cell)
        leg1 = float(load_field[prev_cell])
        leg2 = float(load_field[option.cell])
        if math.isinf(leg1) or math.isinf(leg2):
            return None
        x, y = band.centers[stand].tolist()
        return (x, y), load_cell, leg1, leg2

    def route(
        self, pairs: Iterable[tuple[str, UnloadOption]]
    ) -> tuple[list[PlanStep], bool, float]:
        """Route (object, unload option) pairs in order, each leg read off
        its loading cell's cached cost field as an explicit grid path.

        Returns the steps routed before the first leg that does not connect,
        whether every leg connected, and the cost of the routed steps: their
        path lengths plus ``MANIPULATION_COST`` per load and per unload.
        """
        prev: UnloadOption | None = None
        prev_cell = self.nav.start_cell
        steps: list[PlanStep] = []
        connected = True
        for obj, option in pairs:
            legs = self.legs(prev, obj, option)
            if legs is None:
                connected = False
                break
            load_point, load_cell = legs[:2]
            to_load = self.nav.field_path(prev_cell, load_cell) if prev_cell != load_cell else None
            to_unload = self.nav.field_path(option.cell, load_cell)
            steps.append(
                PlanStep(
                    object_id=obj,
                    source_table=self.source[obj],
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
            prev, prev_cell = option, option.cell
        cost = sum(step.leg_to_load + step.leg_to_unload for step in steps)
        return steps, connected, cost + MANIPULATION_COST * 2 * len(steps)


def _unload_option(
    scene: SceneState,
    nav: Navigator,
    band: BandIndex,
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
        band_index=band.index(location, cell),
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
    router: Router, band: BandIndex, choices: list[tuple[str, UnloadOption]], pairs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Navigation cost, summed unload feasibility and connectedness of every
    candidate of one configuration, priced from one leg table.

    ``pairs[c, k]`` codes step k of candidate c as ``prev * len(choices) +
    choice``, where ``prev`` is 0 at the robot's start and ``1 + j`` after
    unloading ``choices[j]``, whose stands are cells of ``band``. A code's
    loading cell is gathered from the scene's stand tables, and its legs
    connect when it has one and both other ends are usable cells, since a
    cost field is finite exactly on its source's component. Only codes of
    candidates whose earlier steps connect are priced, each once, with one
    cost field per distinct loading cell among them: the fields walking
    every candidate asks for. Both sums add column by column, so each
    candidate's equal its steps added one at a time.
    """
    nav, size = router.nav, len(choices)
    table = choices[0][1].location.table_id
    stands = np.array([-1] + [option.band_index for _, option in choices])
    sources = [router.source[obj] for obj, _ in choices]
    # Flat grid index of the loading cell after each previous stand, one
    # row per source table; -1 where there is none.
    source_row = {source: row for row, source in enumerate(dict.fromkeys(sources))}
    after = np.empty((len(source_row), len(stands)), dtype=np.int64)
    for source, row in source_row.items():
        found = router.loading_stands(source, table, stands)
        after[row] = np.where(found >= 0, router.band(source).cells[found], -1)
    load = after[[source_row[source] for source in sources]].T.ravel()
    usable = band.usable[stands]
    usable[0] = True  # the robot's start
    connects = (load >= 0) & (usable[:, None] & usable[1:]).ravel()

    prefix = np.logical_and.accumulate(connects[pairs], axis=1)
    asked = np.zeros(len(load), dtype=bool)
    asked[pairs[:, 0]] = True
    asked[pairs[:, 1:][prefix[:, :-1]]] = True
    asked = np.flatnonzero(asked & (load >= 0))
    cells = load[asked]
    order = np.argsort(cells, kind="stable")
    asked, cells = asked[order], cells[order]
    # Flat grid index of each previous stand: the start, then every choice.
    grid_cols = nav.grid.shape[1]
    stand_cells = band.cells[stands]
    stand_cells[0] = nav.start_cell[0] * grid_cols + nav.start_cell[1]
    prev_at, option_at = stand_cells[asked // size], stand_cells[1 + asked % size]
    costs = np.empty(len(asked))
    # Codes sharing a loading cell are priced off its one cost field.
    starts = np.flatnonzero(np.diff(cells, prepend=-1)).tolist()
    for lo, hi in zip(starts, starts[1:] + [len(cells)]):
        field = nav.cost_field(divmod(int(cells[lo]), grid_cols)).ravel()
        costs[lo:hi] = field[prev_at[lo:hi]] + field[option_at[lo:hi]]
    step_cost = np.full(len(load), math.inf)
    step_cost[asked] = np.where(connects[asked], costs, math.inf)

    step_cost = step_cost[pairs]
    fea_task = np.array([option.fea_task for _, option in choices])[pairs % size]
    nav_cost = np.zeros(len(pairs))
    fea_sum = np.zeros(len(pairs))
    for k in range(pairs.shape[1]):
        nav_cost = nav_cost + step_cost[:, k]
        fea_sum = fea_sum + fea_task[:, k]
    return nav_cost, fea_sum, prefix[:, -1]


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
    band = router.band(target_table)
    target_locations = band.locations
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
                scene, router.nav, band, loc_by_side[side], table.to_world(*config.positions[obj]),
                config.layers[obj], params, gen,
                option_streams[(m * n + oi) * len(side_ids) + si],
            ))
            for oi, obj in enumerate(objects)
            for si, side in enumerate(side_ids)
        ]
        nav_cost, fea_sum, connected = _price_candidates(router, band, choices, pairs)
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
