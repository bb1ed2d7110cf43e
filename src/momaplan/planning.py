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
with the baseline planners in ``harness``. A stand is named by its band
index: a leg starts at the robot's start or at a target-table band cell,
so the loading stand after it is kept per scene by band index
(``Router.loading_stands``), and ``Router.legs`` says whether legs
connect. ``plan_task`` builds the candidate table once per goal, keeps
unload options as arrays (each stand's band index and feasibility) and
prices all configurations from one leg table over (previous stand, unload
option) pairs: only pairs some candidate reaches with its earlier legs
connected, one cost field per distinct loading cell, skipping candidates
with a leg that does not connect. Only the winner is routed: ``route``
reads each leg off the loading cell's cached cost field as an explicit
grid path (``Navigator.field_path``, which follows the field's cached
descent table), so no A* runs while planning (A* is the reference
acceptance 4 checks), and the winner's cost and utility are recomputed
from its paths.

Standing spots are frozen deterministically: the unloading spot for a given
(configuration, object, side) triple is one probability-weighted draw from
the feasibility map, seeded from the scene seed, so re-planning reproduces
the same plan and execution replays the exact stands the planner scored.
Each unload option has two ``SeedSequence``-spawned ``PCG64`` streams, one
for its feasibility estimate and one for its stand draw. A planning call
looks up every option's map first, then derives in one array pass
(``feasibility.pcg64_states``) only the streams that draw: every stand
stream, and the feasibility streams of options whose map has a feasible
cell, since an all-zero map scores 0.0 without drawing. Each is loaded in
turn into one shared generator.
"""
from __future__ import annotations

import functools
import itertools
import logging
import math
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from .feasibility import (
    FeasibilityParams,
    compute_feasibility_map,
    pcg64_states,
    sample_standing_cell,
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
    # The stage (``load`` or ``unload``) at which a leg could not be routed
    # and the step list was cut short, else None (only baseline planners
    # cut plans; executing one ends in a navigation failure at the cut).
    truncated: str | None = None


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


_UNSET = -2  # a stand-table entry not looked up yet


class Router:
    """The loading-stand and leg-routing rule every system shares.

    A loading stand is the usable band cell of the object's source table
    whose center is nearest the previous stand (the first of ties): a free
    cell in the robot's start component, faced toward the object. A
    previous stand is the robot's start or the center of a band cell, so
    the navigator keeps the rule's answers in per-scene tables by band
    index, one per (stand table, source table) with a last entry for the
    start, filled only for the stands some query asks for. ``legs`` tells
    which steps connect, for the search's every (previous stand, option)
    pair and for the steps ``route`` routes. Both legs of a step are priced
    off the loading cell's cached cost field, so the search computes at
    most one field per distinct loading stand; ``route`` then reads the
    legs of the chosen plan off the same fields as explicit grid paths,
    with no search of their own, and prices the plan. Cost fields, band
    indices and stand tables live in the scene's navigator, so every
    router of a scene shares them.
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

    def legs(
        self, table: str, sources: Sequence[str], prev: np.ndarray, stands: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each step's loading stand (a band index of its source table, -1
        for none), flat loading cell (-1 for none), and whether both its
        legs connect: a loading stand exists and both other ends are usable,
        since a cost field is finite exactly on its source's component.
        ``prev`` and ``stands`` are band indices of ``table`` (-1 for the
        robot's start) that broadcast together; ``sources[j]`` is the
        source table of entry j of the last axis. Stands are looked up per
        source on ``prev``'s own shape, then picked by column."""
        sources = np.asarray(sources)
        stand = np.full(np.broadcast(prev, stands).shape, -1, dtype=np.int64)
        cell = np.full_like(stand, -1)
        for source in dict.fromkeys(sources.tolist()):
            found = self.loading_stands(source, table, prev)
            column = sources == source
            np.copyto(stand, found, where=column)
            np.copyto(cell, np.where(found >= 0, self.band(source).cells[found], -1), where=column)
        usable = np.concatenate((self.band(table).usable, [True]))  # the start's entry last
        return stand, cell, (stand >= 0) & usable[prev] & usable[stands]

    def route(
        self, table: str, objects: Sequence[str], stands: Sequence[int],
        targets: Sequence[tuple[float, float]], layers: Sequence[int],
        fea_task: Sequence[float], fea_stand: Sequence[float],
    ) -> tuple[list[PlanStep], str | None, float]:
        """Route ``objects`` in order, object k unloading from band index
        ``stands[k]`` of ``table`` at ``targets[k]``, facing it, on layer
        ``layers[k]`` with the given feasibilities. Each step loads at the
        stand ``legs`` gives, facing the object, and each leg is read off
        its loading cell's cached cost field as an explicit grid path.

        Returns the steps before the first that does not connect, the
        stage of that cut (``load`` with no loading stand, else ``unload``,
        as every earlier stand is usable; None without a cut), and the
        routed steps' path lengths plus ``MANIPULATION_COST`` per load and
        per unload.
        """
        band = self.band(table)
        stands = np.asarray(stands, dtype=np.int64)
        prev = np.concatenate(([-1], stands))[:-1]
        loads, load_cells, connects = self.legs(
            table, [self.source[obj] for obj in objects], prev, stands)
        routed = int(np.argmin(np.append(connects, False)))  # the first cut, or len
        stage = None if routed == len(stands) else "load" if loads[routed] < 0 else "unload"
        width = self.nav.grid.shape[1]
        prev_cell = self.nav.start_cell
        steps: list[PlanStep] = []
        for k, obj in enumerate(objects[:routed]):
            source, stand = self.source[obj], int(stands[k])
            load_cell = divmod(int(load_cells[k]), width)
            unload_cell = divmod(int(band.cells[stand]), width)
            x, y = self.band(source).centers[loads[k]].tolist()
            ox, oy = self.scene.start_positions[obj]
            ux, uy = band.centers[stand].tolist()
            to_load = self.nav.field_path(prev_cell, load_cell) if prev_cell != load_cell else None
            to_unload = self.nav.field_path(unload_cell, load_cell)
            steps.append(
                PlanStep(
                    object_id=obj,
                    source_table=source,
                    load_pose=Pose2D(x, y, math.atan2(oy - y, ox - x)),
                    load_cell=load_cell,
                    unload_location=band.locations[band.owner[stand]].id,
                    unload_pose=Pose2D(ux, uy, math.atan2(targets[k][1] - uy, targets[k][0] - ux)),
                    unload_cell=unload_cell,
                    target_world=targets[k],
                    target_layer=layers[k],
                    fea_task=float(fea_task[k]),
                    fea_stand=float(fea_stand[k]),
                    leg_to_load=to_load.cost if to_load else 0.0,
                    leg_to_unload=to_unload.cost,
                    path_to_load=to_load,
                    path_to_unload=replace(to_unload, cells=to_unload.cells[::-1]),
                )
            )
            prev_cell = unload_cell
        cost = sum(step.leg_to_load + step.leg_to_unload for step in steps)
        return steps, stage, cost + MANIPULATION_COST * 2 * len(steps)


def _load(gen: np.random.Generator, stream: tuple[int, int]) -> np.random.Generator:
    """``gen`` set to the start of the PCG64 stream ``(state, inc)``."""
    gen.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": stream[0], "inc": stream[1]},
        "has_uint32": 0,
        "uinteger": 0,
    }
    return gen


@functools.lru_cache(maxsize=16)
def _candidate_table(
    objects: tuple[str, ...], atoms: tuple[PlacementAtom, ...], sides: tuple[str, ...]
) -> tuple[tuple[tuple[tuple[str, ...], tuple[str, ...]], ...], np.ndarray, np.ndarray]:
    """The capped candidates of one goal and their read-only step codes,
    built once per (objects, atoms, sides). ``codes[c, k] = object * S +
    side`` is the unload option of step k of candidate c, S = len(sides);
    ``pairs[c, k] = prev * len(objects) * S + codes[c, k]``, where ``prev``
    is 0 at the robot's start and ``1 + codes[c, k - 1]`` after it."""
    candidates = tuple(enumerate_candidates(list(objects), list(atoms), sides, MAX_PLANS))
    codes = np.array([
        [objects.index(obj) * len(sides) + sides.index(side) for obj, side in zip(*candidate)]
        for candidate in candidates
    ], dtype=np.int64).reshape(len(candidates), len(objects))
    prev = np.zeros_like(codes)
    prev[:, 1:] = codes[:, :-1] + 1
    pairs = prev * (len(objects) * len(sides)) + codes
    codes.setflags(write=False)
    pairs.setflags(write=False)
    return candidates, codes, pairs


def _price_candidates(
    router: Router, band: BandIndex, objects: tuple[str, ...],
    stands: np.ndarray, fea_task: np.ndarray, pairs: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Navigation cost, summed unload feasibility and connectedness, shape
    (M, C), of every candidate of every configuration, priced from one leg
    table. ``stands[m, k]`` is the band index of the frozen stand of unload
    option k of configuration m, ``fea_task[m, k]`` its scored feasibility;
    ``pairs`` codes steps as ``_candidate_table`` does, and ``Router.legs``
    gives every code's loading cell and connectedness. Only codes some
    candidate reaches with its earlier steps connected are priced, each
    once, with one cost field per distinct loading cell: the fields walking
    every candidate asks for. Both sums add column by column, so each
    candidate's equal its steps added one at a time.
    """
    nav = router.nav
    configs, size = stands.shape
    # Each configuration's previous stands: the robot's start, then every option's.
    prev = np.concatenate([np.full((configs, 1), -1), stands], axis=1)
    sources = np.repeat([router.source[obj] for obj in objects], size // len(objects))
    # load[m, p * size + k]: loading cell of option k after previous stand p.
    _, load, connects = router.legs(
        band.locations[0].table_id, sources, prev[:, :, None], stands[:, None, :])
    load, connects = load.ravel(), connects.ravel()

    width = (size + 1) * size
    flat_pairs = pairs + width * np.arange(configs)[:, None, None]
    prefix = np.logical_and.accumulate(connects[flat_pairs], axis=2)
    asked = np.zeros(len(load), dtype=bool)
    asked[flat_pairs[:, :, 0]] = True
    asked[flat_pairs[:, :, 1:][prefix[:, :, :-1]]] = True
    asked = np.flatnonzero(asked & (load >= 0))
    cells = load[asked]
    order = np.argsort(cells, kind="stable")
    asked, cells = asked[order], cells[order]
    # Flat grid index of each previous stand: the start, then every option's.
    grid_cols = nav.grid.shape[1]
    stand_cells = band.cells[prev]
    stand_cells[:, 0] = nav.start_cell[0] * grid_cols + nav.start_cell[1]
    m, code = np.divmod(asked, width)
    prev_at, option_at = stand_cells[m, code // size], stand_cells[m, 1 + code % size]
    costs = np.empty(len(asked))
    # Codes sharing a loading cell are priced off its one cost field.
    starts = np.flatnonzero(np.diff(cells, prepend=-1)).tolist()
    for lo, hi in zip(starts, starts[1:] + [len(cells)]):
        field = nav.cost_field(divmod(int(cells[lo]), grid_cols)).ravel()
        costs[lo:hi] = field[prev_at[lo:hi]] + field[option_at[lo:hi]]
    step_cost = np.full(len(load), math.inf)
    step_cost[asked] = np.where(connects[asked], costs, math.inf)

    step_cost = step_cost[flat_pairs]
    fea_step = fea_task[:, pairs % size]
    nav_cost = np.zeros(prefix.shape[:2])
    fea_sum = np.zeros(prefix.shape[:2])
    for k in range(pairs.shape[1]):
        nav_cost = nav_cost + step_cost[:, :, k]
        fea_sum = fea_sum + fea_step[:, :, k]
    return nav_cost, fea_sum, prefix[:, :, -1]


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
    objects = tuple(configurations[0].positions)
    table = scene.table(target_table)
    router = Router(scene)
    band = router.band(target_table)
    locations = band.locations
    side_ids = tuple(loc.side for loc in locations)
    candidates, codes, pairs = _candidate_table(objects, tuple(atoms), side_ids)
    if not candidates:
        raise PlanningError("no admissible object orders")
    if router.nav.start_component < 0:
        raise PlanningError("robot start cell is blocked on the inflated grid")

    n = len(objects)
    shape = (len(configurations), n * len(side_ids))
    fmaps = []
    for config in configurations:
        for obj in objects:
            target = table.to_world(*config.positions[obj])
            fmaps.extend(compute_feasibility_map(scene, location, target, params.feasibility)
                         for location in locations)
    # Spawn key (m, oi, si, t) seeds unload option (object oi, side si) of
    # configuration m: t = 0 scores its feasibility, t = 1 draws its stand.
    # An all-zero map scores 0.0 without drawing, so its t = 0 stream is
    # neither derived nor loaded.
    scored = [fmap.cdf is not None for fmap in fmaps]
    keys = np.indices((len(configurations), n, len(side_ids), 2)).reshape(4, -1).T
    keys = keys[(keys[:, 3] == 1) | np.repeat(scored, 2)]
    streams = iter(pcg64_states((scene.rng_seed, params.stand_seed), keys))
    gen = np.random.Generator(np.random.PCG64(0))
    # Per option, in (configuration, object, side) order: the drawn stand's
    # band index, its scored and its own feasibility.
    stands = np.empty(shape, dtype=np.int64)
    fea_task = np.empty(shape)
    fea_stand = np.empty(shape)
    for (m, code), fmap, draws in zip(np.ndindex(shape), fmaps, scored):
        fea_task[m, code] = task_feasibility(fmap, _load(gen, next(streams)) if draws else gen)
        cell = sample_standing_cell(fmap, _load(gen, next(streams)))
        stands[m, code] = band.index(locations[code % len(side_ids)], cell)
        fea_stand[m, code] = fmap.value_at(cell)
    nav_cost, fea_sum, connected = _price_candidates(router, band, objects, stands, fea_task, pairs)
    fea = (n * 1.0 + fea_sum) / (2 * n)
    cost = nav_cost + MANIPULATION_COST * 2 * n
    utility = REWARD * fea - cost

    best: tuple[float, int, int] | None = None  # (utility, config_idx, plan_idx)
    for m in range(len(configurations)):
        # Visit candidates in plan order, so the first of near-ties wins;
        # one that cannot beat the best so far is never visited.
        row = connected[m] if best is None else connected[m] & (utility[m] > best[0] + 1e-12)
        for pi in np.flatnonzero(row).tolist():
            if best is None or utility[m, pi] > best[0] + 1e-12:
                best = (float(utility[m, pi]), m, pi)
    if best is None:
        raise PlanningError("every candidate plan was disconnected or infeasible")

    search_utility, m, pi = best
    order, sides_combo = candidates[pi]
    config = configurations[m]
    code = codes[pi]
    steps, _, final_cost = router.route(
        target_table, order, stands[m, code],
        [table.to_world(*config.positions[obj]) for obj in order],
        [config.layers[obj] for obj in order], fea_task[m, code], fea_stand[m, code])
    best_f = float(fea[m, pi])
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
        configuration=config,
        steps=steps,
        feasibility=best_f,
        cost=final_cost,
        utility=final_utility,
        search_cost=float(cost[m, pi]),
        search_utility=search_utility,
        candidates_evaluated=len(candidates) * len(configurations),
    )
