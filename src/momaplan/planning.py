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
(loading counts as certain; unloading scores the expected feasibility of
that side's weighted stand draw for that unload point, in closed form).
Cost adds optimal navigation distances between consecutive stands and a
fixed charge per manipulation.

``Router`` holds the loading-stand, leg-routing and plan-cost rule, shared
with the baseline planners in ``harness``. A stand is named by its band
index: a leg starts at the robot's start or at a target-table band cell,
so the loading stand after each is one entry of a per-scene table filled
as read (``Router.loading_stands``), and ``Router.legs`` says whether legs
connect. ``plan_task`` builds the candidate table once per goal, keeps
unload options as arrays (each stand's band index and feasibility) and
prices all configurations from one leg table over (previous stand, unload
option) pairs, bounds first: a pair is read off its loading cell's
leg-cost vector (``Router.leg_costs``) when the scene holds one, else
bounded below by the octile distance, and only the loading cells of
candidates that can still win are priced. Candidates with a leg that does
not connect are skipped. Only the winner is routed: ``route`` reads each
leg off the loading cell's cost field as an explicit grid path
(``Navigator.field_path``, which follows the field's cached descent
table), so no A* runs while planning (A* is the reference acceptance 4
checks), and the winner's cost and utility are recomputed from its paths.

``route`` also fixes each step's free-space radii, which let execution
pass an arrival near its stand without a collision or reach test: the
load and unload poses' clearances from solid furniture, the unload pose's
lowered to its reach line's distance from each reach blocker, and the
unload pose's distance to its target. Pose clearances are read off an
array each ``BandIndex`` computes in one pass when it is built. A reach
blocker gets an exact ``geometry.segment_rect_distance`` only when the
reach line's bounding box lies nearer it than the radius so far.

Standing spots are frozen deterministically: the unloading spot for a given
(configuration, object, side) triple is one probability-weighted draw from
the feasibility map, seeded from the scene seed, so re-planning reproduces
the same plan and execution replays the exact stands the planner scored.
Each unload option has one ``SeedSequence``-spawned ``PCG64`` stream, for
its stand draw. In ``feasibility.pcg64_states`` numpy mixes the shared
(scene seed, stand seed) entropy once per call, and array passes mix each
option's key words, seed PCG64 and take every first output; one more pass
(``feasibility.draw_standing_cells``) draws each option's stand, building
no Python int or generator per option.
"""
from __future__ import annotations

import functools
import itertools
import logging
import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from .feasibility import (
    FeasibilityParams,
    compute_feasibility_map,
    draw_standing_cells,
    pcg64_states,
    task_feasibility,
)
from .geometry import rect_distances, segment_clearance
from .grounding import Configuration
from .motion import MotionPlan, Navigator, navigator_for, octile
from .relations import PlacementAtom, stack_supports
from .world import (
    BAND_COLS, BAND_ROWS, Pose2D, SceneState, SymbolicLocation, TableSpec, symbolic_locations,
)

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

    def __post_init__(self) -> None:
        # Checked here, not when the seeds are derived after every map.
        seed = self.stand_seed
        if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
            raise ValueError(f"stand_seed must be a non-negative int, got {seed!r}")


@dataclass(frozen=True)
class PlanStep:
    object_id: str
    source_table: str
    load_pose: Pose2D
    load_cell: Cell
    unload_location: str
    target_table: str
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
    # Free-space radii fixed at routing, in the scene the step was routed
    # in. A robot disc centered within ``load_clearance`` of the load pose
    # touches no solid rectangle; within ``unload_clearance`` of the unload
    # pose it touches none either, and its reach line to ``target_world``
    # crosses no reach blocker. ``reach_distance`` is the unload pose's
    # distance to ``target_world``. The defaults give no radius at all.
    load_clearance: float = 0.0
    unload_clearance: float = 0.0
    reach_distance: float = math.inf


@dataclass
class SelectedPlan:
    config_index: int
    plan_index: int
    order: tuple[str, ...]
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


def stacking_orders(objects: list[str], atoms: list[PlacementAtom]) -> Iterator[tuple[str, ...]]:
    """Object orders where every support precedes what stacks on it, drawn lazily."""
    supports = stack_supports(atoms)
    for perm in itertools.permutations(objects):
        pos = {o: i for i, o in enumerate(perm)}
        if all(
            pos[sub] > pos[sup]
            for sub, sup in supports.items()
            if sub in pos and sup in pos
        ):
            yield perm


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
    cell's position in them is its band index, so location k's cells start
    at k * ``BAND_ROWS * BAND_COLS``. ``centers`` holds the
    locations' cell centers, ``cells`` the flat grid index of each center,
    and a cell is usable when ``Navigator.reachable_at`` holds at its
    center.

    ``clearance`` holds each center's free-space radius in ``scene``: its
    distance to the nearest solid rectangle minus the robot radius, so a
    robot disc centered within it of the center touches no furniture.
    """

    def __init__(self, nav: Navigator, locations: list[SymbolicLocation], scene: SceneState):
        self.locations = locations
        self.centers = np.concatenate([loc.cell_centers().reshape(-1, 2) for loc in locations])
        self.centers.setflags(write=False)
        self.cells = nav.flat_cells(self.centers)
        self.usable = nav.reachable_at(self.centers)
        x, y = self._xy = self.centers.T.copy()  # contiguous, for distance passes
        nearest = np.minimum.reduce([rect_distances(r, x, y) for r in scene.solid_rects()])
        self.clearance = nearest - scene.robot_radius

    def nearest_free(self, points: np.ndarray) -> np.ndarray:
        """Band index of the usable cell nearest each of ``points``, shape
        (m, 2) (the first of ties), or -1 when no cell is usable; one
        distance pass for all of them."""
        if not self.usable.any():
            return np.full(len(points), -1)
        x, y = self._xy
        d2 = (x - points[:, :1]) ** 2 + (y - points[:, 1:]) ** 2
        d2[:, ~self.usable] = np.inf
        return d2.argmin(axis=1)


class Router:
    """The loading-stand and leg-routing rule every system shares.

    A loading stand is the usable band cell of the object's source table
    whose center is nearest the previous stand (the first of ties): a free
    cell in the robot's start component, faced toward the object. A
    previous stand is the robot's start or the center of a band cell, so
    the rule's answers fit one table per (stand table, source table),
    indexed by band index with a last entry for the start, filled row by
    row as read and kept by the scene's navigator. ``legs`` tells which steps
    connect, for the search's every (previous stand, option) pair and for
    the steps ``route`` routes. Both legs of a step are priced off the
    loading cell's ``leg_costs``, so the search computes at most one cost
    field per loading stand it prices; ``route`` then reads the legs of the
    chosen plan off the descent tables of the fields this router holds
    (one call's) as explicit grid paths, with no search of their own, and
    prices the plan. Band indices, stand tables, leg costs and descent
    tables live in the scene's navigator, so every router of a scene shares
    them, and no answer depends on which were asked for before.
    """

    def __init__(self, scene: SceneState):
        self.scene = scene
        self.nav = navigator_for(scene)
        self.source = {o.id: o.initial_location for o in scene.objects}
        self._fields: dict[Cell, np.ndarray] = {}

    def band(self, table_id: str) -> BandIndex:
        """The band index of ``table_id``, built once per scene."""
        if table_id not in self.nav.bands:
            self.nav.bands[table_id] = BandIndex(
                self.nav, symbolic_locations(self.scene, table_id), self.scene)
        return self.nav.bands[table_id]

    def loading_stands(self, source: str, table: str, rows: np.ndarray) -> np.ndarray:
        """The scene's loading-stand table for (``table``, ``source``): the
        band index in ``source``'s band of the loading stand after each band
        cell of ``table``, then after the robot's start (the last entry);
        -1 where no cell of ``source``'s band is usable, -2 at rows no call
        has read. The unset rows among ``rows`` (-1 names the start) are
        filled first, in distance passes of at most 64 points."""
        stands = self.nav.stands.get((table, source))
        if stands is None:
            stands = self.nav.stands[(table, source)] = np.full(len(self.band(table).centers) + 1, -2)
        unset = stands[rows] == -2
        if unset.any():
            need = np.zeros(len(stands), dtype=bool)
            need[rows[unset]] = True
            need = np.flatnonzero(need)
            points = np.concatenate((self.band(table).centers, [self.scene.robot_pose.xy]))[need]
            for i in range(0, len(need), 64):
                stands[need[i:i + 64]] = self.band(source).nearest_free(points[i:i + 64])
        return stands

    def leg_costs(self, table: str, cell: Cell) -> np.ndarray:
        """The scene's leg costs of loading cell ``cell`` toward ``table``:
        ``cost_field(cell)`` at the center cell of each band cell of
        ``table``, then at the robot's start (the last entry), read-only.
        Built on first use; the whole field stays with this router."""
        costs = self.nav.legs.get((table, cell))
        if costs is None:
            self._fields[cell] = field = self.nav.cost_field(cell)
            start = self.nav.start_cell[0] * self.nav.grid.shape[1] + self.nav.start_cell[1]
            costs = field.ravel()[np.append(self.band(table).cells, start)]
            costs.setflags(write=False)
            self.nav.legs[(table, cell)] = costs
        return costs

    def legs(
        self, table: str, sources: Sequence[str], prev: np.ndarray, stands: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each step's loading stand (a band index of its source table, -1
        for none), flat loading cell (-1 for none), and whether both its
        legs connect: a loading stand exists and both other ends are usable,
        since a cost field is finite exactly on its source's component.
        ``prev`` and ``stands`` are band indices of ``table`` (-1 for the
        robot's start) that broadcast together; ``sources[j]`` is the
        source table of entry j of the last axis. Every source's stand table
        is filled at the rows ``prev`` names; stands are read with one
        gather over (source, previous stand), cells over (source, stand)."""
        names = {source: i for i, source in enumerate(dict.fromkeys(sources))}
        column = np.array([names[source] for source in sources], dtype=np.intp)
        stand = np.stack([self.loading_stands(source, table, prev) for source in names])[column, prev]
        # Every table's band has the same cells per side, so the bands stack.
        cells = np.stack([self.band(source).cells for source in names])[column, stand]
        usable = np.append(self.band(table).usable, True)  # the start's entry last
        return stand, np.where(stand >= 0, cells, -1), (stand >= 0) & usable[prev] & usable[stands]

    def route(
        self, table: str, objects: Sequence[str], stands: Sequence[int],
        targets: Sequence[tuple[float, float]], layers: Sequence[int],
        fea_task: Sequence[float], fea_stand: Sequence[float],
    ) -> tuple[list[PlanStep], str | None, float]:
        """Route ``objects`` in order, object k unloading from band index
        ``stands[k]`` of ``table`` at ``targets[k]``, facing it, on layer
        ``layers[k]`` with the given feasibilities. Each step loads at the
        stand ``legs`` gives, facing the object, and each leg is read off
        its loading cell's descent table as an explicit grid path.

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
        blockers = self.scene.reach_blockers(table)
        prev_cell = self.nav.start_cell
        steps: list[PlanStep] = []
        for k, obj in enumerate(objects[:routed]):
            source, stand = self.source[obj], int(stands[k])
            load_cell = divmod(int(load_cells[k]), width)
            unload_cell = divmod(int(band.cells[stand]), width)
            load_band = self.band(source)
            x, y = load_band.centers[loads[k]].tolist()
            ox, oy = self.scene.start_positions[obj]
            ux, uy = band.centers[stand].tolist()
            tx, ty = map(float, targets[k])  # configurations may hold numpy floats
            field = self._fields.get(load_cell)
            to_load = (self.nav.field_path(prev_cell, load_cell, field)
                       if prev_cell != load_cell else None)
            to_unload = self.nav.field_path(unload_cell, load_cell, field)
            steps.append(
                PlanStep(
                    object_id=obj,
                    source_table=source,
                    load_pose=Pose2D(x, y, math.atan2(oy - y, ox - x)),
                    load_cell=load_cell,
                    unload_location=band.locations[stand // (BAND_ROWS * BAND_COLS)].id,
                    target_table=table,
                    unload_pose=Pose2D(ux, uy, math.atan2(ty - uy, tx - ux)),
                    unload_cell=unload_cell,
                    target_world=(tx, ty),
                    target_layer=layers[k],
                    fea_task=float(fea_task[k]),
                    fea_stand=float(fea_stand[k]),
                    leg_to_load=to_load.cost if to_load else 0.0,
                    leg_to_unload=to_unload.cost,
                    path_to_load=to_load,
                    path_to_unload=replace(to_unload, cells=to_unload.cells[::-1]),
                    load_clearance=load_band.clearance.item(loads[k]),
                    unload_clearance=segment_clearance(
                        (ux, uy), (tx, ty), blockers, band.clearance.item(stand)),
                    reach_distance=math.hypot(tx - ux, ty - uy),
                )
            )
            prev_cell = unload_cell
        cost = sum(step.leg_to_load + step.leg_to_unload for step in steps)
        return steps, stage, cost + MANIPULATION_COST * 2 * len(steps)


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
    """Navigation cost, summed unload feasibility and whether the candidate
    is kept, shape (M, C), of every candidate of every configuration.
    ``stands[m, k]`` is the band index of the frozen stand of unload option
    k of configuration m, ``fea_task[m, k]`` its scored feasibility;
    ``pairs`` codes steps as ``_candidate_table`` does, and ``Router.legs``
    gives every (previous stand, option) pair's loading cell and
    connectedness.

    Bounds first, then refine: a connected pair whose loading cell already
    has a leg-cost vector is priced off it, any other by ``res`` times the
    octile distance from its loading cell to each end, a lower bound. While
    a candidate within 1e-9 of the best utility so summed holds a bounded
    pair, the loading cells of all such pairs are priced
    (``Router.leg_costs``, one field each) and the sums are redone. Kept
    are the candidates within 1e-9 of the best, all priced exactly; every
    other one is disconnected or more than 1e-9 below the optimum, so the
    first-of-ties scan picks among the kept what it would among all. Both
    sums add column by column, so a kept candidate's equal its steps added
    one at a time.
    """
    configs, size = stands.shape
    # Each configuration's previous stands: the robot's start, then every option's.
    prev = np.concatenate([np.full((configs, 1), -1), stands], axis=1)
    sources = [router.source[obj] for obj in objects for _ in range(size // len(objects))]
    # load[m, p * size + k]: loading cell of option k after previous stand p.
    table = band.locations[0].table_id
    _, load, connects = router.legs(table, sources, prev[:, :, None], stands[:, None, :])
    load, connects = load.ravel(), connects.ravel()

    width = (size + 1) * size
    # Step-major leg-table entries, shape (n, M, C): step k of candidate c
    # of configuration m, so each step's entries lie together.
    steps = np.ascontiguousarray(pairs.T)[:, None, :] + width * np.arange(configs)[:, None]
    asked = np.zeros(len(load), dtype=bool)
    asked[steps] = True
    asked = np.flatnonzero(asked & connects)
    cells = load[asked]
    order = np.argsort(cells, kind="stable")
    asked, cells = asked[order], cells[order]
    # Band index of each leg's previous stand (-1, the leg costs' last
    # entry, for the start) and of its option's stand.
    m, code = np.divmod(asked, width)
    prev_at, option_at = prev[m, code // size], prev[m, 1 + code % size]
    # Every pair starts at its lower bound: the octile distances from its
    # loading cell to the grid cells of its two leg-cost entries.
    nav = router.nav
    res, grid_cols = nav.grid.resolution, nav.grid.shape[1]
    start = nav.start_cell[0] * grid_cols + nav.start_cell[1]
    end_row, end_col = np.divmod(np.append(band.cells, start), grid_cols)
    row, col = np.divmod(cells, grid_cols)
    step_cost = np.full(len(load), math.inf)
    step_cost[asked] = (octile(row - end_row[prev_at], col - end_col[prev_at], res)
                        + octile(row - end_row[option_at], col - end_col[option_at], res))
    # Codes sharing a loading cell are priced off its one leg-cost vector;
    # a cell leaves ``spans`` once they are.
    starts = np.flatnonzero(np.diff(cells, prepend=-1))
    stops = [*starts[1:].tolist(), len(cells)]
    spans = dict(zip(cells[starts].tolist(), zip(starts.tolist(), stops)))

    def price(cells) -> None:
        for cell in cells:
            lo, hi = spans.pop(cell)
            legs = router.leg_costs(table, divmod(cell, grid_cols))
            step_cost[asked[lo:hi]] = legs[prev_at[lo:hi]] + legs[option_at[lo:hi]]

    price([cell for cell in spans if (table, divmod(cell, grid_cols)) in nav.legs])
    codes = pairs % size
    fea_sum = np.zeros(steps.shape[1:])
    for k in range(len(steps)):
        fea_sum += fea_task[:, codes[:, k]]
    while True:
        leg_sums = step_cost[steps]
        nav_cost = np.zeros(steps.shape[1:])
        for k in range(len(steps)):
            nav_cost += leg_sums[k]
        utility = _score(len(objects), nav_cost, fea_sum)[2]
        kept = np.isfinite(utility) & (utility >= utility.max() - 1e-9)
        bounded = set(load[steps[:, kept]].ravel().tolist()) & spans.keys()
        if not bounded:
            return nav_cost, fea_sum, kept
        price(bounded)


def _score(n: int, nav_cost: np.ndarray, fea_sum: np.ndarray) -> tuple[np.ndarray, ...]:
    """Feasibility, cost and utility of plans of ``n`` objects."""
    fea = (n * 1.0 + fea_sum) / (2 * n)
    cost = nav_cost + MANIPULATION_COST * 2 * n
    return fea, cost, REWARD * fea - cost


def _unload_options(
    scene: SceneState, band: BandIndex, table: TableSpec, configurations: list[Configuration],
    objects: tuple[str, ...], params: PlanningParams,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The band index of each unload option's drawn stand, the option's
    scored feasibility and the stand's own, shape (M, n * S) in
    (configuration, object, side) order. Each option's map is asked for
    and scored once; the stands are drawn in one array pass over the
    options' seeded streams."""
    locations = band.locations
    fmaps = []
    for config in configurations:
        for obj in objects:
            target = table.to_world(*config.positions[obj])
            fmaps.extend(compute_feasibility_map(scene, location, target, params.feasibility)
                         for location in locations)
    # Spawn key (m, oi, si, 1) seeds the stand draw of unload option
    # (object oi, side si) of configuration m.
    keys = np.indices((len(configurations), len(objects), len(locations), 2))
    keys = keys.reshape(4, -1).T[1::2]
    drawn = draw_standing_cells(fmaps, *pcg64_states((scene.rng_seed, params.stand_seed), keys))
    shape = (len(configurations), len(objects) * len(locations))
    fea_task = np.fromiter(map(task_feasibility, fmaps), float, len(fmaps)).reshape(shape)
    fea_stand = np.array([fmap.values.item(cell) for fmap, cell in zip(fmaps, drawn.tolist())])
    fea_stand = fea_stand.reshape(shape)
    # A side's band indices follow its first cell's in row-major cell order.
    starts = np.arange(len(locations)) * (BAND_ROWS * BAND_COLS)
    stands = (drawn.reshape(-1, len(locations)) + starts).reshape(shape)
    return stands, fea_task, fea_stand


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
    side_ids = tuple(loc.side for loc in band.locations)
    candidates, codes, pairs = _candidate_table(objects, tuple(atoms), side_ids)
    if not candidates:
        raise PlanningError("no admissible object orders")
    if router.nav.start_component < 0:
        raise PlanningError("robot start cell is blocked: the robot collides with furniture there")

    n = len(objects)
    stands, fea_task, fea_stand = _unload_options(
        scene, band, table, configurations, objects, params)
    nav_cost, fea_sum, kept = _price_candidates(router, band, objects, stands, fea_task, pairs)
    fea, cost, utility = _score(n, nav_cost, fea_sum)

    best: tuple[float, int, int] | None = None  # (utility, config_idx, plan_idx)
    for m in range(len(configurations)):
        # Visit candidates in plan order, so the first of near-ties wins;
        # one that cannot beat the best so far is never visited.
        row = kept[m] if best is None else kept[m] & (utility[m] > best[0] + 1e-12)
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
        configuration=config,
        steps=steps,
        feasibility=best_f,
        cost=final_cost,
        utility=final_utility,
        search_cost=float(cost[m, pi]),
        search_utility=search_utility,
        candidates_evaluated=len(candidates) * len(configurations),
    )
