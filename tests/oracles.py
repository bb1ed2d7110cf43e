"""Independent reference implementations the tests compare against.

Everything in this file is deliberately re-derived from the relation and
grid definitions without reusing the package's solver machinery: exhaustive
enumeration instead of backtracking search, heapq Dijkstra with explicit
neighbor loops instead of sparse-matrix graph algorithms, plain Python
arithmetic instead of vectorized slicing. If an oracle and the package
agree, the agreement is between two separately written encodings of the
same definition. The exceptions are the package's former implementations,
kept to referee the faster forms that replaced them bit for bit (or, for
the configuration re-check and the grid cell center, kept because only
the tests read them): the per-cell feasibility loop, the one-draw-at-a-time task feasibility, the
unload option record and its ``np.arctan2`` standing pose, the unload
option with its own seeded generators and ``rng.choice`` draws,
the plan search that walks every candidate, the scalar band-cell center,
the one-point loading-stand rule, the neighbour-loop walk down a cost
field, the distance parser that tries a
range match at every position of a digit run, and the noisy execution
rollout with its generator-based collision test and two ``normal`` calls
per arrival.
"""
from __future__ import annotations

import heapq
import itertools
import math
import re
from dataclasses import dataclass

import numpy as np

from momaplan.execution import MANIPULATION, NAVIGATION, ExecutionResult, StepTrace
from momaplan.feasibility import (
    FeasibilityParams,
    _entropy_words,
    compute_feasibility_map,
)
from momaplan.geometry import segment_hits_rect, segments_hit_rect
from momaplan.goalgen import MAX_DISTANCE_CM, MIN_DISTANCE_CM, LineParseError
from momaplan.grounding import _fits_on_table
from momaplan.motion import _OFFSETS, MotionError, MotionPlan, navigator_for, robot_collides_batch
from momaplan.planning import (
    MANIPULATION_COST,
    MAX_PLANS,
    REWARD,
    PlanningError,
    PlanningParams,
    Router,
    SelectedPlan,
    enumerate_candidates,
)
from momaplan.relations import ALIGNMENT_TOL, atom_holds
from momaplan.world import Pose2D, SymbolicLocation

SQRT2 = math.sqrt(2.0)

# Per-axis sign of (subject - reference), restated from scratch: -1 means
# strictly negative, 0 means equal (within tolerance for metric checks),
# +1 strictly positive.
ORACLE_SIGNS: dict[str, tuple[int, int]] = {
    "left_of": (-1, 0),
    "right_of": (1, 0),
    "above": (0, 1),
    "below": (0, -1),
    "above_left": (-1, 1),
    "above_right": (1, 1),
    "below_left": (-1, -1),
    "below_right": (1, -1),
    "on_top_of": (0, 0),
}

_CENTER = "<oracle-center>"


def _atom_parts(atom) -> tuple[str, str, str | None]:
    return atom.relation, atom.subject, atom.reference


def _ordered_objects(atoms) -> list[str]:
    seen: list[str] = []
    for atom in atoms:
        for name in (atom.subject, atom.reference):
            if name is not None and name not in seen:
                seen.append(name)
    return seen


def _layers_ok(atoms, layer_of: dict[str, int]) -> bool:
    for atom in atoms:
        if atom.relation == "on_top_of":
            if layer_of[atom.subject] != layer_of[atom.reference] + 1:
                return False
    return True


def _stack_layers_feasible(atoms, objects: list[str]) -> bool:
    """Exhaustive search over the two stacking layers {0, 1}."""
    stacked = [a for a in atoms if a.relation == "on_top_of"]
    if not stacked:
        return True
    for combo in itertools.product((0, 1), repeat=len(objects)):
        layer_of = dict(zip(objects, combo))
        if any(layer_of[o] != 0
               for o in objects
               if o not in {a.subject for a in stacked}):
            continue
        if _layers_ok(stacked, layer_of):
            return True
    return False


def consistent_by_joint_enumeration(atoms) -> bool:
    """Exhaustive qualitative-grid check: every assignment of (x, y) cells
    on a k x k grid (k = objects + 1), with a free cell for the table
    center, crossed with both stacking layers.

    Exponential in the object count; only use on small sets.
    """
    if not atoms:
        return True
    objects = _ordered_objects(atoms)
    names = list(objects)
    if any(a.relation == "centered_on_table" for a in atoms):
        names.append(_CENTER)
    k = len(objects) + 1
    cells = [(x, y) for x in range(k) for y in range(k)]
    for combo in itertools.product(cells, repeat=len(names)):
        pos = dict(zip(names, combo))
        ok = True
        for atom in atoms:
            rel, sub, ref = _atom_parts(atom)
            if rel == "centered_on_table":
                sx, sy = 0, 0
                ref = _CENTER
            else:
                sx, sy = ORACLE_SIGNS[rel]
            dx = pos[sub][0] - pos[ref][0]
            dy = pos[sub][1] - pos[ref][1]
            if sx == 0 and dx != 0:
                ok = False
            elif sx != 0 and sx * dx <= 0:
                ok = False
            if sy == 0 and dy != 0:
                ok = False
            elif sy != 0 and sy * dy <= 0:
                ok = False
            if not ok:
                break
        if ok and _stack_layers_feasible(atoms, objects):
            return True
    return False


_ASSIGNMENT_CACHE: dict[tuple[int, int], np.ndarray] = {}


def _assignments(k: int, n_vars: int) -> np.ndarray:
    """All value tuples over range(k) for n_vars variables, as an array of
    shape (k**n_vars, n_vars)."""
    key = (k, n_vars)
    if key not in _ASSIGNMENT_CACHE:
        grids = np.indices((k,) * n_vars).reshape(n_vars, -1).T
        _ASSIGNMENT_CACHE[key] = grids.astype(np.int8)
    return _ASSIGNMENT_CACHE[key]


def consistent_by_axis_enumeration(atoms) -> bool:
    """Exhaustive per-axis check, vectorized so it scales to many random
    sets. The x and y coordinates of the relation vocabulary never interact
    (every constraint touches one axis at a time), so checking the axes
    separately enumerates the same space as the joint oracle; the test
    suite verifies that equivalence against consistent_by_joint_enumeration
    on small instances.
    """
    if not atoms:
        return True
    objects = _ordered_objects(atoms)
    names = list(objects)
    if any(a.relation == "centered_on_table" for a in atoms):
        names.append(_CENTER)
    index = {name: i for i, name in enumerate(names)}
    k = len(objects) + 1
    table = _assignments(k, len(names))

    for axis in (0, 1):
        feasible = np.ones(len(table), dtype=bool)
        for atom in atoms:
            rel, sub, ref = _atom_parts(atom)
            if rel == "centered_on_table":
                sign = 0
                ref = _CENTER
            else:
                sign = ORACLE_SIGNS[rel][axis]
            diff = table[:, index[sub]].astype(np.int16) - table[:, index[ref]]
            if sign == 0:
                feasible &= diff == 0
            else:
                feasible &= (sign * diff) > 0
        if not feasible.any():
            return False
    return _stack_layers_feasible(atoms, objects)


def metric_atom_holds(atom, positions, layers=None, tol: float = 0.03) -> bool:
    """Sign check on continuous table-frame positions, restated."""
    layers = layers or {}
    rel, sub, ref = _atom_parts(atom)
    px, py = positions[sub]
    if rel == "centered_on_table":
        return abs(px) <= tol and abs(py) <= tol
    rx, ry = positions[ref]
    dx, dy = px - rx, py - ry
    sx, sy = ORACLE_SIGNS[rel]
    for delta, sign in ((dx, sx), (dy, sy)):
        if sign == 0:
            if abs(delta) > tol:
                return False
        elif sign * delta <= 0:
            return False
    if rel == "on_top_of":
        return layers.get(sub, 0) == layers.get(ref, 0) + 1
    return True


def dijkstra_counts(free: np.ndarray, start: tuple[int, int]):
    """Single-source shortest paths on an 8-connected grid with the
    no-corner-cutting rule, tracking (straight, diagonal) step counts.

    Returns {cell: (straight, diagonal)} for every reachable free cell.
    Costs are in steps; multiply by the grid resolution for meters. A
    minimal-cost path's step counts are unique because sqrt(2) is
    irrational: s1 + d1*sqrt(2) == s2 + d2*sqrt(2) forces s1 == s2.
    """
    rows, cols = free.shape
    if not free[start]:
        return {}
    dist: dict[tuple[int, int], float] = {start: 0.0}
    counts: dict[tuple[int, int], tuple[int, int]] = {start: (0, 0)}
    heap: list[tuple[float, int, int, int, int]] = [(0.0, start[0], start[1], 0, 0)]
    while heap:
        d, r, c, s_cnt, d_cnt = heapq.heappop(heap)
        if d > dist.get((r, c), math.inf) + 1e-12:
            continue
        for dr in (-1, 0, 1):
            for dc in (-1, 0, 1):
                if dr == 0 and dc == 0:
                    continue
                nr, nc = r + dr, c + dc
                if not (0 <= nr < rows and 0 <= nc < cols) or not free[nr, nc]:
                    continue
                diagonal = dr != 0 and dc != 0
                if diagonal and not (free[r, nc] and free[nr, c]):
                    continue
                nd = d + (SQRT2 if diagonal else 1.0)
                if nd < dist.get((nr, nc), math.inf) - 1e-12:
                    dist[(nr, nc)] = nd
                    ns = (s_cnt, d_cnt + 1) if diagonal else (s_cnt + 1, d_cnt)
                    counts[(nr, nc)] = ns
                    heapq.heappush(heap, (nd, nr, nc, ns[0], ns[1]))
    return counts


def scalar_field_path(nav, far, source) -> MotionPlan:
    """The former ``Navigator.field_path``: from ``far``, step by step, scan
    the 8 neighbours in ``_OFFSETS`` order and move to the admissible one
    (free, on the grid, no cut corner) with the smallest field value plus
    step cost, where a later neighbour replaces the best so far only when
    it is lower by more than 1e-12; stop at ``source``."""
    field = nav.cost_field(source)
    if not nav.grid.in_bounds(far) or math.isinf(field[far]):
        raise MotionError(f"no path from {far} to {source}")
    res = nav.grid.resolution
    free = nav.free
    nr, nc = nav.grid.shape
    cells = [far]
    counts = [0, 0]  # straight, diagonal
    cy, cx = far
    while (cy, cx) != source:
        best = math.inf
        for dy, dx in _OFFSETS:
            ny, nx = cy + dy, cx + dx
            if not (0 <= ny < nr and 0 <= nx < nc) or not free[ny, nx]:
                continue
            diagonal = dy != 0 and dx != 0
            if diagonal and not (free[cy, nx] and free[ny, cx]):
                continue
            value = field[ny, nx] + (res * SQRT2 if diagonal else res)
            if value < best - 1e-12:
                best, step, step_diagonal = value, (ny, nx), diagonal
        cy, cx = step
        cells.append(step)
        counts[step_diagonal] += 1
    return MotionPlan(tuple(cells), counts[0], counts[1], res)


def rasterize_by_point_test(rects, resolution, origin, shape) -> np.ndarray:
    """Occupancy by per-cell point-in-rectangle loops (closed boundaries)."""
    rows, cols = shape
    occupied = np.zeros(shape, dtype=bool)
    for iy in range(rows):
        for ix in range(cols):
            x = origin[0] + (ix + 0.5) * resolution
            y = origin[1] + (iy + 0.5) * resolution
            for rect in rects:
                if rect.x_min <= x <= rect.x_max and rect.y_min <= y <= rect.y_max:
                    occupied[iy, ix] = True
                    break
    return occupied


_NUMBER = r"\d+(?:\.\d+)?"
_RANGE = re.compile(rf"({_NUMBER})\s*(?:-|–|—|to)\s*({_NUMBER})")
_SINGLE = re.compile(rf"({_NUMBER})")
_UNIT = re.compile(r"\b(?:centimeters?|centimetres?|cm)\b", re.IGNORECASE)


def parse_distance_cm_by_retry(text: str) -> float:
    """The former ``goalgen.parse_distance_cm``: its range pattern is tried
    at every position, inside digit runs too, which costs O(n^2) on an
    n-digit run. The last number or range midpoint before the first unit
    token, clamped to [1, 100] cm."""
    unit = _UNIT.search(text)
    if unit is None:
        raise LineParseError(f"no centimeter unit in {text!r}")
    head = text[: unit.start()]
    value = None
    last_end = -1
    for m in _RANGE.finditer(head):
        if m.end() > last_end:
            value = (float(m.group(1)) + float(m.group(2))) / 2.0
            last_end = m.end()
    for m in _SINGLE.finditer(head):
        if m.end() > last_end:
            value = float(m.group(1))
            last_end = m.end()
    if value is None:
        raise LineParseError(f"no number before the unit in {text!r}")
    return min(max(value, MIN_DISTANCE_CM), MAX_DISTANCE_CM)


def weighted_mean_feasibility(values) -> float:
    """Closed form of the weighted standing-cell draw: sum(h^2) / sum(h)."""
    total = 0.0
    weighted = 0.0
    for h in np.asarray(values, dtype=float).ravel().tolist():
        total += h
        weighted += h * h
    return weighted / total if total > 0.0 else 0.0


def configuration_is_valid(config, atoms, radii, half_extents, tol: float = 0.03) -> bool:
    """Containment, pairwise same-layer clearance and atom satisfaction,
    re-stated for grounding outputs."""
    items = list(config.positions.items())
    for obj, (x, y) in items:
        r = radii[obj]
        if abs(x) > half_extents[0] - r + 1e-9 or abs(y) > half_extents[1] - r + 1e-9:
            return False
    for (a, (ax, ay)), (b, (bx, by)) in itertools.combinations(items, 2):
        if config.layers[a] != config.layers[b]:
            continue
        if math.hypot(ax - bx, ay - by) < radii[a] + radii[b] - 1e-9:
            return False
    return all(
        metric_atom_holds(atom, config.positions, config.layers, tol) for atom in atoms
    )


def configuration_valid(config, atoms, radii, half_extents, tol: float = ALIGNMENT_TOL) -> bool:
    """The former ``grounding.configuration_valid``: the package's own atom
    predicate, table fit and same-layer clearance, re-checked on a finished
    configuration."""
    for atom in atoms:
        if not atom_holds(atom, config.positions, config.layers, tol):
            return False
    objs = list(config.positions)
    for i, a in enumerate(objs):
        if not _fits_on_table(config.positions[a], radii[a], half_extents):
            return False
        for b in objs[i + 1 :]:
            if config.layers[a] != config.layers[b]:
                continue
            ax, ay = config.positions[a]
            bx, by = config.positions[b]
            if math.hypot(ax - bx, ay - by) < radii[a] + radii[b]:
                return False
    return True


def grid_cell_center(grid, cell) -> tuple[float, float]:
    """The former ``OccupancyGrid.center_of``: the metric center of a grid
    cell (row, col)."""
    iy, ix = cell
    return (
        grid.origin[0] + (ix + 0.5) * grid.resolution,
        grid.origin[1] + (iy + 0.5) * grid.resolution,
    )


def noise_success_probability(
    center,
    target,
    solid_rects,
    blocking_rects,
    robot_radius: float,
    reach_radius: float,
    sigma: float,
    half_width_sigmas: float = 4.5,
    grid_points: int = 161,
    segment_samples: int = 129,
) -> float:
    """Probability that a Gaussian-perturbed arrival around `center` keeps
    the robot disc clear of every rect, lands within arm's reach of
    `target`, and sees `target` along a line crossing no blocking rect.

    Dense tensor-grid integration over the arrival noise. The line-of-reach
    test samples points along the segment instead of clipping it, so even
    the geometric predicates are encoded differently from the package.
    """
    offsets = np.linspace(-half_width_sigmas * sigma, half_width_sigmas * sigma, grid_points)
    pdf = np.exp(-0.5 * (offsets / sigma) ** 2)
    x = np.repeat(center[0] + offsets, grid_points)
    y = np.tile(center[1] + offsets, grid_points)
    weights = np.outer(pdf, pdf).ravel()
    weights /= weights.sum()

    ok = np.ones(x.shape, dtype=bool)
    for rect in solid_rects:
        dx = np.maximum(np.maximum(rect.x_min - x, x - rect.x_max), 0.0)
        dy = np.maximum(np.maximum(rect.y_min - y, y - rect.y_max), 0.0)
        ok &= np.sqrt(dx * dx + dy * dy) > robot_radius
    ok &= np.sqrt((x - target[0]) ** 2 + (y - target[1]) ** 2) <= reach_radius
    if not ok.any():
        return 0.0
    if not blocking_rects:
        return float(weights[ok].sum())

    ts = np.linspace(0.0, 1.0, segment_samples)
    px = x[ok][:, None] * (1.0 - ts) + target[0] * ts
    py = y[ok][:, None] * (1.0 - ts) + target[1] * ts
    clear = np.ones(px.shape[0], dtype=bool)
    for rect in blocking_rects:
        inside = (
            (rect.x_min <= px) & (px <= rect.x_max)
            & (rect.y_min <= py) & (py <= rect.y_max)
        )
        clear &= ~inside.any(axis=1)
    return float((weights[ok] * clear).sum())


def cell_trial_outcomes(scene, location, target, params, row: int, col: int) -> np.ndarray:
    """Unload-trial outcomes of one band cell, computed alone: the cell's
    own (row, col) stream, then the collision, reach and reach-line tests
    on its arrivals only.

    This is the feasibility module's former per-cell loop body, kept as the
    reference its batched form must reproduce bit for bit. It shares the
    package's geometry predicates and entropy words on purpose: what it
    referees is the batching and the stream layout, not the geometry.
    """
    nav = navigator_for(scene)
    n = params.trials_per_cell
    center = np.asarray(location.cell_centers()[row, col], dtype=float)
    robot_comp = nav.component(nav.cell_of(*scene.robot_pose.xy))
    if nav.components_at(center[None, :])[0] != robot_comp:
        return np.zeros(n, dtype=bool)
    target_table = None
    for t in scene.tables:
        if t.id == location.table_id:
            target_table = t
    blocking = [r for r in scene.solid_rects() if target_table is None or r != target_table.rect]

    root = np.random.SeedSequence(_entropy_words(scene.rng_seed, location.id, target, params))
    child = np.random.SeedSequence(entropy=root.entropy, spawn_key=(row, col))
    rng = np.random.Generator(np.random.PCG64(child))
    arrivals = center + rng.normal(0.0, params.nav_sigma_xy, size=(n, 2))
    target_arr = np.asarray(target, dtype=float)
    nav_ok = ~robot_collides_batch(scene, arrivals)
    dist = np.hypot(arrivals[:, 0] - target_arr[0], arrivals[:, 1] - target_arr[1])
    manip_ok = dist <= params.reach_radius
    if manip_ok.any():
        for rect in blocking:
            manip_ok &= ~segments_hit_rect(arrivals, target_arr, rect)
    return nav_ok & manip_ok


def per_cell_trial_outcomes(scene, location, target, params) -> np.ndarray:
    """``cell_trial_outcomes`` for every cell, shape (rows, cols, trials)."""
    rows, cols = location.dims
    return np.array([
        [cell_trial_outcomes(scene, location, target, params, r, c) for c in range(cols)]
        for r in range(rows)
    ]).reshape(rows, cols, params.trials_per_cell)


def random_relation_set(rng: np.random.Generator, max_objects: int = 4, max_atoms: int = 6):
    """A random atom list over a small object pool, for oracle comparisons.

    Returns plain (relation, subject, reference) triples so callers can
    build whatever atom type they are testing.
    """
    n_objects = int(rng.integers(2, max_objects + 1))
    pool = [f"obj{i}" for i in range(n_objects)]
    relations = list(ORACLE_SIGNS) + ["centered_on_table"]
    n_atoms = int(rng.integers(1, max_atoms + 1))
    triples: list[tuple[str, str, str | None]] = []
    for _ in range(n_atoms):
        rel = relations[int(rng.integers(len(relations)))]
        subject = pool[int(rng.integers(n_objects))]
        if rel == "centered_on_table":
            triples.append((rel, subject, None))
            continue
        others = [o for o in pool if o != subject]
        reference = others[int(rng.integers(len(others)))]
        triples.append((rel, subject, reference))
    return triples


def choice_standing_cell(fmap, rng) -> tuple[int, int]:
    """The former ``sample_standing_cell``: one ``rng.choice`` over the
    cells with ``p = values / values.sum()``, or a uniform ``integers``
    draw when no cell is feasible."""
    flat = fmap.values.ravel()
    total = flat.sum()
    if total <= 0.0:
        idx = int(rng.integers(flat.size))
    else:
        idx = int(rng.choice(flat.size, p=flat / total))
    row, col = np.unravel_index(idx, fmap.values.shape)
    return (int(row), int(col))


def scalar_task_feasibility(fmap, rng, draws=None) -> float:
    """The former ``task_feasibility``: one weighted ``rng.choice`` standing
    draw at a time, then the mean cell value. An all-zero map scores 0.0
    without drawing, as the package does."""
    draws = draws or fmap.params.task_draws
    flat = fmap.values.ravel()
    total = flat.sum()
    if total <= 0.0:
        return 0.0
    vals = [flat[int(rng.choice(flat.size, p=flat / total))] for _ in range(draws)]
    return float(np.mean(vals))


@dataclass
class UnloadOption:
    """The former ``planning.UnloadOption``: one way to put an object down,
    a standing pose beside the target table, facing the unload point, with
    its navigation grid cell, its band index and the feasibility the
    planner scored for it."""

    location: SymbolicLocation
    pose: Pose2D
    cell: tuple[int, int]
    band_index: int
    target_world: tuple[float, float]
    layer: int
    fea_task: float = 0.0
    fea_stand: float = 0.0


def standing_pose(location, cell, target) -> Pose2D:
    """The former ``feasibility.standing_pose``: the pose at a band cell's
    center, facing the unload point through ``np.arctan2``."""
    x, y = location.cell_centers()[cell].tolist()
    return Pose2D(x, y, float(np.arctan2(target[1] - y, target[0] - x)))


def route_options(router, table_id, pairs):
    """``Router.route`` over (object, ``UnloadOption``) pairs, each option
    passed as its band index, target, layer and scored feasibilities."""
    options = [option for _, option in pairs]
    return router.route(
        table_id, [obj for obj, _ in pairs], [o.band_index for o in options],
        [o.target_world for o in options], [o.layer for o in options],
        [o.fea_task for o in options], [o.fea_stand for o in options])


def seeded_unload_option(scene, nav, band, location, target_world, layer, params, seed_key):
    """The former ``planning._unload_option``: two ``SeedSequence`` /
    ``PCG64`` / ``Generator`` triples per option, spawned from the scene
    seed and ``params.stand_seed`` with keys ``(*seed_key, 0)`` (feasibility
    draws) and ``(*seed_key, 1)`` (the stand draw), both drawn through
    ``rng.choice``."""
    fmap = compute_feasibility_map(scene, location, target_world, params.feasibility)
    entropy = (scene.rng_seed, params.stand_seed)
    fea_rng = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy, spawn_key=(*seed_key, 0)))
    )
    draw_rng = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy, spawn_key=(*seed_key, 1)))
    )
    fea_task = scalar_task_feasibility(fmap, fea_rng)
    cell = choice_standing_cell(fmap, draw_rng)
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


def nearest_usable_center(band, point) -> tuple[float, float] | None:
    """The former one-point loading-stand rule: one distance pass for one
    point, the first usable center of least squared distance, or None when
    no cell of the band is usable."""
    if not band.usable.any():
        return None
    d2 = (band.centers[:, 0] - point[0]) ** 2 + (band.centers[:, 1] - point[1]) ** 2
    x, y = band.centers[int(np.argmin(np.where(band.usable, d2, np.inf)))]
    return (float(x), float(y))


def field_priced_walk(router, pairs):
    """The former ``Router.walk`` pricing: (object, unload option) pairs
    chained from the robot's start, each step's loading stand found by
    ``nearest_usable_center`` from the previous stand point (the former
    per-point rule), its leg costs read off ``nav.cost_field`` of the
    loading cell and added to the previous steps' one step at a time, left
    to right, with the step's ``fea_task``. Returns the summed leg costs and
    feasibility terms, or None at the first leg that does not connect."""
    nav = router.nav
    prev_cell, prev_point = nav.start_cell, router.scene.robot_pose.xy
    nav_cost = 0.0
    fea_sum = 0.0
    for obj, option in pairs:
        band = router.band(router.scene.object(obj).initial_location)
        load_point = nearest_usable_center(band, prev_point)
        if load_point is None:
            return None
        load_cell = nav.cell_of(*load_point)
        field = nav.cost_field(load_cell)
        leg1 = 0.0 if prev_cell == load_cell else float(field[prev_cell])
        leg2 = float(field[option.cell])
        if math.isinf(leg1) or math.isinf(leg2):
            return None
        nav_cost += leg1 + leg2
        fea_sum += option.fea_task
        prev_cell, prev_point = option.cell, option.pose.xy
    return nav_cost, fea_sum


def walk_every_candidate(scene, target_table, configurations, atoms, params=None):
    """The former ``plan_task`` search: every configuration's unload options
    come from ``seeded_unload_option``, every candidate of every
    configuration is priced by ``field_priced_walk`` and scored one at a
    time, a later candidate wins only by more than 1e-12, and the winner is
    routed along explicit paths by ``Router.route``.

    Returns the selected plan and the number of candidates skipped because
    a leg did not connect.
    """
    params = params or PlanningParams()
    objects = list(configurations[0].positions)
    table = scene.table(target_table)
    router = Router(scene)
    band = router.band(target_table)
    target_locations = band.locations
    side_ids = tuple(loc.side for loc in target_locations)
    loc_by_side = {loc.side: loc for loc in target_locations}
    candidates = enumerate_candidates(objects, atoms, side_ids, MAX_PLANS)
    n = len(objects)
    manip_total = MANIPULATION_COST * 2 * n

    best = None
    best_pairs = None
    best_f = 0.0
    best_c = math.inf
    evaluated = 0
    skipped = 0
    for m, config in enumerate(configurations):
        options = {}
        for oi, obj in enumerate(objects):
            target_world = table.to_world(*config.positions[obj])
            for si, side in enumerate(side_ids):
                options[(obj, side)] = seeded_unload_option(
                    scene, router.nav, band, loc_by_side[side], target_world,
                    config.layers[obj], params, seed_key=(m, oi, si),
                )
        for pi, (order, sides_combo) in enumerate(candidates):
            evaluated += 1
            pairs = [(obj, options[(obj, side)]) for obj, side in zip(order, sides_combo)]
            priced = field_priced_walk(router, pairs)
            if priced is None:
                skipped += 1
                continue
            nav_cost, fea_sum = priced
            fea = (n * 1.0 + fea_sum) / (2 * n)
            cost = nav_cost + manip_total
            utility = REWARD * fea - cost
            if best is None or utility > best[0] + 1e-12:
                best = (utility, m, pi)
                best_pairs = pairs
                best_f = fea
                best_c = cost
    if best is None:
        raise PlanningError("every candidate plan was disconnected or infeasible")

    utility, m, pi = best
    order, sides_combo = candidates[pi]
    steps, _, final_cost = route_options(router, target_table, best_pairs)
    plan = SelectedPlan(
        config_index=m,
        plan_index=pi,
        order=order,
        sides=sides_combo,
        configuration=configurations[m],
        steps=steps,
        feasibility=best_f,
        cost=final_cost,
        utility=REWARD * best_f - final_cost,
        search_cost=best_c,
        search_utility=utility,
        candidates_evaluated=evaluated,
    )
    return plan, skipped


def band_cell_center(location, row: int, col: int) -> tuple[float, float]:
    """The former ``SymbolicLocation.cell_center``: one band cell's center
    in scalar arithmetic, half a cell into its row (outward from the band
    edge nearest the table) and its column (along the outward normal
    rotated +90 degrees, centered on the band). The cached
    ``cell_centers`` table must equal it bit for bit."""
    rows, cols = location.dims
    ox, oy = location.outward
    lx, ly = -oy, ox
    near = (row + 0.5) * location.cell_size
    lateral = (col + 0.5) * location.cell_size - (cols * location.cell_size) / 2.0
    depth_half = (rows * location.cell_size) / 2.0
    ax = location.rect.cx - ox * depth_half
    ay = location.rect.cy - oy * depth_half
    return (ax + ox * near + lx * lateral, ay + oy * near + ly * lateral)


def disc_hits_rect(x: float, y: float, radius: float, rect) -> bool:
    """True when a disc of the given radius centered at (x, y) touches the
    rect: the scalar test ``motion.robot_collides`` inlines, and the
    reference for the batched ``disc_hits_rect_batch``."""
    return rect.distance_to(x, y) <= radius


def _generator_robot_collides(scene, x: float, y: float) -> bool:
    return any(disc_hits_rect(x, y, scene.robot_radius, r) for r in scene.solid_rects())


def _two_call_noisy_arrival(pose, params, rng) -> Pose2D:
    dx, dy = rng.normal(0.0, params.nav_sigma_xy, size=2)
    dtheta = rng.normal(0.0, params.nav_sigma_theta)
    return Pose2D(pose.x + dx, pose.y + dy, pose.theta + dtheta)


def _reach_clear(scene, arrival, target, target_table, params) -> bool:
    if math.hypot(arrival.x - target[0], arrival.y - target[1]) > params.reach_radius:
        return False
    for rect in scene.reach_blockers(target_table):
        if segment_hits_rect((arrival.x, arrival.y), target, rect):
            return False
    return True


def execute_plan_two_calls(scene, plan, rng, params=None) -> ExecutionResult:
    """The execution module's former ``execute_plan``: a collision test
    that builds a generator over ``disc_hits_rect`` per arrival, and two
    ``normal`` calls per arrival. The one-call rollout must reproduce its
    results and leave the generator in the same state."""
    params = params or FeasibilityParams()
    positions = {
        o.id: scene.table(o.initial_location).to_world(*o.initial_position)
        for o in scene.objects
    }
    layers = {o.id: 0 for o in scene.objects}
    trace: list[StepTrace] = []
    cost = 0.0
    delivered = 0

    def fail(step, stage: str, kind: str, arrival: Pose2D) -> ExecutionResult:
        trace.append(StepTrace(step.object_id, stage, _commanded(step, stage), arrival, False, kind))
        return ExecutionResult(
            success=False,
            failure_kind=kind,
            failed_object=step.object_id,
            failed_stage=stage,
            objects_delivered=delivered,
            executed_cost=cost,
            final_positions=positions,
            final_layers=layers,
            trace=trace,
        )

    def _commanded(step, stage: str) -> Pose2D:
        return step.load_pose if stage == "load" else step.unload_pose

    for step in plan.steps:
        cost += step.leg_to_load
        arrival = _two_call_noisy_arrival(step.load_pose, params, rng)
        if _generator_robot_collides(scene, arrival.x, arrival.y):
            return fail(step, "load", NAVIGATION, arrival)
        cost += MANIPULATION_COST
        trace.append(StepTrace(step.object_id, "load", step.load_pose, arrival, True))

        cost += step.leg_to_unload
        arrival = _two_call_noisy_arrival(step.unload_pose, params, rng)
        if _generator_robot_collides(scene, arrival.x, arrival.y):
            return fail(step, "unload", NAVIGATION, arrival)
        target_table = step.unload_location.split("/")[0]
        if not _reach_clear(scene, arrival, step.target_world, target_table, params):
            return fail(step, "unload", MANIPULATION, arrival)
        cost += MANIPULATION_COST
        positions[step.object_id] = step.target_world
        layers[step.object_id] = step.target_layer
        delivered += 1
        trace.append(StepTrace(step.object_id, "unload", step.unload_pose, arrival, True))

    return ExecutionResult(
        success=True,
        failure_kind=None,
        failed_object=None,
        failed_stage=None,
        objects_delivered=delivered,
        executed_cost=cost,
        final_positions=positions,
        final_layers=layers,
        trace=trace,
    )
