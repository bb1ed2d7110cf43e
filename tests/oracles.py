"""Independent reference implementations the tests compare against.

Everything in this file is deliberately re-derived from the relation and
grid definitions without reusing the package's solver machinery: exhaustive
enumeration instead of a topological-order check, heapq Dijkstra with explicit
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
the backtracking grid search that decided goal consistency,
the one-point loading-stand rule, the neighbour-loop walk down a cost
field, the navigation graph built from COO triples with its csgraph
component labels, the distance parser that tries a
range match at every position of a digit run, the reach-line test by slab
clipping alone, and the noisy execution
rollout with its generator-based collision test and two ``normal`` calls
per arrival.
"""
from __future__ import annotations

import heapq
import itertools
import math
import re
from dataclasses import dataclass
from weakref import WeakKeyDictionary

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from momaplan.execution import MANIPULATION, NAVIGATION, ExecutionResult
from momaplan.feasibility import (
    FeasibilityParams,
    _entropy_words,
    compute_feasibility_map,
)
from momaplan.geometry import segments_hit_rect
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
from momaplan.relations import ALIGNMENT_TOL, satisfied_atoms
from momaplan.world import BAND_COLS, BAND_ROWS, Pose2D, SymbolicLocation

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


def _former_solve_axis(variables: list[str], constraints, k: int) -> bool:
    """The former ``relations._solve_axis``: backtracking search for one
    coordinate axis over values 0..k-1."""
    # Visit constrained variables first so dead ends surface early.
    degree = {v: 0 for v in variables}
    for a, b, _ in constraints:
        degree[a] += 1
        degree[b] += 1
    order = sorted(variables, key=lambda v: -degree[v])
    index = {v: i for i, v in enumerate(order)}
    # Constraints keyed by the later-assigned endpoint.
    by_var: list[list[tuple[int, int, int]]] = [[] for _ in order]
    for a, b, s in constraints:
        ia, ib = index[a], index[b]
        if ia >= ib:
            by_var[ia].append((ib, s, 1))  # value[ia] - value[ib] has sign s
        else:
            by_var[ib].append((ia, s, -1))  # sign applies to (a - b); flip lookup
    values = [0] * len(order)

    def ok(i: int) -> bool:
        for j, s, direction in by_var[i]:
            diff = (values[i] - values[j]) * direction
            if s == 0:
                if diff != 0:
                    return False
            elif s * diff <= 0:
                return False
        return True

    def descend(i: int) -> bool:
        if i == len(order):
            return True
        for v in range(k):
            values[i] = v
            if ok(i) and descend(i + 1):
                return True
        return False

    return descend(0)


def former_atoms_consistent(atoms) -> bool:
    """The former ``relations.atoms_consistent``: a backtracking search per
    axis over an (n + 1)-value grid for n objects, with one extra variable
    for the table center, then the two-layer stacking rule. Exponential in
    the object count on inconsistent goals."""
    if not atoms:
        return True
    objects = _ordered_objects(atoms)
    axes: tuple[list, list] = ([], [])
    stacks: list[tuple[str, str]] = []
    for atom in atoms:
        rel, sub, ref = _atom_parts(atom)
        if rel == "centered_on_table":
            signs, ref = (0, 0), _CENTER
        else:
            signs = ORACLE_SIGNS[rel]
        if rel == "on_top_of":
            stacks.append((sub, ref))
        for axis, sign in zip(axes, signs):
            axis.append((sub, ref, sign))
    uses_center = any(a.relation == "centered_on_table" for a in atoms)
    variables = objects + ([_CENTER] if uses_center else [])
    k = len(objects) + 1
    if not all(_former_solve_axis(variables, axis, k) for axis in axes):
        return False
    stacked_subjects = {s for s, _ in stacks}
    return all(r not in stacked_subjects for _, r in stacks)


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


def coo_adjacency(nav) -> tuple[csr_matrix, np.ndarray]:
    """The former ``Navigator`` graph build: one COO triple per admissible
    move, which scipy converts to CSR by sorting each row and summing
    duplicates, and csgraph's connected components of that graph as an
    int32 label grid (-1 on blocked cells)."""
    rows_i, cols_i, data = [], [], []
    node = nav._node_of
    for src, dst, ok, weight in nav._moves():
        src_nodes = node[src][ok]
        rows_i.append(src_nodes)
        cols_i.append(node[dst][ok])
        data.append(np.full(len(src_nodes), weight))
    n = len(nav._cell_of_node)
    adjacency = csr_matrix(
        (np.concatenate(data), (np.concatenate(rows_i), np.concatenate(cols_i))),
        shape=(n, n),
    )
    _, node_labels = connected_components(adjacency, directed=False)
    labels = np.full(nav.grid.shape, -1, dtype=np.int32)
    labels.ravel()[nav._cell_of_node] = node_labels
    return adjacency, labels


# Whole cost fields the oracles read, per navigator. The package keeps
# none past a planning call, and a walk over every candidate asks for each
# loading cell's field many times.
_WHOLE_FIELDS: WeakKeyDictionary = WeakKeyDictionary()


def whole_fields(nav) -> dict:
    """The fields ``whole_field`` has kept for ``nav``, by source cell."""
    return _WHOLE_FIELDS.setdefault(nav, {})


def whole_field(nav, source):
    """``nav.cost_field(source)``, computed once per navigator and source."""
    fields = whole_fields(nav)
    if source not in fields:
        fields[source] = nav.cost_field(source)
    return fields[source]


def scalar_field_path(nav, far, source) -> MotionPlan:
    """The former ``Navigator.field_path``: from ``far``, step by step, scan
    the 8 neighbours in ``_OFFSETS`` order and move to the admissible one
    (free, on the grid, no cut corner) with the smallest field value plus
    step cost, where a later neighbour replaces the best so far only when
    it is lower by more than 1e-12; stop at ``source``."""
    field = whole_field(nav, source)
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
    """Closed form of the weighted standing-cell draw: sum(h^2) / sum(h),
    each sum correctly rounded, cell by cell."""
    cells = np.asarray(values, dtype=float).ravel().tolist()
    total = math.fsum(cells)
    return math.fsum(h * h for h in cells) / total if total > 0.0 else 0.0


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
    if not all(satisfied_atoms(atoms, config.positions, config.layers, tol)):
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


# The noise lattice of ``noise_success_probability`` is turned by this angle
# (radians) against the scene axes. Furniture sides, and the straight sides
# of the robot disc's clearance around them, are axis-aligned: an aligned
# lattice puts each of its rows wholly on one side of such a boundary, so
# its error is of the order of the lattice step and does not cancel along
# the boundary. Turned, the rows cross a boundary at spread offsets and the
# errors average out. The Gaussian is isotropic, so no weight changes.
LATTICE_TURN = 0.5


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
) -> float:
    """Probability that a Gaussian-perturbed arrival around `center` keeps
    the robot disc clear of every rect, lands within arm's reach of
    `target`, and sees `target` along a line crossing no blocking rect.

    Dense tensor-grid integration over the arrival noise, on a lattice
    turned by ``LATTICE_TURN``. The line-of-reach test is exact but encoded
    differently from the package's slab clip: a segment meets a rectangle
    when an endpoint lies inside it or the segment meets one of its four
    edges by orientation tests, touching counted as a hit.
    """
    offsets = np.linspace(-half_width_sigmas * sigma, half_width_sigmas * sigma, grid_points)
    pdf = np.exp(-0.5 * (offsets / sigma) ** 2)
    u, v = np.repeat(offsets, grid_points), np.tile(offsets, grid_points)
    cos, sin = math.cos(LATTICE_TURN), math.sin(LATTICE_TURN)
    x = center[0] + cos * u - sin * v
    y = center[1] + sin * u + cos * v
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
    px, py = x[ok], y[ok]
    clear = np.ones(px.shape, dtype=bool)
    for rect in blocking_rects:
        clear &= ~_segments_meet_rect(px, py, target, rect)
    return float((weights[ok] * clear).sum())


def plan_success_probability(scene, plan, params=None) -> float:
    """Probability that ``execution.execute_plan`` runs ``plan`` to the end.
    Every arrival draws its own noise, and no test reads where earlier
    objects were placed, so it is the product over steps of the load
    arrival's collision-free probability and the unload arrival's
    collision-free, in-reach and clear-line probability, each integrated
    by ``noise_success_probability``. A plan cut at routing never ends."""
    params = params or FeasibilityParams()
    if plan.truncated:
        return 0.0
    solid = scene.solid_rects()
    probability = 1.0
    for step in plan.steps:
        load = step.load_pose.xy
        probability *= noise_success_probability(
            load, load, solid, [], scene.robot_radius, math.inf, params.nav_sigma_xy)
        probability *= noise_success_probability(
            step.unload_pose.xy, step.target_world, solid,
            scene.reach_blockers(step.target_table), scene.robot_radius,
            params.reach_radius, params.nav_sigma_xy)
    return probability


def _orientation(ax, ay, bx, by, cx, cy):
    """Sign of the turn a -> b -> c: 1 left, -1 right, 0 collinear."""
    return np.sign((bx - ax) * (cy - ay) - (by - ay) * (cx - ax))


def _segments_meet_rect(px, py, target, rect) -> np.ndarray:
    """Whether each closed segment (px, py) -> target meets the closed rect."""
    tx, ty = target
    hit = np.zeros(px.shape, dtype=bool)
    for ex, ey in ((px, py), (tx, ty)):
        hit |= (rect.x_min <= ex) & (ex <= rect.x_max) & (rect.y_min <= ey) & (ey <= rect.y_max)
    corners = [(rect.x_min, rect.y_min), (rect.x_max, rect.y_min),
               (rect.x_max, rect.y_max), (rect.x_min, rect.y_max)]
    for (ax, ay), (bx, by) in zip(corners, corners[1:] + corners[:1]):
        # Two closed segments meet when each one's ends do not lie strictly
        # on one side of the other, and, for collinear ones, their bounding
        # boxes overlap.
        straddles = (
            (_orientation(px, py, tx, ty, ax, ay) * _orientation(px, py, tx, ty, bx, by) <= 0)
            & (_orientation(ax, ay, bx, by, px, py) * _orientation(ax, ay, bx, by, tx, ty) <= 0)
        )
        overlap = (
            (np.minimum(px, tx) <= max(ax, bx)) & (min(ax, bx) <= np.maximum(px, tx))
            & (np.minimum(py, ty) <= max(ay, by)) & (min(ay, by) <= np.maximum(py, ty))
        )
        hit |= straddles & overlap
    return hit


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
    """The former ``planning._unload_option``: a ``SeedSequence`` / ``PCG64``
    / ``Generator`` triple spawned from the scene seed and
    ``params.stand_seed`` with key ``(*seed_key, 1)`` draws the stand through
    ``rng.choice``; the option is scored by ``weighted_mean_feasibility``.
    Its band index counts the cells of the band's earlier locations, then
    ``cell``'s row-major position in ``location``."""
    fmap = compute_feasibility_map(scene, location, target_world, params.feasibility)
    draw_rng = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence((scene.rng_seed, params.stand_seed), spawn_key=(*seed_key, 1))))
    cell = choice_standing_cell(fmap, draw_rng)
    pose = standing_pose(location, cell, target_world)
    return UnloadOption(
        location=location,
        pose=pose,
        cell=nav.cell_of(pose.x, pose.y),
        band_index=(band.locations.index(location) * BAND_ROWS + cell[0]) * BAND_COLS + cell[1],
        target_world=target_world,
        layer=layer,
        fea_task=weighted_mean_feasibility(fmap.values),
        fea_stand=float(fmap.values[cell]),
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
    per-point rule), its leg costs read off the loading cell's cost field
    (``whole_field``) and added to the previous steps' one step at a time, left
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
        field = whole_field(nav, load_cell)
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
    rect: the test ``motion.robot_collides`` makes, inline, on every rect
    its early-out does not skip, and the reference for the batched
    ``geometry.rect_distances`` test."""
    return rect.distance_to(x, y) <= radius


def slab_segment_hits_rect(p0: tuple[float, float], p1: tuple[float, float], rect) -> bool:
    """The former ``geometry.segment_hits_rect``: slab clipping alone, with
    no early-out for segments that lie beyond one edge."""
    t0, t1 = 0.0, 1.0
    dx = p1[0] - p0[0]
    dy = p1[1] - p0[1]
    for pos, delta, lo, hi in (
        (p0[0], dx, rect.x_min, rect.x_max),
        (p0[1], dy, rect.y_min, rect.y_max),
    ):
        if abs(delta) < 1e-12:
            if pos < lo or pos > hi:
                return False
            continue
        ta = (lo - pos) / delta
        tb = (hi - pos) / delta
        if ta > tb:
            ta, tb = tb, ta
        t0 = max(t0, ta)
        t1 = min(t1, tb)
        if t0 > t1:
            return False
    return True


def _generator_robot_collides(scene, x: float, y: float) -> bool:
    return any(disc_hits_rect(x, y, scene.robot_radius, r) for r in scene.solid_rects())


def _offset_pose(pose, dx: float, dy: float) -> Pose2D:
    return Pose2D(pose.x + dx, pose.y + dy, pose.theta)


def _reach_clear(scene, arrival, target, target_table, params) -> bool:
    if math.hypot(arrival.x - target[0], arrival.y - target[1]) > params.reach_radius:
        return False
    for rect in scene.reach_blockers(target_table):
        if slab_segment_hits_rect((arrival.x, arrival.y), target, rect):
            return False
    return True


def execute_plan_block_draw(scene, plan, rng, params=None) -> ExecutionResult:
    """The replay referee: draws a run's whole noise up front, ``4 *
    len(plan.steps)`` standard normals (x and y of the load arrival, then of
    the unload arrival, step by step), then makes the full collision and
    reach tests on every arrival it reaches, a generator over
    ``disc_hits_rect`` and slab clipping, with no free-space early-out.
    ``execute_plan`` must reproduce its results and leave the generator in
    the same state. It has no truncation rule: a truncated plan whose
    routed prefix runs clean succeeds here, where ``execute_plan`` fails it
    at its cut."""
    params = params or FeasibilityParams()
    offsets = params.nav_sigma_xy * rng.standard_normal((len(plan.steps), 2, 2))
    positions = {
        o.id: scene.table(o.initial_location).to_world(*o.initial_position)
        for o in scene.objects
    }
    layers = {o.id: 0 for o in scene.objects}
    cost = 0.0
    delivered = 0

    def fail(step, stage: str, kind: str) -> ExecutionResult:
        return ExecutionResult(
            success=False,
            failure_kind=kind,
            failed_object=step.object_id,
            failed_stage=stage,
            objects_delivered=delivered,
            executed_cost=cost,
            final_positions=positions,
            final_layers=layers,
        )

    for step, (load, unload) in zip(plan.steps, offsets.tolist()):
        cost += step.leg_to_load
        arrival = _offset_pose(step.load_pose, *load)
        if _generator_robot_collides(scene, arrival.x, arrival.y):
            return fail(step, "load", NAVIGATION)
        cost += MANIPULATION_COST

        cost += step.leg_to_unload
        arrival = _offset_pose(step.unload_pose, *unload)
        if _generator_robot_collides(scene, arrival.x, arrival.y):
            return fail(step, "unload", NAVIGATION)
        target_table = step.unload_location.split("/")[0]
        if not _reach_clear(scene, arrival, step.target_world, target_table, params):
            return fail(step, "unload", MANIPULATION)
        cost += MANIPULATION_COST
        positions[step.object_id] = step.target_world
        layers[step.object_id] = step.target_layer
        delivered += 1

    return ExecutionResult(
        success=True,
        failure_kind=None,
        failed_object=None,
        failed_stage=None,
        objects_delivered=delivered,
        executed_cost=cost,
        final_positions=positions,
        final_layers=layers,
    )
