"""Base navigation on the occupancy grid.

The robot moves between cell centers on an 8-connected lattice: straight
steps cost one grid resolution, diagonal steps cost resolution times sqrt(2),
and a diagonal step is allowed only when both adjacent straight cells are
also free (no squeezing through corners). A cell is blocked exactly when
``robot_collides``, the test of every replay and map, holds at its centre.

Paths and Dijkstra cost fields share one adjacency graph per scene.
Reachability reads components labelled on the free grid with
4-connectivity, and the two agree on which cells communicate: every
straight step between free cells is an edge, and a diagonal edge needs
both straight detours free. Paths count straight and diagonal
steps separately and report cost as
``straight * res + diagonal * res * sqrt(2)``, which makes optimal costs
exactly comparable across independent implementations: optimal step
counts are unique because sqrt(2) is irrational.

The package routes with ``Navigator.field_path``, which follows a
per-source descent table down a cost field its caller holds for one
planning call, so needs no search beyond the Dijkstra call that priced
the leg. ``Navigator.astar`` is the reference: acceptance 4 checks it
against an independent Dijkstra, and the tests check ``field_path``'s
step counts against both.
"""
from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from weakref import WeakKeyDictionary, ref

import numpy as np
from scipy import ndimage
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .geometry import EARLY_OUT_SLACK, rect_distances
from .world import OccupancyGrid, SceneState, cells_within

_SQRT2 = math.sqrt(2.0)

Cell = tuple[int, int]  # (row, col) a.k.a. (iy, ix)


class MotionError(RuntimeError):
    """No collision-free path connects the requested poses."""


@dataclass(frozen=True)
class MotionPlan:
    cells: tuple[Cell, ...]
    straight_steps: int
    diagonal_steps: int
    resolution: float

    @property
    def cost(self) -> float:
        return step_cost(self.straight_steps, self.diagonal_steps, self.resolution)


def step_cost(straight: int, diagonal: int, resolution: float) -> float:
    return resolution * (straight + diagonal * _SQRT2)


def octile(dy, dx, resolution: float):
    """Octile distance, for ints or int arrays alike: the cost of the
    cheapest grid path across ``dy`` rows and ``dx`` columns with no cell
    blocked, min(|dy|, |dx|) diagonal steps and ||dy| - |dx|| straight
    ones. A step moves at most one row and one column, so no grid path
    between two cells costs less."""
    dy, dx = abs(dy), abs(dx)
    straight = abs(dy - dx)
    return resolution * (straight + (dy + dx - straight) // 2 * _SQRT2)


def robot_collides(scene: SceneState, x: float, y: float) -> bool:
    """Continuous collision test: robot disc against furniture rectangles.
    A rectangle at least ``radius + EARLY_OUT_SLACK`` beyond one edge is
    skipped exactly: there ``dx`` or ``dy`` exceeds the radius, and ``hypot``
    is at least the larger of them."""
    radius = scene.robot_radius
    far = radius + EARLY_OUT_SLACK
    for r in scene.solid_rects():
        if r.x_min - x >= far or x - r.x_max >= far or r.y_min - y >= far or y - r.y_max >= far:
            continue
        dx = max(r.x_min - x, 0.0, x - r.x_max)
        dy = max(r.y_min - y, 0.0, y - r.y_max)
        if math.hypot(dx, dy) <= radius:
            return True
    return False


def robot_collides_batch(scene: SceneState, points: np.ndarray) -> np.ndarray:
    hits = np.zeros(len(points), dtype=bool)
    for rect in scene.solid_rects():
        hits |= rect_distances(rect, points[:, 0], points[:, 1]) <= scene.robot_radius
    return hits


_OFFSETS: tuple[tuple[int, int], ...] = (
    (-1, 0), (1, 0), (0, -1), (0, 1),
    (-1, -1), (-1, 1), (1, -1), (1, 1),
)
# Each offset's rank in raster order, the order of its neighbours' nodes.
_RASTER_SLOT = tuple(sorted(_OFFSETS).index(offset) for offset in _OFFSETS)


class Navigator:
    """Per-scene navigation state: blocked cells (those whose centre
    ``robot_collides`` rejects), adjacency and reachability.

    Cost fields (single-source shortest path distances over the whole grid)
    are computed per call and not kept; a routed source keeps its descent
    table, one byte per grid cell.

    A scene's navigator is also its one per-scene store: it records the
    robot's start cell and component, and holds the feasibility ``maps``
    (keyed by location, exact unload point and trial parameters),
    standing-band indices (``bands``), loading-stand tables (``stands``)
    and leg costs (``legs``), each built whole on first use, that other
    modules memoise for the scene. No answer depends on what was asked
    before. ``maps`` keeps the ``MAX_MAPS`` most recently used maps; the
    other tables are not bounded within a scene.
    """

    def __init__(self, scene: SceneState):
        grid = scene.grid
        blocked = cells_within(
            scene.solid_rects(), scene.robot_radius, grid.origin, grid.resolution, grid.shape)
        self._setup(grid, blocked, grid.cell_of(*scene.robot_pose.xy))

    @classmethod
    def from_grid(cls, grid: OccupancyGrid) -> "Navigator":
        """Navigator over a bare occupancy grid, blocking its occupied cells
        (no robot start, so no point is ``reachable_at``)."""
        nav = cls.__new__(cls)
        nav._setup(grid, grid.occupied, None)
        return nav

    def _setup(self, grid: OccupancyGrid, blocked: np.ndarray, start_cell: Cell | None) -> None:
        self.grid = grid
        self.blocked = blocked
        self.free = ~self.blocked
        # Node and component labels fit int32, half the int64 grids' memory.
        self._node_of = np.full(self.grid.shape, -1, dtype=np.int32)
        self._cell_of_node = np.flatnonzero(self.free)  # flat grid index per node
        self._node_of.ravel()[self._cell_of_node] = np.arange(len(self._cell_of_node))
        self._adjacency = self._build_adjacency()
        self._labels = ndimage.label(self.free, output=np.int32)[0] - np.int32(1)
        self.start_cell = start_cell
        self.start_component = -1 if start_cell is None else self.component(start_cell)
        self._descents: dict[Cell, np.ndarray] = {}
        # One tuple per path cell, shared by every path this navigator
        # builds, so plans kept alive do not each hold their own copies.
        self._cells: dict[Cell, Cell] = {}
        self.maps: dict = {}
        self.bands: dict = {}
        self.stands: dict = {}
        self.legs: dict = {}

    # -- graph construction

    def _moves(self):
        """Per offset, in ``_OFFSETS`` order: the source and destination
        slices of its in-grid moves, the mask of those the adjacency admits
        (both straight detours free for a diagonal) and the step cost."""
        free = self.free
        res = self.grid.resolution
        nr, nc = self.grid.shape
        for dy, dx in _OFFSETS:
            src = (slice(max(0, -dy), nr - max(0, dy)), slice(max(0, -dx), nc - max(0, dx)))
            dst = (slice(max(0, dy), nr - max(0, -dy)), slice(max(0, dx), nc - max(0, -dx)))
            ok = free[src] & free[dst]
            if dy != 0 and dx != 0:
                ok &= free[src[0], dst[1]] & free[dst[0], src[1]]
            yield src, dst, ok, res * _SQRT2 if (dy != 0 and dx != 0) else res

    def _build_adjacency(self) -> csr_matrix:
        """Each free node's admissible neighbours, in increasing node order,
        written straight into CSR rows: offset ``i`` fills slot
        ``_RASTER_SLOT[i]`` of a per-cell table of neighbour nodes."""
        table = np.full(self.grid.shape + (len(_OFFSETS),), -1, dtype=np.int32)
        counts = np.zeros(self.grid.shape, dtype=np.int32)
        weights = np.empty(len(_OFFSETS))
        for slot, (src, dst, ok, weight) in zip(_RASTER_SLOT, self._moves()):
            np.copyto(table[src + (slot,)], self._node_of[dst], where=ok)
            counts[src] += ok
            weights[slot] = weight
        admitted = table >= 0
        n = len(self._cell_of_node)
        indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(counts.ravel()[self._cell_of_node], out=indptr[1:])
        data = np.tile(weights, counts.size)[admitted.ravel()]
        return csr_matrix((data, table[admitted], indptr), shape=(n, n))

    # -- basic queries

    def cell_of(self, x: float, y: float) -> Cell:
        return self.grid.cell_of(x, y)

    def is_free(self, cell: Cell) -> bool:
        return self.grid.in_bounds(cell) and bool(self.free[cell])

    def component(self, cell: Cell) -> int:
        """Connectivity label of a cell; -1 when blocked or off-grid."""
        if not self.grid.in_bounds(cell):
            return -1
        return int(self._labels[cell])

    def same_component(self, a: Cell, b: Cell) -> bool:
        ca, cb = self.component(a), self.component(b)
        return ca >= 0 and ca == cb

    def flat_cells(self, points: np.ndarray) -> np.ndarray:
        """Flat grid index of the cell each metric point, shape (n, 2), lies
        in (``cell_of``'s arithmetic); -1 for a point off the grid."""
        ix = np.floor((points[:, 0] - self.grid.origin[0]) / self.grid.resolution).astype(int)
        iy = np.floor((points[:, 1] - self.grid.origin[1]) / self.grid.resolution).astype(int)
        nr, nc = self.grid.shape
        inside = (iy >= 0) & (iy < nr) & (ix >= 0) & (ix < nc)
        return np.where(inside, iy * nc + ix, -1)

    def components_at(self, points: np.ndarray) -> np.ndarray:
        flat = self.flat_cells(points)
        return np.where(flat >= 0, self._labels.ravel()[flat], -1)

    def reachable_at(self, points: np.ndarray) -> np.ndarray:
        """Whether each metric point, shape (n, 2), lies in a free cell of
        the robot's start component: the rule for a usable band cell."""
        components = self.components_at(points)
        return (components >= 0) & (components == self.start_component)

    # -- shortest paths

    def cost_field(self, source: Cell) -> np.ndarray:
        """Shortest-path cost from a source cell to every grid cell (inf when
        unreachable), read-only. Computed on every call, not kept."""
        if not self.is_free(source):
            field = np.full(self.grid.shape, np.inf)
        else:
            node = int(self._node_of[source])
            # Every edge is stored both ways, so a directed search finds the
            # same distances without scipy transposing the matrix per call.
            dist = dijkstra(self._adjacency, directed=True, indices=node)
            field = np.full(self.grid.occupied.size, np.inf)
            field[self._cell_of_node] = dist
            field = field.reshape(self.grid.shape)
        field.setflags(write=False)
        return field

    def field_path(self, far: Cell, source: Cell, field: np.ndarray | None = None) -> MotionPlan:
        """Optimal path from ``far`` to ``source`` down ``cost_field(source)``,
        read off the field's descent table: per cell, the ``_OFFSETS`` index
        of its step (-1 for none), built once per source in one grid pass per
        offset, in order, where an admissible neighbour's field value plus
        step cost replaces the best so far only when lower by more than
        1e-12. Each field value is its best neighbour's plus one step, so
        every step descends and the path costs the field value. A caller
        holding the source's ``field`` passes it for the table's build."""
        if not self.same_component(far, source):
            raise MotionError(f"no path from {far} to {source}")
        table = self._descents.get(source)
        if table is None:
            field = self.cost_field(source) if field is None else field
            best = np.full(self.grid.shape, np.inf)
            table = np.full(self.grid.shape, -1, dtype=np.int8)
            for i, (src, dst, ok, weight) in enumerate(self._moves()):
                value = field[dst] + weight
                ok &= value < best[src] - 1e-12
                np.copyto(best[src], value, where=ok)
                np.copyto(table[src], i, where=ok)
            table.setflags(write=False)
            self._descents[source] = table
        intern = self._cells.setdefault
        cells = [intern(far, far)]
        diagonal = 0
        cy, cx = far
        while (cy, cx) != source:
            dy, dx = _OFFSETS[table[cy, cx]]
            cy, cx = cy + dy, cx + dx
            cells.append(intern((cy, cx), (cy, cx)))
            diagonal += dy != 0 and dx != 0
        return MotionPlan(tuple(cells), len(cells) - 1 - diagonal, diagonal, self.grid.resolution)

    def astar(self, start: Cell, goal: Cell) -> MotionPlan:
        """Optimal grid path with an octile-distance heuristic. The package
        routes with ``field_path``; this search stays as the reference that
        acceptance 4 checks against an independent Dijkstra."""
        if not self.is_free(start):
            raise MotionError(f"start cell {start} is blocked")
        if not self.is_free(goal):
            raise MotionError(f"goal cell {goal} is blocked")
        if not self.same_component(start, goal):
            raise MotionError(f"no path from {start} to {goal}")
        res = self.grid.resolution
        free = self.free
        nr, nc = self.grid.shape

        def heuristic(cell: Cell) -> float:
            return octile(cell[0] - goal[0], cell[1] - goal[1], res)

        counter = itertools.count()
        # g-scores as (straight, diagonal) step counts; float view for ordering.
        g_counts: dict[Cell, tuple[int, int]] = {start: (0, 0)}
        g_best: dict[Cell, float] = {start: 0.0}
        parent: dict[Cell, Cell] = {}
        open_heap: list[tuple[float, int, Cell]] = [(heuristic(start), next(counter), start)]
        closed: set[Cell] = set()
        while open_heap:
            _, _, current = heapq.heappop(open_heap)
            if current in closed:
                continue
            if current == goal:
                path = [goal]
                while path[-1] != start:
                    path.append(parent[path[-1]])
                intern = self._cells.setdefault
                cells = tuple(intern(cell, cell) for cell in reversed(path))
                return MotionPlan(cells, *g_counts[goal], res)
            closed.add(current)
            cy, cx = current
            g_cur = g_best[current]
            s_cur, d_cur = g_counts[current]
            for dy, dx in _OFFSETS:
                ny, nx = cy + dy, cx + dx
                if not (0 <= ny < nr and 0 <= nx < nc) or not free[ny, nx]:
                    continue
                diagonal = dy != 0 and dx != 0
                if diagonal and not (free[cy, nx] and free[ny, cx]):
                    continue
                neighbor = (ny, nx)
                tentative = g_cur + (res * _SQRT2 if diagonal else res)
                if tentative < g_best.get(neighbor, math.inf) - 1e-12:
                    g_best[neighbor] = tentative
                    g_counts[neighbor] = (s_cur + (not diagonal), d_cur + diagonal)
                    parent[neighbor] = current
                    heapq.heappush(
                        open_heap, (tentative + heuristic(neighbor), next(counter), neighbor)
                    )
        raise MotionError(f"open set exhausted between {start} and {goal}")


# Least recently used first. A navigator holds its scene's maps and tables,
# so the bound caps memory for callers keeping many scenes.
_NAVIGATORS: "WeakKeyDictionary[SceneState, Navigator]" = WeakKeyDictionary()
_MAX_NAVIGATORS = 8
# Feasibility maps kept per navigator, least recently used first. A map is
# recomputed bit for bit after eviction, so the bound only trades time for
# memory (about 3 KB a map); it covers the 200 maps a 10-configuration
# re-plan of five objects reads per call. Leg costs stay unbounded: each
# (table, loading cell) entry holds one float per band cell of the table
# (about 6 KB), and a search adds only those of candidates that can still
# win (a few per cold call), up to the source tables' band cells; dropping
# one a plan search still reads repeats a whole-grid Dijkstra pass.
MAX_MAPS = 256
# Weak references to the most recently used scene and its navigator, so a
# repeated lookup skips the dictionary without keeping either alive.
_recent: tuple[ref, ref] = (lambda: None, lambda: None)


def navigator_for(scene: SceneState) -> Navigator:
    """Shared navigator per scene instance (scenes hash by identity). It and
    all it caches are dropped with the scene, or when it is the least
    recently used of more than eight. Asking again for the most recently
    used scene returns its navigator without touching the order."""
    global _recent
    if _recent[0]() is scene and (nav := _recent[1]()) is not None:
        return nav  # already the most recently used: the order stands
    nav = _NAVIGATORS.pop(scene, None)
    if nav is None:
        nav = Navigator(scene)
    _NAVIGATORS[scene] = nav
    if len(_NAVIGATORS) > _MAX_NAVIGATORS:
        del _NAVIGATORS[next(iter(_NAVIGATORS))]
    _recent = (ref(scene), ref(nav))
    return nav
