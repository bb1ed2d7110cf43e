"""Base navigation on the occupancy grid.

The robot moves between cell centers on an 8-connected lattice: straight
steps cost one grid resolution, diagonal steps cost resolution times sqrt(2),
and a diagonal step is allowed only when both adjacent straight cells are
also free (no squeezing through corners). Obstacles are inflated by the
robot radius before planning.

All movement queries share one adjacency graph per scene, so paths,
Dijkstra cost fields and connected-component reachability can never
disagree about which cells communicate. Paths count straight and diagonal
steps separately and report cost as
``straight * res + diagonal * res * sqrt(2)``, which makes optimal costs
exactly comparable across independent implementations: optimal step
counts are unique because sqrt(2) is irrational.

The package routes with ``Navigator.field_path``, which walks down a
cached cost field and so needs no search beyond the Dijkstra call that
priced the leg. ``Navigator.astar`` is the reference: acceptance 4 checks
it against an independent Dijkstra, and the tests check ``field_path``'s
step counts against both.
"""
from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from weakref import WeakKeyDictionary

import numpy as np
from scipy import ndimage
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra

from .geometry import disc_hits_rect_batch
from .world import OccupancyGrid, SceneState

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


def inflate(grid: OccupancyGrid, radius: float) -> np.ndarray:
    """Cells whose centers come within ``radius`` of an occupied cell center."""
    if not grid.occupied.any():
        return np.zeros_like(grid.occupied)
    distances = ndimage.distance_transform_edt(~grid.occupied) * grid.resolution
    return distances <= radius


def robot_collides(scene: SceneState, x: float, y: float) -> bool:
    """Continuous collision test: robot disc against furniture rectangles."""
    radius = scene.robot_radius
    for r in scene.solid_rects():
        dx = max(r.x_min - x, 0.0, x - r.x_max)
        dy = max(r.y_min - y, 0.0, y - r.y_max)
        if math.hypot(dx, dy) <= radius:
            return True
    return False


def robot_collides_batch(scene: SceneState, points: np.ndarray) -> np.ndarray:
    hits = np.zeros(len(points), dtype=bool)
    for rect in scene.solid_rects():
        hits |= disc_hits_rect_batch(points, scene.robot_radius, rect)
    return hits


_OFFSETS: tuple[tuple[int, int], ...] = (
    (-1, 0), (1, 0), (0, -1), (0, 1),
    (-1, -1), (-1, 1), (1, -1), (1, 1),
)


class Navigator:
    """Per-scene navigation state: inflated grid, adjacency, reachability.

    Cost fields (single-source shortest path distances over the whole grid)
    are computed lazily per source cell and cached, so plan enumeration can
    price thousands of candidate legs that share endpoints.

    A scene's navigator is also its one per-scene store: it records the
    robot's start cell and component, and holds the feasibility ``maps`` and
    standing-band indices (``bands``) other modules memoise for the scene.
    ``maps`` keeps the ``MAX_MAPS`` most recently used maps; cost fields
    and band indices are not bounded within a scene.
    """

    def __init__(self, scene: SceneState):
        self._setup(scene.grid, scene.robot_radius)
        self.start_cell: Cell | None = self.cell_of(*scene.robot_pose.xy)
        self.start_component = self.component(self.start_cell)

    @classmethod
    def from_grid(cls, grid: OccupancyGrid, robot_radius: float = 0.0) -> "Navigator":
        """Navigator over a bare occupancy grid (no furniture semantics and
        no robot start, so no point is ``reachable_at``)."""
        nav = cls.__new__(cls)
        nav._setup(grid, robot_radius)
        nav.start_cell, nav.start_component = None, -1
        return nav

    def _setup(self, grid: OccupancyGrid, robot_radius: float) -> None:
        self.grid = grid
        self.blocked = inflate(grid, robot_radius)
        self.free = ~self.blocked
        # Node and component labels fit int32, half the int64 grids' memory.
        self._node_of = np.full(self.grid.shape, -1, dtype=np.int32)
        free_idx = np.flatnonzero(self.free.ravel())
        self._node_of.ravel()[free_idx] = np.arange(len(free_idx))
        self._cell_of_node = free_idx  # flat grid index per node
        self._adjacency = self._build_adjacency()
        n_comp, labels = connected_components(self._adjacency, directed=False)
        self._labels = np.full(self.grid.shape, -1, dtype=np.int32)
        self._labels.ravel()[free_idx] = labels
        self._fields: dict[Cell, np.ndarray] = {}
        # One tuple per path cell, shared by every path this navigator
        # builds, so plans kept alive do not each hold their own copies.
        self._cells: dict[Cell, Cell] = {}
        self.maps: dict = {}
        self.bands: dict = {}

    # -- graph construction

    def _build_adjacency(self) -> csr_matrix:
        rows_i: list[np.ndarray] = []
        cols_i: list[np.ndarray] = []
        data: list[np.ndarray] = []
        free = self.free
        node = self._node_of
        res = self.grid.resolution
        nr, nc = self.grid.shape
        for dy, dx in _OFFSETS:
            src_r = slice(max(0, -dy), nr - max(0, dy))
            src_c = slice(max(0, -dx), nc - max(0, dx))
            dst_r = slice(max(0, dy), nr - max(0, -dy))
            dst_c = slice(max(0, dx), nc - max(0, -dx))
            ok = free[src_r, src_c] & free[dst_r, dst_c]
            if dy != 0 and dx != 0:
                # Both straight detours around the corner must be free.
                ok &= free[src_r, dst_c] & free[dst_r, src_c]
            src_nodes = node[src_r, src_c][ok]
            dst_nodes = node[dst_r, dst_c][ok]
            rows_i.append(src_nodes)
            cols_i.append(dst_nodes)
            weight = res * _SQRT2 if (dy != 0 and dx != 0) else res
            data.append(np.full(len(src_nodes), weight))
        n = len(self._cell_of_node)
        return csr_matrix(
            (np.concatenate(data), (np.concatenate(rows_i), np.concatenate(cols_i))),
            shape=(n, n),
        )

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

    def components_at(self, points: np.ndarray) -> np.ndarray:
        ix = np.floor((points[:, 0] - self.grid.origin[0]) / self.grid.resolution).astype(int)
        iy = np.floor((points[:, 1] - self.grid.origin[1]) / self.grid.resolution).astype(int)
        nr, nc = self.grid.shape
        inside = (iy >= 0) & (iy < nr) & (ix >= 0) & (ix < nc)
        out = np.full(len(points), -1, dtype=np.int64)
        out[inside] = self._labels[iy[inside], ix[inside]]
        return out

    def reachable_at(self, points: np.ndarray) -> np.ndarray:
        """Whether each metric point, shape (n, 2), lies in a free cell of
        the robot's start component: the rule for a usable band cell."""
        components = self.components_at(points)
        return (components >= 0) & (components == self.start_component)

    # -- shortest paths

    def cost_field(self, source: Cell) -> np.ndarray:
        """Shortest-path cost from a source cell to every grid cell (inf when
        unreachable). Cached per source."""
        field = self._fields.get(source)
        if field is not None:
            return field
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
        self._fields[source] = field
        return field

    def field_path(self, far: Cell, source: Cell) -> MotionPlan:
        """Optimal path from ``far`` to ``source`` read off
        ``cost_field(source)``: each step goes to the admissible neighbour
        (the adjacency's offsets and corner rule) with the smallest field
        value plus step cost, the first in ``_OFFSETS`` order among values
        within 1e-12. Each field value is its best neighbour's plus one
        step, so every step descends and the path costs the field value."""
        field = self.cost_field(source)
        if not self.grid.in_bounds(far) or math.isinf(field[far]):
            raise MotionError(f"no path from {far} to {source}")
        res = self.grid.resolution
        free = self.free
        nr, nc = self.grid.shape
        intern = self._cells.setdefault
        cells = [intern(far, far)]
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
                value = field[ny, nx] + (res * _SQRT2 if diagonal else res)
                if value < best - 1e-12:
                    best, step, step_diagonal = value, (ny, nx), diagonal
            cy, cx = step
            cells.append(intern(step, step))
            counts[step_diagonal] += 1
        return MotionPlan(tuple(cells), counts[0], counts[1], res)

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
            dy = abs(cell[0] - goal[0])
            dx = abs(cell[1] - goal[1])
            lo, hi = (dy, dx) if dy < dx else (dx, dy)
            return res * ((hi - lo) + lo * _SQRT2)

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
                return self._reconstruct(start, goal, parent, g_counts[goal])
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

    def _reconstruct(
        self, start: Cell, goal: Cell, parent: dict[Cell, Cell], counts: tuple[int, int]
    ) -> MotionPlan:
        cells = [goal]
        while cells[-1] != start:
            cells.append(parent[cells[-1]])
        intern = self._cells.setdefault
        return MotionPlan(
            cells=tuple(intern(cell, cell) for cell in reversed(cells)),
            straight_steps=counts[0],
            diagonal_steps=counts[1],
            resolution=self.grid.resolution,
        )


# Least recently used first. A navigator holds its scene's cost fields, maps
# and band indices, so the bound caps memory for callers keeping many scenes.
_NAVIGATORS: "WeakKeyDictionary[SceneState, Navigator]" = WeakKeyDictionary()
_MAX_NAVIGATORS = 8
# Feasibility maps kept per navigator, least recently used first. A map is
# recomputed bit for bit after eviction, so the bound only trades time for
# memory (about 3 KB a map); it covers the 200 maps a 10-configuration
# re-plan of five objects reads per call. Cost fields stay unbounded: each
# is a loading cell's, so the source tables' band cells cap their count
# (78 to 113 on the benchmark workloads), and dropping a field a plan search
# still reads repeats a whole-grid Dijkstra pass.
MAX_MAPS = 256


def navigator_for(scene: SceneState) -> Navigator:
    """Shared navigator per scene instance (scenes hash by identity). It and
    all it caches are dropped with the scene, or when it is the least
    recently used of more than eight."""
    nav = _NAVIGATORS.pop(scene, None)
    if nav is None:
        nav = Navigator(scene)
    _NAVIGATORS[scene] = nav
    if len(_NAVIGATORS) > _MAX_NAVIGATORS:
        del _NAVIGATORS[next(iter(_NAVIGATORS))]
    return nav
