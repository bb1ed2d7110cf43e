"""World model: poses, furniture, movable objects, the navigation grid with
the scene's one blocked-cell raster, and the symbolic standing locations
that flank each table.

A scene is stored on disk as a small YAML document (one ``format_version: 1``
key plus tables / obstacles / objects / robot sections) so fixtures can be
read and tweaked by hand.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from types import MappingProxyType
from typing import ClassVar

import numpy as np
import yaml

from .geometry import Rect, rect_distances, wrap_angle

SCENE_FORMAT_VERSION = 1

# Fetch-class base footprint: a grid cell is blocked when a disc of this
# radius at its centre touches furniture, and the standing bands clear it.
DEFAULT_ROBOT_RADIUS = 0.3

# Standing band shared by every table side: 24 x 8 cells of 0.1 m, long axis
# parallel to the table edge, near edge pushed a little past the robot radius
# so the robot fits at the first row of cells beside a bare table edge.
BAND_CELL_SIZE = 0.1
BAND_COLS = 24
BAND_ROWS = 8
BAND_OFFSET = 0.35

SIDES = ("north", "south", "east", "west")

DEFAULT_GRID_RESOLUTION = 0.05
_GRID_MARGIN = 0.5
# Largest grid a scene may ask for: a 50 m square at the default resolution,
# about 50 times the benchmark scenes' 115 x 162. Navigation keeps several
# whole-grid arrays per scene, so a larger grid is refused before any is
# allocated.
MAX_GRID_CELLS = 1_000_000


class SceneError(ValueError):
    """Raised when a scene file is malformed or violates a scene invariant."""


@dataclass(frozen=True)
class Pose2D:
    """Planar pose; theta is normalized to (-pi, pi] at construction."""

    x: float
    y: float
    theta: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "y", float(self.y))
        object.__setattr__(self, "theta", wrap_angle(float(self.theta)))

    @property
    def xy(self) -> tuple[float, float]:
        return (self.x, self.y)


@dataclass(frozen=True)
class TableSpec:
    """A rectangular table whose top carries movable objects."""

    id: str
    center: tuple[float, float]
    half_extents: tuple[float, float]

    @property
    def rect(self) -> Rect:
        return Rect(self.center[0], self.center[1], self.half_extents[0], self.half_extents[1])

    def to_table_frame(self, x: float, y: float) -> tuple[float, float]:
        return (x - self.center[0], y - self.center[1])

    def to_world(self, x: float, y: float) -> tuple[float, float]:
        return (x + self.center[0], y + self.center[1])


@dataclass(frozen=True)
class ObstacleSpec:
    """A static rectangle the robot must avoid but cannot place objects on."""

    id: str
    center: tuple[float, float]
    half_extents: tuple[float, float]
    kind: str = "chair"

    @property
    def rect(self) -> Rect:
        return Rect(self.center[0], self.center[1], self.half_extents[0], self.half_extents[1])


@dataclass(frozen=True)
class ObjectSpec:
    """A movable tabletop object, modeled as a disc footprint.

    ``initial_location`` names the table the object starts on.
    ``initial_position`` is the starting spot in that table's frame; it is
    assigned automatically at load time when the file leaves it out.
    """

    id: str
    footprint_radius: float
    initial_location: str
    supports_stacking: bool = False
    initial_position: tuple[float, float] | None = None


@dataclass(frozen=True)
class Grid:
    """A raster's frame: cell ``[iy, ix]`` of a ``shape`` (rows, cols) raster
    covers the square whose lower-left corner sits at ``origin + (ix, iy) *
    resolution``."""

    resolution: float
    origin: tuple[float, float]
    shape: tuple[int, int]

    def cell_of(self, x: float, y: float) -> tuple[int, int]:
        ix = int(math.floor((x - self.origin[0]) / self.resolution))
        iy = int(math.floor((y - self.origin[1]) / self.resolution))
        return (iy, ix)

    def in_bounds(self, cell: tuple[int, int]) -> bool:
        iy, ix = cell
        return 0 <= iy < self.shape[0] and 0 <= ix < self.shape[1]


@dataclass(frozen=True)
class SymbolicLocation:
    """A standing band beside one table side.

    The band rectangle may overlap obstacles in cluttered scenes; feasibility
    analysis decides which of its cells are actually usable.
    """

    id: str
    table_id: str
    side: str
    rect: Rect
    cell_size: ClassVar[float] = BAND_CELL_SIZE
    # (rows, cols); rows run away from the table, row 0 is nearest the edge.
    dims: ClassVar[tuple[int, int]] = (BAND_ROWS, BAND_COLS)
    # Unit vector pointing from the table toward the band.
    outward: tuple[float, float] = (0.0, 1.0)

    def cell_centers(self) -> np.ndarray:
        """All cell centers as a read-only array of shape (rows, cols, 2),
        computed once per location instance."""
        centers = self.__dict__.get("_centers")
        if centers is None:
            rows, cols = self.dims
            ox, oy = self.outward
            # Lateral axis is the outward normal rotated +90 degrees.
            lx, ly = -oy, ox
            near = ((np.arange(rows) + 0.5) * self.cell_size)[:, None]
            lateral = (np.arange(cols) + 0.5) * self.cell_size - (cols * self.cell_size) / 2.0
            # Anchor at the band edge closest to the table.
            depth_half = (rows * self.cell_size) / 2.0
            ax = self.rect.cx - ox * depth_half
            ay = self.rect.cy - oy * depth_half
            centers = np.stack(
                (ax + ox * near + lx * lateral, ay + oy * near + ly * lateral), axis=-1
            )
            centers.setflags(write=False)
            object.__setattr__(self, "_centers", centers)
        return centers


@dataclass(frozen=True, eq=False)
class SceneState:
    """Immutable snapshot of the workspace.

    ``eq=False`` keeps identity hashing so derived artifacts (reachability
    labels, motion cost fields) can be memoized per instance. ``blocked`` is
    the scene's one blocked-cell raster, shared by ``_validate`` and the
    navigator.
    """

    tables: tuple[TableSpec, ...]
    obstacles: tuple[ObstacleSpec, ...]
    objects: tuple[ObjectSpec, ...]
    robot_pose: Pose2D
    grid: Grid
    rng_seed: int
    robot_radius: float = DEFAULT_ROBOT_RADIUS

    def table(self, table_id: str) -> TableSpec:
        if (found := self._tables.get(table_id)) is None:  # type: ignore[attr-defined]
            raise KeyError(f"unknown table {table_id!r}")
        return found

    def object(self, object_id: str) -> ObjectSpec:
        if (found := self._objects.get(object_id)) is None:  # type: ignore[attr-defined]
            raise KeyError(f"unknown object {object_id!r}")
        return found

    def __post_init__(self) -> None:
        # Lookups by id; reversed so that the first of duplicate ids wins.
        object.__setattr__(self, "_tables", {t.id: t for t in reversed(self.tables)})
        object.__setattr__(self, "_objects", {o.id: o for o in reversed(self.objects)})
        solid = tuple(t.rect for t in self.tables) + tuple(o.rect for o in self.obstacles)
        object.__setattr__(self, "_solid", solid)
        # Reaching over the target table itself is what unloading means;
        # every other piece of furniture blocks the reach line.
        object.__setattr__(self, "_blockers", {
            t.id: solid[:i] + solid[i + 1:] for i, t in enumerate(self.tables)
        })

    @cached_property
    def start_positions(self) -> MappingProxyType[str, tuple[float, float]]:
        """World-frame start position of every object, by id, in object
        order; read-only, so a rollout copies it into its own dict."""
        return MappingProxyType({
            o.id: self.table(o.initial_location).to_world(*o.initial_position)  # type: ignore[misc]
            for o in self.objects
        })

    @cached_property
    def blocked(self) -> np.ndarray:
        """The cells of ``grid`` whose centre the robot's disc cannot stand
        on without touching furniture (``cells_within`` at
        ``robot_radius``), read-only."""
        grid = self.grid
        blocked = cells_within(
            self.solid_rects(), self.robot_radius, grid.origin, grid.resolution, grid.shape)
        blocked.setflags(write=False)
        return blocked

    def solid_rects(self) -> tuple[Rect, ...]:
        """Every table and obstacle rectangle, tables first."""
        return self._solid  # type: ignore[attr-defined]

    def reach_blockers(self, table_id: str) -> tuple[Rect, ...]:
        """The solid rectangles a reach line onto ``table_id`` must not cross."""
        return self._blockers[table_id]  # type: ignore[attr-defined]


def symbolic_locations(scene: SceneState, table_id: str) -> list[SymbolicLocation]:
    """The four standing bands flanking a table, in fixed side order.

    Sides blocked by furniture are still returned; feasibility analysis is
    the component that rules them out.
    """
    table = scene.table(table_id)
    cx, cy = table.center
    hx, hy = table.half_extents
    depth = BAND_ROWS * BAND_CELL_SIZE
    length = BAND_COLS * BAND_CELL_SIZE
    out: list[SymbolicLocation] = []
    for side, (ox, oy) in zip(SIDES, ((0.0, 1.0), (0.0, -1.0), (1.0, 0.0), (-1.0, 0.0))):
        # The band's long axis runs along the table edge.
        half = (depth / 2.0, length / 2.0) if ox else (length / 2.0, depth / 2.0)
        out.append(
            SymbolicLocation(
                id=f"{table_id}/{side}",
                table_id=table_id,
                side=side,
                rect=Rect(
                    cx + ox * hx + ox * BAND_OFFSET + ox * (depth / 2.0),
                    cy + oy * hy + oy * BAND_OFFSET + oy * (depth / 2.0),
                    *half,
                ),
                outward=(ox, oy),
            )
        )
    return out


def location_by_id(scene: SceneState, location_id: str) -> SymbolicLocation:
    table_id, _, side = location_id.partition("/")
    for loc in symbolic_locations(scene, table_id):
        if loc.side == side:
            return loc
    raise KeyError(f"unknown symbolic location {location_id!r}")


# ---------------------------------------------------------------------------
# Grid sizing and the disc rule


def _auto_bounds(
    tables: list[TableSpec],
    obstacles: list[ObstacleSpec],
    robot_pose: Pose2D,
) -> tuple[float, float, float, float]:
    xs = [robot_pose.x]
    ys = [robot_pose.y]
    rects = [t.rect for t in tables] + [o.rect for o in obstacles]
    for r in rects:
        xs += [r.x_min, r.x_max]
        ys += [r.y_min, r.y_max]
    # Bands stick out BAND_OFFSET + band depth past each table edge.
    reach = BAND_OFFSET + BAND_ROWS * BAND_CELL_SIZE
    for t in tables:
        r = t.rect
        xs += [r.x_min - reach, r.x_max + reach, r.cx - BAND_COLS * BAND_CELL_SIZE / 2, r.cx + BAND_COLS * BAND_CELL_SIZE / 2]
        ys += [r.y_min - reach, r.y_max + reach, r.cy - BAND_COLS * BAND_CELL_SIZE / 2, r.cy + BAND_COLS * BAND_CELL_SIZE / 2]
    return (
        min(xs) - _GRID_MARGIN,
        min(ys) - _GRID_MARGIN,
        max(xs) + _GRID_MARGIN,
        max(ys) + _GRID_MARGIN,
    )


def cells_within(rects: tuple[Rect, ...], radius: float, origin: tuple[float, float],
                 resolution: float, shape: tuple[int, int]) -> np.ndarray:
    """The cells of a grid whose centre lies within ``radius`` of one of
    ``rects`` (radius 0: inside the closed rect). Per rect, only the columns
    and rows whose own axis gap is within ``radius`` are measured: ``hypot``
    is at least each of its terms."""
    xs = origin[0] + (np.arange(shape[1]) + 0.5) * resolution
    ys = origin[1] + (np.arange(shape[0]) + 0.5) * resolution
    hits = np.zeros(shape, dtype=bool)
    for rect in rects:
        # On the rect's centre lines one gap is 0, so these are the other's.
        near_x = rect_distances(rect, xs, rect.cy) <= radius
        near_y = rect_distances(rect, rect.cx, ys) <= radius
        hits[np.ix_(near_y, near_x)] |= rect_distances(rect, xs[near_x], ys[near_y, None]) <= radius
    return hits


# ---------------------------------------------------------------------------
# Scene assembly and validation


def _spread_objects(objects: list[ObjectSpec], tables: dict[str, TableSpec]) -> list[ObjectSpec]:
    """Assign deterministic non-overlapping start positions to objects whose
    scene entry leaves initial_position out: spaced along their table's long
    axis, ordered by declaration."""
    per_table: dict[str, list[int]] = {}
    for i, obj in enumerate(objects):
        per_table.setdefault(obj.initial_location, []).append(i)
    out = list(objects)
    for table_id, idxs in per_table.items():
        table = tables.get(table_id)
        if table is None:
            names = [objects[i].id for i in idxs]
            raise SceneError(f"objects {names} start on unknown table {table_id!r}")
        hx, hy = table.half_extents
        along_x = hx >= hy
        span = (hx if along_x else hy) * 1.4  # total spread, stays inside the top
        n = len(idxs)
        for k, i in enumerate(idxs):
            if out[i].initial_position is not None:
                continue
            offset = 0.0 if n == 1 else -span / 2.0 + span * k / (n - 1)
            pos = (offset, 0.0) if along_x else (0.0, offset)
            out[i] = replace(out[i], initial_position=pos)
    return out


def _validate(scene: SceneState) -> None:
    if scene.rng_seed < 0:
        raise SceneError(f"seed must be non-negative, got {scene.rng_seed}")
    if not (has_type(scene.robot_radius) and 0.0 <= scene.robot_radius < math.inf):
        raise SceneError(f"robot radius must be non-negative and finite, got {scene.robot_radius!r}")
    ids: set[str] = set()
    for spec in list(scene.tables) + list(scene.obstacles) + list(scene.objects):
        if spec.id in ids:
            raise SceneError(f"duplicate id {spec.id!r}")
        ids.add(spec.id)
    table_ids = {t.id for t in scene.tables}
    rects = [(t.id, t.rect) for t in scene.tables] + [(o.id, o.rect) for o in scene.obstacles]
    for i, (id_a, a) in enumerate(rects):
        for id_b, b in rects[i + 1 :]:
            if a.overlaps(b):
                raise SceneError(f"{id_a!r} overlaps {id_b!r}")
    for obj in scene.objects:
        if obj.footprint_radius <= 0:
            raise SceneError(f"object {obj.id!r} has non-positive footprint radius")
        if obj.initial_location not in table_ids:
            raise SceneError(
                f"object {obj.id!r} starts on unknown table {obj.initial_location!r}"
            )
        table = scene.table(obj.initial_location)
        px, py = obj.initial_position  # type: ignore[misc]
        if abs(px) > table.half_extents[0] - obj.footprint_radius or abs(py) > table.half_extents[1] - obj.footprint_radius:
            raise SceneError(f"object {obj.id!r} initial position falls off its table")
    # No two objects on the same table may start overlapping.
    for i, a in enumerate(scene.objects):
        for b in scene.objects[i + 1 :]:
            if a.initial_location != b.initial_location:
                continue
            ax, ay = a.initial_position  # type: ignore[misc]
            bx, by = b.initial_position  # type: ignore[misc]
            if math.hypot(ax - bx, ay - by) < a.footprint_radius + b.footprint_radius:
                raise SceneError(f"objects {a.id!r} and {b.id!r} start overlapping")
    # The robot must start collision free and on the grid.
    for rect in scene.solid_rects():
        if rect.distance_to(scene.robot_pose.x, scene.robot_pose.y) <= scene.robot_radius:
            raise SceneError("robot start pose collides with furniture")
    cell = scene.grid.cell_of(*scene.robot_pose.xy)
    if not scene.grid.in_bounds(cell):
        raise SceneError("grid does not cover the robot start pose")
    # The navigator plans from the start's cell.
    if scene.blocked[cell]:
        raise SceneError("robot start cell is blocked: the robot collides with furniture there")


def build_scene(
    tables: list[TableSpec],
    obstacles: list[ObstacleSpec],
    objects: list[ObjectSpec],
    robot_pose: Pose2D,
    rng_seed: int,
    robot_radius: float = DEFAULT_ROBOT_RADIUS,
    resolution: float = DEFAULT_GRID_RESOLUTION,
    grid_origin: tuple[float, float] | None = None,
    grid_shape: tuple[int, int] | None = None,
) -> SceneState:
    """Assemble and validate a scene. Without both ``grid_origin`` and
    ``grid_shape`` the grid covers the furniture, bands and robot with a
    margin; a grid of more than ``MAX_GRID_CELLS`` cells is refused."""
    placed = _spread_objects(objects, {t.id: t for t in tables})
    if not resolution > 0:
        raise SceneError(f"grid resolution must be positive, got {resolution!r}")
    if grid_shape is not None and min(grid_shape) < 1:
        raise SceneError(f"grid shape must be at least 1 x 1, got {list(grid_shape)!r}")
    if grid_origin is None or grid_shape is None:
        x0, y0, x1, y1 = _auto_bounds(tables, obstacles, robot_pose)
        grid_origin = (x0, y0)
        grid_shape = (int(math.ceil((y1 - y0) / resolution)), int(math.ceil((x1 - x0) / resolution)))
    rows, cols = grid_shape
    if rows * cols > MAX_GRID_CELLS:
        raise SceneError(f"grid of {rows} x {cols} cells exceeds the limit of {MAX_GRID_CELLS}")
    scene = SceneState(
        tables=tuple(tables),
        obstacles=tuple(obstacles),
        objects=tuple(placed),
        robot_pose=robot_pose,
        grid=Grid(resolution, grid_origin, (rows, cols)),
        rng_seed=int(rng_seed),
        robot_radius=robot_radius,
    )
    _validate(scene)
    return scene


# ---------------------------------------------------------------------------
# Scene files


def scene_to_dict(scene: SceneState) -> dict:
    return {
        "format_version": SCENE_FORMAT_VERSION,
        "seed": scene.rng_seed,
        "robot": {
            "x": scene.robot_pose.x,
            "y": scene.robot_pose.y,
            "theta": scene.robot_pose.theta,
            "radius": scene.robot_radius,
        },
        "grid": {
            "resolution": scene.grid.resolution,
            "origin": list(scene.grid.origin),
            "shape": list(scene.grid.shape),
        },
        "tables": [
            {
                "id": t.id,
                "center": list(t.center),
                "half_extents": list(t.half_extents),
            }
            for t in scene.tables
        ],
        "obstacles": [
            {
                "id": o.id,
                "kind": o.kind,
                "center": list(o.center),
                "half_extents": list(o.half_extents),
            }
            for o in scene.obstacles
        ],
        "objects": [
            {
                "id": o.id,
                "footprint_radius": o.footprint_radius,
                "supports_stacking": o.supports_stacking,
                "initial_location": o.initial_location,
                "initial_position": list(o.initial_position),  # type: ignore[arg-type]
            }
            for o in scene.objects
        ],
    }


def _owner(entry: dict) -> str:
    return f"{entry['id']!r} " if "id" in entry else ""


def has_type(value, kind: type = float) -> bool:
    """The type rule of every scene and config file value: ``kind``, where an
    int passes for a float and a bool only for a bool."""
    return isinstance(value, (int, float) if kind is float else kind) and isinstance(value, bool) == (kind is bool)


def _pair(entry: dict, key: str, kind: type = float) -> tuple:
    """A two-number scene entry such as a center, half extents or grid shape."""
    value = entry[key]
    if not (isinstance(value, (list, tuple)) and len(value) == 2
            and all(has_type(v, kind) for v in value)):
        raise TypeError(f"{_owner(entry)}{key} must be two {kind.__name__}s, got {value!r}")
    return _finite(entry, key, tuple(value))


def _scalar(entry: dict, key: str, default=None, kind: type = float):
    """A one-value scene entry, ``default`` when absent if one is given, of
    type ``kind`` by ``has_type``; a float is also finite. A wrong type is a
    TypeError, reported as a malformed entry."""
    value = entry[key] if default is None else entry.get(key, default)
    if not has_type(value, kind):
        raise TypeError(f"{_owner(entry)}{key} must be {kind.__name__}, got {value!r}")
    return _finite(entry, key, float(value)) if kind is float else value


def _finite(entry: dict, key: str, value):
    """``value``, read from ``entry[key]``, once none of its numbers is NaN
    or infinite."""
    if not np.isfinite(value).all():
        raise SceneError(f"{_owner(entry)}{key} must be finite, got {entry[key]!r}")
    return value


def scene_from_dict(data: dict) -> SceneState:
    if not isinstance(data, dict):
        raise SceneError("scene document must be a mapping")
    version = data.get("format_version")
    if version != SCENE_FORMAT_VERSION:
        raise SceneError(f"unsupported scene format_version {version!r}")
    try:
        robot = data["robot"]
        robot_pose = Pose2D(_scalar(robot, "x"), _scalar(robot, "y"), _scalar(robot, "theta", 0.0))
        # Its range, finiteness included, is a rule of every scene (_validate).
        robot_radius = robot.get("radius", DEFAULT_ROBOT_RADIUS)
        tables = [
            TableSpec(_scalar(t, "id", kind=str), _pair(t, "center"), _pair(t, "half_extents"))
            for t in data.get("tables", [])
        ]
        obstacles = [
            ObstacleSpec(
                _scalar(o, "id", kind=str), _pair(o, "center"), _pair(o, "half_extents"),
                _scalar(o, "kind", "chair", str),
            )
            for o in data.get("obstacles", [])
        ]
        objects = [
            ObjectSpec(
                id=_scalar(o, "id", kind=str),
                footprint_radius=_scalar(o, "footprint_radius"),
                initial_location=_scalar(o, "initial_location", kind=str),
                supports_stacking=_scalar(o, "supports_stacking", False, bool),
                initial_position=(
                    _pair(o, "initial_position") if o.get("initial_position") else None
                ),
            )
            for o in data.get("objects", [])
        ]
        seed = _scalar(data, "seed", 0, int)
        grid_cfg = data.get("grid") or {}
        return build_scene(
            tables,
            obstacles,
            objects,
            robot_pose,
            rng_seed=seed,
            robot_radius=robot_radius,
            resolution=_scalar(grid_cfg, "resolution", DEFAULT_GRID_RESOLUTION),
            grid_origin=_pair(grid_cfg, "origin") if "origin" in grid_cfg else None,
            grid_shape=_pair(grid_cfg, "shape", int) if "shape" in grid_cfg else None,
        )
    except SceneError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError, ArithmeticError) as exc:
        # ValueError also covers furniture with a non-positive half extent.
        raise SceneError(f"malformed scene entry: {exc}") from exc


def read_yaml(path: str | Path, error: type[Exception]) -> object:
    """Parse a YAML file; ``error`` on text PyYAML rejects or nests past its recursion."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return yaml.safe_load(fh)
    except (yaml.YAMLError, UnicodeDecodeError, RecursionError) as exc:
        raise error(f"{path}: {exc}") from exc


def load_scene(path: str | Path) -> SceneState:
    return scene_from_dict(read_yaml(path, SceneError))


def save_scene(scene: SceneState, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(scene_to_dict(scene), fh, sort_keys=True)
