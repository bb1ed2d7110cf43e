import gc
import math
import weakref

import numpy as np
import pytest
from scipy.sparse.csgraph import dijkstra

from momaplan import motion
from momaplan.feasibility import FeasibilityParams, compute_feasibility_map
from momaplan.harness import ENVIRONMENTS, make_scene
from momaplan.motion import (
    MotionError,
    Navigator,
    navigator_for,
    robot_collides,
    step_cost,
)
from momaplan.planning import Router
from momaplan.world import OccupancyGrid, symbolic_locations

from oracles import (
    coo_adjacency,
    dijkstra_counts,
    disc_hits_rect,
    grid_cell_center,
    scalar_field_path,
    whole_fields,
)

SQRT2 = math.sqrt(2.0)


def grid_from(occupied, resolution=0.1, origin=(0.0, 0.0)):
    return OccupancyGrid(resolution, origin, np.asarray(occupied, dtype=bool))


def random_grid(rng, shape=(20, 20), p_blocked=0.25):
    return grid_from(rng.random(shape) < p_blocked)


@pytest.mark.parametrize("environment", ENVIRONMENTS)
def test_free_cells_are_the_centres_the_disc_test_clears(environment):
    """Every task's seed-42 scene: a cell is free exactly when the scalar
    ``robot_collides`` clears the robot's disc at the cell's centre."""
    for task in range(1, 10):
        scene = make_scene(task, environment, 42)
        nav = Navigator(scene)
        assert nav.blocked.any() and nav.free.any()
        for cell, free in np.ndenumerate(nav.free):
            x, y = grid_cell_center(scene.grid, cell)
            assert free == (not robot_collides(scene, x, y)), (task, cell)


def test_bare_grid_blocks_exactly_its_occupied_cells():
    for occupied in (np.zeros((4, 6), dtype=bool), np.ones((3, 2), dtype=bool),
                     random_grid(np.random.default_rng(5), (15, 12), 0.2).occupied):
        nav = Navigator.from_grid(grid_from(occupied))
        assert np.array_equal(nav.blocked, occupied)
        assert np.array_equal(nav.free, ~occupied)


def test_corner_cutting_is_forbidden():
    occupied = np.array(
        [
            [False, True],
            [True, False],
        ]
    )
    nav = Navigator.from_grid(grid_from(occupied))
    assert not nav.same_component((0, 0), (1, 1))
    with pytest.raises(MotionError, match="no path"):
        nav.astar((0, 0), (1, 1))


def test_astar_simple_open_grid():
    nav = Navigator.from_grid(grid_from(np.zeros((5, 5), dtype=bool)))
    plan = nav.astar((0, 0), (4, 2))
    # Two straight plus two diagonal steps is optimal for (4, 2).
    assert (plan.straight_steps, plan.diagonal_steps) == (2, 2)
    assert plan.cost == pytest.approx(0.1 * (2 + 2 * SQRT2))
    assert plan.cells[0] == (0, 0)
    assert plan.cells[-1] == (4, 2)


def _check_path_moves(nav, plan):
    straight = diagonal = 0
    for a, b in zip(plan.cells, plan.cells[1:]):
        dy, dx = b[0] - a[0], b[1] - a[1]
        assert max(abs(dy), abs(dx)) == 1
        assert nav.free[b]
        if dy != 0 and dx != 0:
            assert nav.free[a[0], b[1]] and nav.free[b[0], a[1]]
            diagonal += 1
        else:
            straight += 1
    assert (straight, diagonal) == (plan.straight_steps, plan.diagonal_steps)


def test_astar_matches_dijkstra_oracle_on_random_grids():
    rng = np.random.default_rng(17)
    for trial in range(25):
        grid = random_grid(rng)
        nav = Navigator.from_grid(grid)
        free_cells = [tuple(c) for c in np.argwhere(nav.free)]
        if len(free_cells) < 2:
            continue
        start = free_cells[int(rng.integers(len(free_cells)))]
        oracle = dijkstra_counts(nav.free, start)
        reachable = [c for c in oracle if c != start]
        goals = [reachable[int(rng.integers(len(reachable)))] for _ in range(8)]
        for goal in goals:
            plan = nav.astar(start, goal)
            assert (plan.straight_steps, plan.diagonal_steps) == oracle[goal]
            _check_path_moves(nav, plan)
        unreachable = [c for c in free_cells if c not in oracle]
        if unreachable:
            with pytest.raises(MotionError):
                nav.astar(start, unreachable[0])


def _acceptance_grids():
    """Acceptance 4's 50 random grids (same draws), each with its free
    cells and its start cell."""
    rng = np.random.default_rng(99)
    grids = 0
    while grids < 50:
        nav = Navigator.from_grid(random_grid(rng))
        free_cells = [tuple(c) for c in np.argwhere(nav.free)]
        if len(free_cells) < 2:
            continue
        grids += 1
        yield nav, free_cells, free_cells[int(rng.integers(len(free_cells)))]


def test_field_path_matches_dijkstra_oracle_on_acceptance_grids():
    """Acceptance 4's 50 random grids and starts, every reachable goal: the
    path read off the start's cost field runs from the goal to the start
    over free 8-adjacent cells, cuts no corner and has the oracle's step
    counts. A free cell the start cannot reach, a blocked cell and an
    off-grid cell raise."""
    for nav, free_cells, start in _acceptance_grids():
        oracle = dijkstra_counts(nav.free, start)
        for goal, counts in oracle.items():
            plan = nav.field_path(goal, start)
            assert (plan.straight_steps, plan.diagonal_steps) == counts
            assert plan.cells[0] == goal and plan.cells[-1] == start
            _check_path_moves(nav, plan)
        unreachable = [c for c in free_cells if c not in oracle]
        blocked = [tuple(c) for c in np.argwhere(nav.blocked)]
        for cell in unreachable[:1] + blocked[:1] + [(-1, 0), (20, 3)]:
            with pytest.raises(MotionError, match="no path"):
                nav.field_path(cell, start)


def assert_same_path(plan, reference):
    assert plan.cells == reference.cells
    assert (plan.straight_steps, plan.diagonal_steps) == (
        reference.straight_steps, reference.diagonal_steps)
    assert plan.resolution == reference.resolution


def test_field_path_equals_the_neighbour_loop_on_acceptance_grids():
    """The descent table steps where the former neighbour loop stepped:
    equal cells and step counts from every reachable cell of acceptance
    4's grids, and one read-only table per source."""
    for nav, _, start in _acceptance_grids():
        for goal in dijkstra_counts(nav.free, start):
            assert_same_path(nav.field_path(goal, start), scalar_field_path(nav, goal, start))
        table = nav._descents[start]
        nav.field_path(start, start)
        assert nav._descents[start] is table and not table.flags.writeable


def test_descent_keeps_the_running_best_rule_on_near_ties():
    """A crafted field on an open 3 x 3 grid, walked from (1, 2) to (1, 0).
    First step: (0, 2), (2, 2) and (1, 1) are offsets 0, 1 and 2, each
    0.8e-12 below the one before, so the running best moves only to
    (1, 1), while "first within 1e-12 of the minimum" would take (2, 2).
    Second step: the diagonal (0, 0), offset 4, comes 0.5e-12 below the
    straight step into (1, 0), offset 2, so the running best keeps the
    straight step, while an argmin would take the diagonal. The field is
    passed to ``field_path`` as a caller holding it would."""
    nav = Navigator.from_grid(grid_from(np.zeros((3, 3), dtype=bool)))
    field = np.full((3, 3), 5.0)
    field[1, 2] = 3.0
    field[0, 2], field[2, 2], field[1, 1] = 2.0, 2.0 - 0.8e-12, 2.0 - 1.6e-12
    field[1, 0] = 1.0
    field[0, 0] = 1.0 + 0.1 - 0.1 * SQRT2 - 0.5e-12
    field.setflags(write=False)
    whole_fields(nav)[(1, 0)] = field  # the neighbour loop reads it too

    def candidates(cell):
        """(field value plus step cost, neighbour) in offset order."""
        out = []
        for dy, dx in motion._OFFSETS:
            ny, nx = cell[0] + dy, cell[1] + dx
            if 0 <= ny < 3 and 0 <= nx < 3:
                out.append((field[ny, nx] + (0.1 * SQRT2 if dy and dx else 0.1), (ny, nx)))
        return out

    first, second = candidates((1, 2)), candidates((1, 1))
    least = min(v for v, _ in first)
    assert next(c for v, c in first if v <= least + 1e-12) == (2, 2)
    assert min(second)[1] == (0, 0)
    plan = nav.field_path((1, 2), (1, 0), field)
    assert plan.cells == ((1, 2), (1, 1), (1, 0))
    assert (plan.straight_steps, plan.diagonal_steps) == (2, 0)
    assert_same_path(plan, scalar_field_path(nav, (1, 2), (1, 0)))


def test_field_path_takes_the_first_tied_step_in_offset_order():
    """From (1, 3) to (0, 0) on an open grid, a straight and a diagonal
    first step tie, and so do two second steps; the straight step comes
    first in the offsets both times."""
    nav = Navigator.from_grid(grid_from(np.zeros((3, 4), dtype=bool)))
    plan = nav.field_path((1, 3), (0, 0))
    assert plan.cells == ((1, 3), (1, 2), (1, 1), (0, 0))
    assert (plan.straight_steps, plan.diagonal_steps) == (2, 1)


def test_cost_field_matches_oracle_costs():
    rng = np.random.default_rng(23)
    grid = random_grid(rng)
    nav = Navigator.from_grid(grid)
    free_cells = [tuple(c) for c in np.argwhere(nav.free)]
    start = free_cells[0]
    oracle = dijkstra_counts(nav.free, start)
    field = nav.cost_field(start)
    for cell in free_cells:
        if cell in oracle:
            s, d = oracle[cell]
            assert field[cell] == pytest.approx(step_cost(s, d, grid.resolution), abs=1e-9)
        else:
            assert math.isinf(field[cell])
    assert math.isinf(field[tuple(np.argwhere(nav.blocked)[0])])


def _undirected_field(nav: Navigator, source) -> np.ndarray:
    dist = dijkstra(nav._adjacency, directed=False, indices=int(nav._node_of[source]))
    field = np.full(nav.grid.occupied.size, np.inf)
    field[nav._cell_of_node] = dist
    return field.reshape(nav.grid.shape)


def test_adjacency_is_symmetric_so_directed_fields_are_exact():
    """Every edge is added in both directions, so the adjacency equals its
    transpose and ``cost_field``'s directed search gives the undirected
    distances bit for bit, on acceptance 4's 50 grids (same draws) and the
    four benchmark environments."""
    rng = np.random.default_rng(99)
    cases = []
    while len(cases) < 50:
        nav = Navigator.from_grid(random_grid(rng))
        free_cells = [tuple(c) for c in np.argwhere(nav.free)]
        if len(free_cells) < 2:
            continue
        cases.append((nav, [free_cells[int(rng.integers(len(free_cells)))]]))
    sample = np.random.default_rng(7)
    for environment in ENVIRONMENTS:
        nav = Navigator(make_scene(1, environment, 42))
        free_cells = np.argwhere(nav.free)
        picks = sample.choice(len(free_cells), size=5, replace=False)
        cases.append((nav, [nav.start_cell] + [tuple(free_cells[i]) for i in picks]))
    for nav, sources in cases:
        assert (nav._adjacency != nav._adjacency.T).nnz == 0
        for source in sources:
            assert np.array_equal(nav.cost_field(source), _undirected_field(nav, source))


def assert_graph_is_the_coo_build(nav: Navigator) -> None:
    """The navigator's CSR arrays and component labels equal the COO
    build's exactly, dtypes included."""
    adjacency, labels = coo_adjacency(nav)
    assert nav._adjacency.shape == adjacency.shape
    for name in ("indptr", "indices", "data"):
        got, want = getattr(nav._adjacency, name), getattr(adjacency, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    assert nav._labels.dtype == labels.dtype and np.array_equal(nav._labels, labels)


@pytest.mark.parametrize("environment", ENVIRONMENTS)
def test_graph_is_the_coo_build_on_every_task(environment):
    for task in range(1, 10):
        assert_graph_is_the_coo_build(Navigator(make_scene(task, environment, 42)))


def test_graph_is_the_coo_build_on_acceptance_grids():
    """Acceptance 4's 50 grids (same draws)."""
    for nav, _, _ in _acceptance_grids():
        assert_graph_is_the_coo_build(nav)


def test_graph_of_a_grid_with_no_free_cell():
    nav = Navigator.from_grid(grid_from(np.ones((4, 5), dtype=bool)))
    assert nav._adjacency.shape == (0, 0)
    assert (nav._labels == -1).all()
    assert_graph_is_the_coo_build(nav)


def test_cells_touching_only_diagonally_are_separate_components():
    """(0, 0) and (1, 1) touch at a corner whose two straight detours are
    blocked: no edge joins them, so grid labelling and the graph agree that
    they are two components, numbered in raster order."""
    nav = Navigator.from_grid(grid_from([[False, True, True], [True, False, False]]))
    assert nav._adjacency.nnz == 2
    assert nav._labels.tolist() == [[0, -1, -1], [-1, 1, 1]]
    assert_graph_is_the_coo_build(nav)


def test_leg_costs_cached_and_readonly():
    """A cost field is read-only and computed again on each call, not
    kept; a loading cell's leg costs are built once per (table, cell), kept
    read-only by the scene's navigator and shared by its routers."""
    nav = Navigator.from_grid(grid_from(np.zeros((6, 6), dtype=bool)))
    field = nav.cost_field((0, 0))
    again = nav.cost_field((0, 0))
    assert again is not field and np.array_equal(again, field)
    with pytest.raises(ValueError):
        field[0, 0] = 1.0
    scene = make_scene(1, "easy", 42)
    nav = navigator_for(scene)
    legs = Router(scene).leg_costs("dining", nav.start_cell)
    assert Router(scene).leg_costs("dining", nav.start_cell) is legs
    assert nav.legs == {("dining", nav.start_cell): legs}
    with pytest.raises(ValueError):
        legs[0] = 1.0


def test_leg_cost_agrees_with_astar():
    """A leg's cost read off either endpoint's cost field is the A* cost."""
    rng = np.random.default_rng(31)
    grid = random_grid(rng, shape=(15, 15))
    nav = Navigator.from_grid(grid)
    free_cells = [tuple(c) for c in np.argwhere(nav.free)]
    a = free_cells[0]
    for _ in range(10):
        b = free_cells[int(rng.integers(len(free_cells)))]
        if not nav.same_component(a, b):
            assert math.isinf(nav.cost_field(a)[b])
            assert math.isinf(nav.cost_field(b)[a])
            continue
        plan = nav.astar(a, b)
        assert float(nav.cost_field(a)[b]) == pytest.approx(plan.cost, abs=1e-9)
        assert float(nav.cost_field(b)[a]) == pytest.approx(plan.cost, abs=1e-9)


def test_paths_share_interned_cells():
    nav = Navigator.from_grid(grid_from(np.zeros((8, 8), dtype=bool)))
    first = nav.astar((0, 0), (7, 7))
    second = nav.astar((0, 0), (7, 7))
    crossing = nav.astar((3, 0), (3, 7))
    descended = nav.field_path((3, 7), (3, 0))
    assert first.cells == second.cells
    assert all(a is b for a, b in zip(first.cells, second.cells))
    for other in (crossing, descended):
        shared = set(first.cells) & set(other.cells)
        assert shared
        for cell in shared:
            assert other.cells[other.cells.index(cell)] is first.cells[first.cells.index(cell)]
    assert all(type(c) is tuple and len(c) == 2 for c in first.cells + descended.cells)


def test_astar_rejects_blocked_endpoints():
    occupied = np.zeros((4, 4), dtype=bool)
    occupied[2, 2] = True
    nav = Navigator.from_grid(grid_from(occupied))
    with pytest.raises(MotionError, match="start cell"):
        nav.astar((2, 2), (0, 0))
    with pytest.raises(MotionError, match="goal cell"):
        nav.astar((0, 0), (2, 2))


def test_components_match_oracle_reachability():
    rng = np.random.default_rng(41)
    grid = random_grid(rng, shape=(18, 18), p_blocked=0.35)
    nav = Navigator.from_grid(grid)
    free_cells = [tuple(c) for c in np.argwhere(nav.free)]
    start = free_cells[0]
    reachable = set(dijkstra_counts(nav.free, start))
    label = nav.component(start)
    for cell in free_cells:
        assert (nav.component(cell) == label) == (cell in reachable)
    blocked_cell = tuple(np.argwhere(nav.blocked)[0])
    assert nav.component(blocked_cell) == -1
    assert nav.component((-1, 0)) == -1


def test_point_queries_match_scalar(scene1):
    nav = navigator_for(scene1)
    rng = np.random.default_rng(3)
    xs = rng.uniform(-4.5, 4.5, size=200)
    ys = rng.uniform(-4.5, 4.5, size=200)
    pts = np.column_stack([xs, ys])
    comps = nav.components_at(pts)
    reachable = nav.reachable_at(pts)
    start_component = nav.component(nav.cell_of(*scene1.robot_pose.xy))
    assert nav.start_component == start_component >= 0
    assert reachable.any() and not reachable.all()
    for (x, y), comp, ok in zip(pts, comps, reachable):
        cell = nav.cell_of(x, y)
        assert comp == nav.component(cell)
        assert (comp >= 0) == nav.is_free(cell)
        assert ok == (nav.is_free(cell) and nav.component(cell) == start_component)


def test_bare_grid_navigator_has_no_reachable_point():
    nav = Navigator.from_grid(grid_from(np.zeros((5, 5), dtype=bool)))
    assert nav.start_component == -1
    assert not nav.reachable_at(np.array([[0.25, 0.25], [-1.0, -1.0]])).any()


def test_navigator_cached_per_scene(scene1):
    assert navigator_for(scene1) is navigator_for(scene1)


def _store_refs(scene):
    """Weak references to a scene's navigator and to one feasibility map and
    one band index it stores."""
    location = symbolic_locations(scene, "dining")[0]
    fmap = compute_feasibility_map(
        scene, location, scene.table("dining").center, FeasibilityParams(trials_per_cell=1)
    )
    band = Router(scene).band("dining")
    nav = navigator_for(scene)
    assert fmap in nav.maps.values() and nav.bands["dining"] is band
    return [weakref.ref(nav), weakref.ref(fmap), weakref.ref(band)]


def test_navigator_released_with_its_scene():
    scene = make_scene(1, "easy", seed=3)
    refs = _store_refs(scene)
    assert refs[0]() is navigator_for(scene)
    del scene
    gc.collect()
    assert [ref() for ref in refs] == [None, None, None]


def test_navigators_of_live_scenes_stay_bounded():
    scenes = [make_scene(1, "easy", seed=s) for s in range(9)]
    refs = [_store_refs(s) for s in scenes[:8]]
    assert refs[0][0]() is navigator_for(scenes[0])  # now the most recently used
    navigator_for(scenes[8])
    gc.collect()
    alive = [[ref() is not None for ref in store] for store in refs]
    assert alive == [[True] * 3, [False] * 3] + [[True] * 3] * 6


def test_dead_most_recent_scene_never_answers_for_a_new_one():
    """The most recently used scene is held weakly: once it is gone, a new
    scene (which may reuse its id) gets a navigator of its own grid."""
    scene = make_scene(1, "easy", seed=4)
    old = weakref.ref(navigator_for(scene))
    del scene
    gc.collect()
    assert old() is None and motion._recent[0]() is None
    for seed in (4, 5):
        fresh = make_scene(1, "chair_top", seed=seed)
        nav = navigator_for(fresh)
        assert nav.grid is fresh.grid and navigator_for(fresh) is nav
        del fresh, nav
        gc.collect()


def test_repeated_hits_leave_the_eviction_order():
    """Asking again for the most recently used scene, however often, keeps
    the least recently used order: a ninth scene still evicts the
    first."""
    scenes = [make_scene(1, "easy", seed=s) for s in range(9)]
    navs = [weakref.ref(navigator_for(s)) for s in scenes[:8]]
    order = list(motion._NAVIGATORS.keys())
    for _ in range(3):
        assert navigator_for(scenes[7]) is navs[7]()
    assert list(motion._NAVIGATORS.keys()) == order
    navigator_for(scenes[8])
    gc.collect()
    assert [ref() is not None for ref in navs] == [False] + [True] * 7


def test_robot_collision_continuous(scene1):
    pose = scene1.robot_pose
    assert not robot_collides(scene1, pose.x, pose.y)
    table = next(t for t in scene1.tables if t.id == "dining")
    assert robot_collides(scene1, table.center[0], table.center[1])


def test_robot_collides_matches_the_disc_test(scene1_chair_top):
    """The inlined loop agrees with ``disc_hits_rect`` over every solid
    rect, at random points and at points exactly one radius off each edge."""
    scene = scene1_chair_top
    radius = scene.robot_radius
    points = [tuple(p) for p in np.random.default_rng(3).uniform(-1.0, 6.0, (2000, 2))]
    for r in scene.solid_rects():
        points += [(r.x_min - radius, r.cy), (r.x_max + radius, r.cy),
                   (r.cx, r.y_min - radius), (r.cx, r.y_max + radius)]
    hits = 0
    for x, y in points:
        expected = any(disc_hits_rect(x, y, radius, r) for r in scene.solid_rects())
        assert robot_collides(scene, x, y) == expected
        hits += expected
    assert 0 < hits < len(points)
