import dataclasses
import functools
import itertools
import math
import time
from collections import defaultdict

import numpy as np
import pytest

from momaplan.feasibility import (
    FeasibilityParams,
    _load,
    compute_feasibility_map,
    pcg64_states,
    sample_standing_cell,
)
from momaplan.goalgen import generate_goal
from momaplan.grounding import GroundingParams, sample_configurations
from momaplan import feasibility, harness, planning
from momaplan.harness import (
    ENVIRONMENTS,
    OBJECT_CATALOG,
    SYSTEMS,
    TASK_OBJECTS,
    ExperimentConfig,
    make_scene,
    run_trial,
    scripted_backend_for_task,
)
from momaplan.motion import MAX_MAPS, Navigator, navigator_for, octile
from momaplan.planning import (
    MANIPULATION_COST,
    REWARD,
    BandIndex,
    PlanningError,
    PlanningParams,
    Router,
    enumerate_candidates,
    plan_task,
    stacking_orders,
)
from momaplan.relations import PlacementAtom
from momaplan.world import Pose2D, symbolic_locations

from oracles import (
    dijkstra_counts,
    field_priced_walk,
    nearest_usable_center,
    scalar_field_path,
    seeded_unload_option,
    walk_every_candidate,
    weighted_mean_feasibility,
    whole_field,
    whole_fields,
)

RADII = {name: spec[0] for name, spec in OBJECT_CATALOG.items()}
SIDES = ("north", "south", "east", "west")


def fast_params(**overrides):
    fea = FeasibilityParams(trials_per_cell=3)
    return PlanningParams(feasibility=fea, **overrides)


def record_cost_fields(monkeypatch, nav) -> list:
    """The sources of the cost fields ``nav`` computes from here on, in
    call order."""
    sources = []
    cost_field = Navigator.cost_field

    def spy(self, source):
        if self is nav:
            sources.append(source)
        return cost_field(self, source)

    monkeypatch.setattr(Navigator, "cost_field", spy)
    return sources


def grounded(scene, goal, m=3, seed=0):
    table = scene.table("dining")
    return sample_configurations(
        goal,
        RADII,
        table.half_extents,
        np.random.default_rng(seed),
        GroundingParams(configurations=m),
    ).configurations


@functools.cache
def task_goal(task):
    return generate_goal(list(TASK_OBJECTS[task]), scripted_backend_for_task(task))


def assert_same_plan(plan, reference):
    """Field-for-field equality, floats exact: indices, order, sides, F,
    cost, utility, search values, candidate count, and every step's
    stands, legs and path cells."""
    for f in dataclasses.fields(plan):
        if f.name != "steps":
            assert getattr(plan, f.name) == getattr(reference, f.name), f.name
    assert len(plan.steps) == len(reference.steps)
    for k, (step, ref) in enumerate(zip(plan.steps, reference.steps)):
        for f in dataclasses.fields(step):
            assert getattr(step, f.name) == getattr(ref, f.name), (k, f.name)


def test_stacking_orders_unconstrained():
    orders = list(stacking_orders(["a", "b", "c"], []))
    assert orders == list(itertools.permutations(["a", "b", "c"]))


def test_stacking_orders_respect_support():
    atoms = [PlacementAtom("on_top_of", "lid", "mug")]
    orders = list(stacking_orders(["lid", "mug", "mat"], atoms))
    assert len(orders) == 3  # half of the six permutations survive
    for order in orders:
        assert order.index("mug") < order.index("lid")


def test_enumerate_candidates_cap_and_shape():
    objects = ["a", "b", "c"]
    full = enumerate_candidates(objects, [], SIDES, 10_000)
    assert len(full) == math.factorial(3) * 4 ** 3
    assert full[0] == (("a", "b", "c"), ("north", "north", "north"))
    wide = enumerate_candidates(["a", "b", "c", "d"], [], SIDES, 10_000)
    capped = enumerate_candidates(["a", "b", "c", "d"], [], SIDES, 500)
    assert len(capped) == 500
    assert capped == wide[:500]


def test_candidates_are_the_eager_listing_on_every_task():
    """Orders drawn lazily give the capped candidates of the eager listing
    (every stacking-respecting permutation, crossed with sides), in order."""
    stacked = 0
    for task in range(1, 10):
        objects, atoms = list(TASK_OBJECTS[task]), task_goal(task).atoms
        supports = [(a.subject, a.reference) for a in atoms if a.relation == "on_top_of"]
        stacked += bool(supports)
        eager = [perm for perm in itertools.permutations(objects)
                 if all(perm.index(sub) > perm.index(sup) for sub, sup in supports)]
        expected = list(itertools.islice(
            ((order, sides) for order in eager
             for sides in itertools.product(SIDES, repeat=len(objects))), 500))
        assert enumerate_candidates(objects, atoms, SIDES, 500) == expected, task
    assert stacked


def test_an_eleven_object_table_draws_only_the_orders_it_uses(monkeypatch):
    """Eleven objects with stacking chains have 1,663,200 admissible orders,
    but 4**11 side choices of the first already pass the cap."""
    objects = [f"o{i}" for i in range(11)]
    atoms = [PlacementAtom("on_top_of", sub, sup)
             for sub, sup in (("o4", "o3"), ("o5", "o4"), ("o7", "o6"), ("o10", "o9"))]
    drawn = []
    permutations = itertools.permutations
    monkeypatch.setattr(itertools, "permutations",
                        lambda items: (drawn.append(p) or p for p in permutations(items)))
    start = time.perf_counter()
    candidates, codes, _ = planning._candidate_table(tuple(objects), tuple(atoms), SIDES)
    assert time.perf_counter() - start < 1.0
    assert len(candidates) == 500 and codes.shape == (500, 11)
    assert drawn == [tuple(objects)]
    assert {order for order, _ in candidates} == {tuple(objects)}


def test_routed_targets_are_python_floats():
    """Execution reads ``target_world`` on every replay, so it holds plain
    floats, not numpy scalars."""
    for task in (1, 8):
        scene, goal = make_scene(task, "chair_top", seed=42), task_goal(task)
        plan = plan_task(scene, "dining", grounded(scene, goal), goal.atoms, fast_params())
        for step in plan.steps:
            assert type(step.target_world) is tuple
            assert [type(v) for v in step.target_world] == [float, float]


def test_plan_task_shape_and_bookkeeping(goal1):
    scene = make_scene(1, "easy", seed=42)
    configs = grounded(scene, goal1)
    plan = plan_task(scene, "dining", configs, goal1.atoms, fast_params())
    n = len(configs[0].positions)
    assert len(plan.steps) == n
    assert plan.order == tuple(s.object_id for s in plan.steps)
    assert not plan.truncated
    assert plan.configuration is configs[plan.config_index]
    assert 0 <= plan.config_index < len(configs)
    # Every candidate of every configuration was priced.
    assert plan.candidates_evaluated == len(configs) * len(
        enumerate_candidates(list(configs[0].positions), goal1.atoms, SIDES, 500)
    )


def test_plan_quantities_recompute_from_steps(goal1):
    scene = make_scene(1, "easy", seed=42)
    configs = grounded(scene, goal1)
    plan = plan_task(scene, "dining", configs, goal1.atoms, fast_params())
    n = len(plan.steps)
    fea = (n * 1.0 + sum(s.fea_task for s in plan.steps)) / (2 * n)
    assert plan.feasibility == pytest.approx(fea)
    cost = sum(s.leg_to_load + s.leg_to_unload for s in plan.steps)
    cost += MANIPULATION_COST * 2 * n
    assert plan.cost == pytest.approx(cost)
    assert plan.utility == pytest.approx(REWARD * fea - cost)
    assert 0.5 <= plan.feasibility <= 1.0


def test_winning_legs_match_rebuilt_paths(goal1):
    scene = make_scene(1, "easy", seed=42)
    configs = grounded(scene, goal1)
    plan = plan_task(scene, "dining", configs, goal1.atoms, fast_params())
    prev = None
    for step in plan.steps:
        if step.path_to_load is None:
            assert step.leg_to_load == 0.0
        else:
            assert step.leg_to_load == step.path_to_load.cost
            if prev is not None:
                assert step.path_to_load.cells[0] == prev
        assert step.leg_to_unload == step.path_to_unload.cost
        assert step.path_to_unload.cells[0] == step.load_cell
        assert step.path_to_unload.cells[-1] == step.unload_cell
        prev = step.unload_cell


def test_plan_task_deterministic(goal1):
    scene = make_scene(1, "easy", seed=42)
    configs = grounded(scene, goal1)
    a = plan_task(scene, "dining", configs, goal1.atoms, fast_params())
    b = plan_task(scene, "dining", configs, goal1.atoms, fast_params())
    assert (a.config_index, a.plan_index) == (b.config_index, b.plan_index)
    assert a.cost == b.cost and a.utility == b.utility
    assert [s.unload_cell for s in a.steps] == [s.unload_cell for s in b.steps]
    assert [s.unload_pose for s in a.steps] == [s.unload_pose for s in b.steps]


def test_stand_seed_changes_draws(goal1):
    scene = make_scene(1, "easy", seed=42)
    configs = grounded(scene, goal1)
    a = plan_task(scene, "dining", configs, goal1.atoms, fast_params(stand_seed=0))
    b = plan_task(scene, "dining", configs, goal1.atoms, fast_params(stand_seed=1))
    assert [s.unload_cell for s in a.steps] != [s.unload_cell for s in b.steps]


@pytest.mark.parametrize("seed", [-1, 1.5, True, "0", None])
def test_planning_params_reject_bad_stand_seed(seed):
    """A stand seed that cannot seed the draws fails when the parameters
    are built, before any map is asked for."""
    with pytest.raises(ValueError, match=f"^stand_seed must be a non-negative int, got {seed!r}$"):
        PlanningParams(stand_seed=seed)


def test_planning_params_accept_any_non_negative_int_seed():
    for seed in (0, np.int64(3), 2**70):
        assert PlanningParams(stand_seed=seed).stand_seed == seed


def test_unload_targets_lie_in_configuration(goal1):
    scene = make_scene(1, "easy", seed=42)
    table = scene.table("dining")
    configs = grounded(scene, goal1)
    plan = plan_task(scene, "dining", configs, goal1.atoms, fast_params())
    for step in plan.steps:
        tx, ty = plan.configuration.positions[step.object_id]
        assert step.target_world == pytest.approx(table.to_world(tx, ty))
        assert step.target_layer == plan.configuration.layers[step.object_id]


def test_blocked_side_avoided(goal1):
    """With the north band walled off by a chair, the winner never unloads
    from the north and still finds a usable plan."""
    scene = make_scene(1, "chair_top", seed=7)
    configs = grounded(scene, goal1, m=2)
    plan = plan_task(scene, "dining", configs, goal1.atoms, fast_params())
    for step in plan.steps:
        assert step.unload_location != "dining/north"
        assert step.fea_stand > 0.0
    assert plan.feasibility > 0.6


def test_empty_configurations_raise(goal1):
    scene = make_scene(1, "easy", seed=42)
    with pytest.raises(PlanningError, match="no grounded configurations"):
        plan_task(scene, "dining", [], goal1.atoms, fast_params())


def test_stacked_object_ordering():
    scene = make_scene(6, "easy", seed=5)
    from momaplan.goalgen import generate_goal
    from momaplan.harness import TASK_OBJECTS, scripted_backend_for_task

    goal = generate_goal(list(TASK_OBJECTS[6]), scripted_backend_for_task(6))
    supports = {a.subject: a.reference for a in goal.atoms if a.relation == "on_top_of"}
    assert supports, "task 6 should include a stacked pair"
    configs = grounded(scene, goal, m=2, seed=1)
    plan = plan_task(scene, "dining", configs, goal.atoms, fast_params())
    for rider, support in supports.items():
        assert plan.order.index(support) < plan.order.index(rider)


@pytest.mark.parametrize("environment", ENVIRONMENTS)
@pytest.mark.parametrize("task", range(1, 10))
def test_plan_task_equals_walk_every_candidate(task, environment):
    """Pricing candidates from the leg table selects, scores and routes the
    same plan, bit for bit, as walking every candidate into steps."""
    scene = make_scene(task, environment, seed=42)
    goal = task_goal(task)
    configs = grounded(scene, goal, m=2)
    for stand_seed in (0, 1):
        params = fast_params(stand_seed=stand_seed)
        plan = plan_task(scene, "dining", configs, goal.atoms, params)
        reference, _ = walk_every_candidate(scene, "dining", configs, goal.atoms, params)
        assert_same_plan(plan, reference)


def test_loaded_stream_draws_like_its_own_generator():
    """A stream loaded into a used generator draws, and ends in, what the
    generator built from its own SeedSequence would."""
    entropy, key = (42, 7), (3, 1, 2, 1)
    streams, _ = pcg64_states(entropy, [key])
    gen = np.random.Generator(np.random.PCG64(0))
    gen.random(3)
    own = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy, spawn_key=key)))
    assert list(_load(gen.bit_generator, streams)) == [0]
    assert gen.random(5).tolist() == own.random(5).tolist()
    assert gen.bit_generator.state == own.bit_generator.state


def test_disconnected_candidates_are_skipped_alike():
    """On task 8 / chair_top the chair walls off stands that some unload
    options draw, so candidates through them do not connect; the table
    must skip exactly those and still pick the walked search's plan."""
    scene = make_scene(8, "chair_top", seed=42)
    goal = task_goal(8)
    configs = grounded(scene, goal, m=2)
    params = fast_params()
    plan = plan_task(scene, "dining", configs, goal.atoms, params)
    reference, skipped = walk_every_candidate(scene, "dining", configs, goal.atoms, params)
    assert skipped > 0
    assert_same_plan(plan, reference)


def walked_utility(n, priced) -> float:
    """``plan_task``'s utility of a candidate of ``n`` objects from its
    walked navigation cost and feasibility sum."""
    nav_cost, fea_sum = priced
    return REWARD * ((n * 1.0 + fea_sum) / (2 * n)) - (nav_cost + MANIPULATION_COST * 2 * n)


def price_every_loading_cell(scene, objects) -> None:
    """Fill the scene's leg costs toward the dining table for every loading
    cell a step of ``objects`` can load at."""
    router = Router(scene)
    cols = router.nav.grid.shape[1]
    for source in {router.source[obj] for obj in objects}:
        stands = router.loading_stands(source, "dining")
        for cell in set(router.band(source).cells[stands[stands >= 0]].tolist()):
            router.leg_costs("dining", divmod(cell, cols))


def test_leg_table_prices_every_candidate_as_the_walk():
    """Candidate by candidate of every configuration, not only the winner:
    every candidate the search keeps connects, and its navigation cost and
    feasibility sum equal the walk's bit for bit; every one it drops is
    disconnected or walks to a utility more than 1e-9 below the best kept.
    On task 8 / chair_top the chair walls off some drawn stands."""
    scene = make_scene(8, "chair_top", seed=42)
    goal = task_goal(8)
    params = fast_params()
    router = Router(scene)
    band = router.band("dining")
    table = scene.table("dining")
    sides = tuple(loc.side for loc in band.locations)
    configs = grounded(scene, goal, m=3)
    objects = tuple(configs[0].positions)
    _, codes, pairs = planning._candidate_table(objects, tuple(goal.atoms), sides)
    choices = [
        [(obj, seeded_unload_option(
            scene, router.nav, band, loc, table.to_world(*config.positions[obj]),
            config.layers[obj], params, seed_key=(m, oi, si)))
         for oi, obj in enumerate(objects)
         for si, loc in enumerate(band.locations)]
        for m, config in enumerate(configs)
    ]
    stands = np.array([[option.band_index for _, option in row] for row in choices])
    fea_task = np.array([[option.fea_task for _, option in row] for row in choices])
    nav_cost, fea_sum, kept = planning._price_candidates(
        router, band, objects, stands, fea_task, pairs)
    assert nav_cost.shape == fea_sum.shape == kept.shape == (len(configs), len(codes))
    walks = [[field_priced_walk(router, [row_choices[k] for k in row]) for row in codes.tolist()]
             for row_choices in choices]
    best = max(walked_utility(len(objects), walks[m][c]) for m, c in zip(*np.nonzero(kept)))
    disconnected = dropped = 0
    for m, row in enumerate(walks):
        for c, walked in enumerate(row):
            if kept[m, c]:
                assert (nav_cost[m, c], fea_sum[m, c]) == walked, (m, c)
            elif walked is None:
                disconnected += 1
            else:
                dropped += 1
                assert walked_utility(len(objects), walked) < best - 1e-9, (m, c)
    assert disconnected > 0 and dropped > 0


def test_leg_table_asks_for_the_walked_cost_fields(monkeypatch):
    """The search computes each cost field at most once, only of loading
    cells walking every candidate computes, and every one the winner loads
    at; it keeps the leg costs of exactly those, and routing the winner
    computes no field again."""
    table_scene = make_scene(8, "chair_top", seed=42)
    walk_scene = make_scene(8, "chair_top", seed=42)
    goal = task_goal(8)
    configs = grounded(table_scene, goal, m=3)
    nav = navigator_for(table_scene)
    computed = record_cost_fields(monkeypatch, nav)
    plan = plan_task(table_scene, "dining", configs, goal.atoms, fast_params())
    walk_every_candidate(walk_scene, "dining", configs, goal.atoms, fast_params())
    assert len(computed) == len(set(computed))
    assert set(computed) < set(whole_fields(navigator_for(walk_scene)))
    assert {step.load_cell for step in plan.steps} <= set(computed)
    assert set(nav.legs) == {("dining", cell) for cell in computed}


def test_a_step_without_loading_stand_ends_its_candidate(monkeypatch):
    """With every band cell of the fork's source table unusable, no step
    loading the fork connects, and no later step of its candidate counts,
    even one that would connect on its own (fork, then plate, then knife):
    no candidate is kept, as every walk is disconnected, and the table
    computes no cost field."""
    objects = ("dinner_fork", "dinner_plate", "dinner_knife")  # side_right, then side_left
    table_scene, walk_scene = make_scene(8, "easy", seed=42), make_scene(8, "easy", seed=42)
    for scene in (table_scene, walk_scene):
        Router(scene).band("side_right").usable[:] = False
    configs = grounded(table_scene, task_goal(8), m=2)
    params = fast_params()
    router = Router(table_scene)
    computed = record_cost_fields(monkeypatch, router.nav)
    band = router.band("dining")
    _, codes, pairs = planning._candidate_table(
        objects, (), tuple(loc.side for loc in band.locations))
    stands, fea_task, _ = planning._unload_options(
        table_scene, band, table_scene.table("dining"), configs, objects, params)
    _, _, kept = planning._price_candidates(router, band, objects, stands, fea_task, pairs)
    assert not kept.any()
    assert computed == [] and not router.nav.legs
    walk_router = Router(walk_scene)
    walk_band = walk_router.band("dining")
    table = walk_scene.table("dining")
    for m, config in enumerate(configs):
        options = [
            (obj, seeded_unload_option(
                walk_scene, walk_router.nav, walk_band, location,
                table.to_world(*config.positions[obj]), config.layers[obj], params,
                seed_key=(m, oi, si)))
            for oi, obj in enumerate(objects) for si, location in enumerate(walk_band.locations)
        ]
        for row in codes.tolist():
            assert field_priced_walk(walk_router, [options[k] for k in row]) is None


@pytest.mark.parametrize("environment", ENVIRONMENTS)
@pytest.mark.parametrize("task", [1, 8, 9])
def test_octile_bound_never_exceeds_a_leg_cost(task, environment):
    """The search's bound on a leg, ``res`` times the octile distance from
    the loading cell to the leg's other end, is at most the leg's cost: for
    every loading cell a step of the task can load at, at every finite
    entry of its leg-cost vector (band cells, then the start)."""
    scene = make_scene(task, environment, seed=42)
    price_every_loading_cell(scene, TASK_OBJECTS[task])
    nav = navigator_for(scene)
    ends = np.append(Router(scene).band("dining").cells, nav.grid.occupied.size)
    rows, cols = np.divmod(ends, nav.grid.shape[1])
    rows[-1], cols[-1] = nav.start_cell
    assert len(nav.legs) > 1
    for (_, (row, col)), legs in nav.legs.items():
        finite = np.isfinite(legs)
        bound = octile(rows - row, cols - col, nav.grid.resolution)
        assert finite.any() and (bound[finite] <= legs[finite] + 1e-12).all()


def test_a_cold_ten_configuration_plan_prices_few_loading_cells(monkeypatch):
    """A cold 10-configuration plan of task 8 / chair_top computes at most
    five cost fields, among them the winner's loading cells; pricing every
    reached pair computed 31."""
    scene = make_scene(8, "chair_top", seed=42)
    goal = task_goal(8)
    computed = record_cost_fields(monkeypatch, navigator_for(scene))
    plan = plan_task(scene, "dining", grounded(scene, goal, m=10), goal.atoms, fast_params())
    assert {step.load_cell for step in plan.steps} <= set(computed)
    assert len(computed) <= 5


@pytest.mark.parametrize("task, environment", [(8, "chair_top"), (6, "chair_bottom")])
def test_plan_does_not_depend_on_which_leg_costs_are_held(task, environment):
    """A call whose scene already holds the leg costs of every loading cell,
    a superset of those a cold call prices, picks, scores and routes the
    cold call's plan bit for bit."""
    goal = task_goal(task)
    cold, warm = make_scene(task, environment, seed=42), make_scene(task, environment, seed=42)
    configs = grounded(cold, goal, m=10)
    price_every_loading_cell(warm, TASK_OBJECTS[task])
    held = set(navigator_for(warm).legs)
    plan = plan_task(cold, "dining", configs, goal.atoms, fast_params())
    assert set(navigator_for(cold).legs) < held
    assert_same_plan(plan_task(warm, "dining", configs, goal.atoms, fast_params()), plan)
    assert set(navigator_for(warm).legs) == held


@pytest.mark.parametrize("task, environment", [(8, "chair_top"), (9, "chair_bottom")])
def test_ten_configuration_replan_equals_walk_every_candidate(task, environment):
    """In the benchmark re-plan's shape, 10 configurations of five objects,
    the one-pass search selects, scores and routes the walked search's
    plan bit for bit."""
    scene = make_scene(task, environment, seed=42)
    goal = task_goal(task)
    configs = grounded(scene, goal, m=10)
    for stand_seed in (0, 1):
        params = fast_params(stand_seed=stand_seed)
        plan = plan_task(scene, "dining", configs, goal.atoms, params)
        reference, _ = walk_every_candidate(scene, "dining", configs, goal.atoms, params)
        assert_same_plan(plan, reference)


@pytest.mark.parametrize("environment", ENVIRONMENTS)
@pytest.mark.parametrize("task", [1, 8, 9])
def test_routed_legs_equal_the_neighbour_loop(task, environment):
    """Every leg of the routed winner, read off the loading cell's descent
    table, has the cells and step counts of the former neighbour-loop walk
    down the same cost field."""
    scene = make_scene(task, environment, seed=42)
    goal = task_goal(task)
    nav = navigator_for(scene)
    plan = plan_task(scene, "dining", grounded(scene, goal, m=3), goal.atoms, fast_params())
    prev = nav.start_cell
    for step in plan.steps:
        if step.path_to_load is None:
            assert prev == step.load_cell
        else:
            reference = scalar_field_path(nav, prev, step.load_cell)
            assert step.path_to_load.cells == reference.cells
            assert (step.path_to_load.straight_steps, step.path_to_load.diagonal_steps) == (
                reference.straight_steps, reference.diagonal_steps)
        reference = scalar_field_path(nav, step.unload_cell, step.load_cell)
        assert step.path_to_unload.cells == reference.cells[::-1]
        assert (step.path_to_unload.straight_steps, step.path_to_unload.diagonal_steps) == (
            reference.straight_steps, reference.diagonal_steps)
        prev = step.unload_cell
    assert len(plan.steps) == len(TASK_OBJECTS[task])


@pytest.mark.parametrize("environment", ENVIRONMENTS)
@pytest.mark.parametrize("task", [1, 8, 9])
def test_leg_costs_are_the_cost_field_at_band_cells_and_start(task, environment):
    """Every leg-cost vector a plan search fills is its loading cell's cost
    field, bit for bit, at the grid cell of each band cell's center of the
    target table in band order, then at the robot's start, read-only."""
    scene = make_scene(task, environment, seed=42)
    goal = task_goal(task)
    nav = navigator_for(scene)
    plan_task(scene, "dining", grounded(scene, goal, m=3), goal.atoms, fast_params())
    ends = [nav.cell_of(*center) for center in Router(scene).band("dining").centers.tolist()]
    ends.append(nav.start_cell)
    assert nav.legs
    for (table, cell), legs in nav.legs.items():
        field = nav.cost_field(cell)
        assert table == "dining" and not legs.flags.writeable
        assert np.array_equal(legs, np.array([field[end] for end in ends]))


def _grid_fields(nav) -> int:
    """How many float64 arrays of the grid's size, or arrays viewing one,
    the navigator's attributes reach through containers and objects."""
    size = nav.grid.occupied.size
    seen, found, todo = set(), 0, list(vars(nav).values())
    while todo:
        obj = todo.pop()
        if id(obj) in seen or callable(obj) or isinstance(obj, (str, bytes, int, float)):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            found += obj.dtype == np.float64 and obj.size == size
            todo.append(obj.base)
        elif isinstance(obj, dict):
            todo.extend(obj.keys())
            todo.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            todo.extend(obj)
        elif hasattr(obj, "__dict__"):
            todo.extend(vars(obj).values())
    return found


def test_navigator_keeps_no_whole_cost_field():
    """After every system's trial, planned by ``plan_task`` or routed by a
    baseline's ``route``, the scene's navigator holds no whole-grid float64
    field. After 50 warm 10-configuration re-plans of task 8 / chair_top,
    its leg costs and descent tables total at most 2 MB, less than 14
    whole fields of 149 KB, however many loading cells the calls price
    (3 here; about 100 when every reached pair was priced)."""
    fea = FeasibilityParams(trials_per_cell=3)
    config = ExperimentConfig(task=1, environment="chair_top", trials=2, configurations=2,
                              feasibility=fea)
    scene = make_scene(1, "chair_top", config.seed)
    nav = navigator_for(scene)
    for trial in range(config.trials):
        for system in SYSTEMS:
            run_trial(scene, system, task_goal(1), config, trial)
            assert _grid_fields(nav) == 0, system
    assert nav.legs and nav._descents

    scene = make_scene(8, "chair_top", seed=42)
    nav = navigator_for(scene)
    goal = task_goal(8)
    configs = grounded(scene, goal, m=10)
    plan_task(scene, "dining", configs, goal.atoms, fast_params())
    for k in range(50):
        plan_task(scene, "dining", configs, goal.atoms, fast_params(stand_seed=k + 1))
    assert _grid_fields(nav) == 0
    kept = sum(a.nbytes for store in (nav.legs, nav._descents) for a in store.values())
    assert 0 < kept <= 2 * 2**20


def test_plan_task_derives_only_the_streams_that_draw(monkeypatch):
    """One stream per unload option, its stand draw's ``(m, oi, si, 1)``,
    all-zero maps included (their draw is the uniform fallback): scoring an
    option reads its map and draws nothing. chair_top's blocked north band
    gives all-zero maps."""
    scene = make_scene(8, "chair_top", seed=42)
    goal = task_goal(8)
    configs = grounded(scene, goal, m=3)
    params = fast_params(stand_seed=5)
    expected = plan_task(scene, "dining", configs, goal.atoms, params)
    asked = []

    def recording(entropy, keys):
        asked.append(np.array(keys))
        return pcg64_states(entropy, keys)

    monkeypatch.setattr(planning, "pcg64_states", recording)
    assert_same_plan(plan_task(scene, "dining", configs, goal.atoms, params), expected)
    [keys] = asked
    table = scene.table("dining")
    locations = Router(scene).band("dining").locations
    options, blocked = [], 0
    for m, config in enumerate(configs):
        for oi, obj in enumerate(config.positions):
            target = table.to_world(*config.positions[obj])
            for si, location in enumerate(locations):
                fmap = compute_feasibility_map(scene, location, target, params.feasibility)
                options.append((m, oi, si, 1))
                blocked += not fmap.values.any()
    assert 0 < blocked < len(options)
    assert list(map(tuple, keys.tolist())) == options


def test_plan_task_scores_every_option_by_the_closed_form(monkeypatch):
    """Every unload option of every configuration, not only the winner's:
    its stand's band index and feasibility are those of the former
    per-option generator's ``rng.choice`` draw, and the option is scored by
    the closed form of its map's weighted standing draw, the oracle's
    cell-by-cell sum(h^2) / sum(h). Both scenes have all-zero maps (on
    chair_top, the blocked north band), which score 0.0 and draw their
    stand uniformly."""
    made = []
    options = planning._unload_options
    price = planning._price_candidates
    priced = []

    def spy_options(*args):
        made.append(options(*args))
        return made[-1]

    def spy_price(router, band, objects, stands, fea_task, pairs):
        priced.append((stands, fea_task))
        return price(router, band, objects, stands, fea_task, pairs)

    monkeypatch.setattr(planning, "_unload_options", spy_options)
    monkeypatch.setattr(planning, "_price_candidates", spy_price)
    goal = task_goal(8)
    for environment, stand_seed in (("chair_top", 0), ("chair_bottom", 7)):
        scene = make_scene(8, environment, seed=42)
        configs = grounded(scene, goal, m=3)
        params = fast_params(stand_seed=stand_seed)
        made.clear()
        priced.clear()
        plan_task(scene, "dining", configs, goal.atoms, params)
        [(stands, fea_task, fea_stand)] = made
        assert [(s is stands, f is fea_task) for s, f in priced] == [(True, True)]
        table = scene.table("dining")
        router = Router(scene)
        band = router.band("dining")
        expected = [
            seeded_unload_option(
                scene, router.nav, band, location, table.to_world(*config.positions[obj]),
                config.layers[obj], params, seed_key=(m, oi, si))
            for m, config in enumerate(configs)
            for oi, obj in enumerate(config.positions)
            for si, location in enumerate(band.locations)
        ]
        assert stands.shape == fea_task.shape == fea_stand.shape == (3, 20)
        assert stands.ravel().tolist() == [option.band_index for option in expected]
        assert fea_stand.ravel().tolist() == [option.fea_stand for option in expected]
        assert fea_task.ravel().tolist() == [option.fea_task for option in expected]
        assert max(fea_task.ravel()) > 0.9
        # Blocked options' stands are uniform draws, not each side's first cell.
        blocked = fea_task.ravel() == 0.0
        assert len(set(stands.ravel()[blocked].tolist())) > 1


def test_candidate_table_is_built_once_per_goal(goal1):
    """The table is memoised by value: read-only arrays, one entry for
    equal atoms passed as new objects, a new order set once a stacking atom
    is added, and back-to-back plans that agree."""
    objects = ("lid", "mug", "mat")
    atoms = (PlacementAtom("left_of", "mug", "mat"),)
    candidates, codes, pairs = planning._candidate_table(objects, atoms, SIDES)
    assert not codes.flags.writeable and not pairs.flags.writeable
    with pytest.raises(ValueError):
        pairs[0, 0] = 0
    again = planning._candidate_table(objects, tuple(dataclasses.replace(a) for a in atoms), SIDES)
    assert again is planning._candidate_table(objects, atoms, SIDES)
    assert again[1] is codes
    stacked = atoms + (PlacementAtom("on_top_of", "lid", "mug"),)
    stacked_orders = {order for order, _ in planning._candidate_table(objects, stacked, SIDES)[0]}
    assert stacked_orders == set(stacking_orders(list(objects), list(stacked)))
    assert stacked_orders < {order for order, _ in candidates}

    scene = make_scene(1, "easy", seed=42)
    configs = grounded(scene, goal1, m=2)
    first = plan_task(scene, "dining", configs, goal1.atoms, fast_params())
    assert_same_plan(plan_task(scene, "dining", configs, list(goal1.atoms), fast_params()), first)


def test_plan_task_calls_on_one_scene_share_band_indices(goal1, monkeypatch):
    """Band indices live in the scene's navigator: a second plan_task call
    on the scene builds none and reads the very indices of the first."""
    built = []
    init = BandIndex.__init__

    def counting_init(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(BandIndex, "__init__", counting_init)
    scene = make_scene(1, "easy", seed=42)
    configs = grounded(scene, goal1, m=1)
    plan_task(scene, "dining", configs, goal1.atoms, fast_params())
    bands = dict(navigator_for(scene).bands)
    assert "dining" in bands and len(built) == len(bands)
    plan_task(scene, "dining", configs, goal1.atoms, fast_params(stand_seed=1))
    assert len(built) == len(bands)
    assert all(navigator_for(scene).bands[t] is band for t, band in bands.items())
    assert Router(scene).band("dining") is bands["dining"]


def test_replan_reads_every_map_from_the_store(monkeypatch):
    """A 10-configuration re-plan of task 8 asks for 200 maps per call, all
    within the store's bound, so a second call computes none."""
    requests, computed = [], []

    def counting(calls, function):
        def counted(*args):
            calls.append(args)
            return function(*args)
        return counted

    monkeypatch.setattr(planning, "compute_feasibility_map",
                        counting(requests, compute_feasibility_map))
    monkeypatch.setattr(feasibility, "trial_outcomes",
                        counting(computed, feasibility.trial_outcomes))
    scene = make_scene(8, "chair_top", seed=42)
    goal = task_goal(8)
    configs = grounded(scene, goal, m=10)
    plan_task(scene, "dining", configs, goal.atoms, fast_params(stand_seed=0))
    assert len(requests) == 200 and 0 < len(computed) <= MAX_MAPS
    del requests[:], computed[:]
    plan_task(scene, "dining", configs, goal.atoms, fast_params(stand_seed=1))
    assert len(requests) == 200 and computed == []


def test_loading_stand_does_not_depend_on_walk_history():
    """At each dining band corner, two band cells 5 cm apart share one
    grid cell and can have different loading stands. The stand after one
    cell must be the same whether or not legs after the other were asked
    for first: the stand table is built whole, whatever the first query."""
    scene = make_scene(8, "easy", seed=42)
    nav = navigator_for(scene)
    router = Router(scene)
    by_cell = defaultdict(list)
    for index, (x, y) in enumerate(router.band("dining").centers):
        by_cell[nav.cell_of(x, y)].append(index)
    pairs = [indices for indices in by_cell.values() if len(indices) == 2]
    assert len(pairs) == 24
    objects = [scene.objects[0].id, scene.objects[1].id]  # one per pickup table
    assert scene.object(objects[0]).initial_location != scene.object(objects[1]).initial_location

    def stand_after(source, first, second):
        nav.stands.clear()
        router.legs("dining", [source], np.array([first]), np.array([second]))
        return router.loading_stands(source, "dining")[second]

    differing = 0
    for obj in objects:
        source = scene.object(obj).initial_location
        band = router.band(source)
        for p, q in pairs:
            differing += stand_after(source, p, p) != stand_after(source, q, q)
            for first, second in ((p, q), (q, p)):
                expected = nearest_usable_center(band, router.band("dining").centers[second])
                assert centers_at(band, [stand_after(source, first, second)]) == [expected]
    assert differing > 0


def test_plan_does_not_depend_on_earlier_plans(goal1):
    """Planning configuration X and then Y on one scene selects the plan
    that planning Y alone on a fresh scene selects. X and Y differ only in
    the dinner plate's x, 0.439001 against 0.4390015: the two round alike
    to six decimals but seed their maps apart."""
    scene = make_scene(1, "easy", seed=42)
    base = grounded(scene, goal1, m=1)[0]

    def moved(x):
        _, y = base.positions["dinner_plate"]
        return [dataclasses.replace(base, positions={**base.positions, "dinner_plate": (x, y)})]

    x_config, y_config = moved(0.439001), moved(0.4390015)
    plan_task(scene, "dining", x_config, goal1.atoms, fast_params())
    after = plan_task(scene, "dining", y_config, goal1.atoms, fast_params())
    fresh = make_scene(1, "easy", seed=42)
    assert_same_plan(after, plan_task(fresh, "dining", y_config, goal1.atoms, fast_params()))


def test_every_system_routes_its_legs_without_astar(monkeypatch):
    """The planner and the three baselines read every leg of their plans
    off cached cost fields: with ``Navigator.astar`` refusing, each system
    plans tasks 1, 8 and 9 in all four environments, and every leg has the
    step counts of the real A* between its end cells."""
    astar = Navigator.astar

    def refuse(*args):
        raise AssertionError("Navigator.astar called while planning")

    plans = []
    execute_plan = harness.execute_plan

    def keep_plan(scene, plan, *args):
        plans.append((scene, plan))
        return execute_plan(scene, plan, *args)

    monkeypatch.setattr(Navigator, "astar", refuse)
    monkeypatch.setattr(harness, "execute_plan", keep_plan)
    fea = FeasibilityParams(trials_per_cell=3)
    for task in (1, 8, 9):
        for environment in ENVIRONMENTS:
            config = ExperimentConfig(task=task, environment=environment, trials=1,
                                      configurations=2, feasibility=fea)
            scene = make_scene(task, environment, config.seed)
            for system in SYSTEMS:
                run_trial(scene, system, task_goal(task), config, trial=0)
    monkeypatch.undo()
    assert len(plans) == 3 * len(ENVIRONMENTS) * len(SYSTEMS)
    for scene, plan in plans:
        nav = navigator_for(scene)
        prev = nav.start_cell
        for step in plan.steps:
            legs = [(step.path_to_load, step.leg_to_load, prev, step.load_cell),
                    (step.path_to_unload, step.leg_to_unload, step.load_cell, step.unload_cell)]
            for path, leg, start, goal in legs:
                if path is None:
                    assert start == goal and leg == 0.0
                    continue
                reference = astar(nav, start, goal)
                assert (path.straight_steps, path.diagonal_steps) == (
                    reference.straight_steps, reference.diagonal_steps)
                assert path.cells[0] == start and path.cells[-1] == goal
                assert leg == path.cost
            prev = step.unload_cell


@pytest.mark.parametrize("environment", ENVIRONMENTS)
def test_batched_nearest_free_equals_one_point_rule(environment):
    """Every table's band answers a batch of points exactly as the
    one-point rule does: band centers, midpoints between neighbouring
    centers (ties), the robot start and random points over the grid. A band
    with no usable cell answers None for each point."""
    scene = make_scene(8, environment, seed=42)
    router = Router(scene)
    bands = [router.band(table.id) for table in scene.tables]
    centers = np.concatenate([band.centers for band in bands])
    rng = np.random.default_rng(7)
    (rows, cols), res = scene.grid.shape, scene.grid.resolution
    corner = np.array(scene.grid.origin)
    points = np.concatenate([
        centers,
        (centers[:-1] + centers[1:]) / 2,
        [scene.robot_pose.xy],
        corner + rng.random((200, 2)) * (cols * res, rows * res),
    ])
    for band in bands:
        assert band.usable.any()
        assert centers_at(band, band.nearest_free(points)) == [
            nearest_usable_center(band, p) for p in points
        ]
    unusable = BandIndex(Navigator.from_grid(scene.grid), bands[0].locations, scene)
    assert centers_at(unusable, unusable.nearest_free(points[:3])) == [None] * 3


def centers_at(band, indices):
    """The center of each band index as a tuple of floats, None for -1."""
    return [None if i < 0 else tuple(band.centers[i].tolist()) for i in indices]


@pytest.mark.parametrize("environment", ENVIRONMENTS)
def test_stand_tables_equal_the_one_point_rule(environment):
    """The scene's stand tables answer, for every dining band cell and last
    for the robot's start, on every table's band, the center the one-point
    rule picks from that cell's center or the start; on a scene whose start
    cell is blocked no band cell is usable, and every answer is -1."""
    scene = make_scene(8, environment, seed=42)
    blocked = dataclasses.replace(
        scene, robot_pose=Pose2D(*scene.table("dining").center, 0.0)
    )
    for each, usable in ((scene, True), (blocked, False)):
        router = Router(each)
        dining = router.band("dining")
        points = [*dining.centers.tolist(), each.robot_pose.xy]
        for table in each.tables:
            band = router.band(table.id)
            assert band.usable.any() == usable
            stands = router.loading_stands(table.id, "dining")
            assert len(stands) == len(points)
            assert centers_at(band, stands) == [nearest_usable_center(band, p) for p in points]
            assert (stands >= 0).all() if usable else (stands == -1).all()
            # A second lookup reads the stored table.
            assert router.loading_stands(table.id, "dining") is stands


def test_selected_plan_survives_exhaustive_rescoring(goal1):
    """Re-score every candidate of every configuration from scratch: legs
    priced by the reference Dijkstra instead of cached cost fields, and
    feasibility by the oracle's closed form. The returned plan must price
    identically and be the re-scored optimum: with no sampled estimate in
    the objective, only float rounding separates the two scorings."""
    scene = make_scene(1, "easy", seed=42)
    configs = grounded(scene, goal1, m=2)
    params = PlanningParams(
        feasibility=FeasibilityParams(trials_per_cell=3)
    )
    plan = plan_task(scene, "dining", configs, goal1.atoms, params)

    nav = navigator_for(scene)
    table = scene.table("dining")
    target_locs = symbolic_locations(scene, "dining")
    side_ids = tuple(loc.side for loc in target_locs)
    loc_by_side = {loc.side: loc for loc in target_locs}
    objects = list(configs[0].positions)
    n = len(objects)
    candidates = enumerate_candidates(objects, goal1.atoms, side_ids, 500)

    start_cell = nav.cell_of(*scene.robot_pose.xy)
    start_comp = nav.component(start_cell)

    band = {}
    for obj in objects:
        src = scene.object(obj).initial_location
        if src in band:
            continue
        centers = np.concatenate(
            [loc.cell_centers().reshape(-1, 2) for loc in symbolic_locations(scene, src)]
        )
        cells = [nav.cell_of(x, y) for x, y in centers]
        usable = np.array([nav.is_free(c) and nav.component(c) == start_comp for c in cells])
        band[src] = (centers, usable)

    # One reference Dijkstra per distinct loading spot prices both of a
    # step's legs, exploiting that grid adjacency is symmetric.
    fields = {}

    def leg(load_cell, other):
        if load_cell == other:
            return 0.0
        if load_cell not in fields:
            fields[load_cell] = dijkstra_counts(nav.free, load_cell)
        counts = fields[load_cell].get(other)
        if counts is None:
            return None
        straight, diagonal = counts
        return scene.grid.resolution * (straight + diagonal * math.sqrt(2.0))

    # Replay the frozen stand draws from their documented seeding and pair
    # each with the closed-form feasibility of its map.
    stands = {}
    for m, config in enumerate(configs):
        for oi, obj in enumerate(objects):
            target_world = table.to_world(*config.positions[obj])
            for si, side in enumerate(side_ids):
                fmap = compute_feasibility_map(
                    scene, loc_by_side[side], target_world, params.feasibility
                )
                draw_rng = np.random.Generator(
                    np.random.PCG64(
                        np.random.SeedSequence(
                            (scene.rng_seed, params.stand_seed),
                            spawn_key=(m, oi, si, 1),
                        )
                    )
                )
                cell = sample_standing_cell(fmap, draw_rng)
                xy = tuple(loc_by_side[side].cell_centers()[cell].tolist())
                stands[(m, obj, side)] = (
                    nav.cell_of(*xy),
                    xy,
                    weighted_mean_feasibility(fmap.values),
                )

    def rescore(m, order, sides_combo):
        prev_cell, prev_point = start_cell, scene.robot_pose.xy
        nav_cost, fea_sum = 0.0, 0.0
        for obj, side in zip(order, sides_combo):
            centers, usable = band[scene.object(obj).initial_location]
            d2 = (centers[:, 0] - prev_point[0]) ** 2 + (centers[:, 1] - prev_point[1]) ** 2
            idx = int(np.argmin(np.where(usable, d2, np.inf)))
            if not usable[idx]:
                return None
            load_cell = nav.cell_of(centers[idx, 0], centers[idx, 1])
            unload_cell, unload_xy, fea = stands[(m, obj, side)]
            leg1 = leg(load_cell, prev_cell)
            leg2 = leg(load_cell, unload_cell)
            if leg1 is None or leg2 is None:
                return None
            nav_cost += leg1 + leg2
            fea_sum += fea
            prev_cell, prev_point = unload_cell, unload_xy
        fea = (n * 1.0 + fea_sum) / (2 * n)
        return REWARD * fea - (nav_cost + MANIPULATION_COST * 2 * n), nav_cost

    best = -math.inf
    selected = None
    for m in range(len(configs)):
        for pi, (order, sides_combo) in enumerate(candidates):
            scored = rescore(m, order, sides_combo)
            if scored is None:
                continue
            best = max(best, scored[0])
            if m == plan.config_index and pi == plan.plan_index:
                selected = scored

    assert selected is not None
    assert selected[1] + MANIPULATION_COST * 2 * n == pytest.approx(
        plan.search_cost, abs=1e-9
    )
    assert selected[0] >= best - 1e-9


def test_band_index_addresses_every_cell_once():
    """A band index names one location's cell: its center is that cell's
    center, bit for bit, and its grid cell is the one ``cell_of`` gives for
    that center."""
    scene = make_scene(8, "chair_top", seed=42)
    nav = navigator_for(scene)
    band = Router(scene).band("dining")
    seen = []
    for loc in band.locations:
        rows, cols = loc.dims
        for cell in itertools.product(range(rows), range(cols)):
            index = band.index(loc, cell)
            seen.append(index)
            assert band.locations[band.owner[index]] is loc
            center = tuple(loc.cell_centers()[cell].tolist())
            assert tuple(band.centers[index].tolist()) == center
            assert divmod(int(band.cells[index]), scene.grid.shape[1]) == nav.cell_of(*center)
    assert seen == list(range(len(band.centers)))


def test_no_loading_stand_anywhere_leaves_no_candidate(goal1, monkeypatch):
    """When the stand tables hold no loading stand for any previous stand,
    no leg connects and no cost field is computed: the search refuses to
    plan instead of pricing an empty leg table."""
    scene = make_scene(1, "easy", seed=42)
    nav = navigator_for(scene)
    computed = record_cost_fields(monkeypatch, nav)
    router = Router(scene)
    size = len(router.band("dining").centers) + 1
    for source in {scene.object(obj).initial_location for obj in router.source}:
        nav.stands[("dining", source)] = np.full(size, -1, dtype=np.int32)
    with pytest.raises(PlanningError, match="every candidate plan was disconnected"):
        plan_task(scene, "dining", grounded(scene, goal1, m=1), goal1.atoms, fast_params())
    assert not computed and not nav.legs


@pytest.mark.parametrize("environment", ENVIRONMENTS)
def test_legs_connect_where_the_loading_field_is_finite(environment):
    """On task 8, over every (previous stand, stand) pair of the dining
    band, the robot's start among the previous stands: ``Router.legs``
    gives the one-point rule's loading stand and cell, and its legs connect
    exactly where that cell's cost field is finite at both leg ends. The
    chair scenes wall off some band cells."""
    scene = make_scene(8, environment, seed=42)
    nav = navigator_for(scene)
    router = Router(scene)
    band = router.band("dining")
    count = len(band.centers)
    width = scene.grid.shape[1]
    points = [scene.robot_pose.xy] + [tuple(c) for c in band.centers.tolist()]
    ends = np.array([r * width + c for r, c in (nav.cell_of(*p) for p in points)])
    walled = 0
    for source in sorted({o.initial_location for o in scene.objects}):
        source_band = router.band(source)
        load, load_cell, connects = router.legs(
            "dining", [source] * count, np.arange(-1, count)[:, None], np.arange(count)[None, :])
        assert connects.shape == (count + 1, count)
        for p, point in enumerate(points):
            load_point = nearest_usable_center(source_band, point)
            assert load_point is not None
            assert (load[p] == load[p, 0]).all() and (load_cell[p] == load_cell[p, 0]).all()
            assert tuple(source_band.centers[load[p, 0]].tolist()) == load_point
            r, c = nav.cell_of(*load_point)
            assert load_cell[p, 0] == r * width + c
            finite = np.isfinite(whole_field(nav, (r, c)).ravel()[ends])
            assert np.array_equal(connects[p], finite[p] & finite[1:]), p
        walled += int((~connects).sum())
    assert (walled > 0) == (environment != "easy")


def test_route_cuts_name_their_stage(goal1, monkeypatch):
    """``route`` cuts a plan at its first step whose legs do not connect
    and names the stage: ``load`` where the step has no loading stand (the
    empty stand tables of ``test_no_loading_stand_anywhere_leaves_no_candidate``),
    ``unload`` where its stand lies behind the chair on chair_top; None
    when every leg connects. The cost is the routed prefix's."""
    def route(scene, stands):
        n = len(stands)
        objects = [o.id for o in scene.objects][:n]
        target = scene.table("dining").to_world(0.0, 0.0)
        return Router(scene).route("dining", objects, stands, [target] * n, [0] * n,
                                   [0.0] * n, [0.0] * n)

    scene = make_scene(1, "chair_top", seed=42)
    band = Router(scene).band("dining")
    usable = np.flatnonzero(band.usable)
    behind = [i for i in np.flatnonzero(~band.usable) if band.locations[band.owner[i]].side == "north"]
    assert behind
    stands = [usable[0], behind[0], usable[1]]
    steps, stage, cost = route(scene, stands)
    assert stage == "unload" and len(steps) == 1
    assert cost == steps[0].leg_to_load + steps[0].leg_to_unload + 2 * MANIPULATION_COST
    assert route(scene, stands[1:])[:2] == ([], "unload")
    steps, stage, _ = route(scene, [usable[0], usable[1], usable[2]])
    assert stage is None and len(steps) == 3

    scene = make_scene(1, "easy", seed=42)
    nav = navigator_for(scene)
    size = len(Router(scene).band("dining").centers) + 1
    for source in {o.initial_location for o in scene.objects}:
        nav.stands[("dining", source)] = np.full(size, -1, dtype=np.int32)
    computed = record_cost_fields(monkeypatch, nav)
    assert route(scene, [0, 1, 2]) == ([], "load", 0.0)
    assert not computed and not nav.legs and not nav._descents


def test_every_routed_step_unloads_at_its_stand_facing_the_target(monkeypatch):
    """For the planner and both baselines, every step ``route`` returns
    unloads from the center of its stand's band cell, on that cell's grid
    cell and location, toward its target on the routed table, facing it
    through ``math.atan2`` as load poses do."""
    route = Router.route
    calls = []

    def spy(self, table, objects, stands, targets, *rest):
        steps, stage, cost = route(self, table, objects, stands, targets, *rest)
        calls.append((self, self.band(table), list(stands), list(targets), steps))
        return steps, stage, cost

    monkeypatch.setattr(Router, "route", spy)
    fea = FeasibilityParams(trials_per_cell=3)
    systems = []
    for environment in ("easy", "chair_top"):
        config = ExperimentConfig(task=1, environment=environment, trials=3,
                                  configurations=2, feasibility=fea)
        scene = make_scene(1, environment, config.seed)
        for system in ("llm_grop", "latp", "tpra"):
            for trial in range(config.trials):
                run_trial(scene, system, task_goal(1), config, trial)
                systems.append(system)
    monkeypatch.undo()
    assert len(calls) == len(systems) == 2 * 3 * 3
    routed = defaultdict(int)
    for system, (router, band, stands, targets, steps) in zip(systems, calls):
        routed[system] += len(steps)
        for step, stand, target in zip(steps, stands, targets):
            x, y = band.centers[stand].tolist()
            assert (step.unload_pose.x, step.unload_pose.y) == (x, y)
            assert step.unload_pose.theta == math.atan2(target[1] - y, target[0] - x)
            assert step.target_world == target
            assert step.unload_cell == router.nav.cell_of(x, y)
            assert step.unload_cell == divmod(int(band.cells[stand]), router.scene.grid.shape[1])
            assert step.unload_location == band.locations[band.owner[stand]].id
            assert step.target_table == band.locations[0].table_id == "dining"
    assert routed["llm_grop"] == 2 * 3 * 3 and routed["latp"] > 0 and routed["tpra"] > 0
