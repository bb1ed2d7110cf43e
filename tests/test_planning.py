import dataclasses
import functools
import itertools
import math
from collections import defaultdict

import numpy as np
import pytest

from momaplan.feasibility import (
    FeasibilityParams,
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
from momaplan.motion import MAX_MAPS, Navigator, navigator_for
from momaplan.planning import (
    MANIPULATION_COST,
    REWARD,
    BandIndex,
    PlanningError,
    PlanningParams,
    Router,
    _load,
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
)

RADII = {name: spec[0] for name, spec in OBJECT_CATALOG.items()}
SIDES = ("north", "south", "east", "west")


def fast_params(**overrides):
    fea = FeasibilityParams(trials_per_cell=3, task_draws=10)
    return PlanningParams(feasibility=fea, **overrides)


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
    orders = stacking_orders(["a", "b", "c"], [])
    assert orders == list(itertools.permutations(["a", "b", "c"]))


def test_stacking_orders_respect_support():
    atoms = [PlacementAtom("on_top_of", "lid", "mug")]
    orders = stacking_orders(["lid", "mug", "mat"], atoms)
    assert len(orders) == 3  # half of the six permutations survive
    for order in orders:
        assert order.index("mug") < order.index("lid")


def test_stacking_orders_limit():
    orders = stacking_orders(["a", "b", "c", "d"], [], limit=5)
    assert len(orders) == 5


def test_enumerate_candidates_cap_and_shape():
    objects = ["a", "b", "c"]
    full = enumerate_candidates(objects, [], SIDES, 10_000)
    assert len(full) == math.factorial(3) * 4 ** 3
    assert full[0] == (("a", "b", "c"), ("north", "north", "north"))
    wide = enumerate_candidates(["a", "b", "c", "d"], [], SIDES, 10_000)
    capped = enumerate_candidates(["a", "b", "c", "d"], [], SIDES, 500)
    assert len(capped) == 500
    assert capped == wide[:500]


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
    (stream,) = pcg64_states(entropy, [key])
    gen = np.random.Generator(np.random.PCG64(0))
    gen.random(3)
    own = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy, spawn_key=key)))
    assert _load(gen, stream).random(5).tolist() == own.random(5).tolist()
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


def test_leg_table_prices_every_candidate_as_the_walk():
    """Candidate by candidate of every configuration, not only the winner:
    the one leg table's connectedness is whether the walk connects, and a
    connected candidate's navigation cost and feasibility sum equal the
    walk's bit for bit. On task 8 / chair_top the chair walls off some
    drawn stands."""
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
    nav_cost, fea_sum, connected = planning._price_candidates(
        router, band, objects, stands, fea_task, pairs)
    assert nav_cost.shape == fea_sum.shape == connected.shape == (len(configs), len(codes))
    disconnected = 0
    for m, row_choices in enumerate(choices):
        for c, row in enumerate(codes.tolist()):
            walked = field_priced_walk(router, [row_choices[k] for k in row])
            assert connected[m, c] == (walked is not None), (m, c)
            if walked is None:
                disconnected += 1
            else:
                assert (nav_cost[m, c], fea_sum[m, c]) == walked, (m, c)
    assert disconnected > 0


def test_leg_table_asks_for_the_walked_cost_fields():
    """The table prices a step only where some candidate of some
    configuration reaches it connected, so it computes the cost fields of
    exactly the loading cells that walking every candidate computes, none
    beyond."""
    table_scene = make_scene(8, "chair_top", seed=42)
    walk_scene = make_scene(8, "chair_top", seed=42)
    goal = task_goal(8)
    configs = grounded(table_scene, goal, m=3)
    plan_task(table_scene, "dining", configs, goal.atoms, fast_params())
    walk_every_candidate(walk_scene, "dining", configs, goal.atoms, fast_params())
    assert set(navigator_for(table_scene)._fields) == set(navigator_for(walk_scene)._fields)


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


def test_plan_task_derives_only_the_streams_that_draw(monkeypatch):
    """One stand stream per unload option, and a feasibility stream only
    for options whose map has a feasible cell: chair_top's blocked north
    band gives all-zero maps, whose ``task_feasibility`` draws nothing."""
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
    options, feasible = [], []
    for m, config in enumerate(configs):
        for oi, obj in enumerate(config.positions):
            target = table.to_world(*config.positions[obj])
            for si, location in enumerate(locations):
                fmap = compute_feasibility_map(scene, location, target, params.feasibility)
                options.append((m, oi, si))
                if fmap.values.any():
                    feasible.append((m, oi, si))
    assert 0 < len(feasible) < len(options)
    assert len(keys) == len(options) + len(feasible)
    assert sorted(map(tuple, keys.tolist())) == sorted(
        [(*o, 1) for o in options] + [(*o, 0) for o in feasible])


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
    cell must be the same whether or not the other was looked up first."""
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

    def cold_stand(source, index):
        nav.stands.clear()
        return router.loading_stands(source, "dining", np.array([index]))[0]

    differing = 0
    for obj in objects:
        source = scene.object(obj).initial_location
        for p, q in pairs:
            differing += cold_stand(source, p) != cold_stand(source, q)
            for first, second in ((p, q), (q, p)):
                expected = cold_stand(source, second)
                nav.stands.clear()
                router.loading_stands(source, "dining", np.array([first]))
                assert router.loading_stands(source, "dining", np.array([second]))[0] == expected
    assert differing > 0


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
    fea = FeasibilityParams(trials_per_cell=3, task_draws=10)
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
    unusable = BandIndex(Navigator.from_grid(scene.grid), bands[0].locations)
    assert centers_at(unusable, unusable.nearest_free(points[:3])) == [None] * 3


def centers_at(band, indices):
    """The center of each band index as a tuple of floats, None for -1."""
    return [None if i < 0 else tuple(band.centers[i].tolist()) for i in indices]


@pytest.mark.parametrize("environment", ENVIRONMENTS)
def test_stand_tables_equal_the_one_point_rule(environment):
    """The scene's stand tables answer, for every dining band cell and for
    the robot's start, on every table's band, the center the one-point rule
    picks from that cell's center or the start; on a scene whose start cell
    is blocked no band cell is usable, and every answer is -1 (None)."""
    scene = make_scene(8, environment, seed=42)
    blocked = dataclasses.replace(
        scene, robot_pose=Pose2D(*scene.table("dining").center, 0.0)
    )
    for each, usable in ((scene, True), (blocked, False)):
        router = Router(each)
        dining = router.band("dining")
        every = np.arange(len(dining.centers))
        for table in each.tables:
            band = router.band(table.id)
            assert band.usable.any() == usable
            after_cells = router.loading_stands(table.id, "dining", every)
            assert centers_at(band, after_cells) == [
                nearest_usable_center(band, p) for p in dining.centers
            ]
            after_start = router.loading_stands(table.id, "dining", np.array([-1]))
            assert centers_at(band, after_start) == [
                nearest_usable_center(band, each.robot_pose.xy)
            ]
            # A second lookup reads the filled table.
            assert np.array_equal(router.loading_stands(table.id, "dining", every), after_cells)


def test_selected_plan_survives_exhaustive_rescoring(goal1):
    """Re-score every candidate of every configuration from scratch: legs
    priced by the reference Dijkstra instead of cached cost fields, and
    feasibility by its closed form instead of the planner's sampled
    estimate. The returned plan must price identically and stay within
    Monte-Carlo tolerance of the re-scored optimum."""
    scene = make_scene(1, "easy", seed=42)
    configs = grounded(scene, goal1, m=2)
    params = PlanningParams(
        feasibility=FeasibilityParams(trials_per_cell=3, task_draws=200)
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
    assert selected[0] >= best - 0.05 * REWARD


def test_band_index_addresses_every_cell_once():
    """A band index names one location's cell: its center is that cell's
    center, read from the one buffer the locations share, and its grid cell
    is the one ``cell_of`` gives for that center."""
    scene = make_scene(8, "chair_top", seed=42)
    nav = navigator_for(scene)
    band = Router(scene).band("dining")
    seen = []
    for loc in band.locations:
        assert np.shares_memory(loc.cell_centers(), band.centers)
        rows, cols = loc.dims
        for cell in itertools.product(range(rows), range(cols)):
            index = band.index(loc, cell)
            seen.append(index)
            assert band.locations[band.owner[index]] is loc
            center = tuple(loc.cell_centers()[cell].tolist())
            assert tuple(band.centers[index].tolist()) == center
            assert divmod(int(band.cells[index]), scene.grid.shape[1]) == nav.cell_of(*center)
    assert seen == list(range(len(band.centers)))


def test_no_loading_stand_anywhere_leaves_no_candidate(goal1):
    """When the stand tables hold no loading stand for any previous stand,
    no leg connects and no cost field is asked for: the search refuses to
    plan instead of pricing an empty leg table."""
    scene = make_scene(1, "easy", seed=42)
    nav = navigator_for(scene)
    router = Router(scene)
    size = len(router.band("dining").centers) + 1
    for source in {scene.object(obj).initial_location for obj in router.source}:
        nav.stands[("dining", source)] = np.full(size, -1, dtype=np.int32)
    with pytest.raises(PlanningError, match="every candidate plan was disconnected"):
        plan_task(scene, "dining", grounded(scene, goal1, m=1), goal1.atoms, fast_params())
    assert not nav._fields


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
            finite = np.isfinite(nav.cost_field((r, c)).ravel()[ends])
            assert np.array_equal(connects[p], finite[p] & finite[1:]), p
        walled += int((~connects).sum())
    assert (walled > 0) == (environment != "easy")


def test_route_cuts_name_their_stage(goal1):
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
    assert route(scene, [0, 1, 2]) == ([], "load", 0.0)
    assert not nav._fields


def test_every_routed_step_unloads_at_its_stand_facing_the_target(monkeypatch):
    """For the planner and both baselines, every step ``route`` returns
    unloads from the center of its stand's band cell, on that cell's grid
    cell and location, toward its target, facing it through ``math.atan2``
    as load poses do."""
    route = Router.route
    calls = []

    def spy(self, table, objects, stands, targets, *rest):
        steps, stage, cost = route(self, table, objects, stands, targets, *rest)
        calls.append((self, self.band(table), list(stands), list(targets), steps))
        return steps, stage, cost

    monkeypatch.setattr(Router, "route", spy)
    fea = FeasibilityParams(trials_per_cell=3, task_draws=10)
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
    assert routed["llm_grop"] == 2 * 3 * 3 and routed["latp"] > 0 and routed["tpra"] > 0
