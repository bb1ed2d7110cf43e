import logging

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import chisquare

from momaplan.feasibility import (
    FeasibilityMap,
    FeasibilityParams,
    build_feasibility_dataset,
    compute_feasibility_map,
    pcg64_states,
    sample_standing_cell,
    task_feasibility,
    trial_outcomes,
)
from momaplan import feasibility
from momaplan.harness import ENVIRONMENTS, make_scene
from momaplan.geometry import segments_hit_rect
from momaplan.motion import MAX_MAPS, navigator_for, robot_collides_batch
from momaplan.planning import Router
from momaplan.world import ObstacleSpec, build_scene, location_by_id, symbolic_locations

from oracles import (
    cell_trial_outcomes,
    choice_standing_cell,
    noise_success_probability,
    per_cell_trial_outcomes,
    weighted_mean_feasibility,
)


def _dining_target(scene):
    table = scene.table("dining")
    return (table.center[0], table.center[1] + 0.05)


def test_map_shape_and_range(scene1):
    loc = location_by_id(scene1, "dining/south")
    fmap = compute_feasibility_map(scene1, loc, _dining_target(scene1))
    assert fmap.values.shape == loc.dims == (8, 24)
    assert float(fmap.values.min()) >= 0.0
    assert float(fmap.values.max()) <= 1.0
    # An open approach band in the default scene is mostly workable.
    assert float(fmap.values.max()) == 1.0


def test_trial_outcomes_shape_and_aggregation(scene1):
    loc = location_by_id(scene1, "dining/south")
    params = FeasibilityParams(trials_per_cell=7)
    outcomes = trial_outcomes(scene1, loc, _dining_target(scene1), params)
    assert outcomes.shape == (8, 24, 7)
    fmap = compute_feasibility_map(scene1, loc, _dining_target(scene1), params)
    assert np.array_equal(fmap.values, outcomes.mean(axis=2))


def test_map_is_deterministic_and_cached(scene1):
    loc = location_by_id(scene1, "dining/south")
    target = _dining_target(scene1)
    a = compute_feasibility_map(scene1, loc, target)
    b = compute_feasibility_map(scene1, loc, target)
    assert a is b  # cached per scene
    raw = trial_outcomes(scene1, loc, target).mean(axis=2)
    assert np.array_equal(a.values, raw)
    with pytest.raises(ValueError):
        a.values[0, 0] = 0.5


def _store_requests(scene, count):
    """``count`` distinct map requests on a scene's bands, cheap ones:
    one trial per cell, unload points 1 mm apart on the dining table."""
    params = FeasibilityParams(trials_per_cell=1)
    locations = [loc for t in scene.tables for loc in symbolic_locations(scene, t.id)]
    cx, cy = scene.table("dining").center
    return [(locations[i % len(locations)], (cx + 0.001 * i, cy), params) for i in range(count)]


def test_map_store_never_exceeds_its_bound():
    scene = make_scene(1, "easy", 42)  # a fresh scene, so a fresh store
    store = navigator_for(scene).maps
    requests = _store_requests(scene, MAX_MAPS + 8)
    for request in requests:
        compute_feasibility_map(scene, *request)
        assert len(store) <= MAX_MAPS
    assert len(store) == MAX_MAPS
    # The eight oldest went; the newest are the ones kept.
    kept = {(fmap.location_id, fmap.target) for fmap in store.values()}
    assert kept == {(loc.id, target) for loc, target, _ in requests[8:]}


def test_map_store_hit_refreshes_recency(monkeypatch):
    monkeypatch.setattr(feasibility, "MAX_MAPS", 3)
    scene = make_scene(1, "easy", 42)
    a, b, c, d = _store_requests(scene, 4)
    first = compute_feasibility_map(scene, *a)
    compute_feasibility_map(scene, *b)
    compute_feasibility_map(scene, *c)
    assert compute_feasibility_map(scene, *a) is first  # a hit, now the newest
    compute_feasibility_map(scene, *d)  # evicts b, the least recently used
    targets = [fmap.target for fmap in navigator_for(scene).maps.values()]
    assert targets == [c[1], a[1], d[1]]
    assert compute_feasibility_map(scene, *a) is first


@pytest.mark.parametrize("side", ["south", "north", "east"])
def test_map_store_answer_does_not_depend_on_earlier_requests(side):
    """The targets (0.4390015, 0.05) and (0.439001, 0.05) round alike to
    six decimals, but their maps are seeded apart (words 439002 and
    439001). The map for the second is the same whether or not the first
    was asked for before it."""
    first, second = (0.4390015, 0.05), (0.439001, 0.05)
    scene = make_scene(1, "easy", 42)
    location = location_by_id(scene, f"dining/{side}")
    compute_feasibility_map(scene, location, first)
    after = compute_feasibility_map(scene, location, second)
    alone = compute_feasibility_map(make_scene(1, "easy", 42), location, second)
    assert after.values.tobytes() == alone.values.tobytes()
    assert after.target == second


def test_evicted_map_recomputes_bit_for_bit(monkeypatch):
    monkeypatch.setattr(feasibility, "MAX_MAPS", 2)
    scene = make_scene(1, "easy", 42)
    location = location_by_id(scene, "dining/south")
    params = FeasibilityParams(trials_per_cell=3)
    target = _dining_target(scene)
    first = compute_feasibility_map(scene, location, target, params)
    for request in _store_requests(scene, 2):
        compute_feasibility_map(scene, *request)
    assert all(fmap is not first for fmap in navigator_for(scene).maps.values())
    again = compute_feasibility_map(scene, location, target, params)
    assert again is not first
    assert (again.location_id, again.target) == (first.location_id, first.target)
    assert again.values.dtype == first.values.dtype
    assert again.values.tobytes() == first.values.tobytes()
    assert 0.0 < first.values.mean() < 1.0


def test_a_cold_map_seeds_its_cells_in_one_pass(monkeypatch):
    """A cold map derives every cell stream with ``pcg64_states``: it
    builds no ``SeedSequence`` and at most one ``Generator``."""
    built = {"SeedSequence": 0, "Generator": 0}

    def counting(name):
        real = getattr(np.random, name)

        def stub(*args, **kwargs):
            built[name] += 1
            return real(*args, **kwargs)
        return stub

    scene = make_scene(1, "easy", 42)
    location = location_by_id(scene, "dining/south")
    for name in built:
        monkeypatch.setattr(np.random, name, counting(name))
    fmap = compute_feasibility_map(scene, location, _dining_target(scene))
    assert 0.0 < fmap.values.mean() < 1.0
    assert built["SeedSequence"] == 0
    assert built["Generator"] <= 1


def test_cells_are_independent_of_each_other(scene1):
    """A cell's trial draws depend only on its own (row, col) stream, so the
    cell run alone gives the outcomes it has in the whole map."""
    loc = location_by_id(scene1, "dining/south")
    target = _dining_target(scene1)
    params = FeasibilityParams(trials_per_cell=5, nav_sigma_xy=0.08)
    full = trial_outcomes(scene1, loc, target, params)
    mixed = np.argwhere(full.any(axis=2) & ~full.all(axis=2))
    assert len(mixed) >= 3
    for row, col in mixed[:: max(1, len(mixed) // 3)][:3]:
        alone = cell_trial_outcomes(scene1, loc, target, params, int(row), int(col))
        assert np.array_equal(full[row, col], alone)


@pytest.fixture(scope="module")
def oracle_scenes(scene1, scene1_chair_top):
    return {
        "easy": scene1,
        "chair_top": scene1_chair_top,
        "chair_bottom": make_scene(1, "chair_bottom", 42),
        "random": make_scene(1, "random", 42),
    }


@pytest.mark.parametrize("trials", [1, 5, 7])
@pytest.mark.parametrize("sigma", [0.0, 0.01, 0.08])
@pytest.mark.parametrize("environment", ["easy", "chair_top", "chair_bottom", "random"])
def test_trial_outcomes_equal_per_cell_oracle(oracle_scenes, environment, sigma, trials):
    """The batched map reproduces the per-cell loop bit for bit on every side
    of the dining table, for a target near that side."""
    scene = oracle_scenes[environment]
    table = scene.table("dining")
    params = FeasibilityParams(trials_per_cell=trials, nav_sigma_xy=sigma)
    outcomes = []
    for loc in symbolic_locations(scene, "dining"):
        ox, oy = loc.outward
        target = (table.center[0] + 0.6 * ox * table.half_extents[0] + 0.03,
                  table.center[1] + 0.6 * oy * table.half_extents[1] - 0.02)
        got = trial_outcomes(scene, loc, target, params)
        expected = per_cell_trial_outcomes(scene, loc, target, params)
        assert got.shape == expected.shape == (*loc.dims, trials)
        assert np.array_equal(got, expected), loc.id
        outcomes.append(got)
    assert np.any(outcomes) and not np.all(outcomes)


@pytest.mark.parametrize("sigma", [0.0, 0.08])
def test_scaling_after_the_draw_moves_only_zero_signs(sigma):
    """A map draws each cell's standard normals and scales them by σ once;
    the per-cell oracle draws ``normal(0.0, σ)``, that is 0.0 + σ·z. The
    values compare equal and the generators end in one state; only a zero's
    sign differs (σ = 0 makes σ·z a negative zero for every negative z),
    which no arrival test reads. The oracle test runs at σ = 0 for that."""
    scaled, normal = (np.random.Generator(np.random.PCG64(9)) for _ in range(2))
    z = np.empty((40, 2))
    scaled.standard_normal(out=z)
    z *= sigma
    assert (z == normal.normal(0.0, sigma, (40, 2))).all()
    assert scaled.bit_generator.state == normal.bit_generator.state
    if sigma == 0.0:
        assert np.signbit(z).any() and not np.signbit(0.0 + z).any()


def test_trial_outcomes_equal_per_cell_oracle_at_negative_coordinates():
    """A target with both world coordinates negative, whose entropy words
    are masked 48-bit values of two uint32 words each."""
    scene = make_scene(1, "easy", 42)
    loc = location_by_id(scene, "side_left/north")
    target = (-2.13, -1.91)
    params = FeasibilityParams(nav_sigma_xy=0.05)
    got = trial_outcomes(scene, loc, target, params)
    assert np.array_equal(got, per_cell_trial_outcomes(scene, loc, target, params))
    assert got.any() and not got.all()


def test_trial_outcomes_equal_per_cell_oracle_at_a_multi_word_scene_seed():
    """A scene seed of 2**40 is two uint32 entropy words, so every word
    after it moves along by one."""
    scene = make_scene(1, "easy", 2**40)
    loc = location_by_id(scene, "dining/south")
    params = FeasibilityParams(nav_sigma_xy=0.05)
    got = trial_outcomes(scene, loc, _dining_target(scene), params)
    assert np.array_equal(got, per_cell_trial_outcomes(scene, loc, _dining_target(scene), params))
    assert got.any() and not got.all()


def test_trial_outcomes_of_unreachable_bands_are_all_false(monkeypatch):
    """Every band of the walled scene, whose dining bands reach no cell:
    such a band derives streams for a (0, 2) key array and fails every
    trial, as in the oracle."""
    key_shapes = []

    def recording(entropy, keys):
        key_shapes.append(np.shape(keys))
        return pcg64_states(entropy, keys)

    monkeypatch.setattr(feasibility, "pcg64_states", recording)
    scene = _walled_scene()
    nav = navigator_for(scene)
    params = FeasibilityParams(nav_sigma_xy=0.05)
    for table in scene.tables:
        for loc in symbolic_locations(scene, table.id):
            got = trial_outcomes(scene, loc, table.center, params)
            assert got.shape == (8, 24, params.trials_per_cell)
            assert np.array_equal(got, per_cell_trial_outcomes(scene, loc, table.center, params))
            reachable = int(nav.reachable_at(loc.cell_centers().reshape(-1, 2)).sum())
            assert key_shapes[-1] == (reachable, 2), loc.id
            assert table.id != "dining" or not reachable, loc.id
            if not reachable:
                assert not got.any(), loc.id


def _walled_scene():
    """Task 8's easy scene with a wall across the room between the robot
    and the dining table: the dining bands are free but unreachable."""
    base = make_scene(8, "easy", 42)
    wall = ObstacleSpec("wall", (0.0, -1.0), (3.5, 0.05), kind="wall")
    return build_scene(list(base.tables), [wall], [], base.robot_pose, rng_seed=42,
                       grid_origin=(-3.0, -3.5), grid_shape=(130, 120))


def test_usable_band_cells_follow_one_rule():
    """Map sampling and loading stands read one usable-cell rule: a band
    cell is usable when its grid cell is free and in the component of the
    robot's start cell. Unusable cells never succeed a trial."""
    params = FeasibilityParams(trials_per_cell=2)
    free_seen, usable_seen = [], []
    for scene in [make_scene(8, env, 42) for env in ENVIRONMENTS] + [_walled_scene()]:
        nav = navigator_for(scene)
        start = nav.component(nav.cell_of(*scene.robot_pose.xy))
        for table in scene.tables:
            masks = []
            for loc in symbolic_locations(scene, table.id):
                centers = loc.cell_centers().reshape(-1, 2)
                cells = [nav.cell_of(x, y) for x, y in centers]
                free = np.array([nav.is_free(c) for c in cells])
                usable = free & np.array([nav.component(c) == start for c in cells])
                assert np.array_equal(nav.reachable_at(centers), usable), loc.id
                outcomes = trial_outcomes(scene, loc, table.center, params)
                assert not outcomes.reshape(len(centers), -1)[~usable].any(), loc.id
                masks.append(usable)
                free_seen.append(free)
            assert np.array_equal(Router(scene).band(table.id).usable, np.concatenate(masks))
            usable_seen.extend(masks)
    free, usable = np.concatenate(free_seen), np.concatenate(usable_seen)
    assert usable.any() and (~free).any() and (free & ~usable).any()


def test_blocked_side_is_all_zero(scene1_chair_top):
    loc = location_by_id(scene1_chair_top, "dining/north")
    table = scene1_chair_top.table("dining")
    fmap = compute_feasibility_map(
        scene1_chair_top, loc, (table.center[0], table.center[1])
    )
    assert not fmap.values.any()
    assert task_feasibility(fmap) == 0.0


def test_far_table_out_of_reach(scene1):
    """Standing beside one table cannot unload onto another across the room."""
    loc = location_by_id(scene1, "side_left/south")
    table = scene1.table("dining")
    fmap = compute_feasibility_map(scene1, loc, (table.center[0], table.center[1]))
    assert not fmap.values.any()


def test_expected_matches_oracle(scene1):
    loc = location_by_id(scene1, "dining/south")
    fmap = compute_feasibility_map(scene1, loc, _dining_target(scene1))
    assert task_feasibility(fmap) == weighted_mean_feasibility(fmap.values)


def test_cell_probability_matches_noise_integral(scene1):
    """Empirical success at a fixed standing cell matches the Gaussian noise
    mass of the collision-free, in-reach region, to within 0.02 at 10^4
    trials per cell."""
    loc = location_by_id(scene1, "dining/south")
    target = _dining_target(scene1)
    params = FeasibilityParams(trials_per_cell=10_000)
    empirical = trial_outcomes(scene1, loc, target, params).mean(axis=2)

    table_rect = scene1.table("dining").rect
    solid = scene1.solid_rects()
    blocking = [r for r in solid if r != table_rect]

    nav = navigator_for(scene1)
    comps = nav.components_at(loc.cell_centers().reshape(-1, 2)).reshape(loc.dims)
    reachable = comps == nav.component(nav.cell_of(*scene1.robot_pose.xy))

    # The reach boundary cuts through this band, so some cells sit right on
    # it and get genuinely fractional probabilities. Spread the comparison
    # across those, plus one saturated cell of each kind.
    fractional = np.argwhere((empirical > 0.02) & (empirical < 0.98))
    assert len(fractional) >= 4
    stride = max(1, len(fractional) // 6)
    picks = [tuple(rc) for rc in fractional[::stride][:6]]
    picks.append(tuple(np.argwhere(reachable & (empirical == 1.0))[0]))
    picks.append(tuple(np.argwhere(reachable & (empirical == 0.0))[0]))

    for row, col in picks:
        prob = noise_success_probability(
            loc.cell_centers()[row, col],
            target,
            solid,
            blocking,
            scene1.robot_radius,
            params.reach_radius,
            params.nav_sigma_xy,
        )
        assert abs(empirical[row, col] - prob) <= 0.02


@pytest.mark.parametrize("cell", [(0, 18), (1, 19)])
def test_noise_integral_is_exact_on_a_grazing_cell(cell):
    """Reach lines from these cells of task 8 / chair_top graze the chair's
    corner: a line test sampling 129 points reads 0.998 and 0.871 there,
    2049 points 0.968 and 0.846. The exact oracle lies within 4 standard
    errors of 100,000 arrivals judged by the package's own predicates, and
    its noise grid has converged: doubling it moves the value by under
    0.002."""
    scene = make_scene(8, "chair_top", 42)
    loc = location_by_id(scene, "dining/north")
    target = (-0.18, 0.105)
    params = FeasibilityParams(nav_sigma_xy=0.01)
    center = loc.cell_centers()[cell]
    blocking = scene.reach_blockers("dining")
    args = (center, target, scene.solid_rects(), blocking, scene.robot_radius,
            params.reach_radius, params.nav_sigma_xy)
    prob = noise_success_probability(*args)
    assert abs(prob - noise_success_probability(*args, grid_points=321)) < 0.002

    arrivals = center + np.random.default_rng(0).normal(0.0, params.nav_sigma_xy, (100_000, 2))
    reach = np.hypot(arrivals[:, 0] - target[0], arrivals[:, 1] - target[1])
    ok = ~robot_collides_batch(scene, arrivals) & (reach <= params.reach_radius)
    for rect in blocking:
        ok &= ~segments_hit_rect(arrivals, target, rect)
    empirical = ok.mean()
    assert 0.5 < empirical < 0.99
    assert abs(prob - empirical) <= 4 * np.sqrt(empirical * (1 - empirical) / len(ok))


def test_noise_integral_converges_at_sigma_0_05():
    """At sigma 0.05 the reach line of this task 8 / chair_top cell grazes
    the chair corner while the arrival disc nears the table. An axis-aligned
    161-point lattice read 0.6149 there and 0.6188 at 321 points, against
    about 0.620 by Monte Carlo. The turned lattice reads within 0.005 of
    400,000 arrivals judged by the package's own predicates, and doubling
    it moves the value by under 0.001."""
    scene = make_scene(8, "chair_top", 42)
    loc = location_by_id(scene, "dining/north")
    target = (-0.18, 0.105)
    sigma, reach = 0.05, FeasibilityParams().reach_radius
    center = loc.cell_centers()[0, 18]
    blocking = scene.reach_blockers("dining")
    args = (center, target, scene.solid_rects(), blocking, scene.robot_radius, reach, sigma)
    prob = noise_success_probability(*args)
    assert abs(prob - noise_success_probability(*args, grid_points=321)) < 0.001

    arrivals = center + np.random.default_rng(0).normal(0.0, sigma, (400_000, 2))
    ok = ~robot_collides_batch(scene, arrivals)
    ok &= np.hypot(arrivals[:, 0] - target[0], arrivals[:, 1] - target[1]) <= reach
    for rect in blocking:
        ok &= ~segments_hit_rect(arrivals, target, rect)
    assert 0.5 < ok.mean() < 0.7
    assert abs(prob - ok.mean()) <= 0.005


def test_out_of_reach_cells_are_zero(scene1):
    """Cells whose center is beyond reach plus three sigma never succeed."""
    loc = location_by_id(scene1, "dining/south")
    target = _dining_target(scene1)
    params = FeasibilityParams()
    fmap = compute_feasibility_map(scene1, loc, target, params)
    centers = loc.cell_centers()
    dist = np.hypot(centers[..., 0] - target[0], centers[..., 1] - target[1])
    far = dist > params.reach_radius + 3 * params.nav_sigma_xy
    assert far.any()
    assert not fmap.values[far].any()


def test_sample_standing_cell_weighted():
    values = np.zeros((2, 3))
    values[1, 2] = 0.4
    values[0, 1] = 0.0
    fmap = FeasibilityMap("loc", (0.0, 0.0), values)
    rng = np.random.default_rng(0)
    cells = {sample_standing_cell(fmap, rng) for _ in range(50)}
    assert cells == {(1, 2)}  # only nonzero-probability cell ever drawn
    row, col = sample_standing_cell(fmap, rng)
    assert isinstance(row, int) and isinstance(col, int)


def test_sample_standing_cell_uniform_fallback():
    fmap = FeasibilityMap("loc", (0.0, 0.0), np.zeros((2, 2)))
    rng = np.random.default_rng(1)
    counts = np.zeros(4)
    for _ in range(10_000):
        row, col = sample_standing_cell(fmap, rng)
        counts[row * 2 + col] += 1
    assert counts.all()
    assert chisquare(counts).pvalue > 0.01


def _draw_test_maps(seed):
    """42 maps: all-zero, a one-cell support, and per round a quantized map
    like the planner's and a continuous one with zero cells."""
    rng = np.random.default_rng(seed)
    maps = [np.zeros((8, 24)), np.eye(1, 8 * 24, 77).reshape(8, 24) * 0.6]
    for _ in range(20):
        maps.append(rng.integers(0, 6, size=(8, 24)) / 5)
        maps.append(rng.uniform(0.0, 1.0, size=(8, 24)) * (rng.uniform(size=(8, 24)) < 0.3))
    return maps


def test_task_feasibility_is_the_weighted_mean_closed_form():
    """On the same 42 maps the standing-draw oracle uses, the score is the
    oracle's cell-by-cell sum(h^2) / sum(h), and agrees with a plain numpy
    evaluation to 1e-12."""
    maps = _draw_test_maps(1)
    assert len(maps) == 42
    for values in maps:
        fmap = FeasibilityMap("loc", (0.0, 0.0), values)
        exact = weighted_mean_feasibility(values)
        assert task_feasibility(fmap) == exact
        total = values.sum()
        direct = (values * values).sum() / total if total > 0.0 else 0.0
        assert abs(task_feasibility(fmap) - direct) <= 1e-12
        assert fmap.expected is fmap.expected


@pytest.mark.parametrize("seed", [1, 25, 200])
def test_sample_standing_cell_equals_choice_oracle(seed):
    """Drawing from a map's cumulative table takes the cells, and leaves the
    stream state, of the former ``rng.choice(p=...)`` draws, call after
    call: quantized maps like the planner's, continuous maps with zero
    cells, a one-cell support, and an all-zero map."""
    for k, values in enumerate(_draw_test_maps(seed)):
        fmap = FeasibilityMap("loc", (0.0, 0.0), values)
        got_rng, oracle_rng = np.random.default_rng(k), np.random.default_rng(k)
        for _ in range(3):
            assert sample_standing_cell(fmap, got_rng) == choice_standing_cell(fmap, oracle_rng)
            assert got_rng.bit_generator.state == oracle_rng.bit_generator.state


def test_all_zero_map_scores_zero_without_drawing(scene1_chair_top):
    """A map with no feasible cell, built by the package or by hand, scores
    0.0; the score takes no generator, so it draws nothing."""
    loc = location_by_id(scene1_chair_top, "dining/north")
    blocked = compute_feasibility_map(scene1_chair_top, loc, _dining_target(scene1_chair_top))
    assert blocked.cdf is None
    synthetic = FeasibilityMap("loc", (0.0, 0.0), np.zeros((8, 24)))
    for fmap in (blocked, synthetic):
        assert task_feasibility(fmap) == 0.0


# Map values are success fractions k / n of n trials per cell, or any
# value a hand-built map gives (positive ones far above the subnormals,
# whose squares underflow to zero).
_MAP_CELLS = st.one_of(
    st.integers(1, 100).flatmap(
        lambda n: st.lists(st.integers(0, n).map(lambda k: k / n), min_size=1, max_size=64)),
    st.lists(st.just(0.0) | st.floats(1e-6, 1.0), min_size=1, max_size=64),
)


@settings(max_examples=200)
@given(cells=_MAP_CELLS)
def test_task_feasibility_lies_within_the_positive_cells(cells):
    """A weighted mean of the feasible cells' own values lies between the
    smallest positive value and the largest value of the map, up to the
    few roundings of its squares, two sums and quotient (one cell of 0.2
    scores 0.04000000000000001 / 0.2 = 0.20000000000000004)."""
    values = np.array(cells)
    fmap = FeasibilityMap("loc", (0.0, 0.0), values.reshape(1, -1))
    score = task_feasibility(fmap)
    positive = values[values > 0.0]
    rounding = 4 * np.finfo(float).eps
    if not len(positive):
        assert score == 0.0
    else:
        assert positive.min() * (1 - rounding) <= score <= values.max() * (1 + rounding)


def test_cumulative_table_is_built_once_and_read_only():
    values = np.array([[0.0, 0.4], [0.2, 0.4]])
    fmap = FeasibilityMap("loc", (0.0, 0.0), values)
    assert fmap.cdf is fmap.cdf
    assert not fmap.cdf.flags.writeable
    assert fmap.cdf.tolist() == pytest.approx([0.0, 0.4, 0.6, 1.0])
    assert fmap.cdf[-1] == 1.0
    assert FeasibilityMap("loc", (0.0, 0.0), np.zeros((2, 2))).cdf is None


def _seed_sequence_stream(entropy, key):
    """``(state_hi, state_lo, inc_hi, inc_lo)`` of the stream's own PCG64."""
    state = np.random.PCG64(np.random.SeedSequence(entropy, spawn_key=key)).state["state"]
    return _stream_row(state["state"], state["inc"])


def _stream_row(state, inc):
    return [state >> 64, state & (2**64 - 1), inc >> 64, inc & (2**64 - 1)]


def _started(state, inc):
    """A generator at the start of the PCG64 stream ``(state, inc)``, set by
    the package's own loader."""
    gen = np.random.Generator(np.random.PCG64(0))
    next(feasibility._load(gen.bit_generator, np.array([_stream_row(state, inc)], np.uint64)))
    return gen


# Zero, one-word, two-word (>= 2**32) and three-word (>= 2**64) integers.
_ENTROPY_INTS = st.one_of(
    st.just(0),
    st.integers(1, 2**32 - 1),
    st.integers(2**32, 2**64 - 1),
    st.integers(2**64, 2**96),
)


@settings(max_examples=300)
@given(
    entropy=st.one_of(_ENTROPY_INTS, st.lists(_ENTROPY_INTS, max_size=6).map(tuple)),
    keys=st.integers(1, 4).flatmap(
        lambda length: st.lists(
            st.lists(st.integers(0, 2**32 - 1), min_size=length, max_size=length),
            min_size=1, max_size=6,
        )
    ),
)
def test_pcg64_states_equal_seed_sequence_streams(entropy, keys):
    """Each stream's start and first output, its ``random_raw()``."""
    streams, first = pcg64_states(entropy, keys)
    assert streams.dtype == np.uint64
    assert streams.tolist() == [_seed_sequence_stream(entropy, tuple(k)) for k in keys]
    assert first.dtype == np.uint64
    assert first.tolist() == [
        int(np.random.PCG64(np.random.SeedSequence(entropy, spawn_key=tuple(k))).random_raw())
        for k in keys
    ]


# Words shaped like ``_entropy_words`` output: the scene seed, a 64-bit
# location hash, two masked 48-bit target words (2**48 - 1 is a target of
# -1e-6) and the five fingerprint words.
_MASKED_TARGET_WORDS = st.one_of(
    st.sampled_from([0, 2**32, 2**48 - 1]), st.integers(0, 2**48 - 1),
)
_MAP_ENTROPY_WORDS = st.tuples(
    st.one_of(st.just(0), st.integers(0, 2**63)),
    st.one_of(st.just(0), st.integers(2**32, 2**64 - 1)),
    _MASKED_TARGET_WORDS,
    _MASKED_TARGET_WORDS,
    st.lists(st.one_of(st.just(0), st.integers(0, 2**40)), min_size=5, max_size=5),
).map(lambda w: [*w[:4], *w[4]])


@settings(max_examples=300)
@given(words=_MAP_ENTROPY_WORDS, key=st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1)))
def test_entropy_split_once_gives_the_list_seeded_stream(words, key):
    """A map seeds each cell from its entropy words split into one uint32
    array; each cell's SeedSequence state is the one the word list gives."""
    split = np.array(feasibility._uint32_words(words), dtype=np.uint32)
    assert np.array_equal(
        np.random.SeedSequence(split, spawn_key=key).generate_state(4, np.uint64),
        np.random.SeedSequence(words, spawn_key=key).generate_state(4, np.uint64),
    )


@settings(max_examples=25)
@given(scene_seed=st.integers(0, 2**63), round_index=st.integers(0, 10**6))
def test_pcg64_states_equal_the_planner_streams(scene_seed, round_index):
    """The planner's entropy (scene seed, stand seed), with the stand seed a
    re-planning loop would use, and its (m, oi, si, 1) keys."""
    entropy = (scene_seed, (42 << 20) + round_index)
    keys = np.indices((3, 5, 4, 2)).reshape(4, -1).T[1::2]
    expected = [_seed_sequence_stream(entropy, tuple(k)) for k in keys.tolist()]
    assert pcg64_states(entropy, keys)[0].tolist() == expected


def test_pcg64_states_reject_bad_input():
    with pytest.raises(ValueError):
        pcg64_states(-1, [[0]])
    with pytest.raises(ValueError):
        pcg64_states(0, [0, 1])
    with pytest.raises(OverflowError):
        pcg64_states(0, [[2**32]])


def _assert_streams_equal_seed_sequences(entropy, keys):
    """``pcg64_states`` rows and first outputs against each key's own
    ``PCG64(SeedSequence(...))``: its state and its ``random_raw()``."""
    streams, first = pcg64_states(entropy, keys)
    assert streams.shape == (len(keys), 4) and first.shape == (len(keys),)
    assert streams.dtype == first.dtype == np.uint64
    for key, row, word in zip(keys, streams.tolist(), first.tolist()):
        own = np.random.PCG64(np.random.SeedSequence(entropy, spawn_key=tuple(key)))
        state = own.state["state"]
        assert row == _stream_row(state["state"], state["inc"])
        assert word == int(own.random_raw())


def _seed_and_inc(entropy, key):
    """The 128-bit seed and increment PCG64 seeds the key's stream with."""
    words = np.random.SeedSequence(entropy, spawn_key=key).generate_state(4, np.uint64)
    hi_seed, lo_seed, hi_seq, lo_seq = map(int, words)
    return hi_seed << 64 | lo_seed, ((hi_seq << 64 | lo_seq) << 1 | 1) % 2**128


def _first_rotation(entropy, key):
    """The XSL-RR rotation of the stream's first output: the top six bits
    of its state after one step."""
    own = np.random.PCG64(np.random.SeedSequence(entropy, spawn_key=key))
    own.random_raw()
    return own.state["state"]["state"] >> 122


def test_pcg64_states_at_rotations_0_and_63():
    """A first output unrotated, and one rotated by 63, the widest shift
    pair (word >> 63 | word << 1); keys found by search."""
    entropy = (42, 7)
    keys = {}
    for k in range(5000):
        keys.setdefault(_first_rotation(entropy, (k, 1)), (k, 1))
        if 0 in keys and 63 in keys:
            break
    _assert_streams_equal_seed_sequences(entropy, [keys[0], keys[63]])


def test_pcg64_states_where_seed_plus_inc_carries():
    """Keys whose low words of inc + seed carry into the high word, and
    whose full sum wraps past 2**128, next to ones that do neither."""
    entropy = 2**40 + 3
    found = {}
    for k in range(200):
        seed, inc = _seed_and_inc(entropy, (k,))
        carry = (seed & (2**64 - 1)) + (inc & (2**64 - 1)) >= 2**64
        found.setdefault((carry, seed + inc >= 2**128), (k,))
    assert set(found) == {(False, False), (False, True), (True, False), (True, True)}
    _assert_streams_equal_seed_sequences(entropy, list(found.values()))


@pytest.mark.parametrize("keys", [
    np.zeros((0, 2), dtype=np.int64),  # a band that reaches no cell
    [[5, 17]],
    [[0, 0], [2**32 - 1, 2**32 - 1], [0, 2**32 - 1], [2**32 - 1, 0]],
    [[2**32 - 1], [0]],
    [[0, 0, 0, 0], [2**32 - 1] * 4],
], ids=["K=0", "K=1", "edge-words", "edge-words-L1", "edge-words-L4"])
def test_pcg64_states_at_edge_key_counts_and_words(keys):
    _assert_streams_equal_seed_sequences((2**63, 11, 2**48 - 1), np.asarray(keys))


_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # numpy's PCG64 multiplier


def _stream_first_drawing(word, inc=0xDA3E39CB94B95BDB):
    """A PCG64 ``(state, inc)`` whose first output is ``word``: the state one
    step back from one whose halves xor to ``word`` and whose top six bits,
    the output's rotation, are zero."""
    high = 0x0123456789ABCDEF
    after = (high << 64) | (high ^ word)
    return ((after - inc) * pow(_PCG64_MULT, -1, 1 << 128)) % (1 << 128), inc


def _hand_maps():
    """All-zero maps, one positive cell first or last, equal cells, random
    maps, and maps of other sizes than a band's."""
    first, last = np.zeros((8, 24)), np.zeros((8, 24))
    first[0, 0], last[-1, -1] = 0.2, 1.0
    rng = np.random.default_rng(7)
    return [
        np.zeros((8, 24)), first, last, np.full((8, 24), 0.4), np.full((3, 5), 1.0),
        *_draw_test_maps(3)[1:6], rng.uniform(size=(2, 3)), np.zeros((1, 1)), np.ones((1, 1)),
        np.zeros((3, 5)),
    ]


@settings(max_examples=40)
@given(entropy=_ENTROPY_INTS, draws=st.integers(1, 3))
def test_array_draw_equals_choice_oracle_stream_by_stream(entropy, draws):
    """Each map drawn on ``draws`` streams: the array draw's cell is the one
    the former ``rng.choice`` draw makes on a generator built from that
    stream's own SeedSequence."""
    maps = [FeasibilityMap("loc", (0.0, 0.0), values) for values in _hand_maps()] * draws
    keys = [(k, 1) for k in range(len(maps))]
    drawn = feasibility.draw_standing_cells(maps, *pcg64_states(entropy, keys))
    assert drawn.shape == (len(maps),)
    for fmap, key, flat in zip(maps, keys, drawn.tolist()):
        own = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy, spawn_key=key)))
        row, col = choice_standing_cell(fmap, own)
        assert flat == row * fmap.values.shape[1] + col


@pytest.mark.parametrize("values, word, draw", [
    # 2**63 draws exactly 0.5.
    ([0.7, 0.7], 1 << 63, 0.5),
    # The lowest of the 53 bits counts: 0.5 + 2**-53 is the first entry.
    ([0.5 + 2.0**-53, 0.5 - 2.0**-53], (2**52 + 1) << 11, 0.5 + 2.0**-53),
])
def test_array_draw_on_a_cumulative_entry_counts_it(values, word, draw):
    """A draw equal to a cumulative-table entry lands past that cell, as
    ``searchsorted(side="right")`` does."""
    fmap = FeasibilityMap("loc", (0.0, 0.0), np.array([values]))
    stream = _stream_first_drawing(word)
    assert _started(*stream).random() == draw == fmap.cdf[0]
    assert choice_standing_cell(fmap, _started(*stream)) == (0, 1)
    drawn = feasibility.draw_standing_cells(
        [fmap], np.array([_stream_row(*stream)], np.uint64), np.array([word], np.uint64))
    assert drawn.tolist() == [1]


def test_array_draw_redraws_a_word_lemire_rejects():
    """An all-zero map of 192 cells draws ``integers(192)``. A first word
    whose low half is 0 leaves a product of 0, below 2**32 mod 192 = 64, so
    Lemire's method rejects it and draws again from the word's high half:
    the array draw must take the generator's cell, not the rejected word's."""
    word = 0x80000001 << 32
    stream = _stream_first_drawing(word)
    assert int(_started(*stream).bit_generator.random_raw()) == word
    expected = int(_started(*stream).integers(192))
    assert expected == 96  # (0x80000001 * 192) >> 32, not the rejected word's cell 0
    zero = FeasibilityMap("loc", (0.0, 0.0), np.zeros((8, 24)))
    live = FeasibilityMap("loc", (0.0, 0.0), np.full((8, 24), 0.5))
    drawn = feasibility.draw_standing_cells(
        [zero, live], np.array([_stream_row(*stream)] * 2, np.uint64),
        np.array([word, word], np.uint64))
    assert drawn.tolist() == [expected, int(np.searchsorted(live.cdf, 0.5, side="right"))]
    assert choice_standing_cell(zero, _started(*stream)) == divmod(expected, 24)


@pytest.mark.parametrize("trials", [2.5, "3", True, None])
def test_feasibility_params_reject_non_int_trials(trials):
    with pytest.raises(ValueError, match=f"^trials_per_cell must be an int, got {trials!r}$"):
        FeasibilityParams(trials_per_cell=trials)


def test_feasibility_params_accept_numpy_int_trials():
    assert FeasibilityParams(trials_per_cell=np.int64(3)) == FeasibilityParams(trials_per_cell=3)


def test_equal_params_share_a_stored_map():
    """Params hash once, when built, and equal params hash alike, so a
    fresh but equal params object hits the map stored under another."""
    scene = make_scene(1, "easy", 42)
    location = location_by_id(scene, "dining/south")
    first = FeasibilityParams(trials_per_cell=np.int64(2), nav_sigma_xy=0.05)
    again = FeasibilityParams(trials_per_cell=2, nav_sigma_xy=0.05)
    assert hash(first) == hash(again) != hash(FeasibilityParams(trials_per_cell=2))
    fmap = compute_feasibility_map(scene, location, _dining_target(scene), first)
    assert compute_feasibility_map(scene, location, _dining_target(scene), again) is fmap
    assert len(navigator_for(scene).maps) == 1


def test_disabled_debug_line_reads_nothing(monkeypatch, caplog):
    """A computed map's debug line, with the map's mean and max, is built
    only when DEBUG is on for the module's logger."""
    scene = make_scene(1, "easy", 42)
    loc = location_by_id(scene, "dining/south")
    params = FeasibilityParams(trials_per_cell=1)
    caplog.set_level(logging.DEBUG, logger="momaplan.feasibility")
    compute_feasibility_map(scene, loc, _dining_target(scene), params)
    assert [r.getMessage().split(":")[0] for r in caplog.records] == [
        "feasibility map dining/south target (0.00, 0.05)"]
    built = []

    class Quiet:
        def isEnabledFor(self, level):
            return False

        def debug(self, *args):
            built.append(args)

    monkeypatch.setattr(feasibility, "log", Quiet())
    compute_feasibility_map(scene, loc, (0.1, 0.1), params)
    assert built == []


def test_dataset_builder(scene1):
    locs = symbolic_locations(scene1, "dining")
    params = FeasibilityParams(trials_per_cell=2)
    data = build_feasibility_dataset(scene1, locs, n_tasks=3, params=params, seed=7)
    assert len(data) == 3 * 8 * 24 * 2
    assert set(np.unique(data["task"])) == {0, 1, 2}
    again = build_feasibility_dataset(scene1, locs, n_tasks=3, params=params, seed=7)
    assert np.array_equal(data, again)
    # Per-record fields reindex the outcome tensor faithfully.
    first = data[data["task"] == 0]
    loc = location_by_id(scene1, str(first["location"][0]))
    outcomes = trial_outcomes(
        scene1, loc, (first["target_x"][0], first["target_y"][0]), params
    )
    rebuilt = np.zeros_like(outcomes)
    rebuilt[first["row"], first["col"], first["trial"]] = first["success"]
    assert np.array_equal(rebuilt, outcomes)
