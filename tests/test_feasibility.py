import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import chisquare

from momaplan.feasibility import (
    FeasibilityMap,
    FeasibilityParams,
    build_feasibility_dataset,
    compute_feasibility_map,
    expected_task_feasibility,
    pcg64_states,
    sample_standing_cell,
    task_feasibility,
    trial_outcomes,
)
from momaplan import feasibility
from momaplan.harness import ENVIRONMENTS, make_scene
from momaplan.motion import MAX_MAPS, navigator_for
from momaplan.planning import Router
from momaplan.world import ObstacleSpec, build_scene, location_by_id, symbolic_locations

from oracles import (
    cell_trial_outcomes,
    choice_standing_cell,
    noise_success_probability,
    per_cell_trial_outcomes,
    scalar_task_feasibility,
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
    assert (again.location_id, again.target, again.params) == (
        first.location_id, first.target, first.params)
    assert again.values.dtype == first.values.dtype
    assert again.values.tobytes() == first.values.tobytes()
    assert 0.0 < first.values.mean() < 1.0


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
@pytest.mark.parametrize("sigma", [0.01, 0.08])
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
    assert expected_task_feasibility(fmap) == 0.0


def test_far_table_out_of_reach(scene1):
    """Standing beside one table cannot unload onto another across the room."""
    loc = location_by_id(scene1, "side_left/south")
    table = scene1.table("dining")
    fmap = compute_feasibility_map(scene1, loc, (table.center[0], table.center[1]))
    assert not fmap.values.any()


def test_expected_matches_oracle(scene1):
    loc = location_by_id(scene1, "dining/south")
    fmap = compute_feasibility_map(scene1, loc, _dining_target(scene1))
    assert expected_task_feasibility(fmap) == pytest.approx(
        weighted_mean_feasibility(fmap.values)
    )


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


def test_out_of_reach_cells_are_zero(scene1):
    """Cells whose center is beyond reach plus three sigma never succeed."""
    loc = location_by_id(scene1, "dining/south")
    target = _dining_target(scene1)
    fmap = compute_feasibility_map(scene1, loc, target)
    centers = loc.cell_centers()
    dist = np.hypot(centers[..., 0] - target[0], centers[..., 1] - target[1])
    far = dist > fmap.params.reach_radius + 3 * fmap.params.nav_sigma_xy
    assert far.any()
    assert not fmap.values[far].any()


def test_sample_standing_cell_weighted():
    values = np.zeros((2, 3))
    values[1, 2] = 0.4
    values[0, 1] = 0.0
    fmap = FeasibilityMap("loc", (0.0, 0.0), values, FeasibilityParams())
    rng = np.random.default_rng(0)
    cells = {sample_standing_cell(fmap, rng) for _ in range(50)}
    assert cells == {(1, 2)}  # only nonzero-probability cell ever drawn
    row, col = sample_standing_cell(fmap, rng)
    assert isinstance(row, int) and isinstance(col, int)


def test_sample_standing_cell_uniform_fallback():
    fmap = FeasibilityMap("loc", (0.0, 0.0), np.zeros((2, 2)), FeasibilityParams())
    rng = np.random.default_rng(1)
    counts = np.zeros(4)
    for _ in range(10_000):
        row, col = sample_standing_cell(fmap, rng)
        counts[row * 2 + col] += 1
    assert counts.all()
    assert chisquare(counts).pvalue > 0.01


def test_manipulation_feasibility_reads_cell():
    values = np.array([[0.2, 0.8]])
    fmap = FeasibilityMap("loc", (0.0, 0.0), values, FeasibilityParams())
    assert fmap.value_at((0, 1)) == 0.8


def test_task_feasibility_estimates_weighted_mean():
    rng = np.random.default_rng(9)
    values = rng.uniform(0.0, 1.0, size=(8, 24))
    fmap = FeasibilityMap("loc", (0.0, 0.0), values, FeasibilityParams())
    exact = weighted_mean_feasibility(values)
    estimate = task_feasibility(fmap, np.random.default_rng(5), draws=20000)
    assert estimate == pytest.approx(exact, abs=0.01)


@pytest.mark.parametrize("draws", [1, 25, 200])
def test_task_feasibility_equals_scalar_draw_oracle(draws):
    """Drawing from a map's cumulative table takes the cells, and leaves the
    stream state, of the former ``rng.choice(p=...)`` draws, call after
    call: quantized maps like the planner's, continuous maps with zero
    cells, a one-cell support, and an all-zero map."""
    rng = np.random.default_rng(draws)
    maps = [np.zeros((8, 24)), np.eye(1, 8 * 24, 77).reshape(8, 24) * 0.6]
    for _ in range(20):
        maps.append(rng.integers(0, 6, size=(8, 24)) / 5)
        maps.append(rng.uniform(0.0, 1.0, size=(8, 24)) * (rng.uniform(size=(8, 24)) < 0.3))
    for k, values in enumerate(maps):
        fmap = FeasibilityMap("loc", (0.0, 0.0), values, FeasibilityParams())
        got_rng, oracle_rng = np.random.default_rng(k), np.random.default_rng(k)
        for _ in range(3):
            got = task_feasibility(fmap, got_rng, draws=draws)
            assert got == scalar_task_feasibility(fmap, oracle_rng, draws=draws)
            assert got_rng.bit_generator.state == oracle_rng.bit_generator.state
            assert sample_standing_cell(fmap, got_rng) == choice_standing_cell(fmap, oracle_rng)
            assert got_rng.bit_generator.state == oracle_rng.bit_generator.state
    assert task_feasibility(FeasibilityMap("loc", (0.0, 0.0), maps[0], FeasibilityParams()),
                            np.random.default_rng(0)) == 0.0


def test_all_zero_map_scores_zero_without_drawing(scene1_chair_top):
    """The planner skips loading a stream for an all-zero map because
    ``task_feasibility`` scores it 0.0 and leaves the generator's state as
    it was, whatever that state and the draw count."""
    loc = location_by_id(scene1_chair_top, "dining/north")
    blocked = compute_feasibility_map(scene1_chair_top, loc, _dining_target(scene1_chair_top))
    assert blocked.cdf is None
    synthetic = FeasibilityMap("loc", (0.0, 0.0), np.zeros((8, 24)), FeasibilityParams())
    rng = np.random.default_rng(3)
    rng.random(7)
    state = rng.bit_generator.state
    for fmap in (blocked, synthetic):
        for draws in (None, 1, 25):
            assert task_feasibility(fmap, rng, draws) == 0.0
            assert rng.bit_generator.state == state


def test_cumulative_table_is_built_once_and_read_only():
    values = np.array([[0.0, 0.4], [0.2, 0.4]])
    fmap = FeasibilityMap("loc", (0.0, 0.0), values, FeasibilityParams())
    assert fmap.cdf is fmap.cdf
    assert not fmap.cdf.flags.writeable
    assert fmap.cdf.tolist() == pytest.approx([0.0, 0.4, 0.6, 1.0])
    assert fmap.cdf[-1] == 1.0
    assert FeasibilityMap("loc", (0.0, 0.0), np.zeros((2, 2)), FeasibilityParams()).cdf is None


def _seed_sequence_stream(entropy, key):
    state = np.random.PCG64(np.random.SeedSequence(entropy, spawn_key=key)).state["state"]
    return state["state"], state["inc"]


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
    assert pcg64_states(entropy, keys) == [_seed_sequence_stream(entropy, tuple(k)) for k in keys]


@settings(max_examples=25)
@given(scene_seed=st.integers(0, 2**63), round_index=st.integers(0, 10**6))
def test_pcg64_states_equal_the_planner_streams(scene_seed, round_index):
    """The planner's entropy (scene seed, stand seed), with the stand seed a
    re-planning loop would use, and its (m, oi, si, t) keys."""
    entropy = (scene_seed, (42 << 20) + round_index)
    keys = np.indices((3, 5, 4, 2)).reshape(4, -1).T
    expected = [_seed_sequence_stream(entropy, tuple(k)) for k in keys.tolist()]
    assert pcg64_states(entropy, keys) == expected


def test_pcg64_states_reject_bad_input():
    with pytest.raises(ValueError):
        pcg64_states(-1, [[0]])
    with pytest.raises(ValueError):
        pcg64_states(0, [0, 1])
    with pytest.raises(OverflowError):
        pcg64_states(0, [[2**32]])


def test_task_feasibility_error_shrinks_with_draws():
    rng = np.random.default_rng(2)
    values = rng.uniform(0.0, 1.0, size=(8, 24))
    fmap = FeasibilityMap("loc", (0.0, 0.0), values, FeasibilityParams())
    exact = weighted_mean_feasibility(values)
    errors = {}
    for draws in (100, 10000):
        reps = [
            abs(task_feasibility(fmap, np.random.default_rng(1000 + r), draws=draws) - exact)
            for r in range(20)
        ]
        errors[draws] = float(np.mean(reps))
    assert errors[10000] < errors[100]


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
