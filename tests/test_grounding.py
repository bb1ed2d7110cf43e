import math

import numpy as np
import pytest

from momaplan.goalgen import GeneratedGoal
from momaplan.grounding import (
    COMPONENT_SPACING_M,
    GroundingError,
    GroundingParams,
    nominal_layout,
    sample_configurations,
)
from momaplan.harness import OBJECT_CATALOG
from momaplan.relations import PlacementAtom

from oracles import configuration_is_valid, configuration_valid

TABLE_HE = (0.6, 0.15)
RADII = {name: spec[0] for name, spec in OBJECT_CATALOG.items()}


def make_goal(atoms, distances=None):
    return GeneratedGoal(list(atoms), dict(distances or {}), attempts=1)


def test_nominal_task1(goal1):
    layout = nominal_layout(goal1)
    assert layout.positions["dinner_plate"] == (0.0, 0.0)
    assert layout.positions["dinner_fork"] == pytest.approx((-0.06, 0.0))
    assert layout.positions["dinner_knife"] == pytest.approx((0.06, 0.0))
    assert set(layout.layers.values()) == {0}


def test_nominal_anchor_is_first_object_without_centered():
    goal = make_goal([PlacementAtom("left_of", "a", "b")], {0: 0.06})
    layout = nominal_layout(goal)
    assert layout.positions["a"] == (0.0, 0.0)
    # a sits left of b, so b lands to a's right.
    assert layout.positions["b"] == pytest.approx((0.06, 0.0))


def test_nominal_default_separation():
    goal = make_goal([PlacementAtom("above", "a", "b"), PlacementAtom("centered_on_table", "b")])
    layout = nominal_layout(goal)
    assert layout.positions["a"] == pytest.approx((0.0, 0.10))


def test_nominal_diagonal_separation_is_euclidean():
    goal = make_goal(
        [PlacementAtom("centered_on_table", "b"), PlacementAtom("above_right", "a", "b")],
        {1: 0.08},
    )
    layout = nominal_layout(goal)
    ax, ay = layout.positions["a"]
    assert ax == pytest.approx(0.08 / math.sqrt(2))
    assert ay == pytest.approx(0.08 / math.sqrt(2))
    assert math.hypot(ax, ay) == pytest.approx(0.08)


def test_nominal_stacking_inherits_position():
    goal = make_goal(
        [
            PlacementAtom("centered_on_table", "fruit_bowl"),
            PlacementAtom("on_top_of", "strawberry", "fruit_bowl"),
        ]
    )
    layout = nominal_layout(goal)
    assert layout.positions["strawberry"] == layout.positions["fruit_bowl"]
    assert layout.layers["fruit_bowl"] == 0
    assert layout.layers["strawberry"] == 1


def test_nominal_disconnected_components_spread_out():
    goal = make_goal(
        [PlacementAtom("left_of", "a", "b"), PlacementAtom("left_of", "c", "d")],
        {0: 0.05, 1: 0.05},
    )
    layout = nominal_layout(goal)
    assert layout.positions["a"] == (0.0, 0.0)
    assert layout.positions["c"] == (COMPONENT_SPACING_M, 0.0)
    assert layout.positions["b"] != layout.positions["d"]


def test_sample_count_and_validity(goal1):
    rng = np.random.default_rng(7)
    params = GroundingParams(configurations=8)
    result = sample_configurations(goal1, RADII, TABLE_HE, rng, params)
    assert len(result.configurations) == 8
    for config in result.configurations:
        assert configuration_is_valid(config, goal1.atoms, RADII, TABLE_HE)
        assert configuration_valid(config, goal1.atoms, RADII, TABLE_HE)
    # Noise actually perturbs: the batch is not M copies of the nominal.
    plates = {config.positions["dinner_plate"] for config in result.configurations}
    assert len(plates) > 1


def test_sampling_is_deterministic_per_seed(goal1):
    a = sample_configurations(goal1, RADII, TABLE_HE, np.random.default_rng(3))
    b = sample_configurations(goal1, RADII, TABLE_HE, np.random.default_rng(3))
    assert [c.positions for c in a.configurations] == [c.positions for c in b.configurations]
    c = sample_configurations(goal1, RADII, TABLE_HE, np.random.default_rng(4))
    assert [x.positions for x in a.configurations] != [x.positions for x in c.configurations]


def test_sampled_stack_rides_its_support():
    goal = make_goal(
        [
            PlacementAtom("centered_on_table", "mug"),
            PlacementAtom("on_top_of", "mug_lid", "mug"),
        ]
    )
    result = sample_configurations(goal, RADII, TABLE_HE, np.random.default_rng(0))
    for config in result.configurations:
        assert config.positions["mug_lid"] == config.positions["mug"]
        assert config.layers["mug_lid"] == config.layers["mug"] + 1


def test_support_is_placed_before_rider_even_when_mentioned_later():
    # The rider comes first in the atom list; placement order must still
    # put the mug underneath it first.
    goal = make_goal([PlacementAtom("on_top_of", "mug_lid", "mug")])
    result = sample_configurations(goal, RADII, TABLE_HE, np.random.default_rng(1))
    for config in result.configurations:
        assert config.layers["mug"] == 0
        assert config.layers["mug_lid"] == 1


def test_impossible_footprint_raises():
    goal = make_goal([PlacementAtom("centered_on_table", "dinner_plate")])
    with pytest.raises(GroundingError, match="no valid sample"):
        sample_configurations(goal, {"dinner_plate": 0.5}, TABLE_HE, np.random.default_rng(0))


def test_missing_radius_raises():
    goal = make_goal([PlacementAtom("centered_on_table", "dinner_plate")])
    with pytest.raises(KeyError, match="no footprint radius"):
        sample_configurations(goal, {}, TABLE_HE, np.random.default_rng(0))


def test_configuration_valid_rejects_corruption(goal1):
    result = sample_configurations(goal1, RADII, TABLE_HE, np.random.default_rng(2))
    good = result.configurations[0]
    off_table = dict(good.positions)
    off_table["dinner_fork"] = (5.0, 0.0)
    bad = type(good)(off_table, dict(good.layers))
    assert not configuration_valid(bad, goal1.atoms, RADII, TABLE_HE)
    assert not configuration_is_valid(bad, goal1.atoms, RADII, TABLE_HE)


def test_random_goals_sample_cleanly():
    """Sampled batches over assorted consistent goals always re-validate."""
    rng = np.random.default_rng(11)
    radii = {f"obj{i}": 0.01 for i in range(4)}
    from momaplan.relations import check_consistency

    from oracles import random_relation_set

    checked = 0
    for _ in range(200):
        triples = random_relation_set(rng, max_objects=4, max_atoms=4)
        atoms = []
        for rel, subject, reference in triples:
            if rel == "on_top_of":
                continue  # tiny equal radii stack fine, but keep this planar
            atom = PlacementAtom(rel, subject, reference)
            if atom not in atoms:
                atoms.append(atom)
        if not atoms or not check_consistency(atoms).consistent:
            continue
        goal = make_goal(atoms, {i: 0.05 for i, a in enumerate(atoms) if a.reference})
        try:
            result = sample_configurations(
                goal, radii, TABLE_HE, np.random.default_rng(checked), GroundingParams(configurations=3)
            )
        except GroundingError:
            # Consistent goals can still be metrically cramped; that is a
            # legitimate outcome, not a correctness bug.
            continue
        for config in result.configurations:
            assert configuration_is_valid(config, atoms, radii, TABLE_HE)
        checked += 1
    assert checked > 100
