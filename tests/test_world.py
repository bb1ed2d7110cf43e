import dataclasses
import math

import numpy as np
import pytest

from oracles import band_cell_center, grid_cell_center, rasterize_by_point_test
from momaplan.world import (
    BAND_CELL_SIZE,
    BAND_COLS,
    BAND_OFFSET,
    BAND_ROWS,
    ObjectSpec,
    ObstacleSpec,
    Pose2D,
    SceneError,
    TableSpec,
    build_scene,
    load_scene,
    location_by_id,
    save_scene,
    scene_from_dict,
    scene_to_dict,
    symbolic_locations,
)


def _tiny_scene(**overrides):
    kwargs = dict(
        tables=[TableSpec("work", (0.0, 0.0), (0.5, 0.3))],
        obstacles=[],
        objects=[ObjectSpec("cup", 0.03, "work")],
        robot_pose=Pose2D(0.0, -1.5, math.pi / 2),
        rng_seed=1,
    )
    kwargs.update(overrides)
    return build_scene(**kwargs)


def test_pose_wraps_theta():
    p = Pose2D(1.0, 2.0, 3 * math.pi)
    assert p.theta == pytest.approx(math.pi)
    assert p.xy == (1.0, 2.0)
    assert p.distance_to(Pose2D(4.0, 6.0)) == pytest.approx(5.0)


def test_table_frame_round_trip():
    t = TableSpec("t", (2.0, -1.0), (0.6, 0.15))
    assert t.to_table_frame(*t.to_world(0.1, -0.05)) == pytest.approx((0.1, -0.05))
    assert t.to_world(0.0, 0.0) == (2.0, -1.0)


def test_grid_cell_center_round_trip(scene1):
    grid = scene1.grid
    for cell in [(0, 0), (10, 20), (grid.shape[0] - 1, grid.shape[1] - 1)]:
        assert grid.cell_of(*grid_cell_center(grid, cell)) == cell
    assert not grid.in_bounds((-1, 0))
    assert not grid.is_free((grid.shape[0], 0))


def test_bands_sit_at_declared_offsets(scene1):
    table = scene1.table("dining")
    hx, hy = table.half_extents
    for loc in symbolic_locations(scene1, "dining"):
        ox, oy = loc.outward
        assert math.hypot(ox, oy) == pytest.approx(1.0)
        near_edge = {"north": hy, "south": hy, "east": hx, "west": hx}[loc.side]
        # Row 0 centers sit half a cell beyond the band offset.
        x0, y0 = loc.cell_centers()[0, BAND_COLS // 2]
        along = (x0 - table.center[0]) * ox + (y0 - table.center[1]) * oy
        assert along == pytest.approx(near_edge + BAND_OFFSET + BAND_CELL_SIZE / 2)
        x7, y7 = loc.cell_centers()[BAND_ROWS - 1, 0]
        along7 = (x7 - table.center[0]) * ox + (y7 - table.center[1]) * oy
        assert along7 == pytest.approx(
            near_edge + BAND_OFFSET + (BAND_ROWS - 0.5) * BAND_CELL_SIZE
        )


def test_band_cell_centers_array_matches_scalar(scene1):
    for loc in symbolic_locations(scene1, "dining"):
        centers = loc.cell_centers()
        assert centers.shape == (BAND_ROWS, BAND_COLS, 2)
        for row in range(BAND_ROWS):
            for col in range(BAND_COLS):
                assert tuple(centers[row, col]) == band_cell_center(loc, row, col)
        assert loc.cell_centers() is centers
        with pytest.raises(ValueError):
            centers[0, 0, 0] = 0.0


def test_location_by_id(scene1):
    loc = location_by_id(scene1, "dining/east")
    assert loc.side == "east"
    assert loc.table_id == "dining"
    with pytest.raises(KeyError):
        location_by_id(scene1, "dining/up")


def test_rasterize_matches_point_in_rect_oracle():
    # Half extents chosen so no rectangle edge lands exactly on a cell
    # center; the boundary-inclusion convention is checked in the exact
    # closed form either way.
    scene = _tiny_scene(
        tables=[TableSpec("work", (0.0, 0.0), (0.515, 0.315))],
        obstacles=[ObstacleSpec("chair", (0.03, 0.63), (0.21, 0.18))],
        resolution=0.1,
    )
    rects = scene.solid_rects()
    expected = rasterize_by_point_test(
        rects, scene.grid.resolution, scene.grid.origin, scene.grid.shape
    )
    assert np.array_equal(scene.grid.occupied, expected)


def test_reach_blockers_are_the_other_solid_rects(scene1_chair_top):
    scene = scene1_chair_top
    assert scene.solid_rects() is scene.solid_rects()
    for table in scene.tables:
        blockers = scene.reach_blockers(table.id)
        assert table.rect not in blockers
        assert len(blockers) == len(scene.solid_rects()) - 1
        assert set(blockers) | {table.rect} == set(scene.solid_rects())


def test_lookups_by_id_keep_the_first_match(scene1):
    extra = TableSpec("dining", (9.0, 9.0), (0.5, 0.5))
    doubled = dataclasses.replace(
        scene1, tables=scene1.tables + (extra,), objects=scene1.objects * 2
    )
    assert doubled.table("dining") is scene1.table("dining")
    for obj in scene1.objects:
        assert doubled.object(obj.id) is obj
    with pytest.raises(KeyError, match="unknown table 'attic'"):
        scene1.table("attic")
    with pytest.raises(KeyError, match="unknown object 'anvil'"):
        scene1.object("anvil")


def test_auto_spread_keeps_objects_apart():
    scene = _tiny_scene(
        objects=[
            ObjectSpec("a", 0.04, "work"),
            ObjectSpec("b", 0.04, "work"),
            ObjectSpec("c", 0.04, "work"),
        ]
    )
    positions = [o.initial_position for o in scene.objects]
    assert all(p is not None for p in positions)
    for i, (ax, ay) in enumerate(positions):
        for bx, by in positions[i + 1 :]:
            assert math.hypot(ax - bx, ay - by) >= 0.08


def test_validation_rejects_duplicate_ids():
    with pytest.raises(SceneError, match="duplicate"):
        _tiny_scene(
            objects=[ObjectSpec("cup", 0.03, "work"), ObjectSpec("cup", 0.03, "work")]
        )


def test_validation_rejects_overlapping_furniture():
    with pytest.raises(SceneError, match="overlaps"):
        _tiny_scene(
            obstacles=[ObstacleSpec("chair", (0.4, 0.0), (0.3, 0.3))]
        )


def test_validation_rejects_object_off_table():
    with pytest.raises(SceneError, match="falls off"):
        _tiny_scene(
            objects=[ObjectSpec("cup", 0.03, "work", initial_position=(0.49, 0.0))]
        )


def test_validation_rejects_unknown_table():
    with pytest.raises(SceneError, match="unknown table"):
        _tiny_scene(objects=[ObjectSpec("cup", 0.03, "desk")])


def test_validation_rejects_colliding_robot():
    with pytest.raises(SceneError, match="collides"):
        _tiny_scene(robot_pose=Pose2D(0.0, -0.55, math.pi / 2))


def test_scene_dict_round_trip(scene1):
    data = scene_to_dict(scene1)
    clone = scene_from_dict(data)
    assert scene_to_dict(clone) == data
    assert np.array_equal(clone.grid.occupied, scene1.grid.occupied)


def test_scene_file_round_trip(tmp_path, scene1):
    path = tmp_path / "scene.yaml"
    save_scene(scene1, path)
    clone = load_scene(path)
    assert scene_to_dict(clone) == scene_to_dict(scene1)


def test_scene_from_dict_rejects_bad_version():
    with pytest.raises(SceneError, match="format_version"):
        scene_from_dict({"format_version": 99})
    with pytest.raises(SceneError):
        scene_from_dict(["not", "a", "mapping"])


@pytest.mark.parametrize(
    "section, key, value, message",
    [
        ("tables", "center", [0.0], "center must be two floats"),
        ("tables", "half_extents", [0.6, "wide"], "half_extents must be two floats"),
        ("tables", "half_extents", [0.0, 0.15], "half extents must be positive"),
        ("grid", "shape", [115.0, 162.0], "shape must be two ints"),
        ("grid", "shape", [10_000_000, 10_000_000], "exceeds the limit of 1000000"),
        ("robot", "x", "left", "malformed scene entry"),
        ("robot", "radius", -0.1, "robot radius must be non-negative and finite, got -0.1"),
        ("robot", "radius", float("nan"), "robot radius must be non-negative and finite, got nan"),
        ("robot", "radius", float("inf"), "robot radius must be non-negative and finite, got inf"),
    ],
)
def test_scene_from_dict_rejects_malformed_entries(scene1, section, key, value, message):
    data = scene_to_dict(scene1)
    entry = data[section][0] if section == "tables" else data[section]
    entry[key] = value
    with pytest.raises(SceneError, match=message):
        scene_from_dict(data)
    data[section] = ["not", "a", "mapping"]
    with pytest.raises(SceneError, match="malformed scene entry"):
        scene_from_dict(data)


def test_scene_from_dict_rejects_a_negative_seed(scene1):
    data = scene_to_dict(scene1)
    data["seed"] = -3
    with pytest.raises(SceneError, match="seed must be non-negative, got -3"):
        scene_from_dict(data)
    data["seed"] = 0
    assert scene_from_dict(data).rng_seed == 0


def test_auto_sized_grid_over_the_cell_limit_is_refused(scene1):
    data = scene_to_dict(scene1)
    data["grid"] = {"resolution": 1e-4}  # the same room at 0.1 mm
    with pytest.raises(SceneError, match="57500 x 81000 cells exceeds the limit"):
        scene_from_dict(data)


def test_bundled_scene_fixture_loads():
    from importlib.resources import files

    path = files("momaplan").joinpath("fixtures/scenes/dining_3tables.scene")
    scene = scene_from_dict(__import__("yaml").safe_load(path.read_text("utf-8")))
    assert {t.id for t in scene.tables} == {"dining", "side_left", "side_right"}
    assert len(scene.objects) == 3
