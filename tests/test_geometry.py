import dataclasses
import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from momaplan.geometry import (
    Rect,
    rect_distances,
    segment_clearance,
    segment_hits_rect,
    segment_rect_distance,
    segments_hit_rect,
    wrap_angle,
)
from momaplan.harness import ENVIRONMENTS, make_scene
from momaplan.motion import robot_collides
from oracles import _generator_robot_collides, disc_hits_rect, slab_segment_hits_rect

finite = st.floats(-1e4, 1e4, allow_nan=False, allow_infinity=False)


@given(finite)
def test_wrap_angle_range_and_equivalence(theta):
    wrapped = wrap_angle(theta)
    assert -math.pi < wrapped <= math.pi
    # Same direction on the unit circle.
    assert math.isclose(math.cos(wrapped), math.cos(theta), abs_tol=1e-9)
    assert math.isclose(math.sin(wrapped), math.sin(theta), abs_tol=1e-9)


def test_wrap_angle_boundary():
    assert wrap_angle(math.pi) == pytest.approx(math.pi)
    assert wrap_angle(-math.pi) == pytest.approx(math.pi)
    assert wrap_angle(3 * math.pi) == pytest.approx(math.pi)


def test_rect_rejects_degenerate_extents():
    with pytest.raises(ValueError):
        Rect(0, 0, 0.0, 1.0)
    with pytest.raises(ValueError):
        Rect(0, 0, 1.0, -0.5)


def test_rect_contains_and_distance():
    r = Rect(1.0, 2.0, 0.5, 0.25)
    assert r.contains(1.0, 2.0)
    assert r.contains(1.5, 2.25)  # corner is inside (closed)
    assert not r.contains(1.51, 2.0)
    assert r.distance_to(1.0, 2.0) == 0.0
    assert r.distance_to(2.5, 2.0) == pytest.approx(1.0)
    assert r.distance_to(1.5 + 3.0, 2.25 + 4.0) == pytest.approx(5.0)


@given(finite, finite, st.floats(1e-3, 1e3), st.floats(1e-3, 1e3))
def test_rect_stores_its_bounds(cx, cy, hx, hy):
    """Bounds are computed once, with the same arithmetic as ``cx ± hx``;
    ``replace`` recomputes them, and equality, hashing and repr still see
    only the four defining fields."""
    r = Rect(cx, cy, hx, hy)
    assert (r.x_min, r.x_max, r.y_min, r.y_max) == (cx - hx, cx + hx, cy - hy, cy + hy)
    moved = dataclasses.replace(r, cx=cx + 1.0, hy=hy * 2.0)
    assert (moved.x_min, moved.x_max) == ((cx + 1.0) - hx, (cx + 1.0) + hx)
    assert (moved.y_min, moved.y_max) == (cy - hy * 2.0, cy + hy * 2.0)
    assert r == Rect(cx, cy, hx, hy) and r != moved
    assert hash(r) == hash((cx, cy, hx, hy))
    assert repr(r) == f"Rect(cx={cx!r}, cy={cy!r}, hx={hx!r}, hy={hy!r})"


def test_rect_overlaps_open_interiors():
    a = Rect(0, 0, 1, 1)
    assert a.overlaps(Rect(1.5, 0, 1, 1))
    assert not a.overlaps(Rect(2.0, 0, 1, 1))  # edge contact only
    assert not a.overlaps(Rect(3.0, 0, 1, 1))
    assert a.overlaps(a)


@given(
    st.floats(-3, 3), st.floats(-3, 3),
    st.floats(0.01, 2.0),
    st.floats(-1, 1), st.floats(-1, 1),
    st.floats(0.05, 1.0), st.floats(0.05, 1.0),
)
def test_disc_hits_rect_matches_sampled_boundary(x, y, radius, cx, cy, hx, hy):
    """Analytic disc test vs dense sampling of the disc boundary + center."""
    rect = Rect(cx, cy, hx, hy)
    angles = np.linspace(0, 2 * math.pi, 720, endpoint=False)
    pts_inside = rect.contains(x, y) or any(
        rect.contains(x + radius * math.cos(a), y + radius * math.sin(a)) for a in angles
    )
    hit = disc_hits_rect(x, y, radius, rect)
    if pts_inside:
        assert hit
    # A miss reported by sampling can still be a true hit (disc interior may
    # clip a corner the boundary samples straddle), so only check one way
    # plus the exact distance criterion.
    assert hit == (rect.distance_to(x, y) <= radius)


def test_disc_hits_rect_batch_agrees_with_scalar():
    rng = np.random.default_rng(5)
    rect = Rect(0.3, -0.2, 0.4, 0.6)
    pts = rng.uniform(-2, 2, size=(500, 2))
    batch = rect_distances(rect, pts[:, 0], pts[:, 1]) <= 0.3
    scalar = np.array([disc_hits_rect(px, py, 0.3, rect) for px, py in pts])
    assert np.array_equal(batch, scalar)


def _segment_hit_sampled(p0, p1, rect, n=2000):
    ts = np.linspace(0.0, 1.0, n)
    xs = p0[0] + (p1[0] - p0[0]) * ts
    ys = p0[1] + (p1[1] - p0[1]) * ts
    return any(rect.contains(x, y) for x, y in zip(xs, ys))


def test_segment_hits_rect_examples():
    rect = Rect(0, 0, 1, 1)
    assert segment_hits_rect((-2, 0), (2, 0), rect)  # straight through
    assert segment_hits_rect((0, 0), (5, 5), rect)  # starts inside
    assert not segment_hits_rect((-2, 1.01), (2, 1.01), rect)  # parallel above
    assert segment_hits_rect((-2, 1.0), (2, 1.0), rect)  # grazing the edge
    assert not segment_hits_rect((2, 2), (3, -3), rect)  # passes corner outside


def test_segment_hits_rect_vs_dense_sampling():
    rng = np.random.default_rng(11)
    rect = Rect(0.1, -0.3, 0.5, 0.4)
    mismatches = 0
    for _ in range(300):
        p0 = tuple(rng.uniform(-2, 2, size=2))
        p1 = tuple(rng.uniform(-2, 2, size=2))
        exact = segment_hits_rect(p0, p1, rect)
        sampled = _segment_hit_sampled(p0, p1, rect)
        if sampled:
            assert exact, f"sampling found a hit the slab test missed: {p0} {p1}"
        elif exact:
            # The slab test can catch thin clips the sampling stride misses;
            # verify by distance from the segment to the rect center region.
            mismatches += 1
    assert mismatches < 10  # thin-clip disagreements should be rare


def test_segments_hit_rect_matches_scalar():
    rng = np.random.default_rng(3)
    rect = Rect(-0.2, 0.4, 0.3, 0.7)
    end = (0.5, -1.0)
    starts = rng.uniform(-2, 2, size=(400, 2))
    batch = segments_hit_rect(starts, end, rect)
    scalar = np.array([segment_hits_rect((sx, sy), end, rect) for sx, sy in starts])
    assert np.array_equal(batch, scalar)


# ---------------------------------------------------------------------------
# The exact early-outs of ``robot_collides`` and ``segment_hits_rect``
# against their referees, at points within 1e-12..1e-6 of every edge and
# corner of every solid rectangle and reach blocker of the four benchmark
# environments, grown by the robot radius (the collision early-out's
# threshold lies 1e-9 beyond that, the reach line's 1e-9 beyond the
# rectangle itself).

_SCENES = [make_scene(1, environment, 42) for environment in ENVIRONMENTS]
_RADIUS = _SCENES[0].robot_radius
_BLOCKERS = sorted({rect for scene in _SCENES for table in scene.tables
                    for rect in scene.reach_blockers(table.id)},
                   key=lambda r: (r.cx, r.cy, r.hx, r.hy))
# Besides 1e-12..1e-6, steps of about one and two ulps of a coordinate
# near 2 m, where rounding decides ties.
_NUDGES = sorted({sign * d for sign in (-1.0, 1.0)
                  for d in (0.0, 4.4e-16, 8.9e-16, 1e-12, 1e-10, 5e-10, 1e-9, 2e-9, 1e-8, 1e-6)})
nudge = st.one_of(st.just(0.0), st.floats(1e-12, 1e-6), st.floats(-1e-6, -1e-12))


def _edge_points(rect, grow):
    """Points on each edge of ``rect`` grown by ``grow`` (its ends, the
    ungrown corners' lines and its middle), keyed by side."""
    x0, x1, y0, y1 = rect.x_min - grow, rect.x_max + grow, rect.y_min - grow, rect.y_max + grow
    ys = (y0, rect.y_min, rect.cy, rect.y_max, y1)
    xs = (x0, rect.x_min, rect.cx, rect.x_max, x1)
    return {"west": [(x0, y) for y in ys], "east": [(x1, y) for y in ys],
            "south": [(x, y0) for x in xs], "north": [(x, y1) for x in xs]}


def _anchors(rect, grow):
    """Every edge point, plus points on the rounded corners of the grown
    rectangle, where the disc test's own boundary runs."""
    points = sorted({p for side in _edge_points(rect, grow).values() for p in side})
    for cx, sx in ((rect.x_min, -1.0), (rect.x_max, 1.0)):
        for cy, sy in ((rect.y_min, -1.0), (rect.y_max, 1.0)):
            points += [(cx + sx * grow * math.cos(a), cy + sy * grow * math.sin(a))
                       for a in (0.1, math.pi / 4, 1.4)]
    return points


def test_early_outs_leave_rounding_ties_to_the_full_tests():
    """Where the full tests decide by a tie or by rounding, the slack hands
    the case to them: a disc exactly one radius off an edge touches it, and
    a segment ending 5e-17 short of an edge hits it once its delta rounds
    to 1.0."""
    rect = Rect(0.6, 0.0, 0.6, 0.15)  # x_min is exactly 0
    scene = SimpleNamespace(robot_radius=0.3, solid_rects=lambda: (rect,))
    assert rect.x_min - -0.3 == scene.robot_radius
    assert robot_collides(scene, -0.3, 0.0) and _generator_robot_collides(scene, -0.3, 0.0)
    p0, p1 = (-1.0, 0.0), (-5e-17, 0.1)
    assert segment_hits_rect(p0, p1, rect) and slab_segment_hits_rect(p0, p1, rect)


def test_robot_collides_matches_the_generator_test_near_every_grown_edge():
    checked = hits = 0
    for scene in _SCENES:
        for rect in scene.solid_rects():
            for ax, ay in _anchors(rect, scene.robot_radius):
                for dx in _NUDGES:
                    for dy in _NUDGES:
                        expected = _generator_robot_collides(scene, ax + dx, ay + dy)
                        assert robot_collides(scene, ax + dx, ay + dy) == expected, (ax + dx, ay + dy)
                        checked += 1
                        hits += expected
    assert 0 < hits < checked


@given(data=st.data())
def test_robot_collides_matches_the_generator_test_at_drawn_points(data):
    scene = data.draw(st.sampled_from(_SCENES))
    rect = data.draw(st.sampled_from(scene.solid_rects()))
    edge = data.draw(st.sampled_from(list(_edge_points(rect, scene.robot_radius).values())))
    (ax, ay), (bx, by) = edge[0], edge[-1]
    u = data.draw(st.floats(0.0, 1.0))
    anchor = data.draw(st.sampled_from(_anchors(rect, scene.robot_radius) + [
        (ax + u * (bx - ax), ay + u * (by - ay))]))
    x, y = anchor[0] + data.draw(nudge), anchor[1] + data.draw(nudge)
    assert robot_collides(scene, x, y) == _generator_robot_collides(scene, x, y)


def test_segment_hits_rect_matches_the_slab_test_beyond_one_side():
    """Both endpoints just outside (or just inside) the same side: the
    early-out's own boundary, on the rectangle and on its grown copy."""
    checked = hits = 0
    for rect in _BLOCKERS:
        for grow in (0.0, _RADIUS):
            for side, points in _edge_points(rect, grow).items():
                axis = 0 if side in ("west", "east") else 1
                for p, q in itertools.product(points, repeat=2):
                    for dp, dq in itertools.product(_NUDGES, repeat=2):
                        p0, p1 = list(p), list(q)
                        p0[axis] += dp
                        p1[axis] += dq
                        expected = slab_segment_hits_rect(p0, p1, rect)
                        assert segment_hits_rect(p0, p1, rect) == expected, (p0, p1, rect)
                        checked += 1
                        hits += expected
    assert 0 < hits < checked


def test_segment_hits_rect_matches_the_slab_test_when_near_parallel():
    """Segments within 1e-12 of parallel to an axis take the slab test's
    parallel branch; just above it, its division by a tiny delta."""
    checked = hits = 0
    for rect in _BLOCKERS:
        for grow in (0.0, _RADIUS):
            for ax, ay in _anchors(rect, grow):
                for dx, dy in itertools.product(_NUDGES[::2], repeat=2):
                    p0 = (ax + dx, ay + dy)
                    for length, tilt in itertools.product((-1.0, 1.0), (0.0, 5e-13, -9e-13, 2e-12)):
                        for delta in ((length, tilt), (tilt, length)):
                            p1 = (p0[0] + delta[0], p0[1] + delta[1])
                            expected = slab_segment_hits_rect(p0, p1, rect)
                            assert segment_hits_rect(p0, p1, rect) == expected, (p0, p1, rect)
                            checked += 1
                            hits += expected
    assert 0 < hits < checked


@given(data=st.data())
def test_segment_hits_rect_matches_the_slab_test_at_drawn_segments(data):
    rect = data.draw(st.sampled_from(_BLOCKERS))
    anchors = _anchors(rect, data.draw(st.sampled_from((0.0, _RADIUS))))
    ax, ay = data.draw(st.sampled_from(anchors))
    p0 = (ax + data.draw(nudge), ay + data.draw(nudge))
    tilt = st.floats(-1e-12, 1e-12)
    near_parallel = st.tuples(st.floats(-2.0, 2.0), tilt)
    p1 = data.draw(st.one_of(
        st.sampled_from(anchors).flatmap(
            lambda b: st.tuples(nudge, nudge).map(lambda d: (b[0] + d[0], b[1] + d[1]))),
        near_parallel.map(lambda d: (p0[0] + d[0], p0[1] + d[1])),
        near_parallel.map(lambda d: (p0[0] + d[1], p0[1] + d[0])),
        st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
    ))
    assert segment_hits_rect(p0, p1, rect) == slab_segment_hits_rect(p0, p1, rect)


# ---------------------------------------------------------------------------
# Segment-to-rectangle distance against dense sampling along the segment.

coordinate = st.floats(-2.0, 2.0)
extent = st.floats(0.01, 1.0)


@st.composite
def segments_near(draw, rect):
    """A segment near ``rect``: free, touching it at an edge point or a
    corner, zero-length, or parallel to an axis."""
    point = st.tuples(coordinate, coordinate)
    on_edge = st.tuples(st.floats(0.0, 1.0), st.sampled_from(("x", "y")), st.booleans()).map(
        lambda e: (rect.x_min + e[0] * 2 * rect.hx, rect.y_max if e[2] else rect.y_min)
        if e[1] == "x" else (rect.x_max if e[2] else rect.x_min, rect.y_min + e[0] * 2 * rect.hy))
    corner = st.sampled_from([(x, y) for x in (rect.x_min, rect.x_max)
                              for y in (rect.y_min, rect.y_max)])
    p0 = draw(st.one_of(point, on_edge, corner))
    length = st.floats(-3.0, 3.0)
    p1 = draw(st.one_of(
        point,
        st.just(p0),
        length.map(lambda d: (p0[0] + d, p0[1])),
        length.map(lambda d: (p0[0], p0[1] + d)),
    ))
    return p0, p1


def test_segment_rect_distance_examples():
    rect = Rect(0.0, 0.0, 1.0, 1.0)
    assert segment_rect_distance((-2.0, 0.0), (2.0, 0.0), rect) == 0.0  # through
    assert segment_rect_distance((-2.0, 1.0), (2.0, 1.0), rect) == 0.0  # along an edge
    assert segment_rect_distance((2.0, 2.0), (2.0, 2.0), rect) == pytest.approx(math.sqrt(2.0))
    assert segment_rect_distance((-2.0, 1.5), (2.0, 1.5), rect) == pytest.approx(0.5)
    # Both endpoints lie sqrt(4.25) away; the corner (-1, 1) lies nearer the middle.
    assert segment_rect_distance((-3.0, 1.5), (1.5, 3.0), rect) == pytest.approx(0.35 * math.sqrt(10.0))


@given(data=st.data())
def test_segment_rect_distance_matches_dense_sampling(data):
    """Exactly 0.0 on a hit; otherwise never above the distance of 2001
    points spaced evenly along the segment (each an upper bound) and
    within one spacing of it, since distance to a rect is 1-Lipschitz."""
    rect = Rect(data.draw(coordinate), data.draw(coordinate), data.draw(extent), data.draw(extent))
    p0, p1 = data.draw(segments_near(rect))
    exact = segment_rect_distance(p0, p1, rect)
    if segment_hits_rect(p0, p1, rect):
        assert exact == 0.0
    t = np.linspace(0.0, 1.0, 2001)[:, None]
    points = np.asarray(p0) + t * (np.asarray(p1) - np.asarray(p0))
    dx = np.maximum(np.maximum(rect.x_min - points[:, 0], points[:, 0] - rect.x_max), 0.0)
    dy = np.maximum(np.maximum(rect.y_min - points[:, 1], points[:, 1] - rect.y_max), 0.0)
    sampled = float(np.hypot(dx, dy).min())
    spacing = math.dist(p0, p1) / 2000
    assert exact <= sampled + 1e-12
    assert sampled - exact <= spacing + 1e-12


@given(data=st.data())
def test_segment_clearance_is_the_least_distance(data):
    """The bounding-box prefilter skips only rects that cannot lower the
    answer, so it equals the plain minimum bit for bit."""
    rects = data.draw(st.lists(
        st.builds(Rect, coordinate, coordinate, extent, extent), max_size=6))
    p0, p1 = data.draw(segments_near(Rect(0.0, 0.0, 0.5, 0.5)))
    radius = data.draw(st.floats(-1.0, 4.0) | st.just(math.inf))
    expected = min([radius, *(segment_rect_distance(p0, p1, rect) for rect in rects)])
    assert segment_clearance(p0, p1, tuple(rects), radius) == expected
