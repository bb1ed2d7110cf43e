"""Axis-aligned planar geometry shared by the world model, feasibility
trials and the motion planner.

Everything here is deliberately 2D: the robot is a disc, furniture is an
axis-aligned rectangle, and manipulation reach is a circle.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * math.pi
# Margin of the exact early-outs: far above the rounding of metre-scale coordinates.
EARLY_OUT_SLACK = 1e-9


def wrap_angle(theta: float) -> float:
    """Normalize an angle to the half-open interval (-pi, pi]."""
    wrapped = math.fmod(theta, TWO_PI)
    if wrapped > math.pi:
        wrapped -= TWO_PI
    elif wrapped <= -math.pi:
        wrapped += TWO_PI
    return wrapped


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle given by center and half extents (meters)."""

    cx: float
    cy: float
    hx: float
    hy: float

    # Stored once: every collision and reach test reads them.
    x_min: float = field(init=False, repr=False, compare=False)
    x_max: float = field(init=False, repr=False, compare=False)
    y_min: float = field(init=False, repr=False, compare=False)
    y_max: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.hx <= 0.0 or self.hy <= 0.0:
            raise ValueError(f"rect half extents must be positive, got ({self.hx}, {self.hy})")
        object.__setattr__(self, "x_min", self.cx - self.hx)
        object.__setattr__(self, "x_max", self.cx + self.hx)
        object.__setattr__(self, "y_min", self.cy - self.hy)
        object.__setattr__(self, "y_max", self.cy + self.hy)

    def contains(self, x: float, y: float) -> bool:
        """Closed-interval point membership (boundary counts as inside)."""
        return self.x_min <= x <= self.x_max and self.y_min <= y <= self.y_max

    def distance_to(self, x: float, y: float) -> float:
        """Euclidean distance from a point to the rectangle (0 inside)."""
        dx = max(self.x_min - x, 0.0, x - self.x_max)
        dy = max(self.y_min - y, 0.0, y - self.y_max)
        return math.hypot(dx, dy)

    def overlaps(self, other: "Rect") -> bool:
        """True when the open interiors intersect; touching edges do not count."""
        return (
            self.x_min < other.x_max
            and other.x_min < self.x_max
            and self.y_min < other.y_max
            and other.y_min < self.y_max
        )


def rect_distances(rect: Rect, x: np.ndarray | float, y: np.ndarray | float) -> np.ndarray:
    """Euclidean distance to the rect (0 inside) of every point whose
    coordinates ``x`` and ``y`` broadcast together: ``Rect.distance_to``
    vectorised, the one batched form of the rule."""
    dx = np.maximum(np.maximum(rect.x_min - x, 0.0), x - rect.x_max)
    dy = np.maximum(np.maximum(rect.y_min - y, 0.0), y - rect.y_max)
    return np.hypot(dx, dy)


def segment_hits_rect(p0: tuple[float, float], p1: tuple[float, float], rect: Rect) -> bool:
    """Slab-clipping test: does the closed segment p0-p1 intersect the rect?
    Endpoints both more than ``EARLY_OUT_SLACK`` beyond one edge miss at once:
    the slab clip rejects that axis with ``t0 > t1`` by far more than rounding."""
    (x0, y0), (x1, y1) = p0, p1
    s = EARLY_OUT_SLACK
    if (x0 < rect.x_min - s > x1 or x0 > rect.x_max + s < x1
            or y0 < rect.y_min - s > y1 or y0 > rect.y_max + s < y1):
        return False
    t0, t1 = 0.0, 1.0
    dx = p1[0] - p0[0]
    dy = p1[1] - p0[1]
    for pos, delta, lo, hi in (
        (p0[0], dx, rect.x_min, rect.x_max),
        (p0[1], dy, rect.y_min, rect.y_max),
    ):
        if abs(delta) < 1e-12:
            if pos < lo or pos > hi:
                return False
            continue
        ta = (lo - pos) / delta
        tb = (hi - pos) / delta
        if ta > tb:
            ta, tb = tb, ta
        t0 = max(t0, ta)
        t1 = min(t1, tb)
        if t0 > t1:
            return False
    return True


def segment_rect_distance(p0: tuple[float, float], p1: tuple[float, float], rect: Rect) -> float:
    """Euclidean distance between the closed segment p0-p1 and the rect:
    exactly 0.0 when ``segment_hits_rect`` holds. A segment that misses a
    convex polygon is nearest it at one of its endpoints or at one of the
    polygon's corners, so the least of those distances is the answer. A
    corner whose projection onto the line falls outside the segment is
    nearest an endpoint, which is nearer the rect still, so only corners
    projecting inside are measured."""
    if segment_hits_rect(p0, p1, rect):
        return 0.0
    (x0, y0), (x1, y1) = p0, p1
    best = min(rect.distance_to(x0, y0), rect.distance_to(x1, y1))
    dx, dy = x1 - x0, y1 - y0
    length2 = dx * dx + dy * dy
    if length2 > 0.0:
        for cx in (rect.x_min, rect.x_max):
            for cy in (rect.y_min, rect.y_max):
                t = ((cx - x0) * dx + (cy - y0) * dy) / length2
                if 0.0 < t < 1.0:
                    d = math.hypot(x0 + t * dx - cx, y0 + t * dy - cy)
                    if d < best:
                        best = d
    return best


def segment_clearance(
    p0: tuple[float, float], p1: tuple[float, float], rects: tuple[Rect, ...], radius: float
) -> float:
    """The least of ``radius`` and the segment p0-p1's distance to each of
    ``rects``. A rect's distance to the segment's bounding box is a lower
    bound of its distance to the segment, so the exact distance is computed
    only where that bound is below the least so far."""
    (x0, y0), (x1, y1) = p0, p1
    x_lo, x_hi = (x0, x1) if x0 <= x1 else (x1, x0)
    y_lo, y_hi = (y0, y1) if y0 <= y1 else (y1, y0)
    for rect in rects:
        # The box's gap to the rect along each axis, at least 0.0.
        gx = max(rect.x_min - x_hi, x_lo - rect.x_max, 0.0)
        gy = max(rect.y_min - y_hi, y_lo - rect.y_max, 0.0)
        if gx < radius and gy < radius and math.hypot(gx, gy) < radius:
            d = segment_rect_distance(p0, p1, rect)
            if d < radius:
                radius = d
    return radius


def segments_hit_rect(starts: np.ndarray, end: tuple[float, float], rect: Rect) -> np.ndarray:
    """Vectorized variant of segment_hits_rect for (n, 2) start points and a
    shared end point."""
    n = starts.shape[0]
    t0 = np.zeros(n)
    t1 = np.ones(n)
    alive = np.ones(n, dtype=bool)
    for axis, (lo, hi) in enumerate(((rect.x_min, rect.x_max), (rect.y_min, rect.y_max))):
        pos = starts[:, axis]
        delta = end[axis] - pos
        parallel = np.abs(delta) < 1e-12
        outside = parallel & ((pos < lo) | (pos > hi))
        alive &= ~outside
        with np.errstate(divide="ignore", invalid="ignore"):
            ta = (lo - pos) / delta
            tb = (hi - pos) / delta
        swap = ta > tb
        ta2 = np.where(swap, tb, ta)
        tb2 = np.where(swap, ta, tb)
        use = alive & ~parallel
        t0 = np.where(use, np.maximum(t0, ta2), t0)
        t1 = np.where(use, np.minimum(t1, tb2), t1)
        alive &= ~(t0 > t1)
    return alive
