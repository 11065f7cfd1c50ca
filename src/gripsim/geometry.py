"""Planar geometric primitives: points, rotation and segment distances.

Everything is in millimetres in whatever frame the caller works in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Point:
    x: float
    y: float

    def __add__(self, other: "Point") -> "Point":
        return Point(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Point") -> "Point":
        return Point(self.x - other.x, self.y - other.y)

    def scaled(self, k: float) -> "Point":
        return Point(self.x * k, self.y * k)


def point_segment_distance(p: Point, a: Point, b: Point) -> tuple[float, float]:
    """Distance from p to segment ab and the parameter t of the closest point."""
    return _point_segment(p.x, p.y, a.x, a.y, b.x, b.y)


def segment_segment_distance(a1: Point, a2: Point, b1: Point,
                             b2: Point) -> tuple[float, float]:
    """Minimum distance between two segments and the parameter t on a1a2 of a
    point that attains it.

    Segments that cross are 0 apart at their crossing point.  Otherwise the
    distance is attained at an endpoint of one segment (Ericson, *Real-Time
    Collision Detection*, 2004, 5.1.9), and t is that of the first least of
    a1 (t = 0), a2 (t = 1) and the projections of b1 and b2 onto a1a2
    (5.1.2).
    """
    a1x, a1y, a2x, a2y = a1.x, a1.y, a2.x, a2.y
    b1x, b1y, b2x, b2y = b1.x, b1.y, b2.x, b2.y
    d1 = _orient(b1x, b1y, b2x, b2y, a1x, a1y)
    d2 = _orient(b1x, b1y, b2x, b2y, a2x, a2y)
    d3 = _orient(a1x, a1y, a2x, a2y, b1x, b1y)
    d4 = _orient(a1x, a1y, a2x, a2y, b2x, b2y)
    if ((d1 > 0 > d2) or (d1 < 0 < d2)) and ((d3 > 0 > d4) or (d3 < 0 < d4)):
        return 0.0, d1 / (d1 - d2)
    d, t = _point_segment(a1x, a1y, b1x, b1y, b2x, b2y)[0], 0.0
    dist = _point_segment(a2x, a2y, b1x, b1y, b2x, b2y)[0]
    if dist < d:
        d, t = dist, 1.0
    dist, at = _point_segment(b1x, b1y, a1x, a1y, a2x, a2y)
    if dist < d:
        d, t = dist, at
    dist, at = _point_segment(b2x, b2y, a1x, a1y, a2x, a2y)
    if dist < d:
        d, t = dist, at
    return d, t


# The float kernels below take coordinates so the hot clearance path makes
# no Point objects.  Their arithmetic order is fixed: reports and frames are
# compared byte for byte against goldens.

def _point_segment(px: float, py: float, ax: float, ay: float,
                   bx: float, by: float) -> tuple[float, float]:
    abx = bx - ax
    aby = by - ay
    denom = abx * abx + aby * aby
    if denom == 0.0:
        return math.hypot(px - ax, py - ay), 0.0
    t = ((px - ax) * abx + (py - ay) * aby) / denom
    t = min(1.0, max(0.0, t))
    return math.hypot(px - (ax + abx * t), py - (ay + aby * t)), t


def _orient(ax: float, ay: float, bx: float, by: float, cx: float, cy: float) -> float:
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def rotate(p: Point, angle: float) -> Point:
    c, s = math.cos(angle), math.sin(angle)
    return Point(c * p.x - s * p.y, s * p.x + c * p.y)
