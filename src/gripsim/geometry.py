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


# The clearance kernels fix their arithmetic order: reports and frames are
# compared byte for byte against goldens.  They take and return floats, so a
# clearance evaluation builds no Point objects.  ``segment_segment_distance``
# calls no helper: it repeats ``point_segment_distance``'s projection in its
# own body, and it clamps with ``(t if t < 1.0 else 1.0) if t > 0.0 else
# 0.0``, which is ``min(1.0, max(0.0, t))`` for every float, -0.0 and NaN
# included.

def point_segment_distance(px: float, py: float, ax: float, ay: float,
                           bx: float, by: float) -> tuple[float, float]:
    """Distance from (px, py) to segment ab and the parameter t of the closest point."""
    abx = bx - ax
    aby = by - ay
    denom = abx * abx + aby * aby
    if denom == 0.0:
        return math.hypot(px - ax, py - ay), 0.0
    t = ((px - ax) * abx + (py - ay) * aby) / denom
    t = min(1.0, max(0.0, t))
    return math.hypot(px - (ax + abx * t), py - (ay + aby * t)), t


def segment_segment_distance(a1x: float, a1y: float, a2x: float, a2y: float,
                             b1x: float, b1y: float, b2x: float,
                             b2y: float) -> tuple[float, float]:
    """Minimum distance between segments a1a2 and b1b2 and the parameter t on
    a1a2 of a point that attains it.

    Segments that cross are 0 apart at their crossing point.  Otherwise the
    distance is attained at an endpoint of one segment (Ericson, *Real-Time
    Collision Detection*, 2004, 5.1.9), and t is that of the first least of
    a1 (t = 0), a2 (t = 1) and the projections of b1 and b2 onto a1a2
    (5.1.2).
    """
    # One flat body: the four orientations and the four endpoint projections
    # are written out on shared differences.  Each keeps the operations, in
    # order, of the separate calls it replaces, so the bits are theirs.
    ux, uy = a2x - a1x, a2y - a1y          # a1 -> a2
    vx, vy = b2x - b1x, b2y - b1y          # b1 -> b2
    p1x, p1y = a1x - b1x, a1y - b1y        # b1 -> a1
    p2x, p2y = a2x - b1x, a2y - b1y        # b1 -> a2
    q1x, q1y = b1x - a1x, b1y - a1y        # a1 -> b1
    q2x, q2y = b2x - a1x, b2y - a1y        # a1 -> b2
    d1 = vx * p1y - vy * p1x
    d2 = vx * p2y - vy * p2x
    if (d1 > 0.0 > d2) or (d1 < 0.0 < d2):
        d3 = ux * q1y - uy * q1x
        d4 = ux * q2y - uy * q2x
        if (d3 > 0.0 > d4) or (d3 < 0.0 < d4):
            return 0.0, d1 / (d1 - d2)
    # a1 and a2 against b1b2
    denom = vx * vx + vy * vy
    if denom == 0.0:
        d = math.hypot(p1x, p1y)
        dist = math.hypot(p2x, p2y)
    else:
        s = (p1x * vx + p1y * vy) / denom
        s = (s if s < 1.0 else 1.0) if s > 0.0 else 0.0
        d = math.hypot(a1x - (b1x + vx * s), a1y - (b1y + vy * s))
        s = (p2x * vx + p2y * vy) / denom
        s = (s if s < 1.0 else 1.0) if s > 0.0 else 0.0
        dist = math.hypot(a2x - (b1x + vx * s), a2y - (b1y + vy * s))
    t = 0.0
    if dist < d:
        d, t = dist, 1.0
    # b1 and b2 against a1a2
    denom = ux * ux + uy * uy
    if denom == 0.0:
        dist = math.hypot(q1x, q1y)
        if dist < d:
            d, t = dist, 0.0
        dist = math.hypot(q2x, q2y)
        if dist < d:
            d, t = dist, 0.0
        return d, t
    s = (q1x * ux + q1y * uy) / denom
    s = (s if s < 1.0 else 1.0) if s > 0.0 else 0.0
    dist = math.hypot(b1x - (a1x + ux * s), b1y - (a1y + uy * s))
    if dist < d:
        d, t = dist, s
    s = (q2x * ux + q2y * uy) / denom
    s = (s if s < 1.0 else 1.0) if s > 0.0 else 0.0
    dist = math.hypot(b2x - (a1x + ux * s), b2y - (a1y + uy * s))
    if dist < d:
        d, t = dist, s
    return d, t


def rotate(p: Point, angle: float) -> Point:
    c, s = math.cos(angle), math.sin(angle)
    return Point(c * p.x - s * p.y, s * p.x + c * p.y)
