"""Rigid 2-D scene objects and their clearance geometry.

One kernel, ``SceneObject._clearance``, measures a segment against an
object.  A segment is four floats ``ax, ay, bx, by`` and the outline is
cached as float tuples, so a clearance evaluation builds no ``Point``.  The
engine reads its clearance through ``clearance_to_segment``; contact markers
read the point that attains it through ``clearance_witness``, the one
``Point`` the kernels make.
On an object that is its own mirror image about x = 0 (``mirror_symmetric``)
the kernel is even in x bit for bit: a segment and its mirror image give the
same clearance and the same witness parameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from .errors import ConfigError
from .geometry import Point, point_segment_distance, rotate, segment_segment_distance


class ShapeKind(Enum):
    CIRCLE = "circle"
    RECTANGLE = "rectangle"
    SLAB = "slab"


@dataclass(frozen=True)
class SceneObject:
    """A rigid object fixed in the world; the grasp target.

    Slabs are thin rectangles resting on a support surface at ``surface_y``;
    their thickness may be zero (degenerate probe), every other dimension must
    be positive.
    """

    kind: ShapeKind
    x: float = 0.0
    y: float = 0.0
    rotation: float = 0.0
    diameter: float = 0.0
    width: float = 0.0
    height: float = 0.0
    thickness: float = 0.0
    on_surface: bool = False
    surface_y: float = 0.0

    @staticmethod
    def circle(diameter: float, x: float = 0.0, y: float = 0.0) -> "SceneObject":
        if not diameter > 0.0:
            raise ConfigError("diameter", "must be positive")
        return SceneObject(kind=ShapeKind.CIRCLE, diameter=diameter, x=x, y=y)

    @staticmethod
    def rectangle(width: float, height: float, x: float = 0.0, y: float = 0.0,
                  rotation: float = 0.0) -> "SceneObject":
        for name, size in (("width", width), ("height", height)):
            if not size > 0.0:
                raise ConfigError(name, "rectangle dimensions must be positive")
        return SceneObject(kind=ShapeKind.RECTANGLE, width=width, height=height,
                           x=x, y=y, rotation=rotation)

    @staticmethod
    def slab(thickness: float, width: float, surface_y: float,
             x: float = 0.0) -> "SceneObject":
        if not width > 0.0:
            raise ConfigError("width", "slab width must be positive")
        if not thickness >= 0.0:
            raise ConfigError("thickness", "slab thickness cannot be negative")
        return SceneObject(kind=ShapeKind.SLAB, thickness=thickness, width=width,
                           x=x, y=surface_y + thickness / 2.0,
                           on_surface=True, surface_y=surface_y)

    # The cached properties below cannot go stale: the object is frozen and
    # dataclasses.replace builds a new instance with an empty cache.  They
    # live in the instance __dict__, so equality and hashing ignore them.
    @cached_property
    def mirror_symmetric(self) -> bool:
        """Centred and unrotated, so the object is its own mirror image about x = 0."""
        return self.x == 0.0 and self.rotation == 0.0

    @property
    def max_extent(self) -> float:
        if self.kind is ShapeKind.CIRCLE:
            return self.diameter
        if self.kind is ShapeKind.RECTANGLE:
            return math.hypot(self.width, self.height)
        return self.width

    def corners(self) -> list[Point]:
        """Rectangle/slab corner points in the world (counter-clockwise)."""
        return [Point(x, y) for x, y in self._corners]

    @cached_property
    def _corners(self) -> tuple[tuple[float, float], ...]:
        if self.kind is ShapeKind.CIRCLE:
            raise ValueError("circles have no corners")
        w = self.width / 2.0
        h = (self.height if self.kind is ShapeKind.RECTANGLE else self.thickness) / 2.0
        pts = [rotate(Point(x, y), self.rotation) for x, y in ((-w, -h), (w, -h), (w, h), (-w, h))]
        return tuple((self.x + p.x, self.y + p.y) for p in pts)

    @cached_property
    def _edges(self) -> tuple[tuple[float, float, float, float], ...]:
        corners = self._corners
        return tuple((*a, *b) for a, b in zip(corners, corners[1:] + corners[:1]))

    def clearance_to_segment(self, ax: float, ay: float, bx: float, by: float) -> float:
        """Distance from the object's boundary to segment ab (negative inside)."""
        return self._clearance(ax, ay, bx, by)[0]

    def clearance_witness(self, ax: float, ay: float, bx: float,
                          by: float) -> tuple[float, Point]:
        """``clearance_to_segment(ax, ay, bx, by)``, bit for bit, and its witness point on ab.

        The witness is a point of ab that attains the clearance: for a circle
        the projection of the centre; for a rectangle or slab the point
        ``segment_segment_distance`` returns for the first edge, in order, at
        the least distance (on a mirror-symmetric box, a +x segment's is the
        mirror of its mirror image's), which is the crossing point for a
        segment that crosses an edge.
        """
        clear, t = self._clearance(ax, ay, bx, by)
        return clear, Point(ax + (bx - ax) * t, ay + (by - ay) * t)

    def _clearance(self, ax: float, ay: float, bx: float, by: float) -> tuple[float, float]:
        """The clearance of segment ab and the parameter t on ab of its witness."""
        if self.kind is ShapeKind.CIRCLE:
            dist, t = point_segment_distance(self.x, self.y, ax, ay, bx, by)
            return dist - self.diameter / 2.0, t
        # a mirror-symmetric box measures a segment on the +x side as its mirror
        # image, so the two run one computation (docs/derivations.md)
        if self.mirror_symmetric and (ax + bx > 0.0 or ax + bx == 0.0 and ax > 0.0):
            ax, bx = -ax, -bx
        d, t = math.inf, 0.0
        for e1x, e1y, e2x, e2y in self._edges:
            dist, at = segment_segment_distance(ax, ay, bx, by, e1x, e1y, e2x, e2y)
            if dist < d:
                d, t = dist, at
        if d == 0.0:
            return 0.0, t
        # segment fully inside the polygon counts as penetration
        corners = self._corners
        if _point_in_polygon(ax, ay, corners) and _point_in_polygon(bx, by, corners):
            return -d, t
        return d, t


def _point_in_polygon(px: float, py: float, corners: tuple[tuple[float, float], ...]) -> bool:
    inside = False
    n = len(corners)
    for i in range(n):
        (ax, ay), (bx, by) = corners[i], corners[(i + 1) % n]
        if (ay > py) != (by > py):
            xc = ax + (py - ay) * (bx - ax) / (by - ay)
            if px < xc:
                inside = not inside
    return inside
