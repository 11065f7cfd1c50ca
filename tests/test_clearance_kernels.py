"""The float clearance kernels against the Point-based code they replaced.

The reference functions below are the earlier Point-object implementations
of ``point_segment_distance``, ``segment_segment_distance`` and
``SceneObject.clearance_to_segment`` (with ``Point.dot``, ``Point.cross`` and
``Point.distance_to`` as ``_dot``, ``_cross`` and ``_distance``).  The
rewrite keeps every arithmetic operation in the same order, so results must
match bit for bit: floats are compared through ``float.hex``, which also
tells -0.0 from 0.0.  The kernels take each point as two floats; the tests
draw ``Point``s and flatten them with ``_xy``.

A centred, unrotated rectangle or slab measures a segment on the +x side as
its mirror image (``SceneObject.mirror_symmetric``), so the reference folds
such a segment the same way before it measures it.  A segment and its mirror
image must then read the same clearance and mirrored witnesses, which the
per-edge computation alone does not give: the mirror of an edge is walked
from its other end.

Contact markers ask ``SceneObject.clearance_witness``, which must return
the same clearance bits together with a point of the segment that attains it.
``segment_segment_distance`` returns such a point's parameter ``t`` too: the
crossing point's, or else that of the first least of a1, a2 and the
projections of b1 and b2.  The reference returns the same ``t``, and both the
distance and ``t`` are compared bit for bit, on drawn segments and on
hand-picked degenerate pairs (zero-length, collinear, touching, -0.0).

The engine skips the kernels, and the pose, while the motion budget's lower
bound, read from two finger states, keeps a phalanx clear of contact; the
last test checks that bound against the kernels over drawn pairs of states.
"""

import math
from dataclasses import replace

from hypothesis import example, given, settings
from hypothesis import strategies as st

import gripsim.finger as fg
from gripsim.assembly import _clearances, _LastExact, _place, build_gripper
from gripsim.config import default_config
from gripsim.finger import Behavior, FingerState, Phalanx
from gripsim.geometry import Point, point_segment_distance, rotate, segment_segment_distance
from gripsim.scene import SceneObject, ShapeKind


def _dot(u, v):
    return u.x * v.x + u.y * v.y


def _cross(u, v):
    return u.x * v.y - u.y * v.x


def _distance(p, q):
    return math.hypot(p.x - q.x, p.y - q.y)


def ref_point_segment_distance(p, a, b):
    ab = b - a
    denom = _dot(ab, ab)
    if denom == 0.0:
        return _distance(p, a), 0.0
    t = _dot(p - a, ab) / denom
    t = min(1.0, max(0.0, t))
    closest = a + ab.scaled(t)
    return _distance(p, closest), t


def _ref_orient(a, b, c):
    return _cross(b - a, c - a)


def _ref_segments_intersect(a1, a2, b1, b2):
    d1 = _ref_orient(b1, b2, a1)
    d2 = _ref_orient(b1, b2, a2)
    d3 = _ref_orient(a1, a2, b1)
    d4 = _ref_orient(a1, a2, b2)
    return ((d1 > 0 > d2) or (d1 < 0 < d2)) and ((d3 > 0 > d4) or (d3 < 0 < d4))


def ref_segment_segment_distance(a1, a2, b1, b2):
    """The distance and the parameter on a1a2 of the crossing point, or else of
    the first least of a1, a2 and the projections of b1 and b2."""
    if _ref_segments_intersect(a1, a2, b1, b2):
        d1 = _ref_orient(b1, b2, a1)
        return 0.0, d1 / (d1 - _ref_orient(b1, b2, a2))
    return min(
        (ref_point_segment_distance(a1, b1, b2)[0], 0.0),
        (ref_point_segment_distance(a2, b1, b2)[0], 1.0),
        ref_point_segment_distance(b1, a1, a2),
        ref_point_segment_distance(b2, a1, a2),
        key=lambda candidate: candidate[0],
    )


def _ref_corners(obj):
    w = obj.width / 2.0
    h = (obj.height if obj.kind is ShapeKind.RECTANGLE else obj.thickness) / 2.0
    pts = [Point(-w, -h), Point(w, -h), Point(w, h), Point(-w, h)]
    return [Point(obj.x, obj.y) + rotate(p, obj.rotation) for p in pts]


def _ref_edges(corners):
    return list(zip(corners, corners[1:] + corners[:1]))


def _ref_point_in_polygon(p, corners):
    inside = False
    n = len(corners)
    for i in range(n):
        a, b = corners[i], corners[(i + 1) % n]
        if (a.y > p.y) != (b.y > p.y):
            xc = a.x + (p.y - a.y) * (b.x - a.x) / (b.y - a.y)
            if p.x < xc:
                inside = not inside
    return inside


def ref_clearance_to_segment(obj, a, b):
    if obj.kind is ShapeKind.CIRCLE:
        dist, _ = ref_point_segment_distance(Point(obj.x, obj.y), a, b)
        return dist - obj.diameter / 2.0
    if obj.x == 0.0 and obj.rotation == 0.0 and (a.x + b.x > 0.0 or a.x + b.x == 0.0 and a.x > 0.0):
        a, b = Point(-a.x, a.y), Point(-b.x, b.y)
    corners = _ref_corners(obj)
    d = min(ref_segment_segment_distance(a, b, e1, e2)[0] for e1, e2 in _ref_edges(corners))
    if d == 0.0:
        return 0.0
    if _ref_point_in_polygon(a, corners) and _ref_point_in_polygon(b, corners):
        return -d
    return d


def _bits(*values):
    return [v.hex() for v in values]


def _xy(*points):
    """The coordinates of ``points`` as the float kernels take them: x, y of each in turn."""
    return [c for p in points for c in (p.x, p.y)]


coords = st.floats(-250.0, 250.0)
points = st.builds(Point, coords, coords)
fractions = st.floats(0.0, 1.0)


@st.composite
def segments(draw):
    a = draw(points)
    b = draw(st.one_of(st.just(a), points))       # zero-length segments included
    return a, b


@st.composite
def scene_objects(draw):
    kind = draw(st.sampled_from(ShapeKind))
    x, y = draw(coords), draw(coords)
    if kind is ShapeKind.CIRCLE:
        return SceneObject.circle(draw(st.floats(0.1, 200.0)), x=x, y=y)
    if kind is ShapeKind.RECTANGLE:
        return SceneObject.rectangle(draw(st.floats(0.1, 200.0)), draw(st.floats(0.1, 200.0)),
                                     x=x, y=y, rotation=draw(st.floats(-math.pi, math.pi)))
    thickness = draw(st.one_of(st.just(0.0), st.floats(0.0, 20.0)))
    return SceneObject.slab(thickness, draw(st.floats(0.1, 200.0)), surface_y=y, x=x)


@st.composite
def objects_with_segments(draw):
    """An object and a segment: free, from an edge or a corner, or fully inside."""
    obj = draw(scene_objects())
    where = draw(st.sampled_from(["free", "edge", "corner", "inside"]))
    if where == "free":
        return (obj, *draw(segments()))
    if obj.kind is ShapeKind.CIRCLE:
        def at(u, ang):
            r = obj.diameter / 2.0 * u
            return Point(obj.x + r * math.cos(ang), obj.y + r * math.sin(ang))
        angles = st.floats(-math.pi, math.pi)
        if where == "inside":
            return obj, at(draw(fractions), draw(angles)), at(draw(fractions), draw(angles))
        a = at(1.0, draw(angles))
        return obj, a, draw(st.one_of(st.just(a), points))
    c = _ref_corners(obj)
    if where == "inside":
        # bilinear points of the rectangle, so both ends lie in the object
        def at(u, v):
            return c[0] + (c[1] - c[0]).scaled(u) + (c[3] - c[0]).scaled(v)
        return obj, at(draw(fractions), draw(fractions)), at(draw(fractions), draw(fractions))
    k = draw(st.integers(0, 3))
    a = c[k] if where == "corner" else c[k] + (c[(k + 1) % 4] - c[k]).scaled(draw(fractions))
    return obj, a, draw(st.one_of(st.just(a), points))


@settings(max_examples=400, deadline=None)
@given(points, segments())
def test_point_segment_distance_is_bit_identical(p, seg):
    a, b = seg
    assert _bits(*point_segment_distance(*_xy(p, a, b))) == \
        _bits(*ref_point_segment_distance(p, a, b))


@settings(max_examples=400, deadline=None)
@given(segments(), segments())
# both segments zero-length, apart and at one point
@example((Point(1.0, 2.0), Point(1.0, 2.0)), (Point(4.0, 6.0), Point(4.0, 6.0)))
@example((Point(1.0, 2.0), Point(1.0, 2.0)), (Point(1.0, 2.0), Point(1.0, 2.0)))
# exactly one zero-length: beside, beyond an end, and on the other segment
@example((Point(3.0, 1.0), Point(3.0, 1.0)), (Point(0.0, 0.0), Point(10.0, 0.0)))
@example((Point(0.0, 0.0), Point(10.0, 0.0)), (Point(12.0, 1.0), Point(12.0, 1.0)))
@example((Point(0.0, 0.0), Point(10.0, 0.0)), (Point(4.0, 0.0), Point(4.0, 0.0)))
# collinear: overlapping, nested, touching end to end, and apart
@example((Point(0.0, 0.0), Point(10.0, 0.0)), (Point(5.0, 0.0), Point(15.0, 0.0)))
@example((Point(0.0, 0.0), Point(10.0, 10.0)), (Point(2.0, 2.0), Point(3.0, 3.0)))
@example((Point(0.0, 0.0), Point(10.0, 0.0)), (Point(10.0, 0.0), Point(20.0, 0.0)))
@example((Point(0.0, 0.0), Point(10.0, 0.0)), (Point(14.0, 0.0), Point(20.0, 0.0)))
# an endpoint exactly on the other segment, so one orientation is 0.0
@example((Point(5.0, 0.0), Point(5.0, 5.0)), (Point(0.0, 0.0), Point(10.0, 0.0)))
@example((Point(0.0, 0.0), Point(10.0, 0.0)), (Point(5.0, -5.0), Point(5.0, 0.0)))
# the same on slanted segments, where the crossing's t would differ from the
# projection's in the last bit, or read -0.0
@example((Point(16.4, -39.2), Point(-33.6, 34.0)), (Point(-1.0, -47.0), Point(-18.6, 12.04)))
@example((Point(-18.6, 12.04), Point(-1.0, -47.0)), (Point(16.4, -39.2), Point(-33.6, 34.0)))
@example((Point(-49.6, 43.8), Point(12.8, 24.8)),
         (Point(-16.3, -46.9), Point(-5.920000000000002, 30.5)))
@example((Point(16.2, -4.5), Point(40.3, -14.9)),
         (Point(37.89, -13.860000000000001), Point(-1.3, -27.8)))
@example((Point(0.2, 40.1), Point(37.1, -13.6)),
         (Point(26.029999999999998, 2.510000000000005), Point(40.8, -7.6)))
# an endpoint whose orientation reads 0.0 while its projection reads a few
# 1e-15 mm away: not a crossing, so the distance is not 0.0
@example((Point(-40.0, 12.9), Point(27.333333333333336, 42.333333333333336)),
         (Point(45.2, 42.7), Point(-8.4, 41.6)))
@example((Point(27.333333333333336, 42.333333333333336), Point(-40.0, 12.9)),
         (Point(-8.4, 41.6), Point(45.2, 42.7)))
@example((Point(27.333333333333336, 42.333333333333336), Point(-40.0, 12.9)),
         (Point(45.2, 42.7), Point(-8.4, 41.6)))
@example((Point(-40.0, 12.9), Point(27.333333333333336, 42.333333333333336)),
         (Point(-8.4, 41.6), Point(45.2, 42.7)))
# crossing through a vertex: the other segment's end, and a shared end
@example((Point(-1.0, -1.0), Point(1.0, 1.0)), (Point(0.0, 0.0), Point(2.0, -2.0)))
@example((Point(0.0, 0.0), Point(4.0, 0.0)), (Point(0.0, 0.0), Point(0.0, 4.0)))
# -0.0 coordinates, against 0.0 and in a zero-length segment
@example((Point(-0.0, -0.0), Point(0.0, 5.0)), (Point(0.0, 0.0), Point(-0.0, -3.0)))
@example((Point(-0.0, 1.0), Point(0.0, 1.0)), (Point(-2.0, -0.0), Point(2.0, 0.0)))
@example((Point(-1.0, -0.0), Point(1.0, 0.0)), (Point(-0.0, -1.0), Point(0.0, 1.0)))
# a NaN coordinate: no candidate is less than a NaN first one
@example((Point(math.nan, 0.0), Point(1.0, 1.0)), (Point(0.0, 0.0), Point(2.0, 0.0)))
def test_segment_segment_distance_is_bit_identical(s1, s2):
    assert _bits(*segment_segment_distance(*_xy(*s1, *s2))) == \
        _bits(*ref_segment_segment_distance(*s1, *s2))


# box150's box: unfolded, this segment from its top edge reads 0.0 and its
# mirror image 7.1e-15
BOX150 = SceneObject.rectangle(150.0, 80.0, y=-120.0)
ON_THE_TOP_EDGE = (Point(32.71, -80.0), Point(22.0, -141.8))


@settings(max_examples=600, deadline=None)
@given(objects_with_segments())
@example((BOX150, *ON_THE_TOP_EDGE))
@example((BOX150, *(Point(-p.x, p.y) for p in ON_THE_TOP_EDGE)))
def test_clearance_to_segment_is_bit_identical(case):
    obj, a, b = case
    ref = _bits(ref_clearance_to_segment(obj, a, b))
    assert _bits(obj.clearance_to_segment(*_xy(a, b))) == ref
    # a second call reads the cached outline and must agree with the first
    assert _bits(obj.clearance_to_segment(*_xy(a, b))) == ref


@st.composite
def centred_boxes_with_segments(draw):
    """A centred, unrotated rectangle or slab (zero thickness included, x and
    rotation 0.0 or -0.0) and a segment from a point within 1e-3 mm of its
    outline: to a drawn point, to a point at the negated x (an exact tie,
    a.x + b.x == 0), or moved onto x = 0.0 or -0.0 together with its other end."""
    x = draw(st.sampled_from([0.0, -0.0]))
    width, y = draw(st.floats(0.1, 200.0)), draw(coords)
    if draw(st.booleans()):
        obj = SceneObject.rectangle(width, draw(st.floats(0.1, 200.0)), x=x, y=y,
                                    rotation=draw(st.sampled_from([0.0, -0.0])))
    else:
        thickness = draw(st.one_of(st.just(0.0), st.floats(0.0, 20.0)))
        obj = SceneObject.slab(thickness, width, surface_y=y, x=x)
    c = _ref_corners(obj)
    k = draw(st.integers(0, 3))
    near = st.floats(-1e-3, 1e-3)
    a = (c[k] + (c[(k + 1) % 4] - c[k]).scaled(draw(fractions))
         + Point(draw(st.one_of(st.just(0.0), near)), draw(st.one_of(st.just(0.0), near))))
    end = draw(st.sampled_from(["free", "tie", "zeros"]))
    if end == "free":
        return obj, a, draw(st.one_of(st.just(a), points))
    if end == "tie":
        return obj, a, Point(-a.x, draw(coords))
    zeros = st.sampled_from([0.0, -0.0])
    return obj, Point(draw(zeros), a.y), Point(draw(zeros), draw(coords))


@settings(max_examples=600, deadline=None)
@given(centred_boxes_with_segments())
@example((BOX150, *ON_THE_TOP_EDGE))
@example((SceneObject.slab(0.0, 80.0, surface_y=-160.0, x=-0.0),
          Point(0.0, -160.0), Point(-0.0, -150.0)))
def test_a_centred_box_reads_a_segment_and_its_mirror_image_alike(case):
    obj, a, b = case
    assert obj.mirror_symmetric
    clear, w = obj.clearance_witness(*_xy(a, b))
    mirror_clear, mirror_w = obj.clearance_witness(*_xy(Point(-a.x, a.y), Point(-b.x, b.y)))
    assert _bits(mirror_clear, mirror_w.y) == _bits(clear, w.y)
    assert mirror_w.x == -w.x    # bit for bit, up to the sign of an exact zero


def test_hand_picked_contacts_are_bit_identical():
    rect = SceneObject.rectangle(80.0, 40.0, x=5.0, y=-60.0, rotation=0.3)
    slab = SceneObject.slab(0.0, 100.0, surface_y=-120.0)
    disc = SceneObject.circle(60.0, y=-70.0)
    c = rect.corners()
    cases = [
        (rect, c[0], c[0]),                        # zero-length at a corner
        (rect, c[0], c[0] + Point(-10.0, -3.0)),   # leaving a corner outward
        (rect, c[1], c[2]),                        # lying along an edge
        (rect, Point(5.0, -60.0), Point(6.0, -61.0)),  # fully inside
        (slab, Point(-60.0, -120.0), Point(60.0, -120.0)),  # along a zero-thickness slab
        (slab, Point(0.0, -100.0), Point(0.0, -130.0)),     # crossing it
        (slab, Point(0.0, -119.0), Point(0.0, -119.0)),     # point just above it
        (disc, Point(0.0, -70.0), Point(0.0, -70.0)),       # the centre
        (disc, Point(30.0, -70.0), Point(30.0, -10.0)),     # tangent
    ]
    for obj, a, b in cases:
        assert _bits(obj.clearance_to_segment(*_xy(a, b))) == \
            _bits(ref_clearance_to_segment(obj, a, b))


@settings(max_examples=600, deadline=None)
@given(objects_with_segments())
def test_the_witness_attains_the_clearance_on_the_segment(case):
    obj, a, b = case
    clear, w = obj.clearance_witness(*_xy(a, b))
    assert _bits(clear) == _bits(obj.clearance_to_segment(*_xy(a, b)))
    assert ref_point_segment_distance(w, a, b)[0] <= 1e-9
    crossing = obj.kind is not ShapeKind.CIRCLE and any(
        _ref_segments_intersect(a, b, e1, e2) for e1, e2 in _ref_edges(_ref_corners(obj)))
    assert abs(obj.clearance_to_segment(*_xy(w, w)) - (0.0 if crossing else clear)) <= 1e-9


def test_hand_picked_witnesses():
    disc = SceneObject.circle(60.0, y=-70.0)
    rect = SceneObject.rectangle(80.0, 40.0, y=-60.0)
    slab = SceneObject.slab(0.0, 100.0, surface_y=-120.0)
    thin = SceneObject.slab(1e-6, 1.0, surface_y=16.0, x=-1.0)
    cases = [
        (disc, Point(-50.0, -20.0), Point(50.0, -20.0), 20.0, Point(0.0, -20.0)),
        (disc, Point(40.0, -70.0), Point(40.0, -70.0), 10.0, Point(40.0, -70.0)),
        # parallel to the top edge: every point ties, the first endpoint wins
        (rect, Point(-10.0, -35.0), Point(10.0, -35.0), 5.0, Point(-10.0, -35.0)),
        # across a corner: the corner's projection wins
        (rect, Point(50.0, -40.0), Point(40.0, -30.0), math.hypot(5.0, 5.0), Point(45.0, -35.0)),
        # inside, nearest the right edge
        (rect, Point(30.0, -60.0), Point(35.0, -60.0), -5.0, Point(35.0, -60.0)),
        # crossing: the crossing point, not the deepest one
        (slab, Point(10.0, -100.0), Point(10.0, -140.0), 0.0, Point(10.0, -120.0)),
        (rect, Point(0.0, -30.0), Point(0.0, -60.0), 0.0, Point(0.0, -40.0)),
        # on the right edge of a slab 1e-6 mm thick: only a zero-length edge
        # is read as its first corner
        (thin, Point(-0.5, 16.000000333), Point(-0.5, 16.000000333), 0.0,
         Point(-0.5, 16.000000333)),
    ]
    for obj, a, b, clear, witness in cases:
        assert obj.clearance_witness(*_xy(a, b)) == (clear, witness)


CFG = default_config()
PARAMS = CFG.finger_params()
TOL = CFG.contact_tol
_ENVELOPING = (Behavior.ENVELOPING_PROXIMAL, Behavior.ENVELOPING_DECOUPLED)
_LENGTHS = ((PARAMS.L1_min, PARAMS.geometry.L1_rest), (PARAMS.L2_min, PARAMS.geometry.L2_rest),
            (PARAMS.L3_min, PARAMS.geometry.L3_rest))
_MOVES = ("all", "base", "theta1", "theta2", "theta3", "alpha_anchor", "L1", "L2", "L3")


@st.composite
def finger_states(draw):
    """Any behaviour, drive angle, wrap, distal angle, bar lengths in [end stop,
    rest] and set of fixed phalanges; the pose need not be reachable."""
    behavior = draw(st.sampled_from(Behavior))
    theta1 = draw(st.floats(PARAMS.theta1_rest, PARAMS.theta1_max))
    if behavior in _ENVELOPING:
        anchor = draw(st.floats(PARAMS.alpha_rest - 1.0, PARAMS.alpha_rest + 1.0))
        theta2 = math.pi / 2.0 - anchor + draw(st.floats(0.0, 1.6))   # wrap in [0, 1.6]
    else:
        anchor = None
        theta2 = PARAMS.theta2_rest - (theta1 - PARAMS.theta1_rest)
    theta3 = draw(st.floats(0.0, PARAMS.theta3_max))
    lengths = [draw(st.floats(lo, hi)) for lo, hi in _LENGTHS]
    fixed = draw(st.one_of(st.just(frozenset()), st.frozensets(st.sampled_from(Phalanx))))
    return FingerState(theta1, theta2, theta3, *lengths, behavior, fixed, anchor)


def ref_phalanx_poses(params, state):
    """The earlier Point-arithmetic pose: ``o1``, ``o2``, ``o3`` and the tip."""
    psi = state.theta1 - params.theta1_down
    o2 = Point(state.L1 * math.sin(psi), -state.L1 * math.cos(psi))
    w2 = state.wrap()
    o3 = o2 + Point(math.sin(w2), -math.cos(w2)).scaled(state.L2)
    w3 = w2 + state.theta3
    tip = o3 + Point(math.sin(w3), -math.cos(w3)).scaled(state.L3)
    return Point(0.0, 0.0), o2, o3, tip


def ref_place(params, state, h, x_dir):
    """The earlier Point placement of the pose, its MCP pivot at ``-x_dir * h``."""
    c = -x_dir * h
    return [Point(c + x_dir * p.x, p.y) for p in ref_phalanx_poses(params, state)]


@settings(max_examples=400, deadline=None)
@given(finger_states(), finger_states(), st.floats(0.0, CFG.base_shift_max),
       st.sampled_from([1.0, -1.0]))
def test_the_float_pose_and_placement_are_bit_identical(state, other, base, x_dir):
    o1, o2, o3, tip = ref_phalanx_poses(PARAMS, state)
    assert (o1.x, o1.y) == (0.0, 0.0)
    assert _bits(*fg.phalanx_poses(PARAMS, state)) == _bits(*_xy(o2, o3, tip))
    assert _bits(fg._middle_chain(PARAMS, state)[3]) == _bits(o3.y)
    h = CFG.half_span(base)
    placed = _place(PARAMS, state, h, x_dir)
    assert _bits(*placed) == _bits(*_xy(*ref_place(PARAMS, state, h, x_dir)))
    # the assembly's segments and aperture read the same placement, on both sides
    asm = replace(build_gripper(CFG, base), fingers=(state, other))
    left, right = ref_place(PARAMS, state, h, 1.0), ref_place(PARAMS, other, h, -1.0)
    for i, joints in ((0, left), (1, right), (2, right)):
        segments = asm.world_segments(i)
        assert _bits(*_xy(*(a for a, _ in segments), segments[-1][1])) == _bits(*_xy(*joints))
    assert _bits(asm.aperture()) == _bits(right[3].x - left[3].x)


def _joints(state, h, x_dir):
    """The finger's joints in the world frame, its base at ``-x_dir * h``."""
    o2x, o2y, o3x, o3y, tip_x, tip_y = fg.phalanx_poses(PARAMS, state)
    return [Point(-x_dir * h + x_dir * x, y)
            for x, y in ((0.0, 0.0), (o2x, o2y), (o3x, o3y), (tip_x, tip_y))]


@st.composite
def objects_near(draw, joints):
    """A circle, rectangle (often rotated) or slab whose edge lies a few mm from
    a point of the finger, on any side of it or straight beyond the tip, or
    overlaps it."""
    if draw(st.booleans()):
        a, p = joints[2], joints[3]
        angle = math.atan2(p.y - a.y, p.x - a.x)
    else:
        k = draw(st.integers(0, 2))
        p = joints[k] + (joints[k + 1] - joints[k]).scaled(draw(fractions))
        angle = draw(st.one_of(st.sampled_from([0.0, math.pi, -math.pi / 2.0, math.pi / 2.0]),
                               st.floats(-math.pi, math.pi)))
    u = Point(math.cos(angle), math.sin(angle))
    gap = draw(st.one_of(st.floats(-1.0, 30.0), st.floats(0.0, 2.0)))
    kind = draw(st.sampled_from(ShapeKind))
    if kind is ShapeKind.CIRCLE:
        r = draw(st.floats(1.0, 80.0))
        c = p + u.scaled(r + gap)
        return SceneObject.circle(2.0 * r, x=c.x, y=c.y)
    w, h = draw(st.floats(1.0, 120.0)), draw(st.floats(1.0, 120.0))
    if kind is ShapeKind.RECTANGLE:
        c = p + u.scaled((w if abs(u.x) >= abs(u.y) else h) / 2.0 + gap)
        rotation = draw(st.one_of(st.just(0.0), st.floats(-math.pi, math.pi)))
        return SceneObject.rectangle(w, h, x=c.x, y=c.y, rotation=rotation)
    thickness = draw(st.floats(0.0, 20.0))
    if abs(u.x) >= abs(u.y):   # beside the point
        return SceneObject.slab(thickness, w, surface_y=p.y - thickness / 2.0,
                                x=p.x + math.copysign(w / 2.0 + gap, u.x))
    return SceneObject.slab(thickness, w, surface_y=p.y - gap - thickness, x=p.x)


@st.composite
def moved_fingers(draw):
    """A side's closing direction, a reference state and half span, an object
    near the finger, and a second state and half span part of the way toward
    another drawn state.

    Either everything moves (behaviour, fixed set and all), or only the base
    or one field, which makes the bound nearly tight.  The share of the way is
    chosen so that the farthest joint moves up to 1.2 times the reference's
    least free clearance beyond the tolerance, often 0.98 to 1.05 times it, so
    the bound lands on both sides of the tolerance and close to it.
    """
    ref, other = draw(finger_states()), draw(finger_states())
    x_dir = draw(st.sampled_from([1.0, -1.0]))   # the left side or the right
    ref_h = draw(st.floats(20.0, 60.0))
    obj = draw(objects_near(_joints(ref, ref_h, x_dir)))
    move = draw(st.sampled_from(_MOVES))
    shift = draw(st.floats(-20.0, 20.0)) if move in ("all", "base") else 0.0
    fields = [f for f in _MOVES[2:] if move in ("all", f)]
    if ref.alpha_anchor is None or other.alpha_anchor is None:
        fields = [f for f in fields if f != "alpha_anchor"]
    base = other if move == "all" else ref

    def toward(k):
        values = {f: getattr(ref, f) + k * (getattr(other, f) - getattr(ref, f))
                  for f in fields}
        return replace(base, **values), ref_h + k * shift

    free = [c - TOL for ph, c in zip(Phalanx, _exact(obj, ref, ref_h, x_dir))
            if ph not in ref.contact_fixed]
    far = max(_distance(a, b) for a, b in zip(_joints(ref, ref_h, x_dir),
                                                _joints(*toward(1.0), x_dir)))
    share = draw(st.one_of(st.floats(0.0, 1.2), st.floats(0.98, 1.05)))
    k = min(1.0, share * max(min(free, default=0.0), 0.0) / far) if far > 0.0 else 1.0
    return obj, x_dir, ref, ref_h, *toward(k)


def _exact(obj, state, h, x_dir):
    j = _joints(state, h, x_dir)
    return [obj.clearance_to_segment(*_xy(a, b)) for a, b in zip(j, j[1:])]


@settings(max_examples=800, deadline=None)
@given(moved_fingers())
def test_a_skipped_clearance_check_could_not_have_found_contact(case):
    obj, x_dir, ref, ref_h, moved, h = case
    last = _LastExact(x_dir)
    _clearances(CFG, ref, ref_h, obj, last)
    assert last.state is ref
    got = _clearances(CFG, moved, h, obj, last)
    exact = _exact(obj, moved, h, x_dir)
    fixed = moved.contact_fixed
    if last.state is moved:
        assert got == tuple(math.inf if ph in fixed else c for ph, c in zip(Phalanx, exact))
        return
    for ph, bound, c in zip(Phalanx, got, exact):
        if ph in fixed:
            assert bound == math.inf
            continue
        assert c > TOL
        assert bound <= c + 1e-9
