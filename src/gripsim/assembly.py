"""Three-finger assembly and the quasi-static closing loop.

The grasp plane holds one finger on the left and two kinematically identical
fingers on the right, so the simulated state is a left/right pair and
``SIDES`` maps each of the three physical fingers to its side.  All three
share one motor through the gear train, so the whole gripper advances in
lockstep and the first finger that can absorb no more motion stalls the
train.  Objects are rigid and fixed;
every motor step is routed through the transmission and then through each
finger's compliant path, with contact events resolved by bisection so no
stepped state carries a free phalanx into the object: it lands just touching
(within the contact tolerance).  The start state is not checked, so a scene
whose object overlaps a rest phalanx starts penetrating; and a phalanx that
crosses a rectangle's edge reads clearance 0, so the engine takes it for a
touch.  ``contact_detect`` asks the engine's clearance kernel too, through
``SceneObject.clearance_witness``, and places each contact at the point of
the phalanx that attains the clearance (the crossing point for a crossing
phalanx).

Each per-side change of a step goes through ``_each_side``.  While both
sides hold one state object in a scene that is its own mirror image (no
object, or a centred and unrotated one; ``_Run.mirrored``), it advances
side 0 only and hands its state to side 1, with the bits stepping both
sides would give; no other code does.

A step that cannot touch poses nothing: ``_joint_moves`` bounds how far each
joint can have moved from the two finger states alone, so ``_clearances`` and
``_gap_fraction`` pose a state only to evaluate it exactly
(docs/derivations.md, "The motion budget").  Such a closing step returns its
advanced state without looking for contacts.

The engine measures on floats: a state's pose is six floats kept on the
state (``_pose``), ``_place`` carries it to a side's world frame as eight,
and the clearance kernels take each phalanx as ``(ax, ay, bx, by)``.
``Point``s are built only for render and the tests (``side_segments``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property

from . import finger as fg
from . import linkage
from . import transmission as tm
from .config import GripperConfig, default_config
from .errors import ClassificationError, ConfigError, GripsimError
from .finger import Behavior, FingerParams, FingerState, Phalanx, PhalanxContact
from .geometry import Point
from .scene import SceneObject, ShapeKind
from .transmission import LockStage, RackSegment, Route, TransmissionState

_BISECT_ITERS = 60

# a bound skips an exact evaluation only if it clears contact_tol (a tip budget:
# zero aperture) by this much (mm); pose, bound and kernel rounding stay < 1e-11
_BOUND_MARGIN = 1e-9

# side (0 left, 1 right) of each physical finger; the two right fingers share a state
SIDES = (0, 1, 1)

# direction each side closes toward: the left finger toward +x, the right toward -x
_X_DIRS = (1.0, -1.0)

# iterating a tuple is an order of magnitude cheaper than iterating the enum
_PHALANGES = tuple(Phalanx)

Segments = tuple[tuple[Point, Point], ...]   # one finger's, in ``Phalanx`` order


@dataclass(frozen=True)
class GripperAssembly:
    """Left and right finger states, shared transmission, palm geometry.

    ``fingers`` and ``side_segments`` are indexed by side;
    ``world_segments`` and ``tip`` take a physical finger index 0-2 and map it
    through ``SIDES``.  These build ``Point``s for render and the tests, from
    the same floats the engine reads (``_place``); the segments are cached per
    instance (``replace()`` starts an empty cache), and each state object is
    posed once (``_pose``).
    """

    config: GripperConfig
    fingers: tuple[FingerState, FingerState]
    transmission: TransmissionState

    @cached_property
    def side_segments(self) -> tuple[Segments, Segments]:
        params = self.config.finger_params()
        h = self.config.half_span(self.transmission.base_translation)
        sides = []
        for f, x_dir in zip(self.fingers, _X_DIRS):
            x1, y1, x2, y2, x3, y3, x4, y4 = _place(params, f, h, x_dir)
            o1, o2, o3, tip = Point(x1, y1), Point(x2, y2), Point(x3, y3), Point(x4, y4)
            sides.append(((o1, o2), (o2, o3), (o3, tip)))
        return tuple(sides)

    def world_segments(self, i: int) -> Segments:
        return self.side_segments[SIDES[i]]

    def tip(self, i: int) -> Point:
        return self.world_segments(i)[-1][1]

    def aperture(self) -> float:
        """The right tip's world x less the left tip's, placed as ``_place`` places them."""
        params = self.config.finger_params()
        h = self.config.half_span(self.transmission.base_translation)
        left, right = (-x_dir * h + x_dir * _pose(params, f)[4]
                       for f, x_dir in zip(self.fingers, _X_DIRS))
        return right - left


def build_gripper(config: GripperConfig | None = None,
                  base_translation: float = 0.0) -> GripperAssembly:
    """Assembly at rest: parallel posture, fingers open to the mode maximum."""
    cfg = config if config is not None else default_config()
    if not 0.0 <= base_translation <= cfg.base_shift_max:
        raise ConfigError("base_translation",
                          f"must lie inside [0, base_shift_max = {cfg.base_shift_max}]")
    params = cfg.finger_params()
    rest = fg.rest_pose(params)
    trans = tm.initial_transmission(cfg.transmission_params(), base_translation)
    return GripperAssembly(config=cfg, fingers=(rest, rest), transmission=trans)


# ---------------------------------------------------------------------------
# contact detection


def contact_detect(assembly: GripperAssembly,
                   obj: SceneObject | None) -> list[tuple[int, PhalanxContact]]:
    """All phalanx/object proximities within tolerance, ordered by finger then phalanx.

    Each contact sits at its exact witness point, the point of the phalanx
    nearest the object (``SceneObject.clearance_witness``).  Each side is
    evaluated once: the fingers of a side share their contact objects.
    """
    if obj is None:
        return []
    tol = assembly.config.contact_tol
    per_side = []
    for segments in assembly.side_segments:
        found = []
        for ph, (a, b) in zip(_PHALANGES, segments):
            clear, point = obj.clearance_witness(a.x, a.y, b.x, b.y)
            if clear <= tol:
                found.append(PhalanxContact(phalanx=ph, point=point))
        per_side.append(found)
    return [(i, contact) for i, side in enumerate(SIDES) for contact in per_side[side]]


def _pose(params: FingerParams,
          state: FingerState) -> tuple[float, float, float, float, float, float]:
    """``fg.phalanx_poses(params, state)``, computed once per state object and ``params``.

    The pose is kept in the state's instance ``__dict__`` (as
    ``cached_property`` keeps a value), so equality, hashing and ``replace()``
    ignore it.  Reuse goes by identity, not equality: a state that is merely
    equal may still pose to other bits (``-0.0 == 0.0``), so it is posed afresh.
    """
    memo = state.__dict__.get("_pose")
    if memo is not None and memo[0] is params:
        return memo[1]
    pose = fg.phalanx_poses(params, state)
    state.__dict__["_pose"] = (params, pose)
    return pose


def _place(params: FingerParams, state: FingerState, h: float,
           x_dir: float) -> tuple[float, float, float, float, float, float, float, float]:
    """The world ``(x, y)`` of the MCP pivot, ``o2``, ``o3`` and the tip of one side,
    its pivot at ``-x_dir * h``: a finger-frame ``(x, y)`` lands at
    ``(-x_dir * h + x_dir * x, y)``, since a base moves along x only."""
    o2x, o2y, o3x, o3y, tip_x, tip_y = _pose(params, state)
    c = -x_dir * h
    return (c + x_dir * 0.0, 0.0, c + x_dir * o2x, o2y,
            c + x_dir * o3x, o3y, c + x_dir * tip_x, tip_y)


def _phalanges(p: tuple[float, ...]) -> tuple[tuple[float, ...], ...]:
    """The ``(ax, ay, bx, by)`` of each phalanx, in ``Phalanx`` order, of placed joints ``p``."""
    return p[:4], p[2:6], p[4:]


def _joint_moves(state: FingerState, ref: FingerState) -> tuple[float, float, float]:
    """Bounds on how far the finger-frame ``o2``, ``o3`` and tip of ``state`` lie
    from those of ``ref``, from the two states alone: each joint adds its bar's
    length change and reference length times angle change to the joint before
    it (chord <= arc; docs/derivations.md, "The motion budget")."""
    if state is ref:
        return (0.0, 0.0, 0.0)
    w2, w2_ref = state.wrap(), ref.wrap()
    d2 = abs(state.L1 - ref.L1) + ref.L1 * abs(state.theta1 - ref.theta1)
    d3 = d2 + abs(state.L2 - ref.L2) + ref.L2 * abs(w2 - w2_ref)
    d4 = d3 + abs(state.L3 - ref.L3) + ref.L3 * abs((w2 + state.theta3) - (w2_ref + ref.theta3))
    return (d2, d3, d4)


@dataclass
class _LastExact:
    """One side's ``x_dir`` and its last exact evaluation: state, half span, clearances.

    A phalanx that was in contact then holds ``-inf``, so once released it is
    always computed afresh.  The record serves one side of one run, so the
    finger parameters are those of the reference.
    """

    x_dir: float
    state: FingerState | None = None
    h: float = 0.0
    clearances: tuple[float, ...] = ()

    def bounds(self, state: FingerState, h: float, fixed: frozenset[Phalanx],
               floor: float) -> tuple[float, ...] | None:
        """Lower bounds on the clearances of ``state`` at half span ``h``, ``inf`` for
        a phalanx in ``fixed``; None unless every other phalanx's bound exceeds ``floor``.

        Clearance is 1-Lipschitz in the displacement of a segment's endpoints,
        and every point of a segment moves at most as far as its farther
        endpoint.  A change of half span moves every joint by ``|dh|``, and the
        joint moves of ``_joint_moves`` grow along the chain, so a phalanx is at
        least ``c - |dh| - d`` clear, where ``c`` is its clearance here and
        ``d`` bounds the move of its outer joint.
        """
        if self.state is None:
            return None
        shift = abs(h - self.h)
        moves = _joint_moves(state, self.state)
        (c1, c2, c3), (d2, d3, d4) = self.clearances, moves
        out = (c1 - (shift + d2), c2 - (shift + d3), c3 - (shift + d4))
        if fixed:
            out = tuple(math.inf if ph in fixed else lb for ph, lb in zip(_PHALANGES, out))
        return out if out[0] > floor and out[1] > floor and out[2] > floor else None


def _clearances(cfg: GripperConfig, state: FingerState, h: float,
                obj: SceneObject | None, last: _LastExact) -> tuple[float, ...]:
    """Each phalanx's clearance to ``obj``; ``inf`` if it is in contact or there is no object.

    A returned value above ``contact_tol`` may be a lower bound: while the
    bounds from ``last`` (the side's last exact evaluation) keep every phalanx
    not in contact more than ``contact_tol`` clear, no kernel runs and
    ``state`` is not posed.  Otherwise ``state`` is posed, every clearance is
    computed exactly and ``last`` is refreshed (``_exact_clearances``).
    Callers only ask whether a value is negative, under ``contact_tol / 2`` or
    within ``contact_tol``, which a bound answers as the exact value would.
    """
    if obj is None:
        return (math.inf,) * len(_PHALANGES)
    bounds = _free_bounds(cfg, state, h, last)
    if bounds is not None:
        return bounds
    return _exact_clearances(cfg, state, h, obj, last)


def _free_bounds(cfg: GripperConfig, state: FingerState, h: float,
                 last: _LastExact) -> tuple[float, ...] | None:
    """The bounds from ``last`` when they keep every free phalanx of ``state``
    more than ``contact_tol`` clear, else None."""
    return last.bounds(state, h, state.contact_fixed, cfg.contact_tol + _BOUND_MARGIN)


def _exact_clearances(cfg: GripperConfig, state: FingerState, h: float,
                      obj: SceneObject, last: _LastExact) -> tuple[float, ...]:
    """Pose ``state``, compute each free phalanx's clearance and make it ``last``."""
    fixed = state.contact_fixed
    segments = _phalanges(_place(cfg.finger_params(), state, h, last.x_dir))
    clear = tuple(math.inf if ph in fixed else obj.clearance_to_segment(*seg)
                  for ph, seg in zip(_PHALANGES, segments))
    last.state, last.h = state, h
    last.clearances = tuple(-math.inf if ph in fixed else c for ph, c in zip(_PHALANGES, clear))
    return clear


# ---------------------------------------------------------------------------
# stepping engine


class Verb(Enum):
    CLOSE = "close"
    OPEN = "open"
    RECONFIGURE = "reconfigure"
    RELEASE_RECONFIGURE = "release-reconfigure"
    PICK_THIN = "pick-thin"


_CLOSING = {Verb.CLOSE, Verb.PICK_THIN, Verb.RELEASE_RECONFIGURE}

_TIPS_MEET = (Behavior.PARALLEL, Behavior.THIN_OBJECT)


@dataclass
class _Run:
    assembly: GripperAssembly
    obj: SceneObject | None
    steps: int = 0
    aperture_first_contact: float | None = None
    stalled: bool = False
    tip_surface_gap: float = 0.0
    snapshots: list = field(default_factory=list)
    events: list[str] = field(default_factory=list)
    last_exact: tuple[_LastExact, _LastExact] = field(
        default_factory=lambda: (_LastExact(_X_DIRS[0]), _LastExact(_X_DIRS[1])))
    # the fingers, base shift and aperture of the last assembly whose aperture was read
    last_gap: tuple[tuple[FingerState, FingerState], float, float] | None = None

    def snap(self) -> None:
        self.snapshots.append((self.steps, self.assembly))

    def mirrored(self) -> bool:
        """Both sides hold one state object and the scene is its own mirror image.

        Side 1's world x is then side 0's negated exactly (``-x_dir * h + x_dir * x``
        with ``x_dir = ±1``), and the clearance to no object or to a centred,
        unrotated one (``SceneObject.mirror_symmetric``) is even in x bit for
        bit: a circle's by its arithmetic, a rectangle's or slab's because the
        kernel measures a +x segment as its mirror image (docs/derivations.md).
        """
        left, right = self.assembly.fingers
        return left is right and (self.obj is None or self.obj.mirror_symmetric)


def _advance_finger(cfg: GripperConfig, state: FingerState, joint_delta: float,
                    surface: float | None) -> FingerState:
    """One finger's compliant response to a closing joint increment."""
    params = cfg.finger_params()
    if state.behavior in _TIPS_MEET:
        if state.contact_fixed:
            return state
        nxt = fg.advance_theta1(params, state, joint_delta)
        if surface is not None:
            nxt = fg.distal_retract(params, nxt, surface)
        return nxt
    if state.behavior is Behavior.ENVELOPING_PROXIMAL:
        if Phalanx.MIDDLE in state.contact_fixed or Phalanx.DISTAL in state.contact_fixed:
            return state
        return fg.envelope_step(params, state, joint_delta)
    if state.behavior is Behavior.ENVELOPING_DECOUPLED:
        if Phalanx.DISTAL in state.contact_fixed:
            return state
        return fg.decouple_step(params, state, joint_delta)
    return state


def _close_finger(cfg: GripperConfig, state: FingerState, h: float,
                  obj: SceneObject | None, last: _LastExact, joint_delta: float,
                  surface: float | None) -> FingerState:
    """Advance, bisecting the step so no uncontacted phalanx crosses the object,
    then fix every phalanx the advanced state leaves within tolerance."""
    full = _advance_finger(cfg, state, joint_delta, surface)
    if obj is None or _free_bounds(cfg, full, h, last) is not None:
        # every free phalanx stays more than contact_tol clear: nothing to register
        return full
    clear = _exact_clearances(cfg, full, h, obj, last)
    if min(clear) >= 0.0:
        return _register_contacts(cfg, full, clear)

    def clear_at(t: float) -> float:
        cand = _advance_finger(cfg, state, joint_delta * t, surface)
        return min(_clearances(cfg, cand, h, obj, last))

    lo = _last_clear_fraction(cfg, clear_at)
    nxt = _advance_finger(cfg, state, joint_delta * lo, surface)
    return _register_contacts(cfg, nxt, _clearances(cfg, nxt, h, obj, last))


def _register_contacts(cfg: GripperConfig, state: FingerState,
                       clear: tuple[float, ...]) -> FingerState:
    """Fix each phalanx whose clearance (from ``_clearances`` of ``state``) is within tolerance."""
    params = cfg.finger_params()
    for ph, c in zip(_PHALANGES, clear):
        if c <= cfg.contact_tol:
            state = fg.apply_contact(params, state, ph)
    return state


def _release_contacts(cfg: GripperConfig, state: FingerState, h: float,
                      obj: SceneObject | None, last: _LastExact) -> FingerState:
    if obj is None or not state.contact_fixed:
        return state
    segments = _phalanges(_place(cfg.finger_params(), state, h, last.x_dir))
    keep = {ph for ph, seg in zip(_PHALANGES, segments)
            if ph in state.contact_fixed
            and obj.clearance_to_segment(*seg) <= 5.0 * cfg.contact_tol}
    if keep == state.contact_fixed:
        return state
    return replace(state, contact_fixed=frozenset(keep))


def _settle(cfg: GripperConfig, state: FingerState, h: float,
            obj: SceneObject | None, last: _LastExact) -> FingerState:
    """Fix every phalanx a closing base shift leaves within tolerance."""
    return _register_contacts(cfg, state, _clearances(cfg, state, h, obj, last))


def _open_finger(cfg: GripperConfig, state: FingerState, h: float,
                 obj: SceneObject | None, last: _LastExact, joint_delta: float) -> FingerState:
    """Reverse the cascade (distal uncurls, wrap releases, then the drive opens),
    then release the contacts the opened finger has left."""
    params = cfg.finger_params()
    g = cfg.geometry
    if state.behavior is Behavior.ENVELOPING_DECOUPLED and state.theta3 > 0.0:
        theta3 = max(0.0, state.theta3 - joint_delta)
        roots = linkage.solve_middle_retraction(g, theta3, g.beta)
        L2 = linkage.select_root(roots, state.L2)
        nxt = replace(state, theta3=theta3, L2=L2)
        if theta3 == 0.0:
            nxt = replace(nxt, behavior=Behavior.ENVELOPING_PROXIMAL)
    elif state.behavior in (Behavior.ENVELOPING_DECOUPLED, Behavior.ENVELOPING_PROXIMAL) \
            and state.alpha_anchor is not None:
        alpha = g.beta - state.theta2
        alpha_new = min(state.alpha_anchor, alpha + joint_delta)
        roots = linkage.solve_proximal_alpha(g, state.theta1, alpha_new)
        L1 = linkage.select_root(roots, state.L1)
        nxt = replace(state, theta2=g.beta - alpha_new, L1=L1)
        if alpha_new >= state.alpha_anchor - 1e-12:
            theta2 = params.theta2_rest - (state.theta1 - params.theta1_rest)
            nxt = replace(nxt, behavior=Behavior.PARALLEL, alpha_anchor=None,
                          theta2=theta2, L1=g.L1_rest)
    else:
        nxt = fg.advance_theta1(params, state, -joint_delta)
        if state.behavior is Behavior.THIN_OBJECT and nxt.L3 >= g.L3_rest - 1e-12:
            nxt = replace(nxt, behavior=Behavior.PARALLEL, L3=g.L3_rest)
    return _release_contacts(cfg, nxt, h, obj, last)


def _each_side(cfg: GripperConfig, run: _Run, mirrored: bool, h: float,
               move, *extra) -> tuple[FingerState, FingerState]:
    """Each side's state of ``run.assembly`` after ``move(cfg, state, h, obj, last,
    *extra)`` at half span ``h``; each side's ``last`` record carries its
    ``x_dir``.  A mirrored step (``_Run.mirrored``) moves side 0 only and hands
    its state to side 1; this is the only place that hand-over happens."""
    states, last, obj = run.assembly.fingers, run.last_exact, run.obj
    left = move(cfg, states[0], h, obj, last[0], *extra)
    if mirrored:
        return (left, left)
    return (left, move(cfg, states[1], h, obj, last[1], *extra))


def _step(cfg: GripperConfig, run: _Run, direction: int,
          surface: float | None, stop_on_engage: bool) -> bool:
    """One motor step: the shared transmission moves, then each side's finger
    (``_each_side``); returns True when anything moved."""
    asm = run.assembly
    tp = cfg.transmission_params()
    motor_delta = direction * cfg.motor_step
    trans_new, route = tm.step_transmission(tp, asm.transmission, motor_delta)

    if route is Route.STALL:
        run.stalled = True
        return False
    mirrored = run.mirrored()

    if route is Route.BASE:
        if direction < 0 and (asm.fingers[0].contact_fixed or asm.fingers[1].contact_fixed):
            # frozen contacts hold the fingers; the spring cannot pull the base past them
            run.stalled = True
            return False
        shift = trans_new.base_translation - asm.transmission.base_translation
        frac = _base_fraction(cfg, run, shift, mirrored)
        if frac <= 1e-12:
            run.stalled = True
            return False
        if frac < 1.0:
            trans_new, route2 = tm.step_transmission(tp, asm.transmission, motor_delta * frac)
            if route2 is not Route.BASE:
                run.stalled = True
                return False
        fingers = _each_side(cfg, run, mirrored, cfg.half_span(trans_new.base_translation),
                             _settle if direction < 0 else _release_contacts)
        run.assembly = GripperAssembly(cfg, fingers, trans_new)
        _note_first_contact(run)
        if stop_on_engage and trans_new.lock.stage is LockStage.ENGAGED:
            run.events.append("lock engaged")
            return False
        return True

    # Route.DRIVE
    joint_delta = abs(trans_new.D1_angle - asm.transmission.D1_angle)
    if joint_delta <= 0.0:
        run.stalled = True
        return False
    h = cfg.half_span(asm.transmission.base_translation)
    if direction > 0:
        fingers = _each_side(cfg, run, mirrored, h, _open_finger, joint_delta)
        if fingers == asm.fingers:
            return False
    else:
        fingers = _each_side(cfg, run, mirrored, h, _close_finger, joint_delta, surface)
        if _unmoved(fingers[0], asm.fingers[0]) or (
                not mirrored and _unmoved(fingers[1], asm.fingers[1])):
            # a jammed side holds the shared train
            run.stalled = True
            return False
        if _spring_load(cfg, fingers) > cfg.force_budget:
            # the motor cannot stretch the retraction springs any further
            run.stalled = True
            run.events.append("stall: spring load at the torque bound")
            return False

    asm2 = GripperAssembly(cfg, fingers, trans_new)

    # Parallel closing bottoms out when the opposed tips meet; once a finger
    # wraps, the crosswise arrangement lets the fingers interleave instead.
    if direction < 0 and fingers[0].behavior in _TIPS_MEET and fingers[1].behavior in _TIPS_MEET:
        gap_frac = _gap_fraction(run, asm2)
        if gap_frac < 1.0:
            fingers = _each_side(cfg, run, mirrored, h, _close_finger,
                                 joint_delta * gap_frac, surface)
            run.assembly = GripperAssembly(cfg, fingers, trans_new)
            _note_first_contact(run)
            run.events.append("fingertips met")
            return False

    run.assembly = asm2
    _note_first_contact(run)
    if surface is not None:
        _track_surface_gap(cfg, run, surface)
    return True


def _unmoved(state: FingerState, before: FingerState) -> bool:
    return state is before or state == before


def _spring_load(cfg: GripperConfig, fingers: tuple[FingerState, FingerState]) -> float:
    """Summed spring force (N) the motor is currently holding across all three fingers.

    Each distinct state is summed once; the fingers' sums are added in
    ``SIDES`` order, as a sum over the three fingers would add them."""
    params = cfg.finger_params()
    left, right = fingers
    left_load = sum(fg.spring_forces(params, left))
    right_load = left_load if right is left else sum(fg.spring_forces(params, right))
    loads = (left_load, right_load)
    return sum([loads[s] for s in SIDES])


def _base_fraction(cfg: GripperConfig, run: _Run, shift: float, mirrored: bool) -> float:
    """Share of a base shift the fingers can take before a free phalanx touches;
    a mirrored step probes side 0 only."""
    asm, obj = run.assembly, run.obj
    if obj is None or shift == 0.0:
        return 1.0
    travel = asm.transmission.lock.travel
    sides = (0,) if mirrored else (0, 1)

    def clear_at(t: float) -> float:
        h = cfg.half_span(travel + shift * t)
        c = math.inf
        for i in sides:
            c = min(c, *_clearances(cfg, asm.fingers[i], h, obj, run.last_exact[i]))
        return c

    if clear_at(1.0) >= 0.0:
        return 1.0
    return _last_clear_fraction(cfg, clear_at)


def _last_clear_fraction(cfg: GripperConfig, clear_at) -> float:
    """Bisect a step whose full length touches for the largest share of it,
    to within 2**-_BISECT_ITERS, that keeps the clearance at contact_tol / 2;
    a midpoint that rounds to ``lo`` or ``hi`` changes neither, so it stops there
    (docs/derivations.md, "The motion budget")."""
    lo, hi = 0.0, 1.0
    for _ in range(_BISECT_ITERS):
        mid = (lo + hi) / 2.0
        if mid == lo or mid == hi:
            break
        if clear_at(mid) < cfg.contact_tol / 2.0:
            hi = mid
        else:
            lo = mid
    return lo


def _gap_fraction(run: _Run, after: GripperAssembly) -> float:
    """Share of the closing step from ``run.assembly`` to ``after`` before the tips
    meet; 1.0 without posing while the aperture kept in ``run.last_gap`` less how
    far the tips and the base can have moved since stays above ``_BOUND_MARGIN``."""
    ref = run.last_gap
    if ref is not None:
        (left, right), ((ref_left, ref_right), ref_base, ref_gap) = after.fingers, ref
        left_move = _joint_moves(left, ref_left)[2]
        right_move = left_move if right is left and ref_right is ref_left \
            else _joint_moves(right, ref_right)[2]
        base_move = abs(after.transmission.base_translation - ref_base)
        if ref_gap - (base_move + left_move + right_move) > _BOUND_MARGIN:
            return 1.0
    g1 = after.aperture()
    run.last_gap = (after.fingers, after.transmission.base_translation, g1)
    if g1 >= 0.0:
        return 1.0
    g0 = run.assembly.aperture()
    if g0 <= g1:
        return 0.0
    return max(0.0, g0 / (g0 - g1))


def _note_first_contact(run: _Run) -> None:
    if run.aperture_first_contact is not None:
        return
    left, right = run.assembly.fingers
    if left.contact_fixed or right.contact_fixed:
        run.aperture_first_contact = run.assembly.aperture()
        run.events.append("first contact")


def _track_surface_gap(cfg: GripperConfig, run: _Run, surface: float) -> None:
    """Widen ``tip_surface_gap`` by each side whose distal bar is retracted.

    A base moves along x only, so a tip's world y is its finger-frame y."""
    params = cfg.finger_params()
    for state in run.assembly.fingers:
        if state.L3 < cfg.geometry.L3_rest - 1e-9:
            tip_y = _pose(params, state)[5]
            run.tip_surface_gap = max(run.tip_surface_gap, abs(tip_y - surface))


# ---------------------------------------------------------------------------
# command execution and reports


@dataclass(frozen=True)
class Command:
    verb: Verb
    steps: int | str = "auto"   # int, "auto", "engage" or "end"


_AUTO_BUDGET = 250_000


@dataclass
class GraspReport:
    mode: int | None
    success: bool
    aperture_first_contact: float | None
    aperture_final: float
    fingers: list[dict]
    base_translation: float
    lock_stage: str
    rack_segment: str
    steps: int
    stalled: bool
    warnings: list[str]
    trace: list[dict]
    tip_surface_gap: float | None
    snapshots: list


def run_commands(assembly: GripperAssembly, obj: SceneObject | None,
                 commands: list[Command]) -> GraspReport:
    cfg = assembly.config
    run = _Run(assembly=assembly, obj=obj)
    surface = obj.surface_y if (obj is not None and obj.on_surface) else None
    run.snap()

    for cmd in commands:
        direction = -1 if cmd.verb in _CLOSING else 1
        budget = cmd.steps if isinstance(cmd.steps, int) else _AUTO_BUDGET
        stop_on_engage = cmd.steps == "engage"
        thin = surface if cmd.verb in (Verb.PICK_THIN, Verb.CLOSE) else None
        done = 0
        try:
            while done < budget:
                moved = _step(cfg, run, direction, thin, stop_on_engage)
                done += 1
                run.steps += 1
                if run.steps % cfg.trace_stride == 0:
                    run.snap()
                if not moved:
                    break
        except GripsimError as exc:
            run.events.append(f"aborted: {exc}")
        if run.snapshots[-1][0] != run.steps:
            run.snap()

    return _build_report(cfg, run)


def classify_mode(assembly: GripperAssembly) -> int:
    """Map a terminal state to one of the five grasp modes."""
    seg = assembly.transmission.rack
    enveloping = _any_enveloping(assembly)
    if seg in (RackSegment.PART_B1, RackSegment.RED_LINE, RackSegment.PART_B2):
        if enveloping:
            raise ClassificationError("retracted phalanges during base translation")
        return 3
    if assembly.transmission.lock.stage is LockStage.ENGAGED or seg is RackSegment.PART_C:
        return 5 if enveloping else 4
    return 2 if enveloping else 1


def _any_enveloping(assembly: GripperAssembly) -> bool:
    g = assembly.config.geometry
    for f in assembly.fingers:
        if f.L1 < g.L1_rest - 1e-6 or f.L2 < g.L2_rest - 1e-6:
            return True
    return False


def _per_finger_report(cfg: GripperConfig, state: FingerState) -> dict:
    s_p, s_m, s_d, r_p, r_m, r_d = fg.contact_lengths(cfg.finger_params(), state)
    return {
        "behavior": state.behavior.value,
        "contacts": sorted(ph.value for ph in state.contact_fixed),
        "L1": state.L1, "L2": state.L2, "L3": state.L3,
        "S_P": s_p, "S_M": s_m, "S_D": s_d,
        "R_P": r_p, "R_M": r_m, "R_D": r_d,
    }


def _trace_entry(step: int, asm: GripperAssembly) -> dict:
    left, right = asm.fingers
    return {
        "step": step,
        "gap": max(0.0, asm.aperture()),
        "base": asm.transmission.base_translation,
        "segment": asm.transmission.rack.value,
        "left": _finger_trace(left),
        "right": _finger_trace(right),
    }


def _finger_trace(f: FingerState) -> dict:
    return {
        "theta1_deg": math.degrees(f.theta1),
        "wrap_deg": math.degrees(f.wrap()),
        "theta3_deg": math.degrees(f.theta3),
        "L1": f.L1, "L2": f.L2, "L3": f.L3,
        "contacts": len(f.contact_fixed),
    }


def _build_report(cfg: GripperConfig, run: _Run) -> GraspReport:
    asm, obj = run.assembly, run.obj
    left, right = asm.fingers
    degenerate = (obj is not None and obj.kind is ShapeKind.SLAB
                  and obj.thickness <= cfg.contact_tol)
    left_touch = bool(left.contact_fixed)
    right_touch = bool(right.contact_fixed)
    success = left_touch and right_touch and not degenerate
    warnings: list[str] = [e for e in run.events if e.startswith("aborted")]
    mode: int | None = None
    if degenerate:
        warnings.append("object thinner than the contact tolerance; nothing to grasp")
    try:
        mode = classify_mode(asm)
    except ClassificationError as exc:
        warnings.append(str(exc))
    if mode in (4, 5) and obj is not None and obj.max_extent <= cfg.remote_floor:
        warnings.append(
            "object fits inside the closed-finger hollow of the remote configuration"
        )
    surface_gap = run.tip_surface_gap if run.tip_surface_gap > 0.0 or any(
        f.behavior is Behavior.THIN_OBJECT for f in asm.fingers) else None
    return GraspReport(
        mode=mode,
        success=success,
        aperture_first_contact=run.aperture_first_contact,
        aperture_final=max(0.0, asm.aperture()),
        fingers=[_per_finger_report(cfg, asm.fingers[side]) for side in SIDES],
        base_translation=asm.transmission.base_translation,
        lock_stage=asm.transmission.lock.stage.value,
        rack_segment=asm.transmission.rack.value,
        steps=run.steps,
        stalled=run.stalled,
        warnings=warnings,
        trace=[_trace_entry(step, snap) for step, snap in run.snapshots],
        tip_surface_gap=surface_gap,
        snapshots=run.snapshots,
    )


# ---------------------------------------------------------------------------
# aperture ranges


def aperture_range(assembly: GripperAssembly, mode: int) -> tuple[float, float] | None:
    """Fingertip-gap extrema over the mode's drive interval (None if unreachable)."""
    cfg = assembly.config
    step = cfg.motor_to_joint(cfg.motor_step)
    lay = cfg.layout
    translated = cfg.base_shift_max > 0.0 and cfg.slot_peak <= cfg.base_shift_max

    def sweep_theta(t_lo: float, t_hi: float, shift: float) -> tuple[float, float]:
        gaps = []
        t = t_lo
        while t < t_hi:
            gaps.append(cfg.aperture_at(t, shift))
            t += step
        gaps.append(cfg.aperture_at(t_hi, shift))
        return max(0.0, min(gaps)), max(gaps)

    if mode == 1:
        return sweep_theta(lay.theta1_rest, min(cfg.theta1_close_home, cfg.theta1_max), 0.0)
    if mode == 2:
        lo_gap = max(cfg.envelope_floor, cfg.aperture_at(lay.theta1_fold, 0.0))
        hi_gap = cfg.aperture_at(lay.theta1_rest, 0.0)
        if lo_gap > hi_gap:
            return None
        return (lo_gap, hi_gap)
    if not translated:
        return None
    if mode == 3:
        lo = cfg.aperture_at(lay.theta1_rest, 0.0)
        hi = cfg.aperture_at(lay.theta1_rest, cfg.base_shift_max)
        return (lo, hi)
    locked = cfg.slot_peak
    if mode == 4:
        return sweep_theta(lay.theta1_rest,
                           min(cfg.theta1_close_at(locked), cfg.theta1_max), locked)
    if mode == 5:
        lo_gap = cfg.remote_floor
        hi_gap = cfg.aperture_at(lay.theta1_rest, locked)
        if lo_gap > hi_gap:
            return None
        return (lo_gap, hi_gap)
    raise ValueError(f"unknown mode {mode}")


def sweep_ranges(config: GripperConfig | None = None) -> dict[int, tuple[float, float] | None]:
    asm = build_gripper(config)
    return {m: aperture_range(asm, m) for m in (1, 2, 3, 4, 5)}
