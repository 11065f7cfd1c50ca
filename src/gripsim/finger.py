"""Contact-driven behavioral state machine of one finger.

A finger is three phalanx segments hanging from an MCP pivot.  With no
contact the whole chain sweeps as a parallel mechanism: the middle+distal
assembly keeps its world orientation while the drive angle advances.  A
proximal contact freezes the drive angle and routes further motion into the
proximal retraction quadratic (the middle wraps, the proximal bar shortens).
A middle contact freezes the wrap and decouples the distal, which then wraps
alone while the middle bar shortens.  The distal bar shortens only against a
support surface (thin-object pickup).

All states are immutable values in the finger's own frame: MCP pivot at the
origin, +x toward the opposing finger, +y up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

from . import linkage
from .errors import GripsimError, SurfaceTooHighError
from .geometry import Point
from .linkage import LinkageGeometry

ROOT_JUMP_LIMIT = 5.0  # mm per step; larger means the root branch folded


class Phalanx(Enum):
    PROXIMAL = "proximal"
    MIDDLE = "middle"
    DISTAL = "distal"


class Behavior(Enum):
    PARALLEL = "parallel"
    ENVELOPING_PROXIMAL = "enveloping_proximal"
    ENVELOPING_DECOUPLED = "enveloping_decoupled"
    THIN_OBJECT = "thin_object"


@dataclass(frozen=True)
class SpringBank:
    """Per-joint spring rates (N/mm).  MCP/PIP load in tension, DIP in compression."""

    K_MCP: float = 1.0
    K_PIP: float = 0.8
    K_DIP: float = 0.55


@dataclass(frozen=True)
class PhalanxContact:
    phalanx: Phalanx
    point: Point


@dataclass(frozen=True)
class FingerParams:
    """Everything a finger needs, resolved once from the gripper config."""

    geometry: LinkageGeometry
    theta1_rest: float
    theta1_down: float
    theta1_max: float
    alpha_rest: float
    theta2_rest: float
    theta3_max: float
    L1_min: float
    L2_min: float
    L3_min: float
    contact_rest: tuple[float, float, float]
    contact_min: tuple[float, float, float]
    springs: SpringBank


@dataclass(frozen=True)
class FingerState:
    """Joint angles, current retractable lengths and behavioral mode.

    ``theta2`` tracks the parallel idealization while no contact exists and is
    re-anchored to the closure manifold the instant enveloping begins (the
    visible pose stays continuous; only the bookkeeping angle jumps).
    """

    theta1: float
    theta2: float
    theta3: float
    L1: float
    L2: float
    L3: float
    behavior: Behavior = Behavior.PARALLEL
    contact_fixed: frozenset[Phalanx] = frozenset()
    alpha_anchor: float | None = None

    def wrap(self) -> float:
        """World rotation of the middle+distal assembly away from vertical."""
        if self.alpha_anchor is None:
            return 0.0
        return self.alpha_anchor - (linkage.RIGHT_ANGLE - self.theta2)


def rest_pose(params: FingerParams) -> FingerState:
    """The spring-held configuration: all bars at rest length, assembly vertical."""
    g = params.geometry
    return FingerState(
        theta1=params.theta1_rest,
        theta2=params.theta2_rest,
        theta3=0.0,
        L1=g.L1_rest,
        L2=g.L2_rest,
        L3=g.L3_rest,
    )


def phalanx_poses(params: FingerParams,
                  state: FingerState) -> tuple[float, float, float, float, float, float]:
    """The PIP joint ``o2``, DIP joint ``o3`` and fingertip in the finger frame,
    as ``(o2x, o2y, o3x, o3y, tip_x, tip_y)``; the MCP pivot ``o1`` is the origin.

    Each joint is the one before it plus its bar's unit direction scaled by
    the bar's length, in that order of operations (docs/derivations.md,
    "The chain")."""
    o2x, o2y, o3x, o3y, w2 = _middle_chain(params, state)
    w3 = w2 + state.theta3
    return (o2x, o2y, o3x, o3y,
            o3x + math.sin(w3) * state.L3, o3y + -math.cos(w3) * state.L3)


def _middle_chain(params: FingerParams,
                  state: FingerState) -> tuple[float, float, float, float, float]:
    """The PIP and DIP joints ``o2`` and ``o3`` (x, y each) and the middle's world wrap."""
    psi = state.theta1 - params.theta1_down
    o2x, o2y = state.L1 * math.sin(psi), -state.L1 * math.cos(psi)
    w2 = state.wrap()
    return o2x, o2y, o2x + math.sin(w2) * state.L2, o2y + -math.cos(w2) * state.L2, w2


def coupler_angle_via_fourbar(params: FingerParams, state: FingerState) -> float:
    """World angle of the four-bar coupler derived through the linkage frame.

    Valid on the no-contact stroke; a consistency route independent of the
    pose construction, used to verify the parallel-mode perpendicularity.
    """
    psi = state.theta1 - params.theta1_down
    alpha_par = params.alpha_rest + (state.theta1 - params.theta1_rest)
    frame = linkage.RIGHT_ANGLE + psi
    mount = -(linkage.RIGHT_ANGLE + (params.theta1_rest - params.theta1_down)
              + math.pi - params.alpha_rest)
    return frame + (math.pi - alpha_par) + mount


def middle_axis_angle(state: FingerState) -> float:
    w2 = state.wrap()
    return w2 - linkage.RIGHT_ANGLE


def advance_theta1(params: FingerParams, state: FingerState, delta: float) -> FingerState:
    """Sweep the drive angle with the parallel idealization (no contact routing)."""
    theta1 = min(max(state.theta1 + delta, params.theta1_rest), params.theta1_max)
    theta2 = params.theta2_rest - (theta1 - params.theta1_rest)
    return FingerState(theta1, theta2, state.theta3, state.L1, state.L2, state.L3,
                       state.behavior, state.contact_fixed, state.alpha_anchor)


def parallel_step(params: FingerParams, state: FingerState, drive_delta: float) -> FingerState:
    """Advance the drive angle in parallel mode; lengths stay at rest."""
    if state.behavior is not Behavior.PARALLEL or state.contact_fixed:
        raise GripsimError("parallel_step requires parallel mode with no contact")
    return advance_theta1(params, state, drive_delta)


def apply_contact(params: FingerParams, state: FingerState, phalanx: Phalanx) -> FingerState:
    """Freeze the struck phalanx's driving angle and select the compliant path."""
    if phalanx in state.contact_fixed:
        return state

    fixed = state.contact_fixed | {phalanx}
    behavior = state.behavior
    theta2 = state.theta2
    anchor = state.alpha_anchor

    if phalanx is Phalanx.PROXIMAL and state.behavior is Behavior.PARALLEL:
        anchor = linkage.anchor_alpha(params.geometry, state.theta1, state.L1)
        if anchor is not None:
            behavior = Behavior.ENVELOPING_PROXIMAL
            theta2 = params.geometry.beta - anchor
        # beyond the closure fold the finger simply freezes in place
    elif phalanx is Phalanx.MIDDLE:
        if state.behavior in (Behavior.PARALLEL, Behavior.ENVELOPING_PROXIMAL):
            behavior = Behavior.ENVELOPING_DECOUPLED

    return replace(state, contact_fixed=fixed, behavior=behavior,
                   theta2=theta2, alpha_anchor=anchor)


def envelope_step(params: FingerParams, state: FingerState, delta: float) -> FingerState:
    """Compress the proximal bar by advancing the wrap at frozen theta1.

    A jam returns ``state`` unchanged, which the stepping engine reads as jammed.
    """
    if state.behavior is not Behavior.ENVELOPING_PROXIMAL or state.alpha_anchor is None:
        raise GripsimError("envelope_step requires an anchored enveloping state")
    g = params.geometry
    alpha = g.beta - state.theta2
    alpha_new = alpha - delta
    try:
        roots = linkage.solve_proximal_alpha(g, state.theta1, alpha_new)
        L1_new = linkage.select_root(roots, state.L1)
    except GripsimError:
        return state
    if abs(L1_new - state.L1) > ROOT_JUMP_LIMIT or L1_new > state.L1 + 1e-9:
        # root branch folding; jam here rather than jump branches
        return state
    if L1_new < params.L1_min:
        stops = [a for a in linkage.alpha_candidates_for_length(g, state.theta1, params.L1_min)
                 if alpha_new - 1e-12 <= a <= alpha + 1e-12]
        if not stops:
            return state
        alpha_new = max(stops)
        L1_new = params.L1_min
    return FingerState(state.theta1, g.beta - alpha_new, state.theta3, L1_new, state.L2, state.L3,
                       state.behavior, state.contact_fixed, state.alpha_anchor)


def decouple_step(params: FingerParams, state: FingerState, delta: float) -> FingerState:
    """Wrap the decoupled distal phalanx, compressing the middle bar."""
    if state.behavior is not Behavior.ENVELOPING_DECOUPLED:
        raise GripsimError("decouple_step requires a decoupled state")
    g = params.geometry
    theta3_new = min(state.theta3 + delta, params.theta3_max)
    roots = linkage.solve_middle_retraction(g, theta3_new, g.beta)
    L2_new = linkage.select_root(roots, state.L2)
    if L2_new < params.L2_min - 1e-9:
        theta3_new = params.theta3_max
        roots = linkage.solve_middle_retraction(g, theta3_new, g.beta)
        L2_new = linkage.select_root(roots, state.L2)
    return FingerState(state.theta1, state.theta2, theta3_new, state.L1, L2_new, state.L3,
                       state.behavior, state.contact_fixed, state.alpha_anchor)


def distal_retract(params: FingerParams, state: FingerState,
                   surface_height: float) -> FingerState:
    """Shorten the distal bar exactly enough to keep the fingertip on the surface."""
    o3_y = _middle_chain(params, state)[3]
    natural_tip = o3_y - params.geometry.L3_rest
    if natural_tip >= surface_height:
        return replace(state, L3=params.geometry.L3_rest)
    required = o3_y - surface_height
    if required < params.L3_min - 1e-9:
        raise SurfaceTooHighError(
            f"surface needs distal length {required:.3f} mm, below the "
            f"{params.L3_min:.1f} mm end stop"
        )
    return replace(state, L3=required, behavior=Behavior.THIN_OBJECT)


def contact_lengths(params: FingerParams,
                    state: FingerState) -> tuple[float, float, float, float, float, float]:
    """Exposed contact-surface lengths and retraction ratios (S_P, S_M, S_D, R_P, R_M, R_D).

    The exposed span shrinks affinely with the bar length between the rest
    and end-stop endpoints (mutual occlusion of the sliding halves).
    """
    g = params.geometry
    spans = []
    for (length, rest_len, min_len, s_rest, s_min) in (
        (state.L1, g.L1_rest, params.L1_min, params.contact_rest[0], params.contact_min[0]),
        (state.L2, g.L2_rest, params.L2_min, params.contact_rest[1], params.contact_min[1]),
        (state.L3, g.L3_rest, params.L3_min, params.contact_rest[2], params.contact_min[2]),
    ):
        frac = (rest_len - length) / (rest_len - min_len)
        span = s_rest - frac * (s_rest - s_min)
        spans.append(min(s_rest, max(s_min, span)))
    ratios = [(s_rest - s) / s_rest for s, s_rest in zip(spans, params.contact_rest)]
    return spans[0], spans[1], spans[2], ratios[0], ratios[1], ratios[2]


def spring_forces(params: FingerParams, state: FingerState) -> tuple[float, float, float]:
    """Joint spring loads (N): F = K * displacement from rest."""
    g = params.geometry
    k = params.springs
    return (
        k.K_MCP * (g.L1_rest - state.L1),
        k.K_PIP * (g.L2_rest - state.L2),
        k.K_DIP * (g.L3_rest - state.L3),
    )
