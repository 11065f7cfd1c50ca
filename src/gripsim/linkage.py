"""Closed-form solvers for the retractable-linkage geometry of one phalanx chain.

Each phalanx's main bar doubles as a spring-loaded prismatic link (slider on
rail).  Its length couples to the surrounding four-bar through a vector-loop
closure that reduces to a quadratic; the solvers here return both roots and a
branch selector keeps the physical one.

Sign note: expanding the closure equation puts the coupler length into the
constant term with a MINUS sign,

    c = La**2 + Lc**2 - 2*La*Lc*cos(far - near) - Lb**2

A printed variant of this constant with +Lb**2 circulates; it has no real
roots on feasible configurations.  See docs/derivations.md and the
regression test pinning both behaviours.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError, InfeasibleConfigurationError, NonPhysicalRootError

RIGHT_ANGLE = math.pi / 2.0

# discriminants in [-DISC_CLAMP, 0) are treated as tangent (float noise)
DISC_CLAMP = 1e-9


@dataclass(frozen=True)
class LinkageGeometry:
    """Constant link lengths and fixed angles of one finger (mm / rad).

    ``kappa`` (rest angle of the distal five-bar input), ``L1c`` and ``L2c``
    are not part of the published bill of materials: ``L1c`` defaults to
    ``L1b``, and ``L2c`` and ``kappa`` are resolved by :mod:`gripsim.calibrate`.
    ``D2`` appears in the bill of materials but no closure equation uses it.
    """

    L1_rest: float
    L1a: float
    L1b: float
    L1c: float
    L2_rest: float
    L2a: float
    L2b: float
    L2c: float
    L3_rest: float
    L3a: float
    D1: float
    D2: float
    beta: float
    kappa: float

    def validate(self) -> None:
        for name in ("L1_rest", "L1a", "L1b", "L1c", "L2_rest", "L2a", "L2b",
                     "L2c", "L3_rest", "L3a", "D1", "D2"):
            if not 0.0 < getattr(self, name) < math.inf:   # False for NaN too
                raise ConfigError(name, "length must be finite and strictly positive")
        if self.beta != RIGHT_ANGLE:
            raise ConfigError("beta", "must be exactly pi/2")


@dataclass(frozen=True)
class QuadraticRoots:
    """Both roots of a retraction quadratic x**2 + b*x + c = 0."""

    root_lo: float
    root_hi: float
    b: float
    c: float

    def as_tuple(self) -> tuple[float, float]:
        return (self.root_lo, self.root_hi)


def alpha_from(theta2: float, beta: float) -> float:
    """Four-bar angle at the coupler end, alpha = beta - theta2."""
    return beta - theta2


def _solve_retraction(La: float, Lb: float, Lc: float, near: float, far: float,
                      what: str) -> QuadraticRoots:
    b = 2.0 * Lc * math.cos(far) - 2.0 * La * math.cos(near)
    c = La * La + Lc * Lc - 2.0 * La * Lc * math.cos(far - near) - Lb * Lb
    disc = b * b - 4.0 * c
    if -DISC_CLAMP <= disc < 0.0:
        disc = 0.0
    if disc < 0.0:
        raise InfeasibleConfigurationError(
            f"{what} linkage cannot close: near angle {math.degrees(near):.4f} deg, "
            f"far angle {math.degrees(far):.4f} deg give discriminant {disc:.6g}"
        )
    r = math.sqrt(disc)
    return QuadraticRoots(root_lo=(-b - r) / 2.0, root_hi=(-b + r) / 2.0, b=b, c=c)


def solve_proximal_retraction(geom: LinkageGeometry, theta1: float,
                              theta2: float) -> QuadraticRoots:
    """Roots of the proximal retraction quadratic for joint angles (theta1, theta2)."""
    alpha = alpha_from(theta2, geom.beta)
    return _solve_retraction(geom.L1a, geom.L1b, geom.L1c, theta1, alpha, "proximal")


def solve_proximal_alpha(geom: LinkageGeometry, theta1: float,
                         alpha: float) -> QuadraticRoots:
    """Same solve with alpha given directly (enveloping advances alpha)."""
    return _solve_retraction(geom.L1a, geom.L1b, geom.L1c, theta1, alpha, "proximal")


def solve_proximal_retraction_printed(geom: LinkageGeometry, theta1: float,
                                      theta2: float) -> QuadraticRoots:
    """Same quadratic but with the circulating +Lb**2 sign in the constant.

    Kept only so the regression suite can demonstrate that this variant has
    no real roots on feasible configurations.  Not used by the simulator.
    """
    alpha = alpha_from(theta2, geom.beta)
    La, Lb, Lc = geom.L1a, geom.L1b, geom.L1c
    b = 2.0 * Lc * math.cos(alpha) - 2.0 * La * math.cos(theta1)
    c = La * La + Lc * Lc - 2.0 * La * Lc * math.cos(alpha - theta1) + Lb * Lb
    disc = b * b - 4.0 * c
    if disc < 0.0:
        raise InfeasibleConfigurationError(
            f"printed-form proximal quadratic has discriminant {disc:.6g} < 0"
        )
    r = math.sqrt(disc)
    return QuadraticRoots(root_lo=(-b - r) / 2.0, root_hi=(-b + r) / 2.0, b=b, c=c)


def solve_middle_retraction(geom: LinkageGeometry, theta3: float,
                            beta: float) -> QuadraticRoots:
    """Roots of the middle retraction quadratic; delta = kappa - theta3."""
    delta = geom.kappa - theta3
    return _solve_retraction(geom.L2a, geom.L2b, geom.L2c, beta, delta, "middle")


def select_root(roots: QuadraticRoots, previous_length: float) -> float:
    """Pick the physical root: nearest to the previous length, positive preferred.

    Ties break toward root_lo so a path of states is reproducible bit for bit.
    """
    candidates = [roots.root_lo, roots.root_hi]
    positive = [r for r in candidates if r > 0.0]
    if not positive:
        raise NonPhysicalRootError(
            f"both roots non-positive: {roots.root_lo:.6f}, {roots.root_hi:.6f}"
        )
    return min(positive, key=lambda r: (abs(r - previous_length), r))


def closure_residual(geom: LinkageGeometry, theta1: float, alpha: float,
                     L1: float) -> float:
    """Vector-loop closure residual (mm**2); zero when the four-bar closes."""
    dx = L1 + geom.L1c * math.cos(alpha) - geom.L1a * math.cos(theta1)
    dy = geom.L1a * math.sin(theta1) - geom.L1c * math.sin(alpha)
    return dx * dx + dy * dy - geom.L1b * geom.L1b


def middle_closure_residual(geom: LinkageGeometry, theta3: float, beta: float,
                            L2: float) -> float:
    delta = geom.kappa - theta3
    dx = L2 + geom.L2c * math.cos(delta) - geom.L2a * math.cos(beta)
    dy = geom.L2a * math.sin(beta) - geom.L2c * math.sin(delta)
    return dx * dx + dy * dy - geom.L2b * geom.L2b


def far_angle_for_length(La: float, Lb: float, Lc: float, near: float,
                         length: float) -> list[float]:
    """Both far-side angles that close the loop at a given bar length.

    Inverse of the retraction quadratic: solve P*cos(a) - Q*sin(a) = R where
    P, Q depend on the near-side angle.  Empty when the loop cannot close.
    """
    P = length - La * math.cos(near)
    Q = La * math.sin(near)
    R = (Lb * Lb - Lc * Lc - P * P - Q * Q) / (2.0 * Lc)
    rho = math.hypot(P, Q)
    if rho < 1e-12:
        # bar endpoint coincides with the far joint: any angle closes
        return []
    ratio = R / rho
    if abs(ratio) > 1.0 + 1e-12:
        return []
    ratio = min(1.0, max(-1.0, ratio))
    phi = math.atan2(Q, P)
    spread = math.acos(ratio)
    return [spread - phi, -spread - phi]


def alpha_candidates_for_length(geom: LinkageGeometry, theta1: float,
                                L1: float) -> list[float]:
    return far_angle_for_length(geom.L1a, geom.L1b, geom.L1c, theta1, L1)


def anchor_alpha(geom: LinkageGeometry, theta1: float, L1: float) -> float | None:
    """Closure-consistent alpha at which L1 sits on the upper root branch.

    Used when enveloping begins: the retraction path must start exactly at the
    rest length and compress as alpha decreases.
    """
    for alpha in alpha_candidates_for_length(geom, theta1, L1):
        roots = _solve_retraction(geom.L1a, geom.L1b, geom.L1c, theta1, alpha, "proximal")
        if abs(roots.root_hi - L1) <= 1e-6:
            return alpha
    return None


def proximal_fold_angle(geom: LinkageGeometry) -> float:
    """Largest theta1 admitting closure at rest length (coupler dyad straightens)."""
    num = geom.L1_rest ** 2 + geom.L1a ** 2 - (geom.L1b + geom.L1c) ** 2
    den = 2.0 * geom.L1_rest * geom.L1a
    return math.acos(min(1.0, max(-1.0, num / den)))


def middle_length(geom: LinkageGeometry, delta: float) -> float:
    """Upper-root middle bar length as a function of the five-bar input angle."""
    roots = _solve_retraction(geom.L2a, geom.L2b, geom.L2c, geom.beta, delta, "middle")
    return roots.root_hi
