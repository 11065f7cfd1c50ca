"""Resolution of the constants the bill of materials does not pin down.

* ``L2c`` puts the middle linkage's geometric minimum length just below the
  36 mm slider end stop.  It was searched once on a grid; ``config`` pins the
  result as a float literal, and a test re-runs the search against it.
* ``kappa`` (the rest five-bar input angle, root of L2(kappa) = L2_rest) and
  the distal stop are solved at configuration build by :func:`brentq`.
* palm layout ``(h, theta1_down, theta1_rest)`` — closed form from the
  parallel-mode aperture maximum, the enveloping floor, and the rest lean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from . import linkage
from .errors import ConfigError
from .linkage import LinkageGeometry


@dataclass(frozen=True)
class PalmLayout:
    """Where the fingers sit on the palm and how the drive angle maps to lean."""

    half_width: float        # palm centre to MCP pivot at home (mm)
    theta1_down: float       # theta1 at which the proximal bar hangs vertical
    theta1_rest: float       # theta1 at full open
    theta1_fold: float       # enveloping feasibility limit


def solve_palm_layout(geom: LinkageGeometry, aperture_max: float,
                      envelope_floor: float, rest_lean: float) -> PalmLayout:
    """Closed-form layout: gap(rest) = aperture_max and gap(fold) = envelope_floor.

    gap(theta1) = 2*h - 2*L1_rest*sin(theta1 - theta1_down).
    """
    L = geom.L1_rest
    half_width = (aperture_max - 2.0 * L * math.sin(rest_lean)) / 2.0
    if half_width <= 0.0:
        raise ConfigError("aperture_max", "smaller than the rest-lean tip spread")
    fold = linkage.proximal_fold_angle(geom)
    s = (2.0 * half_width - envelope_floor) / (2.0 * L)
    if not 0.0 < s < 1.0:
        raise ConfigError("envelope_floor", "unreachable with this palm width")
    theta1_down = fold - math.asin(s)
    theta1_rest = theta1_down - rest_lean
    if theta1_rest <= 0.0:
        raise ConfigError("rest_lean", "pushes the rest drive angle out of range")
    return PalmLayout(half_width=half_width, theta1_down=theta1_down,
                      theta1_rest=theta1_rest, theta1_fold=fold)


def brentq(f, xa: float, xb: float, xtol: float = 1e-13, rtol: float = 8.9e-16,
           maxiter: int = 100) -> float:
    """Root of ``f`` on [xa, xb] by Brent's method (Brent 1973, ch. 4).

    Ported operation for operation from scipy's C ``brentq``, so the bits
    match; it raises ValueError and RuntimeError where scipy does.
    """
    def call(x: float) -> float:
        if math.isnan(fx := f(x)):
            raise ValueError(f"the function value at x={x} is NaN; solver cannot continue")
        return fx

    xpre, xcur = xa, xb
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:   # secant interpolation
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:              # inverse quadratic extrapolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = call(xcur)
    raise RuntimeError(f"failed to converge after {maxiter} iterations, value is {xcur}")


def _middle_min(geom: LinkageGeometry) -> tuple[float, float]:
    """(minimum middle length, argmin delta) over the physically open range.

    The first least length on ``np.linspace``'s 4001-point grid brackets a
    golden-section search; angles where the linkage cannot close, or closes
    only to a non-positive upper root, are skipped.  A least length next to
    such an angle is where the linkage starts to close, not a minimum of the
    middle length, so that geometry is a ``ConfigError`` on ``L2c``.
    """
    lo, hi = -math.pi / 2.0, max(geom.kappa, 0.1)
    step = (hi - lo) / 4000
    grid = [k * step + lo for k in range(4000)] + [hi]
    L2a, L2b, L2c, beta = geom.L2a, geom.L2b, geom.L2c, geom.beta
    lengths = []
    for delta in grid:
        b = 2.0 * L2c * math.cos(delta) - 2.0 * L2a * math.cos(beta)
        c = L2a ** 2 + L2c ** 2 - 2.0 * L2a * L2c * math.cos(delta - beta) - L2b ** 2
        disc = b * b - 4.0 * c
        root = (-b + math.sqrt(disc)) / 2.0 if disc >= 0.0 else math.inf
        lengths.append(root if root > 0.0 else math.inf)
    i = lengths.index(min(lengths))
    if math.inf in lengths[max(i - 1, 0):i + 2]:
        raise ConfigError("L2c", "the middle linkage cannot close next to its shortest length")
    a, b = grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    for _ in range(60):
        if linkage.middle_length(geom, c) < linkage.middle_length(geom, d):
            b = d
        else:
            a = c
        c = b - invphi * (b - a)
        d = a + invphi * (b - a)
    arg = (a + b) / 2.0
    return linkage.middle_length(geom, arg), arg


def solve_kappa(geom: LinkageGeometry) -> float:
    """Rest five-bar angle: middle length equals L2_rest with theta3 = 0."""
    def f(delta: float) -> float:
        return linkage.middle_length(geom, delta) - geom.L2_rest

    lo, hi = 0.0, math.pi / 2.0
    if f(lo) * f(hi) > 0.0:
        raise ConfigError("L2c", "no rest angle reproduces the middle rest length")
    return brentq(f, lo, hi)


@lru_cache(maxsize=256)
def middle_stop_angle(geom: LinkageGeometry, L2_min: float) -> float:
    """Five-bar input angle at which the middle bar reaches its end stop.

    Memoised, so configurations that share a geometry and stop share a scan.
    """
    lo_len, arg = _middle_min(geom)
    if lo_len > L2_min:
        # stop not reachable; the geometric minimum is the travel limit
        return arg

    def f(delta: float) -> float:
        return linkage.middle_length(geom, delta) - L2_min

    return brentq(f, arg, geom.kappa)
