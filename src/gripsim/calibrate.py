"""Resolution of the constants the bill of materials does not pin down.

Three things are searched for:

* ``L2c`` — chosen so the middle linkage's geometric minimum length sits just
  below the 36 mm slider end stop (the stop must be reachable with margin).
* ``kappa`` — the rest five-bar input angle, root of L2(kappa) = L2_rest.
* palm layout ``(h, theta1_down, theta1_rest)`` — closed form from the
  parallel-mode aperture maximum, the enveloping floor, and the rest lean.

The defaults produced here are deterministic: the same geometry always
resolves to the same constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import brentq

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


def _middle_lengths(geom: LinkageGeometry, deltas: np.ndarray) -> np.ndarray:
    """Upper-root middle lengths over an array of five-bar angles (NaN where open)."""
    b = 2.0 * geom.L2c * np.cos(deltas) - 2.0 * geom.L2a * math.cos(geom.beta)
    c = (geom.L2a ** 2 + geom.L2c ** 2
         - 2.0 * geom.L2a * geom.L2c * np.cos(deltas - geom.beta) - geom.L2b ** 2)
    disc = b * b - 4.0 * c
    out = np.full_like(deltas, np.nan)
    ok = disc >= 0.0
    out[ok] = (-b[ok] + np.sqrt(disc[ok])) / 2.0
    return out


def _middle_min(geom: LinkageGeometry) -> tuple[float, float]:
    """(minimum middle length, argmin delta) over the physically open range."""
    deltas = np.linspace(-math.pi / 2.0, max(geom.kappa, 0.1), 4001)
    lengths = _middle_lengths(geom, deltas)
    i = int(np.nanargmin(lengths))
    a = float(deltas[max(0, i - 1)])
    b = float(deltas[min(len(deltas) - 1, i + 1)])
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
    return float(brentq(f, lo, hi, xtol=1e-13, rtol=8.9e-16))


def solve_middle_link(geom: LinkageGeometry, L2_min: float,
                      margin: float = 1.0) -> tuple[float, float]:
    """1-D search for L2c: deepest reachable length ~= L2_min - margin.

    Returns (L2c, kappa).  The margin keeps the end stop clear of the root
    fold so the branch selector never operates on merged roots.
    """
    target = L2_min - margin
    scan = np.linspace(-math.pi / 2.0, math.pi / 2.0, 2001)
    best: tuple[float, float, float] | None = None
    for L2c in np.arange(0.3 * L2_min, 1.3 * L2_min + 1e-9, 0.1):
        g = replace(geom, L2c=float(L2c), kappa=0.0)
        try:
            kappa = solve_kappa(g)
        except ConfigError:
            continue
        g = replace(g, kappa=kappa)
        lo = float(np.nanmin(_middle_lengths(g, scan)))
        err = abs(lo - target)
        if best is None or err < best[0]:
            best = (err, float(L2c), kappa)
    if best is None:
        raise ConfigError("L2c", "no candidate closes the middle linkage at rest")
    return best[1], best[2]


def middle_stop_angle(geom: LinkageGeometry, L2_min: float) -> float:
    """Five-bar input angle at which the middle bar reaches its end stop."""
    lo_len, arg = _middle_min(geom)
    if lo_len > L2_min:
        # stop not reachable; the geometric minimum is the travel limit
        return arg

    def f(delta: float) -> float:
        return linkage.middle_length(geom, delta) - L2_min

    return float(brentq(f, arg, geom.kappa, xtol=1e-13, rtol=8.9e-16))
