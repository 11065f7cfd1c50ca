"""The calibration solvers reproduce their numpy/scipy references bit for bit.

``calibrate.brentq`` ports scipy's C ``brentq`` and ``calibrate._middle_min``
scans the grid of ``np.linspace`` in plain Python.  The references here are
the numpy/scipy code they replace, so every resolved constant keeps its bits.
``solve_middle_link`` is the one-off grid search that produced the ``L2c``
literal pinned in ``config.default_geometry``.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.optimize
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from gripsim import calibrate, linkage
from gripsim.cli import main
from gripsim.config import build_config, default_geometry
from gripsim.errors import ConfigError, GripsimError
from gripsim.linkage import LinkageGeometry
from gripsim.scenario import parse_scenario

PINNED_L2C = "0x1.de66666666652p+4"
DEFAULT_KAPPA = "0x1.a054fb81ae6cdp-1"


def _middle_lengths(geom: LinkageGeometry, deltas: np.ndarray) -> np.ndarray:
    """Upper-root middle lengths over an array of five-bar angles (NaN where open
    or where the upper root is not positive)."""
    b = 2.0 * geom.L2c * np.cos(deltas) - 2.0 * geom.L2a * math.cos(geom.beta)
    c = (geom.L2a ** 2 + geom.L2c ** 2
         - 2.0 * geom.L2a * geom.L2c * np.cos(deltas - geom.beta) - geom.L2b ** 2)
    disc = b * b - 4.0 * c
    out = np.full_like(deltas, np.nan)
    ok = disc >= 0.0
    out[ok] = (-b[ok] + np.sqrt(disc[ok])) / 2.0
    out[out <= 0.0] = np.nan
    return out


def _middle_min_numpy(geom: LinkageGeometry) -> tuple[float, float]:
    """The numpy scan ``calibrate._middle_min`` replaces, refinement included."""
    deltas = np.linspace(-math.pi / 2.0, max(geom.kappa, 0.1), 4001)
    lengths = _middle_lengths(geom, deltas)
    i = int(np.nanargmin(lengths))
    # a least length next to an angle where the linkage cannot close is rejected
    if np.isnan(lengths[max(i - 1, 0):i + 2]).any():
        raise ConfigError("L2c", "no closing bracket")
    a, b = float(deltas[max(i - 1, 0)]), float(deltas[min(i + 1, len(deltas) - 1)])
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
            kappa = calibrate.solve_kappa(g)
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


def test_pinned_l2c_is_what_the_search_finds():
    published = replace(default_geometry(), L2c=1.0, kappa=0.0)
    L2c, kappa = solve_middle_link(published, 36.0)
    assert L2c.hex() == PINNED_L2C
    assert kappa.hex() == DEFAULT_KAPPA
    assert default_geometry().L2c.hex() == PINNED_L2C
    assert default_geometry().kappa.hex() == DEFAULT_KAPPA


def _outcome(solve, f, a, b, maxiter=100):
    """A root's bits, or the type of the error the solve raised."""
    try:
        return solve(f, a, b, xtol=1e-13, rtol=8.9e-16, maxiter=maxiter).hex()
    except (ValueError, RuntimeError, GripsimError) as exc:
        return type(exc)


def _assert_same_root(f, a, b):
    want = _outcome(scipy.optimize.brentq, f, a, b)
    assert _outcome(calibrate.brentq, f, a, b) == want
    return want


# L2_rest and L2b decide whether the linkage closes at all: +-10 %;
# the shorter L2a and L2c: +-30 %
_geometries = st.builds(
    lambda r, a, b, c: replace(default_geometry(), L2_rest=55.0 * r, L2a=30.0 * a,
                               L2b=76.0 * b, L2c=default_geometry().L2c * c, kappa=0.0),
    st.floats(0.9, 1.1), st.floats(0.7, 1.3), st.floats(0.9, 1.1), st.floats(0.7, 1.3))


def _with_kappa(geom: LinkageGeometry) -> LinkageGeometry:
    def f(delta):
        return linkage.middle_length(geom, delta) - geom.L2_rest
    try:
        bracketed = math.copysign(1.0, f(0.0)) != math.copysign(1.0, f(math.pi / 2.0))
    except GripsimError:
        bracketed = False
    assume(bracketed)
    kappa = _assert_same_root(f, 0.0, math.pi / 2.0)
    assume(isinstance(kappa, str))
    return replace(geom, kappa=float.fromhex(kappa))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(_geometries, st.floats(20.0, 50.0))
def test_brentq_matches_scipy_at_both_call_sites(geom, L2_min):
    geom = _with_kappa(geom)
    try:
        lo_len, arg = calibrate._middle_min(geom)
    except ConfigError:   # no closing bracket around the grid minimum
        lo_len = math.inf
    assume(lo_len <= L2_min)

    def f(delta):
        return linkage.middle_length(geom, delta) - L2_min

    _assert_same_root(f, arg, geom.kappa)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(_geometries)
def test_plain_scan_matches_the_numpy_scan(geom):
    geom = _with_kappa(geom)

    def outcome(scan):
        try:
            return tuple(v.hex() for v in scan(geom))
        except GripsimError as exc:
            return type(exc)

    assert outcome(calibrate._middle_min) == outcome(_middle_min_numpy)


@pytest.mark.parametrize("k", [1.0, 0.5, 2.0])
def test_plain_scan_matches_the_numpy_scan_on_the_default_geometry(k):
    geom = build_config().scaled(k).geometry
    got, want = calibrate._middle_min(geom), _middle_min_numpy(geom)
    assert (got[0].hex(), got[1].hex()) == (want[0].hex(), want[1].hex())


@pytest.mark.parametrize("f, a, b, maxiter", [
    (lambda x: x * x + 1.0, -1.0, 1.0, 100),          # no sign change
    (lambda x: x - 0.3, -1.0, 1.0, 2),                # out of iterations
    (lambda x: math.nan if x > 0.0 else -1.0, -1.0, 1.0, 100),
    (lambda x: x - 0.25, 0.25, 1.0, 100),             # root on an end point
    (lambda x: math.cos(x) - x, 0.0, 1.0, 100),
])
def test_brentq_fails_and_succeeds_as_scipy_does(f, a, b, maxiter):
    assert _outcome(calibrate.brentq, f, a, b, maxiter) == \
        _outcome(scipy.optimize.brentq, f, a, b, maxiter)


def test_stop_angle_is_memoised_per_geometry_and_stop(monkeypatch):
    scans = []
    scan = calibrate._middle_min

    def counted(geom):
        scans.append(geom)
        return scan(geom)

    monkeypatch.setattr(calibrate, "_middle_min", counted)
    coarse = build_config(L2_min=35.125, motor_step=math.radians(2.0))
    fine = build_config(L2_min=35.125, motor_step=math.radians(0.25))
    assert coarse.delta_stop == fine.delta_stop
    assert len(scans) == 1
    build_config(L2_min=35.0625)
    assert len(scans) == 2


# the grid minimum of this middle linkage sits next to angles where it cannot
# close or closes only to a negative upper root; a bracket reaching over there
# made build_config fail with no field, a minimum over them read -9.4 mm, and
# skipping them left 0.016 mm at the first angle that closes: no minimum at all
OPEN_NEIGHBOUR = "[gripper]\nL2_rest = 59.2\nL2a = 38.7\nL2b = 76.1\nL2c = 38.8\n"


def _open_neighbour_geometry():
    geom = replace(default_geometry(), L2_rest=59.2, L2a=38.7, L2b=76.1, L2c=38.8)
    return replace(geom, kappa=calibrate.solve_kappa(geom))


def _closes_to_a_positive_length(geom, delta):
    try:
        return linkage.middle_length(geom, delta) > 0.0
    except GripsimError:
        return False


def test_the_refinement_stays_where_the_middle_linkage_closes():
    geom = default_geometry()
    lo_len, arg = calibrate._middle_min(geom)
    assert linkage.middle_length(geom, arg) == lo_len
    step = (max(geom.kappa, 0.1) + math.pi / 2.0) / 4000
    assert _closes_to_a_positive_length(geom, arg - step)
    assert _closes_to_a_positive_length(geom, arg + step)
    # a least grid length next to an angle that cannot close is refused, not refined
    with pytest.raises(ConfigError) as err:
        calibrate._middle_min(_open_neighbour_geometry())
    assert err.value.field == "L2c"
    with pytest.raises(ConfigError) as err:
        parse_scenario(OPEN_NEIGHBOUR).build_config()
    assert err.value.field == "L2c"


def test_the_minimum_middle_length_is_positive_or_a_config_error_on_l2c():
    try:
        lo_len, _ = calibrate._middle_min(_open_neighbour_geometry())
    except ConfigError as exc:
        assert exc.field == "L2c"
    else:
        assert lo_len > 0.0


def test_calibrate_rejects_a_linkage_whose_minimum_borders_an_open_angle(tmp_path, capsys):
    path = tmp_path / "open_neighbour.scn"
    path.write_text(OPEN_NEIGHBOUR, encoding="utf-8")
    assert main(["calibrate", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: L2c: ")
