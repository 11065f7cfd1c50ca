import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gripsim import linkage
from gripsim.errors import InfeasibleConfigurationError, NonPhysicalRootError
from gripsim.geometry import Point


def _theta2(geom, alpha):
    return geom.beta - alpha


def circle_horizontal_line_intersect(center, radius, y):
    """x coordinates where the horizontal line at height y meets the circle."""
    dy = y - center.y
    disc = radius * radius - dy * dy
    if disc < 0.0:
        return []
    if disc == 0.0:
        return [center.x]
    r = math.sqrt(disc)
    return [center.x - r, center.x + r]


def test_horizontal_line_cut():
    xs = circle_horizontal_line_intersect(Point(2, 1), 5.0, 4.0)
    assert xs == pytest.approx([-2, 6])
    assert circle_horizontal_line_intersect(Point(0, 0), 1.0, 2.0) == []


def oracle_lengths(La, Lb, Lc, near, far):
    """Independent construction: circle about the crank tip cut by the coupler locus line."""
    tip = Point(-La * math.cos(near), La * math.sin(near))
    xs = circle_horizontal_line_intersect(tip, Lb, Lc * math.sin(far))
    return sorted(-x - Lc * math.cos(far) for x in xs)


def test_alpha_from_is_a_plain_difference(cfg):
    b = cfg.geometry.beta
    assert linkage.alpha_from(b, b) == 0.0
    assert linkage.alpha_from(math.radians(30), math.radians(90)) == pytest.approx(math.radians(60))
    assert linkage.alpha_from(0.0, math.radians(90)) == pytest.approx(math.radians(90))


def test_worked_proximal_example(cfg):
    g = cfg.geometry
    r = linkage.solve_proximal_retraction(g, math.radians(30), _theta2(g, math.radians(60)))
    assert r.root_lo == pytest.approx(17.0097, abs=0.01)
    assert r.root_hi == pytest.approx(74.2339, abs=0.01)
    assert r.root_lo + r.root_hi == pytest.approx(91.2436, abs=1e-3)
    assert r.root_lo * r.root_hi == pytest.approx(1262.693, abs=1e-2)


def test_collinear_configuration_adds_distances_on_a_line(cfg):
    g = cfg.geometry
    r = linkage.solve_proximal_retraction(g, 0.0, _theta2(g, 0.0))
    assert r.root_lo == pytest.approx(g.L1a - g.L1c - g.L1b)
    assert r.root_hi == pytest.approx(g.L1a - g.L1c + g.L1b)


def test_printed_constant_sign_has_no_real_roots(cfg):
    """Regression: the +Lb**2 variant of the closure constant cannot close."""
    g = cfg.geometry
    with pytest.raises(InfeasibleConfigurationError):
        linkage.solve_proximal_retraction_printed(g, math.radians(30),
                                                  _theta2(g, math.radians(60)))


def test_infeasible_configuration_names_the_angles(cfg):
    g = cfg.geometry
    with pytest.raises(InfeasibleConfigurationError) as err:
        linkage.solve_proximal_retraction(g, math.radians(90), _theta2(g, math.radians(10)))
    assert "90.0000 deg" in str(err.value)


def test_middle_example_with_small_coupler(cfg):
    from dataclasses import replace
    g = replace(cfg.geometry, L2c=20.0, kappa=0.0)
    r = linkage.solve_middle_retraction(g, 0.0, g.beta)
    assert r.b == pytest.approx(40.0)
    assert r.c == pytest.approx(-4476.0)
    assert r.root_lo == pytest.approx(-89.828, abs=0.01)
    assert r.root_hi == pytest.approx(49.828, abs=0.01)
    assert linkage.select_root(r, 55.0) == pytest.approx(49.828, abs=0.01)


def test_middle_rest_closure_is_exact(cfg):
    g = cfg.geometry
    assert linkage.middle_length(g, g.kappa) == pytest.approx(g.L2_rest, abs=1e-9)
    assert abs(linkage.middle_closure_residual(g, 0.0, g.beta, g.L2_rest)) < 1e-9


def test_select_root_prefers_continuity_then_positivity(cfg):
    r = linkage.QuadraticRoots(root_lo=17.01, root_hi=74.23, b=-91.24, c=1262.7)
    assert linkage.select_root(r, 70.0) == 74.23
    assert linkage.select_root(r, 20.0) == 17.01
    neg = linkage.QuadraticRoots(root_lo=-89.83, root_hi=49.83, b=40.0, c=-4476.0)
    assert linkage.select_root(neg, 55.0) == 49.83
    both_neg = linkage.QuadraticRoots(root_lo=-5.0, root_hi=-1.0, b=6.0, c=5.0)
    with pytest.raises(NonPhysicalRootError):
        linkage.select_root(both_neg, 10.0)


def test_select_root_tie_breaks_toward_the_lower_root():
    r = linkage.QuadraticRoots(root_lo=10.0, root_hi=30.0, b=-40.0, c=300.0)
    assert linkage.select_root(r, 20.0) == 10.0


@settings(max_examples=300, deadline=None)
@given(st.floats(0.0, math.pi), st.floats(0.0, math.pi))
def test_proximal_solver_matches_oracle_and_closure(theta1, alpha):
    from gripsim.config import default_config
    g = default_config().geometry
    expected = oracle_lengths(g.L1a, g.L1b, g.L1c, theta1, alpha)
    try:
        r = linkage.solve_proximal_retraction(g, theta1, _theta2(g, alpha))
    except InfeasibleConfigurationError:
        assert expected == []
        return
    assert len(expected) in (1, 2)
    got = sorted([r.root_lo, r.root_hi])
    for e, a in zip(expected, got if len(expected) == 2 else [got[0]]):
        assert abs(e - a) < 1e-9
    for root in got:
        assert abs(linkage.closure_residual(g, theta1, alpha, root)) < 1e-9 \
            if root > 0 else True
    # Vieta
    assert (r.root_lo + r.root_hi) == pytest.approx(-r.b, rel=1e-9, abs=1e-9)
    assert (r.root_lo * r.root_hi) == pytest.approx(r.c, rel=1e-9, abs=1e-9)


def test_anchor_alpha_puts_the_rest_length_on_the_upper_branch(cfg):
    g = cfg.geometry
    for theta1_deg in (10.0, 20.0, 30.0, 45.0, 50.0):
        a = linkage.anchor_alpha(g, math.radians(theta1_deg), g.L1_rest)
        assert a is not None
        roots = linkage.solve_proximal_alpha(g, math.radians(theta1_deg), a)
        assert roots.root_hi == pytest.approx(g.L1_rest, abs=1e-6)


def test_anchor_alpha_fails_beyond_the_fold(cfg):
    g = cfg.geometry
    fold = linkage.proximal_fold_angle(g)
    assert linkage.anchor_alpha(g, fold + math.radians(2.0), g.L1_rest) is None


def test_root_continuation_is_continuous_along_an_enveloping_path(cfg):
    """No branch jumps: < 5 mm change per 0.5 degree step."""
    g = cfg.geometry
    theta1 = math.radians(40.0)
    alpha = linkage.anchor_alpha(g, theta1, g.L1_rest)
    step = math.radians(0.5)
    prev = g.L1_rest
    while True:
        alpha -= step
        try:
            roots = linkage.solve_proximal_alpha(g, theta1, alpha)
        except InfeasibleConfigurationError:
            break
        cur = linkage.select_root(roots, prev)
        if abs(cur - prev) > 5.0:
            break
        assert abs(cur - prev) < 5.0
        prev = cur
    assert prev < cfg.L1_min  # the path really compressed past the end stop
