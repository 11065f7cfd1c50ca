import math
from dataclasses import replace

import pytest

from gripsim import finger as fg
from gripsim import linkage
from gripsim.errors import GripsimError, SurfaceTooHighError
from gripsim.finger import Behavior, Phalanx


@pytest.fixture()
def params(cfg):
    return cfg.finger_params()


@pytest.fixture()
def rest(params):
    return fg.rest_pose(params)


def test_rest_pose_holds_published_lengths(params, rest):
    assert (rest.L1, rest.L2, rest.L3) == (70.0, 55.0, 51.0)
    assert rest.behavior is Behavior.PARALLEL
    assert not rest.contact_fixed


def test_rest_pose_closes_both_loops(cfg, params, rest):
    g = cfg.geometry
    alpha = g.beta - rest.theta2
    assert abs(linkage.closure_residual(g, rest.theta1, alpha, rest.L1)) < 1e-9
    assert abs(linkage.middle_closure_residual(g, rest.theta3, g.beta, rest.L2)) < 1e-9


def test_rest_contact_spans(params, rest):
    s_p, s_m, s_d, r_p, r_m, r_d = fg.contact_lengths(params, rest)
    assert (s_p, s_m, s_d) == (70.0, 55.0, 51.0)
    assert (r_p, r_m, r_d) == (0.0, 0.0, 0.0)


def test_parallel_step_zero_delta_is_identity(params, rest):
    assert fg.parallel_step(params, rest, 0.0) == rest


def test_parallel_step_requires_parallel_mode(params, rest):
    touched = replace(rest, contact_fixed=frozenset({Phalanx.PROXIMAL}))
    with pytest.raises(GripsimError):
        fg.parallel_step(params, touched, 0.1)


def test_parallel_sweep_keeps_the_assembly_perpendicular(params, rest):
    """Two independent angle routes agree: middle axis vs four-bar coupler."""
    state = rest
    step = math.radians(0.5)
    for _ in range(60):
        state = fg.parallel_step(params, state, step)
        coupler = fg.coupler_angle_via_fourbar(params, state)
        middle = fg.middle_axis_angle(state)
        assert abs((coupler - middle) - math.pi / 2.0) < 1e-9
        assert state.L1 == 70.0 and state.L2 == 55.0


def test_parallel_step_saturates_at_travel_limits(params, rest):
    state = fg.parallel_step(params, rest, math.radians(500.0))
    assert state.theta1 == params.theta1_max


def test_proximal_contact_freezes_theta1_and_compresses_L1(params, rest):
    state = fg.parallel_step(params, rest, math.radians(30.0))
    state = fg.apply_contact(params, state, Phalanx.PROXIMAL)
    assert state.behavior is Behavior.ENVELOPING_PROXIMAL
    theta1_frozen = state.theta1
    prev = state.L1
    for _ in range(40):
        state = fg.envelope_step(params, state, math.radians(0.5))
        assert state.theta1 == theta1_frozen
        assert state.L1 <= prev + 1e-12
        assert state.L2 == 55.0
        prev = state.L1
    assert state.L1 < 70.0


def test_jammed_envelope_step_returns_the_state_unchanged(params, rest):
    """The stepping engine reads an unchanged finger as jammed."""
    state = fg.parallel_step(params, rest, math.radians(30.0))
    state = fg.apply_contact(params, state, Phalanx.PROXIMAL)
    assert fg.envelope_step(params, state, math.radians(20.0)) == state


def test_wrap_is_anchored_to_the_closure_manifold(cfg, params, rest):
    g = cfg.geometry
    state = fg.parallel_step(params, rest, math.radians(30.0))
    state = fg.apply_contact(params, state, Phalanx.PROXIMAL)
    state = fg.envelope_step(params, state, math.radians(3.0))
    alpha = g.beta - state.theta2
    assert abs(linkage.closure_residual(g, state.theta1, alpha, state.L1)) < 1e-9


def test_middle_contact_decouples_the_distal(params, rest):
    state = fg.parallel_step(params, rest, math.radians(30.0))
    state = fg.apply_contact(params, state, Phalanx.PROXIMAL)
    state = fg.envelope_step(params, state, math.radians(5.0))
    state = fg.apply_contact(params, state, Phalanx.MIDDLE)
    assert state.behavior is Behavior.ENVELOPING_DECOUPLED
    L1_frozen, theta2_frozen = state.L1, state.theta2
    prev_L2 = state.L2
    for _ in range(40):
        state = fg.decouple_step(params, state, math.radians(0.5))
        assert state.L1 == L1_frozen
        assert state.theta2 == theta2_frozen
        assert state.L2 <= prev_L2 + 1e-12
        prev_L2 = state.L2
    assert state.theta3 > 0.0
    assert state.L2 < 55.0


def test_decoupled_wrap_clamps_at_the_end_stop(params, rest):
    state = fg.parallel_step(params, rest, math.radians(20.0))
    state = fg.apply_contact(params, state, Phalanx.PROXIMAL)
    state = fg.apply_contact(params, state, Phalanx.MIDDLE)
    state = fg.decouple_step(params, state, math.radians(720.0))
    assert state.theta3 == params.theta3_max
    assert state.L2 == pytest.approx(params.L2_min, abs=1e-6)


@pytest.mark.parametrize("phalanx", [Phalanx.PROXIMAL, Phalanx.MIDDLE, Phalanx.DISTAL])
def test_a_contact_changes_no_pose_numbers(params, rest, phalanx):
    state = fg.parallel_step(params, rest, math.radians(25.0))
    touched = fg.apply_contact(params, state, phalanx)
    assert touched.contact_fixed == {phalanx}
    assert (touched.theta1, touched.theta3) == (state.theta1, state.theta3)
    assert (touched.L1, touched.L2, touched.L3) == (state.L1, state.L2, state.L3)
    again = fg.apply_contact(params, touched, phalanx)
    assert again == touched


def test_distal_retract_keeps_the_tip_on_the_surface(cfg, params, rest):
    o3_y = fg.phalanx_poses(params, rest)[3]
    natural_tip = o3_y - cfg.geometry.L3_rest
    # tip exactly at the surface: nothing to do
    same = fg.distal_retract(params, rest, natural_tip)
    assert same.L3 == cfg.geometry.L3_rest
    # surface 5 mm above the natural tip: compress exactly 5 mm
    pressed = fg.distal_retract(params, rest, natural_tip + 5.0)
    assert pressed.L3 == pytest.approx(cfg.geometry.L3_rest - 5.0)
    assert pressed.behavior is Behavior.THIN_OBJECT
    tip_after = fg.phalanx_poses(params, pressed)[5]
    assert tip_after == pytest.approx(natural_tip + 5.0, abs=1e-9)


def test_distal_retract_full_travel_is_fifteen_mm(cfg, params, rest):
    o3_y = fg.phalanx_poses(params, rest)[3]
    natural_tip = o3_y - cfg.geometry.L3_rest
    pressed = fg.distal_retract(params, rest, natural_tip + 15.0)
    assert cfg.geometry.L3_rest - pressed.L3 == pytest.approx(15.0)
    assert pressed.L3 == pytest.approx(params.L3_min)


def test_distal_retract_rejects_too_high_surfaces(cfg, params, rest):
    o3_y = fg.phalanx_poses(params, rest)[3]
    natural_tip = o3_y - cfg.geometry.L3_rest
    with pytest.raises(SurfaceTooHighError):
        fg.distal_retract(params, rest, natural_tip + 15.5)


def test_fully_compressed_contact_spans(params, rest):
    squeezed = replace(rest, L1=46.0, L2=36.0, L3=36.0)
    s_p, s_m, s_d, r_p, r_m, r_d = fg.contact_lengths(params, squeezed)
    assert (s_p, s_m, s_d) == pytest.approx((40.0, 26.0, 36.0))
    assert s_p + s_m + s_d == pytest.approx(102.0)
    total_ratio = 1.0 - (s_p + s_m + s_d) / 176.0
    assert total_ratio == pytest.approx(0.42045, abs=1e-4)


def test_half_compressed_proximal_span_interpolates_linearly(params, rest):
    half = replace(rest, L1=(70.0 + 46.0) / 2.0)
    _, _, _, r_p, _, _ = fg.contact_lengths(params, half)
    assert r_p == pytest.approx(0.5 * 30.0 / 70.0)


def test_contact_span_bounds_hold_everywhere(params, rest):
    for L1 in (70.0, 60.0, 46.0):
        for L2 in (55.0, 45.0, 36.0):
            for L3 in (51.0, 43.0, 36.0):
                s = fg.contact_lengths(params, replace(rest, L1=L1, L2=L2, L3=L3))
                assert 40.0 <= s[0] <= 70.0
                assert 26.0 <= s[1] <= 55.0
                assert 36.0 <= s[2] <= 51.0


def test_spring_forces(params, rest):
    assert fg.spring_forces(params, rest) == (0.0, 0.0, 0.0)
    f_mcp, _, _ = fg.spring_forces(params, replace(rest, L1=46.0))
    assert f_mcp == pytest.approx(24.0)
    _, f_pip, _ = fg.spring_forces(params, replace(rest, L2=36.0))
    assert f_pip == pytest.approx(15.2)
    _, _, f_dip = fg.spring_forces(params, replace(rest, L3=36.0))
    assert f_dip == pytest.approx(0.55 * 15.0)


def test_spring_work_matches_half_k_delta_squared(params, rest):
    """Linear springs are path independent: integrated work equals 0.5*K*x**2."""
    k = params.springs.K_MCP
    path = [70.0 - 24.0 * (i / 400.0) ** 1.7 for i in range(401)]  # uneven path
    work = 0.0
    for a, b in zip(path, path[1:]):
        fa = k * (70.0 - a)
        fb = k * (70.0 - b)
        work += 0.5 * (fa + fb) * (a - b)
    assert work == pytest.approx(0.5 * k * 24.0 ** 2, rel=1e-6)
