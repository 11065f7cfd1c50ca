"""What a motor step keeps from the steps before it, and that keeping it changes no bit.

A step that cannot touch pays little beyond its transmission and finger
arithmetic: ``_spring_load`` sums each distinct finger state once, and the
contact bisection stops once its midpoint stops moving.  A step that aborts
leaves the run where it was, and the next command goes on from there.
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gripsim.assembly as asm_mod
import gripsim.finger as fg
from gripsim.assembly import (
    SIDES,
    Command,
    Verb,
    _last_clear_fraction,
    _spring_load,
    build_gripper,
    run_commands,
)
from gripsim.errors import GripsimError
from gripsim.finger import Phalanx
from gripsim.scenario import parse_scenario


def _fixed_bisection(cfg, clear_at) -> float:
    """The bisection as it was: always 60 iterations."""
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = (lo + hi) / 2.0
        if clear_at(mid) < cfg.contact_tol / 2.0:
            hi = mid
        else:
            lo = mid
    return lo


def _touching_from(x: float, calls: list[float] | None = None):
    def clear_at(t: float) -> float:
        if calls is not None:
            calls.append(t)
        return -1.0 if t >= x else 1.0
    return clear_at


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0, exclude_min=True))
@example(5e-324)
@example(2.0 ** -61)
@example(2.0 ** -60)
@example(2.0 ** -59)
@example(3e-17)
@example(0.5)
@example(0.375)
@example(2.0 ** -30)
@example(0.1)
@example(1.0 / 3.0)
@example(1.0 - 1e-15)
@example(1.0 - 2.0 ** -52)
@example(1.0 - 2.0 ** -53)
@example(1.0)
def test_the_bisection_stops_at_float_collapse_with_the_same_result(cfg, x):
    assert _last_clear_fraction(cfg, _touching_from(x)) == _fixed_bisection(cfg, _touching_from(x))


@pytest.mark.parametrize("x", [1.0, 1.0 - 2.0 ** -53, 1.0 - 2.0 ** -52])
def test_the_bisection_skips_the_iterations_that_repeat_a_decision(cfg, x):
    calls: list[float] = []
    lo = _last_clear_fraction(cfg, _touching_from(x, calls))
    assert lo == _fixed_bisection(cfg, _touching_from(x))
    assert len(calls) < 60
    assert len(set(calls)) == len(calls)


def test_the_bisection_keeps_its_bits_where_the_clearance_is_not_monotone(cfg):
    # touching on [0.2, 0.3] and from 0.6 on, and wherever sin(1e6 t) < 0 above 0.9
    def clear_at(t: float) -> float:
        touching = 0.2 <= t <= 0.3 or t >= 0.6 or (t > 0.9 and math.sin(1e6 * t) < 0.0)
        return -1.0 if touching else 1.0
    assert _last_clear_fraction(cfg, clear_at) == _fixed_bisection(cfg, clear_at)


def _load(scenario_dir, name):
    scn = parse_scenario((scenario_dir / f"{name}.scn").read_text(encoding="utf-8"), name=name)
    cfg = scn.build_config()
    return cfg, build_gripper(cfg, base_translation=scn.base_translation), scn


def _fail_once(monkeypatch, name: str, when) -> list[int]:
    """Make ``assembly.<name>`` raise a GripsimError at its first call that
    ``when(h)`` accepts, ``h`` being the half span it is asked at; returns that
    call's number, once it happened."""
    real, calls, failed = getattr(asm_mod, name), [0], []

    def failing(cfg, state, h, *args):
        calls[0] += 1
        if not failed and when(h):
            failed.append(calls[0])
            raise GripsimError("injected")
        return real(cfg, state, h, *args)
    monkeypatch.setattr(asm_mod, name, failing)
    return failed


def test_a_base_shift_that_aborts_leaves_the_mounts_at_the_old_base(scenario_dir, monkeypatch):
    # box150 shifts its base out, then closes it back onto the box; one closing
    # base step raises in _settle at the half span of its new travel, so the
    # assembly stays where it was, and the next command goes on from there
    cfg, gripper, scn = _load(scenario_dir, "box150_translational")
    failed = _fail_once(monkeypatch, "_settle", lambda h: True)
    commands = [Command(Verb.RECONFIGURE, "end"), Command(Verb.RELEASE_RECONFIGURE),
                Command(Verb.RELEASE_RECONFIGURE)]
    report = run_commands(gripper, scn.build_object(), commands)
    assert failed == [1]
    assert report.warnings == ["aborted: injected"]
    assert report.success and report.mode == 3


def test_a_drive_after_an_aborted_base_shift_uses_the_old_mounts(scenario_dir, monkeypatch):
    # cube80 engages the lock; the first step beyond the red mark raises in
    # _release_contacts, so the base stays at the mark and the close drives there
    cfg, gripper, scn = _load(scenario_dir, "cube80_remote")
    peak = cfg.half_span(cfg.slot_peak)
    failed = _fail_once(monkeypatch, "_release_contacts", lambda h: h > peak)
    commands = [Command(Verb.RECONFIGURE, "engage"), Command(Verb.OPEN, 5),
                Command(Verb.CLOSE)]
    report = run_commands(gripper, scn.build_object(), commands)
    assert failed
    assert report.warnings == ["aborted: injected"]
    assert report.base_translation == cfg.slot_peak
    assert report.success and report.mode == 4


def _reference_load(cfg, fingers) -> float:
    params = cfg.finger_params()
    return sum(sum(fg.spring_forces(params, fingers[s])) for s in SIDES)


def test_the_spring_load_is_the_three_finger_sum_bit_for_bit(cfg, scenario_dir):
    params = cfg.finger_params()
    rest = build_gripper(cfg).fingers[0]
    held = fg.apply_contact(params, fg.advance_theta1(params, rest, 0.3), Phalanx.PROXIMAL)
    squeezed = fg.envelope_step(params, held, 0.05)
    assert squeezed.L1 < rest.L1
    _, gripper, scn = _load(scenario_dir, "cyl40_proximal")
    final = run_commands(gripper, scn.build_object(), scn.build_commands()).snapshots[-1][1]
    assert final.fingers[0].contact_fixed
    pairs = [(squeezed, squeezed), (rest, squeezed), (squeezed, rest), final.fingers]
    for fingers in pairs:
        got, want = _spring_load(cfg, fingers), _reference_load(cfg, fingers)
        assert got.hex() == want.hex()
    assert _reference_load(cfg, (squeezed, squeezed)) > 0.0
