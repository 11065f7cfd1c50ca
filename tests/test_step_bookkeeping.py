"""What a motor step keeps from the steps before it, and that keeping it changes no bit.

A step that cannot touch pays little beyond its transmission and finger
arithmetic: the run holds the mounts of its base until the base moves,
``_spring_load`` sums each distinct finger state once, and the contact
bisection stops once its midpoint stops moving.
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gripsim.assembly as asm_mod
import gripsim.finger as fg
import gripsim.transmission as tm
from gripsim.assembly import (
    SIDES,
    Command,
    Verb,
    _last_clear_fraction,
    _mounts,
    _spring_load,
    build_gripper,
    run_commands,
)
from gripsim.errors import GripsimError
from gripsim.finger import Phalanx
from gripsim.scenario import parse_scenario
from gripsim.transmission import Route


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


def _bits(mounts) -> list[tuple[str, str]]:
    return [(m.center.hex(), m.x_dir.hex()) for m in mounts]


def _load(scenario_dir, name):
    scn = parse_scenario((scenario_dir / f"{name}.scn").read_text(encoding="utf-8"), name=name)
    cfg = scn.build_config()
    return cfg, build_gripper(cfg, base_translation=scn.base_translation), scn


def _check_held_mounts(monkeypatch) -> list[int]:
    """After every step, the mounts the run holds for its base are the assembly's
    own, bit for bit.  Every drive step moves the fingers at the mounts of the
    assembly it starts from, and every base step that completes settles them at
    the mounts of the assembly it ends at."""
    step, each_side = asm_mod._step, asm_mod._each_side
    checked = [0, 0, 0]   # steps, drive moves, base moves
    base_moves = []

    def stepped(cfg, run, *args):
        before = run.assembly
        base_moves.clear()
        moved = step(cfg, run, *args)
        travel = run.assembly.transmission.base_translation
        assert _bits(run.mounts_at(travel)) == _bits(run.assembly.mounts())
        if run.assembly is not before:
            for mounts in base_moves:
                assert _bits(mounts) == _bits(run.assembly.mounts())
                checked[2] += 1
        checked[0] += 1
        return moved

    def sided(cfg, run, mirrored, mounts, move, *extra):
        if move is asm_mod._close_finger or move is asm_mod._open_finger:
            assert _bits(mounts) == _bits(run.assembly.mounts())
            checked[1] += 1
        else:
            base_moves.append(mounts)
        return each_side(cfg, run, mirrored, mounts, move, *extra)

    monkeypatch.setattr(asm_mod, "_step", stepped)
    monkeypatch.setattr(asm_mod, "_each_side", sided)
    return checked


@pytest.mark.parametrize("name", ["cube80_remote", "box150_translational"])
def test_the_held_mounts_follow_the_base(name, scenario_dir, monkeypatch):
    cfg, gripper, scn = _load(scenario_dir, name)
    checked = _check_held_mounts(monkeypatch)
    report = run_commands(gripper, scn.build_object(), scn.build_commands())
    assert checked[0] == report.steps
    assert checked[2] > 5000
    assert checked[1] > 1000 if name == "cube80_remote" else checked[1] == 0


def _fail_once(monkeypatch, name: str, when) -> list[int]:
    """Make ``assembly.<name>`` raise a GripsimError at its first call that
    ``when(mount)`` accepts; returns that call's number, once it happened."""
    real, calls, failed = getattr(asm_mod, name), [0], []

    def failing(cfg, state, mount, *args):
        calls[0] += 1
        if not failed and when(mount):
            failed.append(calls[0])
            raise GripsimError("injected")
        return real(cfg, state, mount, *args)
    monkeypatch.setattr(asm_mod, name, failing)
    return failed


def test_a_base_shift_that_aborts_leaves_the_mounts_at_the_old_base(scenario_dir, monkeypatch):
    # box150 shifts its base out, then closes it back onto the box; one closing
    # base step raises in _settle after it has asked for the mounts of its new
    # travel, so the assembly stays where it was, and the next command goes on
    cfg, gripper, scn = _load(scenario_dir, "box150_translational")
    failed = _fail_once(monkeypatch, "_settle", lambda mount: True)
    checked = _check_held_mounts(monkeypatch)
    commands = [Command(Verb.RECONFIGURE, "end"), Command(Verb.RELEASE_RECONFIGURE),
                Command(Verb.RELEASE_RECONFIGURE)]
    report = run_commands(gripper, scn.build_object(), commands)
    assert failed == [1]
    assert report.warnings == ["aborted: injected"]
    assert checked[0] == report.steps
    assert checked[2] > 3000
    assert report.success and report.mode == 3


def test_a_drive_after_an_aborted_base_shift_uses_the_old_mounts(scenario_dir, monkeypatch):
    # cube80 engages the lock; the first step beyond the red mark raises in
    # _release_contacts, so the base stays at the mark and the close drives there
    cfg, gripper, scn = _load(scenario_dir, "cube80_remote")
    peak = _mounts(cfg, cfg.slot_peak)[0].center
    failed = _fail_once(monkeypatch, "_release_contacts", lambda mount: mount.center < peak)
    checked = _check_held_mounts(monkeypatch)
    commands = [Command(Verb.RECONFIGURE, "engage"), Command(Verb.OPEN, 5),
                Command(Verb.CLOSE)]
    report = run_commands(gripper, scn.build_object(), commands)
    assert failed
    assert report.warnings == ["aborted: injected"]
    assert checked[0] == report.steps
    assert checked[1] > 1000
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


def _count_mounts_in_steps(monkeypatch) -> tuple[list[int], list[int]]:
    """``_mounts`` calls made while a step runs, and the BASE routes taken."""
    mounts, step, route = asm_mod._mounts, asm_mod._step, tm.step_transmission
    calls, base_routes, inside = [0], [0], [False]

    def counted_mounts(cfg, travel):
        if inside[0]:
            calls[0] += 1
        return mounts(cfg, travel)

    def counted_step(*args):
        inside[0] = True
        try:
            return step(*args)
        finally:
            inside[0] = False

    def counted_route(*args):
        out = route(*args)
        if out[1] is Route.BASE:
            base_routes[0] += 1
        return out
    monkeypatch.setattr(asm_mod, "_mounts", counted_mounts)
    monkeypatch.setattr(asm_mod, "_step", counted_step)
    monkeypatch.setattr(tm, "step_transmission", counted_route)
    return calls, base_routes


# a drive-only run builds mounts for its first step and for the few exact
# aperture reads of the tip budget (GripperAssembly.side_segments)
_DRIVE_ONLY_MOUNTS = 3


@pytest.mark.parametrize("steps", [100, 1000, "auto"])
def test_a_drive_only_run_builds_its_mounts_a_fixed_number_of_times(steps, scenario_dir,
                                                                    monkeypatch):
    cfg, gripper, scn = _load(scenario_dir, "cyl40_proximal")
    calls, base_routes = _count_mounts_in_steps(monkeypatch)
    report = run_commands(gripper, scn.build_object(), [Command(Verb.CLOSE, steps)])
    assert base_routes[0] == 0
    assert report.steps == steps if isinstance(steps, int) else report.steps > 3000
    assert 1 <= calls[0] <= _DRIVE_ONLY_MOUNTS


def test_a_base_shift_builds_its_mounts_at_most_once_per_step(scenario_dir, monkeypatch):
    cfg, gripper, scn = _load(scenario_dir, "cube80_remote")
    calls, base_routes = _count_mounts_in_steps(monkeypatch)
    report = run_commands(gripper, scn.build_object(), scn.build_commands())
    assert base_routes[0] > 5000
    assert calls[0] <= base_routes[0] + _DRIVE_ONLY_MOUNTS
    assert report.steps > base_routes[0]


def test_equal_travels_give_the_same_mount_bits(cfg):
    assert _bits(_mounts(cfg, 0.0)) == _bits(_mounts(cfg, -0.0))
