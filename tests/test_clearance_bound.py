"""The engine's motion budget and pose memo: when they skip work, and what they save.

``assembly._clearances`` returns lower bounds instead of exact clearances
while every free phalanx stays clear of contact, and ``_gap_fraction``
skips the aperture while the tips stay apart; neither poses a state it
skips.  The soundness of the clearance bound is checked against the
kernels in ``test_clearance_kernels.py``, that of the tip budget here.
Each finger-state object is posed once per finger-parameter object: the
pose is kept on the state, so the engine, every assembly built from its
states and the renderer share it.
"""

import math
from dataclasses import replace
from pathlib import Path

import pytest

import gripsim.assembly as asm_mod
import gripsim.finger as fg
from gripsim.assembly import (
    Command,
    GripperAssembly,
    Verb,
    _clearances,
    _LastExact,
    _Run,
    _step,
    build_gripper,
    run_commands,
)
from gripsim.config import build_config
from gripsim.finger import Phalanx
from gripsim.report import render_report
from gripsim.scenario import parse_scenario
from gripsim.scene import SceneObject

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# clearance_to_segment calls of one run_commands pass before the bound existed
CALLS_WITHOUT_BOUND = {"box150_translational": 71_490, "cube80_remote": 41_324}
# phalanx_poses calls of one run_commands pass before the pose memo existed
POSES_WITHOUT_MEMO = {"box150_translational": 23_906, "cube80_remote": 16_252}
# a run poses fewer than steps / this many times under the motion budget
STEPS_PER_POSE = {"cube80_remote": 20, "cyl120_remote": 20, "cyl40_proximal": 10}


def _count_kernel_calls(monkeypatch) -> list[int]:
    calls = [0]
    kernel = SceneObject.clearance_to_segment

    def counted(self, *segment):
        calls[0] += 1
        return kernel(self, *segment)
    monkeypatch.setattr(SceneObject, "clearance_to_segment", counted)
    return calls


def _count_pose_calls(monkeypatch) -> list[int]:
    calls = [0]
    real = fg.phalanx_poses

    def counted(params, state):
        calls[0] += 1
        return real(params, state)
    monkeypatch.setattr(fg, "phalanx_poses", counted)
    return calls


def _run_fixture(name, scenario_dir):
    scn = parse_scenario((scenario_dir / f"{name}.scn").read_text(encoding="utf-8"), name=name)
    cfg = scn.build_config()
    gripper = build_gripper(cfg, base_translation=scn.base_translation)
    return scn, cfg, gripper, scn.build_object()


def test_a_released_phalanx_is_computed_afresh(cfg, monkeypatch):
    asm = build_gripper(cfg)
    free, h = asm.fingers[0], cfg.half_span(0.0)
    disc = SceneObject.circle(40.0, x=0.0, y=-100.0)
    exact = tuple(disc.clearance_to_segment(a.x, a.y, b.x, b.y)
                  for a, b in asm.world_segments(0))
    assert min(exact) > 10.0
    held = replace(free, contact_fixed=frozenset({Phalanx.PROXIMAL}))
    last = _LastExact(1.0)
    calls = _count_kernel_calls(monkeypatch)

    assert _clearances(cfg, held, h, disc, last) == (float("inf"), *exact[1:])
    assert calls[0] == 2
    assert last.clearances[0] == float("-inf")
    # nothing moved: the other two are bounded by their own exact values
    assert _clearances(cfg, held, h, disc, last) == (float("inf"), *exact[1:])
    assert calls[0] == 2
    # once released, the proximal has no reference and all three are computed
    assert _clearances(cfg, free, h, disc, last) == exact
    assert calls[0] == 5
    assert last.clearances == exact
    assert _clearances(cfg, free, h, disc, last) == exact
    assert calls[0] == 5


def test_a_phalanx_within_tolerance_is_computed_exactly(cfg, monkeypatch):
    asm = build_gripper(cfg)
    state, h = asm.fingers[0], cfg.half_span(0.0)
    a, b = asm.world_segments(0)[1]   # the middle phalanx
    # a disc whose rim sits half a tolerance off the middle phalanx
    r = 10.0
    disc = SceneObject.circle(2.0 * r, x=a.x + r + cfg.contact_tol / 2.0, y=(a.y + b.y) / 2.0)
    last = _LastExact(1.0)
    first = _clearances(cfg, state, h, disc, last)
    calls = _count_kernel_calls(monkeypatch)
    assert _clearances(cfg, state, h, disc, last) == first
    assert calls[0] == 3
    assert 0.0 < first[1] <= cfg.contact_tol


def test_an_unchanged_state_is_posed_once_at_any_mount(cfg, monkeypatch):
    calls = _count_pose_calls(monkeypatch)
    asm = build_gripper(cfg)
    state = asm.fingers[0]
    a, b = asm.world_segments(0)[1]   # the middle phalanx
    assert calls[0] == 1   # both sides hold the rest state object
    # a disc 2 mm off the middle phalanx, on its closing side: a 3 mm move of
    # the left base away from it leaves no bound above contact_tol, so both
    # half spans are computed exactly
    r = 10.0
    disc = SceneObject.circle(2.0 * r, x=a.x + r + 2.0, y=(a.y + b.y) / 2.0)
    near, far = cfg.half_span(0.0), cfg.half_span(6.0)
    last = _LastExact(1.0)
    exact = [_clearances(cfg, state, h, disc, last) for h in (near, far)]
    assert calls[0] == 1
    assert last.state is state and last.h == far and exact[1][1] > exact[0][1]
    assert [_clearances(cfg, state, h, disc, _LastExact(1.0)) for h in (near, far)] == exact
    assert calls[0] == 1
    # an equal state that is another object is posed again, once
    twin = replace(state)
    assert twin == state and twin is not state
    assert [_clearances(cfg, twin, h, disc, _LastExact(1.0)) for h in (near, far)] == exact
    assert calls[0] == 2
    # and posing it leaves the first object's pose in place
    assert _clearances(cfg, state, far, disc, _LastExact(1.0)) == exact[1]
    assert calls[0] == 2


def test_a_state_posed_under_one_config_is_posed_again_under_another(cfg, monkeypatch):
    other = build_config(rest_lean=math.radians(20.0))
    assert other.finger_params().theta1_down != cfg.finger_params().theta1_down
    state = build_gripper(cfg).fingers[0]
    trans = build_gripper(other).transmission
    calls = _count_pose_calls(monkeypatch)
    posed_here = GripperAssembly(cfg, (state, state), trans).side_segments
    assert calls[0] == 1
    posed_there = GripperAssembly(other, (state, state), trans).side_segments
    assert calls[0] == 2
    twin = replace(state)
    assert GripperAssembly(other, (twin, twin), trans).side_segments == posed_there
    assert posed_there != posed_here
    # the state now holds the other config's pose: back here it is posed again
    assert GripperAssembly(cfg, (state, state), trans).side_segments == posed_here
    assert calls[0] == 4


def test_reading_an_engine_built_aperture_poses_each_state_at_most_once(cfg, monkeypatch):
    # a centred disc mirrors the run, so both sides share one state object;
    # an off-centre one steps two
    for x, objects in ((0.0, 1), (5.0, 2)):
        disc = SceneObject.circle(40.0, x=x, y=-100.0)
        run = _Run(assembly=build_gripper(cfg), obj=disc)
        for _ in range(3):
            assert _step(cfg, run, -1, None, False)
        asm = run.assembly
        assert asm.fingers[0].theta1 > cfg.finger_params().theta1_rest
        assert len({id(f) for f in asm.fingers}) == objects
        calls = _count_pose_calls(monkeypatch)
        fresh = GripperAssembly(cfg, asm.fingers, asm.transmission)
        aperture = fresh.aperture()
        assert calls[0] <= objects
        # every later assembly of these states reads the poses already kept
        assert asm.aperture() == aperture
        assert GripperAssembly(cfg, asm.fingers, asm.transmission).aperture() == aperture
        assert calls[0] <= objects
        monkeypatch.undo()


def test_the_cyl40_run_poses_at_most_once_per_step(scenario_dir, monkeypatch):
    scn, cfg, gripper, obj = _run_fixture("cyl40_proximal", scenario_dir)
    calls = _count_pose_calls(monkeypatch)
    report = run_commands(gripper, obj, scn.build_commands())
    monkeypatch.undo()
    assert calls[0] <= report.steps + 1
    golden = (GOLDEN_DIR / "cyl40_proximal.report.json").read_bytes()
    assert render_report(scn, cfg, report).encode("utf-8") == golden


@pytest.mark.parametrize("name", sorted(POSES_WITHOUT_MEMO))
def test_the_pose_memo_halves_the_pose_calls(name, scenario_dir, monkeypatch):
    scn, cfg, gripper, obj = _run_fixture(name, scenario_dir)
    calls = _count_pose_calls(monkeypatch)
    report = run_commands(gripper, obj, scn.build_commands())
    monkeypatch.undo()
    assert calls[0] < POSES_WITHOUT_MEMO[name] / 2
    golden = (GOLDEN_DIR / f"{name}.report.json").read_bytes()
    assert render_report(scn, cfg, report).encode("utf-8") == golden


@pytest.mark.parametrize("name", sorted(CALLS_WITHOUT_BOUND))
def test_the_bound_halves_the_clearance_calls(name, scenario_dir, monkeypatch):
    scn, cfg, gripper, obj = _run_fixture(name, scenario_dir)
    calls = _count_kernel_calls(monkeypatch)
    report = run_commands(gripper, obj, scn.build_commands())
    monkeypatch.undo()
    assert calls[0] < CALLS_WITHOUT_BOUND[name] / 2
    golden = (GOLDEN_DIR / f"{name}.report.json").read_bytes()
    assert render_report(scn, cfg, report).encode("utf-8") == golden


@pytest.mark.parametrize("name", sorted(STEPS_PER_POSE))
def test_the_motion_budget_poses_a_run_rarely(name, scenario_dir, monkeypatch):
    scn, cfg, gripper, obj = _run_fixture(name, scenario_dir)
    calls = _count_pose_calls(monkeypatch)
    report = run_commands(gripper, obj, scn.build_commands())
    monkeypatch.undo()
    assert calls[0] < report.steps / STEPS_PER_POSE[name]
    golden = (GOLDEN_DIR / f"{name}.report.json").read_bytes()
    assert render_report(scn, cfg, report).encode("utf-8") == golden


@pytest.mark.parametrize("name", ["cardboard_thin", "ruler_thin"])
def test_a_thin_pick_poses_only_for_exact_evaluations(name, scenario_dir, monkeypatch):
    # a tip riding the surface is evaluated exactly on both sides every step;
    # distal_retract reads the DIP joint without posing the finger
    scn, cfg, gripper, obj = _run_fixture(name, scenario_dir)
    calls = _count_pose_calls(monkeypatch)
    report = run_commands(gripper, obj, scn.build_commands())
    monkeypatch.undo()
    assert calls[0] <= 2 * report.steps + 1
    golden = (GOLDEN_DIR / f"{name}.report.json").read_bytes()
    assert render_report(scn, cfg, report).encode("utf-8") == golden


def test_the_tip_gap_reads_the_pose_without_placing_a_side(cfg):
    # both distal bars retracted, the right one 0.25 mm further: the gap is
    # read from the finger-frame tip y, which is the world y bit for bit
    params = cfg.finger_params()
    rest = fg.rest_pose(params)
    surface = fg.phalanx_poses(params, rest)[3] - params.geometry.L3_rest + 5.0
    left = fg.distal_retract(params, rest, surface)
    right = replace(left, L3=left.L3 - 0.25)
    trans = build_gripper(cfg, 20.0).transmission
    run = _Run(assembly=GripperAssembly(cfg, (left, right), trans), obj=None)
    asm_mod._track_surface_gap(cfg, run, surface)
    assert "side_segments" not in run.assembly.__dict__
    world = max(abs(run.assembly.tip(i).y - surface) for i in (0, 1))
    assert run.tip_surface_gap == world
    assert 0.24 < world < 0.26


def test_the_tip_budget_is_exact_under_a_pure_base_shift(cfg):
    # tips crossed by 7 mm at base 0: a base shift alone sets the aperture,
    # and the budget then bounds its fall exactly
    params = cfg.finger_params()
    crossed = fg.advance_theta1(params, fg.rest_pose(params), 1.0)
    trans = build_gripper(cfg).transmission

    def at(base):
        lock = replace(trans.lock, travel=base)
        return GripperAssembly(cfg, (crossed, crossed), replace(trans, lock=lock))
    base = 2.0 - at(0.0).aperture()
    ref = at(base)
    assert 1.99 < ref.aperture() < 2.01
    kept = (ref.fingers, base, ref.aperture())
    run = _Run(assembly=ref, obj=None, last_gap=kept)
    assert asm_mod._gap_fraction(run, at(base - 1.9)) == 1.0
    assert run.last_gap is kept
    # 0.2 mm past meeting: the budget runs out, and the exact aperture answers
    after = at(base - 2.2)
    assert 0.0 < asm_mod._gap_fraction(run, after) < 1.0
    assert run.last_gap == (after.fingers, base - 2.2, after.aperture())


@pytest.mark.parametrize("obj, commands", [
    (None, [Command(Verb.CLOSE)]),
    # off centre: both sides are stepped, and no phalanx reaches the disc
    (SceneObject.circle(10.0, x=30.0, y=-300.0), [Command(Verb.CLOSE)]),
    # the last exact aperture is read with the base shifted out; the closing
    # steps come after it has slid back in
    (None, [Command(Verb.RECONFIGURE, "engage"), Command(Verb.CLOSE, 200), Command(Verb.OPEN),
            Command(Verb.RELEASE_RECONFIGURE)]),
], ids=["empty", "off_centre", "base_shifted"])
def test_a_skipped_aperture_keeps_the_tips_apart(cfg, obj, commands, monkeypatch):
    gap_fraction = asm_mod._gap_fraction
    skipped = [0]

    def checked(run, after):
        ref = run.last_gap
        frac = gap_fraction(run, after)
        if ref is not None and run.last_gap is ref:
            skipped[0] += 1
            assert frac == 1.0
            assert GripperAssembly(cfg, after.fingers, after.transmission).aperture() >= 0.0
        return frac
    monkeypatch.setattr(asm_mod, "_gap_fraction", checked)
    report = run_commands(build_gripper(cfg), obj, commands)
    # the budget ran out before the tips met, and the exact aperture took over
    assert report.aperture_final == 0.0
    assert skipped[0] > 1000
