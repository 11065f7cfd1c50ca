"""The engine's clearance bound and pose memo: when they skip work, and what they save.

``assembly._clearances`` returns lower bounds instead of exact clearances
while every free phalanx stays clear of contact; the soundness of the bound
itself is checked against the kernels in ``test_clearance_kernels.py``.  It
also reuses the finger-frame pose of the state a side posed last.
"""

from dataclasses import replace
from pathlib import Path

import pytest

import gripsim.finger as fg
from gripsim.assembly import _clearances, _LastExact, _mounts, build_gripper, run_commands
from gripsim.finger import Phalanx
from gripsim.report import render_report
from gripsim.scenario import parse_scenario
from gripsim.scene import SceneObject

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# clearance_to_segment calls of one run_commands pass before the bound existed
CALLS_WITHOUT_BOUND = {"box150_translational": 71_490, "cube80_remote": 41_324}
# phalanx_poses calls of one run_commands pass before the pose memo existed
POSES_WITHOUT_MEMO = {"box150_translational": 23_906, "cube80_remote": 16_252}


def _count_kernel_calls(monkeypatch) -> list[int]:
    calls = [0]
    kernel = SceneObject.clearance_to_segment

    def counted(self, a, b):
        calls[0] += 1
        return kernel(self, a, b)
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
    free, mount = asm.fingers[0], asm.mounts()[0]
    disc = SceneObject.circle(40.0, x=0.0, y=-100.0)
    exact = tuple(disc.clearance_to_segment(a, b) for a, b in asm.world_segments(0))
    assert min(exact) > 10.0
    held = replace(free, contact_fixed=frozenset({Phalanx.PROXIMAL}))
    last = _LastExact()
    calls = _count_kernel_calls(monkeypatch)

    assert _clearances(cfg, held, mount, disc, last) == (float("inf"), *exact[1:])
    assert calls[0] == 2
    assert last.clearances[0] == float("-inf")
    # nothing moved: the other two are bounded by their own exact values
    assert _clearances(cfg, held, mount, disc, last) == (float("inf"), *exact[1:])
    assert calls[0] == 2
    # once released, the proximal has no reference and all three are computed
    assert _clearances(cfg, free, mount, disc, last) == exact
    assert calls[0] == 5
    assert last.clearances == exact
    assert _clearances(cfg, free, mount, disc, last) == exact
    assert calls[0] == 5


def test_a_phalanx_within_tolerance_is_computed_exactly(cfg, monkeypatch):
    asm = build_gripper(cfg)
    state, mount = asm.fingers[0], asm.mounts()[0]
    a, b = asm.world_segments(0)[1]   # the middle phalanx
    # a disc whose rim sits half a tolerance off the middle phalanx
    r = 10.0
    disc = SceneObject.circle(2.0 * r, x=a.x + r + cfg.contact_tol / 2.0, y=(a.y + b.y) / 2.0)
    last = _LastExact()
    first = _clearances(cfg, state, mount, disc, last)
    calls = _count_kernel_calls(monkeypatch)
    assert _clearances(cfg, state, mount, disc, last) == first
    assert calls[0] == 3
    assert 0.0 < first[1] <= cfg.contact_tol


def test_an_unchanged_state_is_posed_once_at_any_mount(cfg, monkeypatch):
    asm = build_gripper(cfg)
    state = asm.fingers[0]
    a, b = asm.world_segments(0)[1]   # the middle phalanx
    # a disc 2 mm off the middle phalanx, on its closing side: a 3 mm base
    # shift away from it leaves no bound above contact_tol, so both mounts
    # are computed exactly
    r = 10.0
    disc = SceneObject.circle(2.0 * r, x=a.x + r + 2.0, y=(a.y + b.y) / 2.0)
    near, far = _mounts(cfg, 0.0)[0], _mounts(cfg, 6.0)[0]
    fresh = [_clearances(cfg, state, m, disc, _LastExact()) for m in (near, far)]
    last = _LastExact()
    calls = _count_pose_calls(monkeypatch)

    assert [_clearances(cfg, state, m, disc, last) for m in (near, far)] == fresh
    assert calls[0] == 1
    assert last.posed is state
    assert fresh[1][1] > fresh[0][1]
    # an equal state that is another object is posed again
    twin = replace(state)
    assert twin == state and twin is not state
    assert _clearances(cfg, twin, far, disc, last) == fresh[1]
    assert calls[0] == 2
    assert last.posed is twin


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
