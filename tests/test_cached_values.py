"""Per-instance cached geometry and parameters must never go stale.

``SceneObject`` caches its outline, ``GripperConfig`` its derived values and
resolved parameter sets, ``GripperAssembly`` its posed world segments and
``FingerState`` its finger-frame pose in the instance ``__dict__``; all four
are frozen dataclasses, so a changed value is always a new instance with an
empty cache.
"""

from dataclasses import fields, replace

import pytest

from gripsim import finger as fg
from gripsim.assembly import Command, GripperAssembly, Verb, build_gripper, run_commands
from gripsim.config import GripperConfig, build_config
from gripsim.errors import ConfigError
from gripsim.render import frame_svg
from gripsim.scene import SceneObject


def test_replaced_rectangle_gets_fresh_corners():
    rect = SceneObject.rectangle(40.0, 20.0, x=0.0, y=-50.0, rotation=0.2)
    before = rect.corners()
    moved = replace(rect, x=10.0)
    assert moved.corners() == SceneObject.rectangle(40.0, 20.0, x=10.0, y=-50.0,
                                                    rotation=0.2).corners()
    assert moved.corners() != before
    assert rect.corners() == before
    # the clearance follows the moved outline, not the cached one of the original
    seg = (25.0, -80.0, 25.0, -20.0)
    assert rect.clearance_to_segment(*seg) > 0.0
    assert moved.clearance_to_segment(*seg) == 0.0


def test_corners_returns_a_fresh_list():
    rect = SceneObject.rectangle(40.0, 20.0)
    first = rect.corners()
    first.clear()
    assert len(rect.corners()) == 4


def test_replaced_config_resolves_its_own_params(cfg):
    assert cfg.finger_params().L1_min == cfg.L1_min
    changed = replace(cfg, L1_min=50.0)
    assert changed.finger_params().L1_min == 50.0
    assert cfg.finger_params().L1_min == 46.0
    wide = replace(cfg, finger_gear_radius=10.0)
    assert wide.transmission_params().finger_gear_radius == 10.0
    assert cfg.transmission_params().finger_gear_radius == 7.5
    weak = replace(cfg, motor_torque=3.3)
    assert weak.force_budget == pytest.approx(cfg.force_budget / 2.0)
    assert cfg.force_budget == 30 * 6.6 * 1000.0 / cfg.geometry.D1


def test_replaced_transmission_params_get_a_fresh_layout(cfg):
    params = cfg.transmission_params()
    assert params.layout is params.layout
    shorter = replace(params, theta1_max=params.theta1_max - 0.5)
    assert shorter.layout.drive_span == \
        (shorter.theta1_max - shorter.theta1_rest) * shorter.finger_gear_radius
    assert shorter.layout.drive_span < params.layout.drive_span


DERIVED = ("layout", "alpha_rest", "theta2_rest", "delta_stop", "theta3_max")


@pytest.mark.parametrize("name", DERIVED)
def test_derived_values_are_not_settable_inputs(name):
    assert name not in {f.name for f in fields(GripperConfig)}
    with pytest.raises(ConfigError) as err:
        build_config(**{name: 0.3})
    assert err.value.field == name


def test_replaced_config_derives_from_its_own_inputs(cfg):
    changed = replace(cfg, L2_min=30.0)
    built = build_config(L2_min=30.0)
    assert changed.theta3_max == built.theta3_max != cfg.theta3_max
    assert changed.finger_params().theta3_max == built.theta3_max


@pytest.mark.parametrize("k", [1.0, 2.0])
def test_resolved_constants_keep_their_bits(cfg, k):
    c = cfg if k == 1.0 else cfg.scaled(k)
    assert c.geometry.L2c == k * float.fromhex("0x1.de66666666652p+4")
    assert c.geometry.kappa.hex() == "0x1.a054fb81ae6cdp-1"
    assert c.layout.theta1_rest.hex() == "0x1.1fa2cb5a699a4p-4"
    assert c.alpha_rest.hex() == "0x1.dfb3578b1f520p-4"
    assert c.theta3_max.hex() == "0x1.37ffa19a7225fp+0"


def test_filled_caches_leave_equality_and_hash_alone():
    a = SceneObject.rectangle(30.0, 12.0, x=3.0, y=-40.0, rotation=0.4)
    b = SceneObject.rectangle(30.0, 12.0, x=3.0, y=-40.0, rotation=0.4)
    a.clearance_to_segment(0.0, 0.0, 1.0, 1.0)
    assert a == b and hash(a) == hash(b)
    b.corners()
    assert a == b and hash(a) == hash(b)
    c1, c2 = build_config(), build_config()
    c1.finger_params()
    c1.transmission_params()
    assert c1 == c2 and hash(c1) == hash(c2)
    assert c1.finger_params() == c2.finger_params()
    assert c1.transmission_params() == c2.transmission_params()


def _posed(asm):
    return ([asm.world_segments(i) for i in range(3)],
            [asm.tip(i) for i in range(3)], asm.aperture())


def test_replaced_assembly_is_posed_afresh(cfg):
    asm = build_gripper(cfg)
    before = _posed(asm)
    shifted = replace(asm, transmission=build_gripper(cfg, 40.0).transmission)
    assert _posed(shifted) == _posed(build_gripper(cfg, 40.0))
    assert shifted.aperture() > asm.aperture()
    closed = fg.advance_theta1(cfg.finger_params(), asm.fingers[0], 0.3)
    moved = replace(asm, fingers=(closed, closed))
    fresh = GripperAssembly(config=cfg, fingers=(closed, closed),
                            transmission=asm.transmission)
    assert _posed(moved) == _posed(fresh)
    assert moved.aperture() < asm.aperture()
    assert _posed(asm) == before


def test_filled_assembly_caches_leave_equality_and_hash_alone(cfg):
    a, b = build_gripper(cfg), build_gripper(cfg)
    a.aperture()
    assert a == b and hash(a) == hash(b)
    b.world_segments(2)
    assert a == b and hash(a) == hash(b)


def test_frame_svg_reuses_the_poses_of_an_engine_snapshot(cfg, monkeypatch):
    obj = SceneObject.circle(60.0, 0.0, -40.0)
    snapshot = run_commands(build_gripper(cfg), obj, [Command(Verb.CLOSE)]).snapshots[-1][1]
    calls = []
    real = fg.phalanx_poses

    def counted(params, state):
        calls.append(state)
        return real(params, state)

    monkeypatch.setattr(fg, "phalanx_poses", counted)
    mirrored = build_gripper(cfg)
    rest = mirrored.fingers[0]
    frame_svg(mirrored, obj)
    assert calls == [rest]   # both sides hold one state object, posed once
    calls.clear()
    twin = replace(rest)
    frame_svg(replace(mirrored, fingers=(rest, twin)), obj)
    assert calls == [twin]   # rest keeps its pose; the equal but distinct twin is posed
    calls.clear()
    frame_svg(snapshot, obj)
    frame_svg(GripperAssembly(cfg, snapshot.fingers, snapshot.transmission), obj)
    assert calls == []
