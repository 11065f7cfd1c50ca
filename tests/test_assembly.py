
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gripsim.assembly import (
    Command,
    Verb,
    aperture_range,
    build_gripper,
    classify_mode,
    contact_detect,
    run_commands,
    sweep_ranges,
)
from gripsim.config import build_config
from gripsim.finger import Behavior, Phalanx
from gripsim.geometry import Point
from gripsim.render import frame_svg
from gripsim.report import render_report
from gripsim.scenario import parse_scenario
from gripsim.scene import SceneObject

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def test_rest_aperture_is_the_mode_one_maximum(cfg):
    asm = build_gripper(cfg)
    assert asm.aperture() == pytest.approx(127.0, abs=0.5)
    assert all(f.behavior is Behavior.PARALLEL for f in asm.fingers)


def test_pretranslated_base_opens_to_the_remote_maximum(cfg):
    asm = build_gripper(cfg, base_translation=50.0)
    assert asm.aperture() == pytest.approx(177.0, abs=0.5)


def test_contact_detect_far_object_is_empty(cfg):
    asm = build_gripper(cfg)
    assert contact_detect(asm, SceneObject.circle(30.0, 400.0, -50.0)) == []


def test_contact_detect_orders_by_finger_then_phalanx(cfg):
    asm = build_gripper(cfg)
    rep = run_commands(asm, SceneObject.circle(60.0, 0.0, -40.0), [Command(Verb.CLOSE)])
    final = rep.snapshots[-1][1]
    contacts = contact_detect(final, SceneObject.circle(60.0, 0.0, -40.0))
    ids = [(i, c.phalanx) for i, c in contacts]
    assert ids == sorted(ids, key=lambda t: (t[0], list(Phalanx).index(t[1])))


def test_sixty_mm_cylinder_touches_the_proximal_first(cfg):
    """Track the closing sweep: the first registered contact is proximal."""
    obj = SceneObject.circle(60.0, 0.0, -40.0)
    rep = run_commands(build_gripper(cfg), obj, [Command(Verb.CLOSE)])
    first = None
    for _, snap in rep.snapshots:
        if any(f.contact_fixed for f in snap.fingers):
            first = snap.fingers[0].contact_fixed | snap.fingers[1].contact_fixed
            break
    assert first == {Phalanx.PROXIMAL}


def test_slab_under_the_fingertips_touches_distal_only(cfg):
    slab = SceneObject.slab(2.0, 30.0, -161.0)
    rep = run_commands(build_gripper(cfg), slab, [Command(Verb.PICK_THIN)])
    final = rep.snapshots[-1][1]
    contacts = contact_detect(final, slab)
    assert contacts and {c.phalanx for _, c in contacts} == {Phalanx.DISTAL}


def test_forty_mm_circle_envelopes_with_proximal_and_middle(cfg):
    rep = run_commands(build_gripper(cfg), SceneObject.circle(40.0, 0.0, -58.0),
                       [Command(Verb.CLOSE)])
    assert rep.mode == 2
    assert rep.success
    for f in rep.fingers:
        assert "proximal" in f["contacts"] and "middle" in f["contacts"]
        assert f["R_P"] > 0.0


def test_flat_square_of_the_same_width_stays_parallel(cfg):
    rep = run_commands(build_gripper(cfg), SceneObject.rectangle(40.0, 40.0, 0.0, -150.0),
                       [Command(Verb.CLOSE)])
    assert rep.mode == 1
    assert rep.success
    for f in rep.fingers:
        assert f["R_P"] == 0.0 and f["R_M"] == 0.0 and f["R_D"] == 0.0


def test_empty_scene_closes_fully_without_success(cfg):
    asm = build_gripper(cfg)
    rep = run_commands(asm, None, [Command(Verb.CLOSE)])
    assert rep.aperture_final == pytest.approx(0.0, abs=0.01)
    assert not rep.success
    assert rep.mode == 1
    # the tips-met re-close lands on the meeting point: the report clamps the
    # aperture at 0, so a full overshoot step (about -0.07 mm) would read 0 too
    final = rep.snapshots[-1][1]
    assert abs(final.aperture()) <= 1e-4
    rest = asm.fingers[0]
    two_sided = run_commands(replace(asm, fingers=(rest, replace(rest))), None,
                             [Command(Verb.CLOSE)])
    assert two_sided.snapshots[-1][1].aperture().hex() == final.aperture().hex()


def test_remote_flat_grasp_is_mode_four(cfg):
    rep = run_commands(build_gripper(cfg), SceneObject.rectangle(80.0, 80.0, 0.0, -110.0),
                       [Command(Verb.RECONFIGURE, "engage"), Command(Verb.CLOSE)])
    assert rep.mode == 4
    assert rep.lock_stage == "engaged"
    assert rep.success


def test_remote_envelope_is_mode_five(cfg):
    rep = run_commands(build_gripper(cfg), SceneObject.circle(120.0, 0.0, -90.0),
                       [Command(Verb.RECONFIGURE, "engage"), Command(Verb.CLOSE)])
    assert rep.mode == 5
    assert rep.success


def test_translational_grasp_is_mode_three(cfg):
    rep = run_commands(build_gripper(cfg), SceneObject.rectangle(150.0, 80.0, 0.0, -120.0),
                       [Command(Verb.RECONFIGURE, "end"), Command(Verb.RELEASE_RECONFIGURE)])
    assert rep.mode == 3
    assert rep.success
    assert rep.rack_segment in ("b1", "red", "b2")
    assert 0.0 < rep.base_translation < 50.0


def test_classify_mode_on_terminal_states(cfg):
    asm = build_gripper(cfg)
    assert classify_mode(asm) == 1
    rep = run_commands(asm, SceneObject.circle(40.0, 0.0, -58.0), [Command(Verb.CLOSE)])
    assert classify_mode(rep.snapshots[-1][1]) == 2


def test_aperture_ranges_match_the_published_table(cfg):
    expected = {1: (0.0, 127.0), 2: (16.0, 127.0), 3: (127.0, 177.0),
                4: (0.0, 177.0), 5: (34.0, 177.0)}
    ranges = sweep_ranges(cfg)
    for mode, (lo, hi) in expected.items():
        got = ranges[mode]
        assert got is not None
        assert got[0] == pytest.approx(lo, abs=2.0)
        assert got[1] == pytest.approx(hi, abs=2.0)


def test_mode_ranges_nest(cfg):
    r = sweep_ranges(cfg)
    assert r[2][0] >= r[1][0] and r[2][1] <= r[1][1]
    assert r[5][0] >= r[4][0] and r[5][1] <= r[4][1]
    lo = min(v[0] for v in r.values())
    hi = max(v[1] for v in r.values())
    assert lo == pytest.approx(0.0, abs=0.5)
    assert hi == pytest.approx(177.0, abs=2.0)


def test_zero_base_travel_disables_the_remote_modes():
    cfg0 = build_config(base_shift_max=0.0)
    ranges = sweep_ranges(cfg0)
    assert ranges[1] is not None and ranges[2] is not None
    assert ranges[3] is None and ranges[4] is None and ranges[5] is None


def test_doubled_geometry_doubles_every_range(cfg):
    doubled = cfg.scaled(2.0)
    base = sweep_ranges(cfg)
    big = sweep_ranges(doubled)
    for mode in (1, 2, 3, 4, 5):
        assert big[mode][0] == pytest.approx(2.0 * base[mode][0], abs=1.0)
        assert big[mode][1] == pytest.approx(2.0 * base[mode][1], abs=1.0)


def test_thin_pickup_keeps_the_tips_on_the_surface(cfg):
    rep = run_commands(build_gripper(cfg), SceneObject.slab(2.0, 30.0, -161.0),
                       [Command(Verb.PICK_THIN)])
    assert rep.success
    assert rep.tip_surface_gap is not None and rep.tip_surface_gap < 0.01
    for f in rep.fingers:
        assert f["R_D"] > 0.0


def test_zero_thickness_slab_is_a_no_grasp_report(cfg):
    rep = run_commands(build_gripper(cfg), SceneObject.slab(0.0, 30.0, -161.0),
                       [Command(Verb.PICK_THIN)])
    assert not rep.success
    assert rep.warnings


def test_trace_is_physical_during_closing(cfg):
    rep = run_commands(build_gripper(cfg), SceneObject.circle(60.0, 0.0, -40.0),
                       [Command(Verb.CLOSE)])
    gaps = [e["gap"] for e in rep.trace]
    assert all(b <= a + 1e-9 for a, b in zip(gaps, gaps[1:]))
    counts = [e["left"]["contacts"] + e["right"]["contacts"] for e in rep.trace]
    assert all(b >= a for a, b in zip(counts, counts[1:]))


def test_identical_runs_produce_identical_traces(cfg):
    obj = SceneObject.circle(60.0, 0.0, -40.0)
    rep1 = run_commands(build_gripper(cfg), obj, [Command(Verb.CLOSE)])
    rep2 = run_commands(build_gripper(cfg), obj, [Command(Verb.CLOSE)])
    assert rep1.trace == rep2.trace
    assert rep1.fingers == rep2.fingers


def test_distal_never_retracts_for_free_standing_objects(cfg):
    for obj in (SceneObject.circle(40.0, 0.0, -58.0),
                SceneObject.circle(120.0, 0.0, -90.0),
                SceneObject.rectangle(40.0, 40.0, 0.0, -150.0)):
        commands = ([Command(Verb.RECONFIGURE, "engage"), Command(Verb.CLOSE)]
                    if obj.max_extent > 100 else [Command(Verb.CLOSE)])
        rep = run_commands(build_gripper(cfg), obj, commands)
        for f in rep.fingers:
            assert f["R_D"] == 0.0


def test_monotone_compression_while_closing(cfg):
    rep = run_commands(build_gripper(cfg), SceneObject.circle(60.0, 0.0, -40.0),
                       [Command(Verb.CLOSE)])
    l1s = [e["left"]["L1"] for e in rep.trace]
    l2s = [e["left"]["L2"] for e in rep.trace]
    assert all(b <= a + 1e-9 for a, b in zip(l1s, l1s[1:]))
    assert all(b <= a + 1e-9 for a, b in zip(l2s, l2s[1:]))
    # decoupling order: the middle only compresses after the drive angle froze
    first_l2 = next(i for i, v in enumerate(l2s) if v < 55.0 - 1e-6)
    assert l1s[first_l2] < 70.0 - 1e-6


def test_remote_hollow_warning_for_small_objects(cfg):
    rep = run_commands(build_gripper(cfg), SceneObject.circle(30.0, 0.0, -120.0),
                       [Command(Verb.RECONFIGURE, "engage"), Command(Verb.CLOSE)])
    assert any("hollow" in w for w in rep.warnings)


def test_behavior_transitions_are_monotone_while_closing(cfg):
    order = {Behavior.PARALLEL: 0, Behavior.ENVELOPING_PROXIMAL: 1,
             Behavior.ENVELOPING_DECOUPLED: 2}
    rep = run_commands(build_gripper(cfg), SceneObject.circle(60.0, 0.0, -40.0),
                       [Command(Verb.CLOSE)])
    ranks = [order[snap.fingers[0].behavior] for _, snap in rep.snapshots]
    assert all(b >= a for a, b in zip(ranks, ranks[1:]))


def test_retraction_ratios_stay_inside_the_published_bounds(cfg):
    for obj, commands in (
            (SceneObject.circle(25.0, 0.0, -55.0), [Command(Verb.CLOSE)]),
            (SceneObject.circle(60.0, 0.0, -40.0), [Command(Verb.CLOSE)]),
            (SceneObject.circle(120.0, 0.0, -90.0),
             [Command(Verb.RECONFIGURE, "engage"), Command(Verb.CLOSE)])):
        rep = run_commands(build_gripper(cfg), obj, commands)
        for f in rep.fingers:
            for key in ("R_P", "R_M", "R_D"):
                assert 0.0 <= f[key] <= 0.53


def test_weak_motor_stalls_against_the_springs():
    weak = build_config(motor_torque=0.001)
    rep = run_commands(build_gripper(weak), SceneObject.circle(60.0, 0.0, -40.0),
                       [Command(Verb.CLOSE)])
    assert rep.stalled
    assert rep.success  # stable-by-stall still holds the object
    strong = run_commands(build_gripper(), SceneObject.circle(60.0, 0.0, -40.0),
                          [Command(Verb.CLOSE)])
    assert rep.fingers[0]["R_P"] < strong.fingers[0]["R_P"]


def test_enveloping_during_translation_is_a_classification_error(cfg):
    from dataclasses import replace as dc_replace

    from gripsim.errors import ClassificationError
    from gripsim.transmission import RackSegment

    rep = run_commands(build_gripper(cfg), SceneObject.circle(60.0, 0.0, -40.0),
                       [Command(Verb.CLOSE)])
    final = rep.snapshots[-1][1]
    # force an inconsistent state: enveloped fingers with the rack mid-translation
    trans = final.transmission
    broken = dc_replace(final, transmission=dc_replace(trans, rack=RackSegment.PART_B1))
    with pytest.raises(ClassificationError):
        classify_mode(broken)


def test_config_errors_name_the_offending_field():
    from gripsim.errors import ConfigError
    for field, value in (("L1_min", 90.0), ("L2_min", 60.0)):
        with pytest.raises(ConfigError) as err:
            build_config(**{field: value})
        assert err.value.field == field


def test_non_positive_drive_travel_is_a_config_error():
    from gripsim.errors import ConfigError
    with pytest.raises(ConfigError) as err:
        build_config(theta1_travel=-0.1)
    assert err.value.field == "theta1_travel"


@pytest.mark.parametrize("field, value", [
    ("motor_step", 0.0), ("motor_step", -0.01), ("contact_tol", 0.0),
    ("trace_stride", 0), ("motor_torque", -1.0),
])
def test_bad_step_inputs_are_config_errors_naming_the_field(field, value):
    from gripsim.errors import ConfigError
    with pytest.raises(ConfigError) as err:
        build_config(**{field: value})
    assert err.value.field == field


NAN = float("nan")


@pytest.mark.parametrize("make, field", [
    (lambda: SceneObject.circle(0.0), "diameter"),
    (lambda: SceneObject.circle(NAN, y=-60.0), "diameter"),
    (lambda: SceneObject.rectangle(-1.0, 10.0), "width"),
    (lambda: SceneObject.rectangle(NAN, 10.0), "width"),
    (lambda: SceneObject.rectangle(10.0, -1.0), "height"),
    (lambda: SceneObject.rectangle(10.0, NAN), "height"),
    (lambda: SceneObject.slab(2.0, 0.0, -80.0), "width"),
    (lambda: SceneObject.slab(2.0, NAN, -80.0), "width"),
    (lambda: SceneObject.slab(-0.5, 40.0, -80.0), "thickness"),
    (lambda: SceneObject.slab(NAN, 40.0, -80.0), "thickness"),
])
def test_bad_object_sizes_are_config_errors_naming_the_size(make, field):
    from gripsim.errors import ConfigError
    with pytest.raises(ConfigError) as err:
        make()
    assert err.value.field == field


@pytest.mark.parametrize("field", ["D1", "D2", "L3a", "L2a"])
@pytest.mark.parametrize("value", [NAN, float("inf")])
def test_non_finite_link_lengths_are_config_errors_naming_the_length(cfg, field, value):
    from gripsim.errors import ConfigError
    with pytest.raises(ConfigError) as err:
        build_config(geometry=replace(cfg.geometry, **{field: value}))
    assert err.value.field == field


def test_the_right_fingers_share_their_contacts_in_finger_then_phalanx_order(cfg):
    obj = SceneObject.circle(40.0, 0.0, -58.0)
    final = run_commands(build_gripper(cfg), obj, [Command(Verb.CLOSE)]).snapshots[-1][1]
    contacts = contact_detect(final, obj)
    by_finger = [[c for i, c in contacts if i == finger] for finger in range(3)]
    assert [c.phalanx for c in by_finger[0]] == [Phalanx.PROXIMAL, Phalanx.MIDDLE]
    assert by_finger[1] == by_finger[2] == [
        replace(c, point=Point(-c.point.x, c.point.y)) for c in by_finger[0]]
    assert contacts == [(i, c) for i in range(3) for c in by_finger[i]]


# A mirror-symmetric scene steps side 0 only and hands its state to side 1;
# starting the sides on two equal but distinct state objects forces the
# two-sided path, which must give the same states and bytes.

def _run(text: str, two_sided: bool = False, name: str = "mirror"):
    scn = parse_scenario(text, name=name)
    cfg = scn.build_config()
    asm = build_gripper(cfg, base_translation=scn.base_translation)
    if two_sided:
        rest = asm.fingers[0]
        asm = replace(asm, fingers=(rest, replace(rest)))
    obj = scn.build_object()
    rep = run_commands(asm, obj, scn.build_commands())
    return render_report(scn, cfg, rep), rep, obj


def _fixture(name: str) -> str:
    return (GOLDEN_DIR.parent.parent / "scenarios" / f"{name}.scn").read_text(encoding="utf-8")


_SCRIPTS = ("close = auto\n",
            "reconfigure = engage\nclose = auto\n",
            "close = auto\nopen = auto\n",
            "reconfigure = end\nrelease-reconfigure = auto\n")   # box150's
_ZEROS = st.sampled_from(["0", "-0.0"])
# a drawn size, or one within 1e-6 mm of a fixture's, so that an edge lies a
# hair from where the fingers touch a fixture's edge
_SIZES = st.one_of(st.floats(10.0, 160.0),
                   st.builds(float.__add__, st.sampled_from([30.0, 40.0, 80.0, 150.0]),
                             st.floats(-1e-6, 1e-6)))


@st.composite
def _mirror_scenes(draw):
    """An empty scene, or a circle, an unrotated rectangle or a slab at x = 0
    (the rectangle's and slab's x and rotation written 0 or -0.0)."""
    head = "[gripper]\nmotor_step_deg = 4\ntrace_stride = 20\n"
    shape = draw(st.sampled_from(["none", "circle", "rectangle", "slab"]))
    script = draw(st.sampled_from(_SCRIPTS))
    if shape == "none":
        return f"{head}[commands]\n{script}"
    if shape == "circle":
        obj = f"shape = circle\ndiameter = {draw(st.floats(10.0, 130.0))!r}\n"
        obj += f"y = {draw(st.floats(-170.0, -20.0))!r}\n"
    elif shape == "rectangle":
        obj = f"shape = rectangle\nwidth = {draw(_SIZES)!r}\nheight = {draw(_SIZES)!r}\n"
        obj += f"x = {draw(_ZEROS)}\ny = {draw(st.floats(-170.0, -80.0))!r}\n"
        obj += f"rotation_deg = {draw(_ZEROS)}\n"
    else:
        thickness = draw(st.one_of(st.just(0.0), st.floats(0.0, 3.0)))
        obj = f"shape = slab\nthickness = {thickness!r}\nwidth = {draw(_SIZES)!r}\n"
        obj += f"x = {draw(_ZEROS)}\nsurface_y = {draw(st.floats(-166.0, -150.0))!r}\n"
        script = draw(st.sampled_from(["pick-thin = auto\n", script]))
    return f"{head}[object]\n{obj}[commands]\n{script}"


# At their own motor step, side 1 of box150 and of cardboard_thin has a phalanx
# lying along an edge, where every point ties for the contact marker.
@settings(max_examples=40, deadline=None)
@given(_mirror_scenes())
@example(_fixture("box150_translational"))
@example(_fixture("cardboard_thin"))
@example(_fixture("ruler_thin"))
@example("[gripper]\nmotor_step_deg = 4\n[object]\nshape = slab\nthickness = 0\nwidth = 30\n"
         "x = -0.0\nsurface_y = -161\n[commands]\npick-thin = auto\n")
def test_a_mirrored_run_equals_the_two_sided_run(text):
    mirrored, rep, obj = _run(text)
    two_sided, rep2, _ = _run(text, two_sided=True)
    left, right = rep.snapshots[-1][1].fingers
    assert left is right
    left, right = rep2.snapshots[-1][1].fingers
    assert left is not right
    assert mirrored == two_sided
    assert [snap.fingers for _, snap in rep.snapshots] == [snap.fingers for _, snap in rep2.snapshots]
    assert ([frame_svg(snap, obj) for _, snap in rep.snapshots]
            == [frame_svg(snap, obj) for _, snap in rep2.snapshots])


@pytest.mark.parametrize("name", ["box150_translational", "cube80_remote", "cube40_proximal",
                                  "ruler_thin", "cardboard_thin"])
def test_centred_rectangles_and_slabs_step_one_side(name, scenario_dir):
    report, rep, _ = _run((scenario_dir / f"{name}.scn").read_text(encoding="utf-8"), name=name)
    left, right = rep.snapshots[-1][1].fingers
    assert left is right
    assert report.encode("utf-8") == (GOLDEN_DIR / f"{name}.report.json").read_bytes()


def test_an_off_centre_circle_steps_both_sides():
    text = "[object]\nshape = circle\ndiameter = 60\nx = 7\ny = -40\n"
    _, rep, _ = _run(text)
    left, right = rep.snapshots[-1][1].fingers
    assert left is not right
    assert left != right


@pytest.mark.parametrize("name, x", [pytest.param("cube125_remote", None, id="cube125_remote"),
                                     pytest.param("cube40_proximal", 0.5, id="cube40_off_centre")])
def test_rectangles_step_both_sides(name, x, scenario_dir):
    """A rotated rectangle (cube125, 30 deg) and an off-centre one."""
    text = (scenario_dir / f"{name}.scn").read_text(encoding="utf-8")
    if x is not None:
        text = text.replace("shape = rectangle\n", f"shape = rectangle\nx = {x}\n")
    report, rep, _ = _run(text, name=name)
    left, right = rep.snapshots[-1][1].fingers
    assert left is not right
    if x is None:
        assert report.encode("utf-8") == (GOLDEN_DIR / f"{name}.report.json").read_bytes()
    else:
        assert left != right
