import math

import pytest

from gripsim.assembly import build_gripper
from gripsim.errors import ConfigError, ScenarioError
from gripsim.scenario import Scenario, parse_scenario, serialize_scenario
from gripsim.scene import SceneObject, ShapeKind


def test_minimal_file_with_object_only_uses_defaults():
    scn = parse_scenario("[object]\nshape = circle\ndiameter = 60\n")
    assert scn.gripper == {}
    obj = scn.build_object()
    assert obj.kind is ShapeKind.CIRCLE and obj.diameter == 60.0
    cmds = scn.build_commands()
    assert len(cmds) == 1 and cmds[0].verb.value == "close"


def test_negative_diameter_is_a_range_diagnostic():
    text = "[object]\nshape = circle\ndiameter = -5\n"
    with pytest.raises(ScenarioError) as err:
        parse_scenario(text)
    (line, col, msg), = err.value.diagnostics
    assert line == 3
    assert col > 1
    assert "positive" in msg


@pytest.mark.parametrize("text, line, col, msg", [
    ("[object]\nshape = circle\ndiameter = nan\n", 3, 12, "diameter: expected a finite number"),
    ("[object]\nshape = circle\ndiameter = 1e400\n", 3, 12,
     "diameter: expected a finite number"),
    ("[object]\nshape = circle\ndiameter = 30\ny = inf\n", 4, 5, "y: expected a finite number"),
    ("[gripper]\ncontact_tol = -1\n", 2, 15, "contact_tol: must be positive"),
    ("[gripper]\ncontact_tol = 0\n", 2, 15, "contact_tol: must be positive"),
])
def test_non_finite_numbers_and_non_positive_tolerance_are_rejected(text, line, col, msg):
    with pytest.raises(ScenarioError) as err:
        parse_scenario(text)
    assert err.value.diagnostics == [(line, col, msg)]


def test_non_positive_drive_travel_is_rejected_with_location():
    with pytest.raises(ScenarioError) as err:
        parse_scenario("[gripper]\ntheta1_travel_deg = -10\n")
    assert err.value.diagnostics == [(2, 21, "theta1_travel_deg: must be positive")]


@pytest.mark.parametrize("value", ["-5", "-1e-9"])
def test_a_negative_base_translation_is_rejected_with_location(value):
    with pytest.raises(ScenarioError) as err:
        parse_scenario(f"[gripper]\nbase_translation = {value}\n")
    assert err.value.diagnostics == [(2, 20, "base_translation: cannot be negative")]


@pytest.mark.parametrize("text, travel", [
    ("base_translation = -0\n", -0.0),
    ("base_translation = 0\n", 0.0),
    ("base_translation = 50\n", 50.0),
    ("base_translation = 25\nscale = 0.5\n", 25.0),
])
def test_a_base_translation_inside_the_travel_is_kept(text, travel):
    scn = parse_scenario("[gripper]\n" + text)
    gripper = build_gripper(scn.build_config(), base_translation=scn.base_translation)
    assert gripper.transmission.base_translation.hex() == travel.hex()


@pytest.mark.parametrize("text", [
    "base_translation = 80\n",
    "base_translation = 50.000001\n",
    "base_translation = 30\nscale = 0.5\n",   # the travel is scaled, the key is not
    "base_translation = 1\nbase_shift_max = 0\n",
])
def test_a_base_translation_beyond_the_travel_is_a_config_error(text):
    scn = parse_scenario("[gripper]\n" + text)
    with pytest.raises(ConfigError) as err:
        build_gripper(scn.build_config(), base_translation=scn.base_translation)
    assert err.value.field == "base_translation"


def test_scale_keeps_every_other_key():
    scn = parse_scenario("[gripper]\nscale = 1.5\nmotor_step_deg = 4\ntrace_stride = 5\n"
                         "contact_tol = 0.05\ntheta1_travel_deg = 100\n")
    cfg = scn.build_config()
    assert cfg.geometry.L1_rest == 1.5 * 70.0
    assert cfg.motor_step == math.radians(4.0)
    assert cfg.trace_stride == 5
    assert cfg.contact_tol == 0.05
    assert cfg.theta1_travel == math.radians(100.0)


def test_unknown_key_is_rejected_with_location():
    with pytest.raises(ScenarioError) as err:
        parse_scenario("[gripper]\nwarp_drive = 9\n")
    (line, _, msg), = err.value.diagnostics
    assert line == 2 and "unknown" in msg


def test_unknown_section_and_bare_line_are_reported():
    with pytest.raises(ScenarioError) as err:
        parse_scenario("[continuum]\nx 5\n")
    msgs = [m for _, _, m in err.value.diagnostics]
    assert any("unknown section" in m for m in msgs)
    assert any("key = value" in m for m in msgs)


def test_comments_and_blank_lines_are_ignored():
    scn = parse_scenario("# header\n\n[object]\nshape = circle  # round\ndiameter = 25\n")
    assert scn.object["diameter"] == 25.0


def test_commands_keep_their_order_and_symbolic_counts():
    text = ("[object]\nshape = circle\ndiameter = 120\ny = -90\n\n"
            "[commands]\nreconfigure = engage\nclose = 500\n")
    scn = parse_scenario(text)
    assert scn.commands == (("reconfigure", "engage"), ("close", 500))
    cmds = scn.build_commands()
    assert cmds[0].steps == "engage" and cmds[1].steps == 500


def test_bad_command_counts_are_diagnosed():
    with pytest.raises(ScenarioError):
        parse_scenario("[commands]\nclose = -3\n")
    with pytest.raises(ScenarioError):
        parse_scenario("[commands]\nclose = soon\n")
    with pytest.raises(ScenarioError):
        parse_scenario("[commands]\nwiggle = 5\n")


def test_round_trip_is_identity():
    text = ("[gripper]\nbase_shift_max = 50\ntrace_stride = 100\n\n"
            "[object]\nshape = rectangle\nwidth = 80\nheight = 80\ny = -110\n"
            "rotation_deg = 30\n\n"
            "[commands]\nreconfigure = engage\nclose = auto\n")
    scn = parse_scenario(text)
    again = parse_scenario(serialize_scenario(scn), name=scn.name)
    assert again == scn
    # and serialization is a fixed point
    assert serialize_scenario(again) == serialize_scenario(scn)


def test_missing_required_object_fields_are_reported():
    with pytest.raises(ScenarioError) as err:
        parse_scenario("[object]\nshape = slab\nthickness = 2\n")
    msgs = [m for _, _, m in err.value.diagnostics]
    assert any("width" in m for m in msgs) and any("surface_y" in m for m in msgs)


@pytest.mark.parametrize("text, msg", [
    ("# no shape\n\n  [object]\ndiameter = 30\n", "[object] section needs a `shape` key"),
    ("# no diameter\n\n  [object]\nshape = circle\nx = 5\n", "circle object needs `diameter`"),
])
def test_an_incomplete_object_is_reported_at_its_header(text, msg):
    with pytest.raises(ScenarioError) as err:
        parse_scenario(text)
    assert err.value.diagnostics == [(3, 3, msg)]


@pytest.mark.parametrize("text, diagnostics", [
    # a repeated key is reported at the repeat, whatever its value
    ("[object]\nshape = circle\ndiameter = 40\n  diameter = 60\n",
     [(4, 3, "repeated key `diameter`, first at line 3")]),
    ("[object]\nshape = circle\ndiameter = -1\ndiameter = 60\n",
     [(3, 12, "diameter: must be positive"), (4, 1, "repeated key `diameter`, first at line 3")]),
    ("[gripper]\nmotor_step_deg = 1\n\n[object]\nshape = circle\ndiameter = 40\n"
     "\n[gripper]\nmotor_step_deg = 4\n",
     [(8, 1, "repeated section [gripper], first at line 1"),
      (9, 1, "repeated key `motor_step_deg`, first at line 2")]),
    # a second [object] is not merged into the first
    ("[object]\nshape = circle\ndiameter = 40\n\n [object]\nshape = rectangle\n"
     "width = 30\nheight = 20\n",
     [(5, 2, "repeated section [object], first at line 1"),
      (6, 1, "repeated key `shape`, first at line 2")]),
    ("[commands]\nclose = 10\n[commands]\nopen = 5\n",
     [(3, 1, "repeated section [commands], first at line 1")]),
])
def test_a_repeated_key_or_section_is_reported_at_the_repeat(text, diagnostics):
    with pytest.raises(ScenarioError) as err:
        parse_scenario(text)
    assert err.value.diagnostics == diagnostics


def test_a_command_verb_may_repeat():
    scn = parse_scenario("[commands]\nclose = 10\nopen = 5\nclose = auto\n")
    assert scn.commands == (("close", 10), ("open", 5), ("close", "auto"))


@pytest.mark.parametrize("text, diagnostics", [
    ("[object]\nshape = slab\nthickness = 2\nwidth = 30\nsurface_y = -160\n"
     "rotation_deg = 30\n  y = -150\n",
     [(6, 1, "slab object does not use `rotation_deg`"),
      (7, 3, "slab object does not use `y`")]),
    # the shape may come after the key it rules out
    ("[object]\nheight = 20\nshape = circle\ndiameter = 40\n",
     [(2, 1, "circle object does not use `height`")]),
    ("[object]\nshape = circle\ndiameter = 40\nrotation_deg = 10\nsurface_y = -100\n",
     [(4, 1, "circle object does not use `rotation_deg`"),
      (5, 1, "circle object does not use `surface_y`")]),
    ("[object]\nshape = rectangle\nwidth = 30\nheight = 20\nthickness = 2\ndiameter = 9\n",
     [(5, 1, "rectangle object does not use `thickness`"),
      (6, 1, "rectangle object does not use `diameter`")]),
])
def test_a_key_the_shape_does_not_use_is_reported_at_the_key(text, diagnostics):
    with pytest.raises(ScenarioError) as err:
        parse_scenario(text)
    assert err.value.diagnostics == diagnostics


def test_every_key_a_shape_uses_is_kept():
    circle = parse_scenario("[object]\nshape = circle\ndiameter = 40\nx = 5\ny = -60\n")
    assert circle.build_object() == SceneObject.circle(40.0, x=5.0, y=-60.0)
    rect = parse_scenario("[object]\nshape = rectangle\nwidth = 30\nheight = 20\nx = 5\n"
                          "y = -60\nrotation_deg = 30\n")
    assert rect.build_object() == SceneObject.rectangle(30.0, 20.0, x=5.0, y=-60.0,
                                                        rotation=math.radians(30.0))
    slab = parse_scenario("[object]\nshape = slab\nthickness = 2\nwidth = 30\n"
                          "surface_y = -160\nx = 5\n")
    assert slab.build_object() == SceneObject.slab(2.0, 30.0, surface_y=-160.0, x=5.0)


def test_all_shipped_fixtures_parse(scenario_dir):
    files = sorted(scenario_dir.glob("*.scn"))
    assert len(files) >= 13
    for path in files:
        scn = parse_scenario(path.read_text(encoding="utf-8"), name=path.stem)
        assert isinstance(scn, Scenario)
        scn.build_commands()


def test_the_five_demonstration_objects_are_shipped(scenario_dir):
    expected = {"cyl60_proximal", "cube40_proximal", "cube125_remote",
                "cyl120_remote", "cube80_remote"}
    names = {p.stem for p in scenario_dir.glob("*.scn")}
    assert expected <= names
    sizes = {}
    for stem in expected:
        scn = parse_scenario((scenario_dir / f"{stem}.scn").read_text(), name=stem)
        o = scn.object
        sizes[stem] = o.get("diameter", o.get("width"))
    assert sizes == {"cyl60_proximal": 60.0, "cube40_proximal": 40.0,
                     "cube125_remote": 125.0, "cyl120_remote": 120.0,
                     "cube80_remote": 80.0}
