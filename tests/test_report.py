import json


from gripsim.assembly import Command, Verb, build_gripper, run_commands
from gripsim.report import canonical_json, config_fingerprint, render_report
from gripsim.scenario import parse_scenario
from gripsim.scene import SceneObject


def test_floats_print_with_six_decimals():
    assert canonical_json(0.1) == "0.100000"
    assert canonical_json(127.0) == "127.000000"
    assert canonical_json({"a": 1, "b": None, "c": True}) == \
        '{\n  "a": 1,\n  "b": null,\n  "c": true\n}'


def test_key_order_is_insertion_order():
    assert canonical_json({"z": 1, "a": 2}).index('"z"') < \
        canonical_json({"z": 1, "a": 2}).index('"a"')


def test_canonical_json_is_valid_json():
    blob = canonical_json({"x": [1.5, {"y": "a\"b"}], "n": None})
    parsed = json.loads(blob)
    assert parsed["x"][1]["y"] == 'a"b'


def test_config_fingerprint_is_stable_and_sensitive(cfg):
    a = config_fingerprint(cfg)
    assert a == config_fingerprint(cfg)
    assert a != config_fingerprint(cfg.scaled(2.0))


def test_report_bytes_are_reproducible(cfg):
    scn = parse_scenario("[object]\nshape = circle\ndiameter = 60\ny = -40\n",
                         name="demo")
    obj = SceneObject.circle(60.0, 0.0, -40.0)
    rep1 = run_commands(build_gripper(cfg), obj, [Command(Verb.CLOSE)])
    rep2 = run_commands(build_gripper(cfg), obj, [Command(Verb.CLOSE)])
    text1 = render_report(scn, cfg, rep1)
    text2 = render_report(scn, cfg, rep2)
    assert text1 == text2
    parsed = json.loads(text1)
    assert parsed["result"]["mode"] == 2
    assert list(parsed.keys()) == ["provenance", "result", "fingers", "trace"]
