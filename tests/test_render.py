import xml.etree.ElementTree as ET

from gripsim.assembly import Command, Verb, build_gripper, run_commands
from gripsim.render import frame_svg, write_frames
from gripsim.scene import SceneObject

SVG_NS = "{http://www.w3.org/2000/svg}"


def _parse(svg_text):
    return ET.fromstring(svg_text)


def test_frame_is_valid_xml_with_nine_polylines_and_one_outline(cfg):
    asm = build_gripper(cfg)
    obj = SceneObject.circle(60.0, 0.0, -40.0)
    root = _parse(frame_svg(asm, obj))
    polylines = root.findall(f"{SVG_NS}polyline")
    assert len(polylines) == 9
    outlines = root.findall(f"{SVG_NS}circle")
    # one object outline; contact markers would also be circles but none exist at rest
    assert len([c for c in outlines if c.get("fill") == "none"]) == 1


def test_rect_objects_render_as_one_polygon(cfg):
    asm = build_gripper(cfg)
    obj = SceneObject.rectangle(40.0, 40.0, 0.0, -150.0)
    root = _parse(frame_svg(asm, obj))
    assert len(root.findall(f"{SVG_NS}polygon")) == 1
    assert len(root.findall(f"{SVG_NS}polyline")) == 9


def test_write_frames_produces_numbered_files_and_a_summary(cfg, tmp_path):
    obj = SceneObject.circle(60.0, 0.0, -40.0)
    rep = run_commands(build_gripper(cfg), obj, [Command(Verb.CLOSE)])
    write_frames(tmp_path, rep.snapshots, obj, "mode 2")
    files = sorted(tmp_path.iterdir())
    names = [p.name for p in files]
    assert names == [f"frame_{n:05d}.svg" for n in range(len(rep.snapshots))] + ["summary.svg"]
    for p in files:
        _parse(p.read_text(encoding="utf-8"))


def test_frames_are_deterministic(cfg, tmp_path):
    obj = SceneObject.circle(60.0, 0.0, -40.0)
    rep1 = run_commands(build_gripper(cfg), obj, [Command(Verb.CLOSE)])
    rep2 = run_commands(build_gripper(cfg), obj, [Command(Verb.CLOSE)])
    write_frames(tmp_path / "a", rep1.snapshots, obj, "x")
    write_frames(tmp_path / "b", rep2.snapshots, obj, "x")
    a = sorted((tmp_path / "a").iterdir())
    b = sorted((tmp_path / "b").iterdir())
    assert [p.name for p in a] == [p.name for p in b]
    for pa, pb in zip(a, b):
        assert pa.read_bytes() == pb.read_bytes()
