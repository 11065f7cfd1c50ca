"""End-to-end runs of the shipped scenarios: each lands in its intended mode
and reproduces its golden report and SVG frame set byte for byte.

A golden changes only together with a CHANGES.md line that names the change
and its cause.  Regenerate them with ``PYTHONPATH=src python tests/test_fixtures.py``.
"""

import hashlib
import json
from pathlib import Path

import pytest

from gripsim.cli import run_scenario
from gripsim.scenario import parse_scenario

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
FRAME_HASHES = GOLDEN_DIR / "frames.sha256"

EXPECTED = {
    "cube40_proximal": (1, True),
    "cyl60_proximal": (2, True),
    "box150_translational": (3, True),
    "cube80_remote": (4, True),
    "cyl120_remote": (5, True),
    "cube125_remote": (5, True),
    "cyl25_proximal": (2, True),
    "cyl40_proximal": (2, True),
    "pingpong_proximal": (2, True),
    "tennis_proximal": (2, True),
    "tape_proximal": (2, True),
    "ruler_thin": (1, True),
    "cardboard_thin": (1, True),
}


def frames_sha256(svg_dir: Path) -> str:
    """One digest over every file of a frame set: name, NUL, bytes, in name order."""
    digest = hashlib.sha256()
    for path in sorted(svg_dir.iterdir()):
        digest.update(path.name.encode("utf-8") + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_fixture(name: str, scenario_dir: Path, work_dir: Path) -> tuple[Path, Path]:
    """Run one fixture through the CLI path; return its report path and frame directory."""
    text = (scenario_dir / f"{name}.scn").read_text(encoding="utf-8")
    out = work_dir / f"{name}.report.json"
    svg = work_dir / f"{name}_frames"
    run_scenario(parse_scenario(text, name=name), out, svg)
    return out, svg


def _golden_frame_hashes() -> dict[str, str]:
    lines = FRAME_HASHES.read_text(encoding="utf-8").splitlines()
    return {name: digest for digest, name in (line.split() for line in lines)}


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_fixture_reaches_its_mode(name, scenario_dir, tmp_path):
    out, svg = run_fixture(name, scenario_dir, tmp_path)
    payload = json.loads(out.read_text())
    mode, success = EXPECTED[name]
    assert payload["result"]["mode"] == mode
    assert payload["result"]["success"] is success
    assert out.read_bytes() == (GOLDEN_DIR / f"{name}.report.json").read_bytes()
    assert frames_sha256(svg) == _golden_frame_hashes()[name]


def test_thin_fixtures_compress_the_distal(scenario_dir, tmp_path):
    ratios = {}
    for name in ("ruler_thin", "cardboard_thin"):
        scn = parse_scenario((scenario_dir / f"{name}.scn").read_text(), name=name)
        out = tmp_path / f"{name}.json"
        run_scenario(scn, out, None)
        payload = json.loads(out.read_text())
        ratios[name] = payload["fingers"][0]["R_D"]
        assert payload["result"]["tip_surface_gap"] < 0.01
    assert ratios["ruler_thin"] > ratios["cardboard_thin"] > 0.15


if __name__ == "__main__":
    import tempfile

    scenarios = Path(__file__).resolve().parent.parent / "scenarios"
    GOLDEN_DIR.mkdir(exist_ok=True)
    hashes = []
    with tempfile.TemporaryDirectory() as tmp:
        for fixture in sorted(EXPECTED):
            report, frames = run_fixture(fixture, scenarios, Path(tmp))
            (GOLDEN_DIR / report.name).write_bytes(report.read_bytes())
            hashes.append(f"{frames_sha256(frames)}  {fixture}\n")
    FRAME_HASHES.write_text("".join(hashes), encoding="utf-8")
