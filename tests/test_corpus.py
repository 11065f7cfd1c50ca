"""Generated scenarios rerun to the same report bytes.

``tests/golden/corpus`` holds the first-pass scenarios of the three benchmark
workloads at seeds 1 and 2 (``<workload>/seed<N>/<name>.scn``), and
``reports.sha256`` one SHA-256 per report.  Each scenario runs the way the
benchmark runs it (parse, build, run, render the report), but nothing here
imports the benchmark, so a benchmark change cannot move these hashes.
``frames.sha256`` holds one SHA-256 per ``frames_batch`` scenario over the
frame set ``gripsim run --svg`` writes for it (every trace frame and the
summary frame), hashed in memory as ``test_fixtures.frames_sha256`` hashes
the written files.

A hash changes only together with a CHANGES.md line that names the change
and its cause.  Rewrite them with ``PYTHONPATH=src python tests/test_corpus.py``.
"""

import hashlib
from pathlib import Path

import pytest

from gripsim.assembly import build_gripper, run_commands
from gripsim.render import frame_svg
from gripsim.report import render_report
from gripsim.scenario import parse_scenario

CORPUS_DIR = Path(__file__).resolve().parent / "golden" / "corpus"
REPORT_HASHES = CORPUS_DIR / "reports.sha256"
FRAME_HASHES = CORPUS_DIR / "frames.sha256"
WORKLOADS = ("circle_envelop", "frames_batch", "rect_contact")
FRAMED = "frames_batch"   # the workload whose runs write SVG frames


def _run(path: Path):
    scn = parse_scenario(path.read_text(encoding="utf-8"), name=path.stem)
    cfg = scn.build_config()
    gripper = build_gripper(cfg, base_translation=scn.base_translation)
    obj = scn.build_object()
    return scn, cfg, obj, run_commands(gripper, obj, scn.build_commands())


def report_sha256(path: Path) -> str:
    scn, cfg, _, report = _run(path)
    return hashlib.sha256(render_report(scn, cfg, report).encode("utf-8")).hexdigest()


def frame_set(report, obj) -> list[tuple[str, str]]:
    """The (file name, SVG text) pairs ``gripsim run --svg`` writes for a run,
    in name order: ``frame_%05d.svg`` by number, then ``summary.svg``."""
    frames = [(f"frame_{n:05d}.svg", frame_svg(assembly, obj, caption=f"step {step}"))
              for n, (step, assembly) in enumerate(report.snapshots)]
    caption = f"mode {report.mode} success {str(report.success).lower()}"
    frames.append(("summary.svg", frame_svg(report.snapshots[-1][1], obj, caption=caption)))
    return frames


def frames_sha256(path: Path) -> str:
    """The digest ``test_fixtures.frames_sha256`` gives the directory that
    ``gripsim run --svg`` writes for the scenario: file name, NUL, bytes."""
    _, _, obj, report = _run(path)
    digest = hashlib.sha256()
    for name, svg in frame_set(report, obj):
        digest.update(name.encode("utf-8") + b"\0" + svg.encode("utf-8"))
    return digest.hexdigest()


def _golden_hashes(path: Path = REPORT_HASHES) -> dict[str, str]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return {name: digest for digest, name in (line.split() for line in lines)}


def _scenarios(workload: str) -> list[str]:
    return sorted(str(p.relative_to(CORPUS_DIR).with_suffix(""))
                  for p in (CORPUS_DIR / workload).glob("seed*/*.scn"))


def test_every_scenario_has_one_hash():
    assert sorted(_golden_hashes()) == sorted(n for w in WORKLOADS for n in _scenarios(w))
    assert [len(_scenarios(w)) for w in WORKLOADS] == [30, 10, 26]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_the_corpus_reports_are_unchanged(workload):
    golden = _golden_hashes()
    for name in _scenarios(workload):
        got = report_sha256(CORPUS_DIR / f"{name}.scn")
        assert got == golden[name], f"first changed report: {name}"


def test_every_framed_scenario_has_one_frame_hash():
    assert sorted(_golden_hashes(FRAME_HASHES)) == _scenarios(FRAMED)


def test_the_corpus_frames_are_unchanged():
    golden = _golden_hashes(FRAME_HASHES)
    for name in _scenarios(FRAMED):
        got = frames_sha256(CORPUS_DIR / f"{name}.scn")
        assert got == golden[name], f"first changed frame set: {name}"


if __name__ == "__main__":
    hashes = [f"{report_sha256(CORPUS_DIR / f'{name}.scn')}  {name}\n"
              for w in WORKLOADS for name in _scenarios(w)]
    REPORT_HASHES.write_text("".join(hashes), encoding="utf-8")
    hashes = [f"{frames_sha256(CORPUS_DIR / f'{name}.scn')}  {name}\n"
              for name in _scenarios(FRAMED)]
    FRAME_HASHES.write_text("".join(hashes), encoding="utf-8")
