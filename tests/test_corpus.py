"""Generated scenarios rerun to the same report bytes.

``tests/golden/corpus`` holds the first-pass scenarios of the three benchmark
workloads at seeds 1 and 2 (``<workload>/seed<N>/<name>.scn``), and
``reports.sha256`` one SHA-256 per report.  Each scenario runs the way the
benchmark runs it (parse, build, run, render the report), but nothing here
imports the benchmark, so a benchmark change cannot move these hashes.

A hash changes only together with a CHANGES.md line that names the change
and its cause.  Rewrite them with ``PYTHONPATH=src python tests/test_corpus.py``.
"""

import hashlib
from pathlib import Path

import pytest

from gripsim.assembly import build_gripper, run_commands
from gripsim.report import render_report
from gripsim.scenario import parse_scenario

CORPUS_DIR = Path(__file__).resolve().parent / "golden" / "corpus"
REPORT_HASHES = CORPUS_DIR / "reports.sha256"
WORKLOADS = ("circle_envelop", "frames_batch", "rect_contact")


def report_sha256(path: Path) -> str:
    scn = parse_scenario(path.read_text(encoding="utf-8"), name=path.stem)
    cfg = scn.build_config()
    gripper = build_gripper(cfg, base_translation=scn.base_translation)
    report = run_commands(gripper, scn.build_object(), scn.build_commands())
    return hashlib.sha256(render_report(scn, cfg, report).encode("utf-8")).hexdigest()


def _golden_hashes() -> dict[str, str]:
    lines = REPORT_HASHES.read_text(encoding="utf-8").splitlines()
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


if __name__ == "__main__":
    hashes = [f"{report_sha256(CORPUS_DIR / f'{name}.scn')}  {name}\n"
              for w in WORKLOADS for name in _scenarios(w)]
    REPORT_HASHES.write_text("".join(hashes), encoding="utf-8")
