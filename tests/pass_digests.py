"""Per-pass report digests and output-check problems of a benchmark workload.

    PYTHONPATH=src python tests/pass_digests.py rect_contact --seeds 1-3 --passes 0-300

For each seed and pass it generates the pass's scenarios with
``perfbench/gen.py``, runs each one the way the benchmark does (parse,
build, run, render the report), and prints one line: the SHA-256 over the
pass's report bytes in scenario order (the benchmark's pass digest) and, for
``frames_batch``, one SHA-256 over the SVG frames ``gripsim run --svg`` would
write for the pass.  Every scenario that fails ``workloads.check_report``, or
raises, is printed as a ``PROBLEM`` line.  The exit status is 1 if any
problem was printed.

Run it on two trees and ``diff`` the outputs to show that a change keeps
every report and frame of passes the benchmark's pass 0 never draws.  It
reads ``perfbench/`` and writes nothing; it is not part of the unit suite.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from gripsim.assembly import build_gripper, run_commands  # noqa: E402
from gripsim.report import render_report  # noqa: E402
from gripsim.scenario import parse_scenario  # noqa: E402

import gen  # noqa: E402
import workloads  # noqa: E402
from test_corpus import FRAMED, frame_set  # noqa: E402


def _span(text: str) -> range:
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def pass_line(workload: str, seed: int, pass_no: int) -> tuple[str, list[str]]:
    """The pass's digest line and its problems."""
    reports, frames = hashlib.sha256(), hashlib.sha256()
    problems = []
    for case in gen.generate(workload, seed, pass_no):
        try:
            scn = parse_scenario(case.text, name=case.name)
            cfg = scn.build_config()
            gripper = build_gripper(cfg, base_translation=scn.base_translation)
            obj = scn.build_object()
            report = run_commands(gripper, obj, scn.build_commands())
            text = render_report(scn, cfg, report)
        except Exception as exc:  # a raising scenario is a problem; the pass goes on
            problems.append(f"{case.name}: {exc!r}")
            continue
        reports.update(text.encode("utf-8"))
        problem = workloads.check_report(case, json.loads(text))
        if problem is not None:
            problems.append(f"{case.name}: {problem}")
        if workload == FRAMED:
            for name, svg in frame_set(report, obj):
                frames.update(f"{case.name}/{name}".encode("utf-8") + b"\0"
                              + svg.encode("utf-8"))
    line = f"{workload} seed {seed} pass {pass_no} {reports.hexdigest()}"
    if workload == FRAMED:
        line += f" frames {frames.hexdigest()}"
    return line, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seeds", default="1", help="N or N-M (inclusive)")
    parser.add_argument("--passes", default="0", help="N or N-M (inclusive)")
    args = parser.parse_args(argv)
    passes = problems = 0
    for seed in _span(args.seeds):
        for pass_no in _span(args.passes):
            line, found = pass_line(args.workload, seed, pass_no)
            print(line, flush=True)
            for problem in found:
                print(f"PROBLEM seed {seed} pass {pass_no} {problem}", flush=True)
            passes += 1
            problems += len(found)
    print(f"{args.workload}: {passes} passes, {problems} output-check problems")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
