"""One pass over a workload, and the check of its outputs.

``rect_contact`` and ``circle_envelop`` drive the library the way
``gripsim.cli.run_scenario`` does (parse, build, run, render the report)
without writing files.  ``frames_batch`` makes one ``gripsim.cli.main`` call
over the pass's scenario files, which writes reports and SVG frames through
the CLI's own thread pool.

Functions are called through their module attributes (``gripsim.cli.main``,
``gripsim.assembly.run_commands`` ...) so the wrappers of a traced run see
every call.  A pass records host-time intervals; measure.py turns them into
reference-speed seconds (hostspeed.py).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import gripsim.assembly
import gripsim.cli
import gripsim.report
import gripsim.scenario
from gripsim.config import default_config

from gen import GRASP, Case

REST_APERTURE = 127.0


Span = tuple[float, float]           # host perf_counter() interval


@dataclass
class PassResult:
    span: Span                       # the whole pass
    scenario_spans: dict[str, Span]  # scenario name -> its interval
    steps: int                       # sum of the reports' motor steps
    digest: str                      # SHA-256 over the report bytes, in case order
    problems: list[str] = field(default_factory=list)   # one entry per failed scenario


def run_case(case: Case) -> str:
    scn = gripsim.scenario.parse_scenario(case.text, name=case.name)
    cfg = scn.build_config()
    gripper = gripsim.assembly.build_gripper(cfg, base_translation=scn.base_translation)
    rep = gripsim.assembly.run_commands(gripper, scn.build_object(), scn.build_commands())
    return gripsim.report.render_report(scn, cfg, rep)


def sim_pass(cases: list[Case]) -> PassResult:
    texts: list[str | Exception] = []
    spans = {}
    t0 = perf_counter()
    for case in cases:
        s0 = perf_counter()
        try:
            texts.append(run_case(case))
        except Exception as exc:  # a raising scenario is a failed one; the pass goes on
            texts.append(exc)
        spans[case.name] = (s0, perf_counter())
    return _checked(cases, texts, (t0, perf_counter()), spans)


def frames_pass(cases: list[Case], workdir: Path) -> PassResult:
    """One CLI batch writing into ``workdir``, which must not exist yet.

    Each pass gets a fresh directory and nothing is deleted while passes are
    timed: on a disk mounted with ``discard`` (online TRIM), removing the
    previous pass's ~2000 frames stalls the next pass's file creations when
    the journal commits, by a second or more on a busy shared disk.
    """
    scn_dir, out = workdir / "scn", workdir / "out"
    scn_dir.mkdir(parents=True)
    files = []
    for case in cases:
        path = scn_dir / f"{case.name}.scn"
        path.write_text(case.text, encoding="utf-8")
        files.append(str(path))

    # A scenario's interval runs from the batch's start, before the CLI
    # parses the files, to the end of its cli.run_scenario in the pool: how
    # long the batch's caller waits for that scenario's report and frames.
    ends: dict[str, float] = {}
    inner = gripsim.cli.run_scenario

    def timed_run_scenario(scenario, *args):
        try:
            return inner(scenario, *args)
        finally:
            ends[scenario.name] = perf_counter()

    gripsim.cli.run_scenario = timed_run_scenario
    t0 = perf_counter()
    try:
        code = gripsim.cli.main(["run", *files, "--out", str(out), "--svg", str(out)])
    except (Exception, SystemExit) as exc:  # the CLI raises SystemExit on unreadable input
        code = exc
    finally:
        t1 = perf_counter()
        gripsim.cli.run_scenario = inner

    texts: list[str | Exception] = []
    for case in cases:
        if code != 0:
            texts.append(RuntimeError(f"gripsim run returned {code!r}"))
            continue
        try:
            texts.append((out / f"{case.name}.report.json").read_text(encoding="utf-8"))
        except OSError as exc:
            texts.append(exc)
    spans = {name: (t0, end) for name, end in ends.items()}
    return _checked(cases, texts, (t0, t1), spans, svg_root=out)


def _checked(cases: list[Case], texts: list, span: Span, scenario_spans: dict[str, Span],
             svg_root: Path | None = None) -> PassResult:
    digest = hashlib.sha256()
    steps = 0
    problems = []
    for case, text in zip(cases, texts):
        if isinstance(text, Exception):
            problems.append(f"{case.name}: {text!r}")
            continue
        digest.update(text.encode("utf-8"))
        try:
            report = json.loads(text)
        except ValueError as exc:
            problems.append(f"{case.name}: report is not JSON: {exc}")
            continue
        steps += report["result"]["steps"]
        problem = check_report(case, report)
        if problem is None and svg_root is not None:
            problem = check_frames(svg_root / case.name, len(report["trace"]))
        if problem is not None:
            problems.append(f"{case.name}: {problem}")
    return PassResult(span, scenario_spans, steps, digest.hexdigest(), problems)


def check_report(case: Case, report: dict) -> str | None:
    """None when the report shows the family's expected outcome, else why not."""
    res = report["result"]
    if res["mode"] != case.expect.mode:
        return f"mode {res['mode']}, expected {case.expect.mode}"
    if res["warnings"]:
        return f"warnings {res['warnings']}"
    if case.expect.kind == GRASP:
        return None if res["success"] is True else "success is not true"
    tol = default_config().contact_tol
    if res["base_translation"] != 0.0:
        return f"base {res['base_translation']} after the round trip"
    if abs(res["aperture_final"] - REST_APERTURE) > tol:
        return f"aperture {res['aperture_final']} after the round trip"
    return None


def check_frames(svg_dir: Path, snapshots: int) -> str | None:
    """One frame per trace snapshot plus summary.svg, and nothing else."""
    expected = {f"frame_{n:05d}.svg" for n in range(snapshots)} | {"summary.svg"}
    found = {p.name for p in svg_dir.iterdir()} if svg_dir.is_dir() else set()
    if found != expected:
        return (f"{len(found)} SVG files, expected {len(expected)} "
                f"(missing {sorted(expected - found)[:3]}, extra {sorted(found - expected)[:3]})")
    return None
