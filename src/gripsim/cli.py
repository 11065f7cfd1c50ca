"""Command-line surface: run scenarios, sweep mode ranges, print definitions.

Exit codes: 0 success (a no-grasp result is still a successful run),
2 parse/validation failure, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

from . import assembly as asm
from .config import default_config
from .errors import GripsimError, ScenarioError
from .render import write_frames
from .report import canonical_json, render_report
from .scenario import Scenario, parse_scenario

MODE_SUMMARY = (
    (1, "proximal parallel", "flat-on-flat pinch with the base at home"),
    (2, "proximal enveloping", "phalanges conform around the object, base at home"),
    (3, "translational", "base slides on the palm rails, fingertips move horizontally"),
    (4, "remote parallel", "parallel grasp after the base reconfigures outward"),
    (5, "remote enveloping", "enveloping grasp at the reconfigured base"),
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="gripsim",
                                     description="planar gripper grasp simulator")
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="execute scenario files")
    p_run.add_argument("files", nargs="+")
    p_run.add_argument("--out", help="report path (single file) or directory")
    p_run.add_argument("--svg", help="directory for SVG frames")

    p_sweep = sub.add_parser("sweep", help="aperture range per grasp mode")
    p_sweep.add_argument("--config", help="scenario file supplying [gripper] overrides")
    p_sweep.add_argument("--out", help="write the table as JSON")

    sub.add_parser("modes", help="print the five grasp mode definitions")

    p_cal = sub.add_parser("calibrate", help="print the resolved constants")
    p_cal.add_argument("--config", help="scenario file supplying [gripper] overrides")

    args = parser.parse_args(argv)
    try:
        if args.verb == "run":
            return _cmd_run(args)
        if args.verb == "sweep":
            return _cmd_sweep(args)
        if args.verb == "modes":
            return _cmd_modes()
        return _cmd_calibrate(args)
    except GripsimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3


def _load_scenario(path: str) -> Scenario:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        raise SystemExit(3)
    try:
        return parse_scenario(text, name=Path(path).stem)
    except ScenarioError as exc:
        for ln, col, msg in exc.diagnostics:
            print(f"{path}:{ln}:{col}: {msg}", file=sys.stderr)
        raise SystemExit(2)


def _atomic_write(path: Path, data: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(data, encoding="utf-8")
    os.replace(tmp, path)


def run_scenario(scenario: Scenario, out_path: Path | None,
                 svg_dir: Path | None) -> None:
    """Execute one scenario; write its report and optional SVG frames."""
    cfg = scenario.build_config()
    gripper = asm.build_gripper(cfg, base_translation=scenario.base_translation)
    obj = scenario.build_object()
    report = asm.run_commands(gripper, obj, scenario.build_commands())
    text = render_report(scenario, cfg, report)
    if out_path is not None:
        _atomic_write(out_path, text)
    else:
        sys.stdout.write(text)
    if svg_dir is not None:
        caption = f"mode {report.mode} success {str(report.success).lower()}"
        write_frames(svg_dir, report.snapshots, obj, caption)


def _cmd_run(args) -> int:
    files = list(args.files)
    scenarios = [_load_scenario(f) for f in files]
    jobs = []
    for path, scenario in zip(files, scenarios):
        if args.out is None:
            out = None if len(files) == 1 else Path(path).with_suffix(".report.json")
        elif len(files) == 1 and not Path(args.out).is_dir():
            out = Path(args.out)
        else:
            out_dir = Path(args.out)
            out_dir.mkdir(parents=True, exist_ok=True)
            out = out_dir / f"{scenario.name}.report.json"
        svg = None
        if args.svg is not None:
            svg = Path(args.svg) if len(files) == 1 else Path(args.svg) / scenario.name
        jobs.append((scenario, out, svg))
    for kind, at in (("report", 1), ("SVG directory", 2)):
        writers: dict[Path, int] = {}   # resolved output path -> the first file writing it
        for n, job in enumerate(jobs):
            first = n if job[at] is None else writers.setdefault(job[at].resolve(), n)
            if first != n:
                print(f"error: {files[first]} and {files[n]} both write the {kind} {job[at]}",
                      file=sys.stderr)
                return 2

    # every scenario runs and writes its report; then the first failure in
    # file order is raised
    failure = None
    for job in jobs:
        try:
            run_scenario(*job)
        except Exception as exc:
            if failure is None:
                failure = exc
    if failure is not None:
        raise failure
    return 0


def _sweep_table(cfg) -> dict:
    ranges = asm.sweep_ranges(cfg)
    table = {}
    for mode, rng in ranges.items():
        if rng is None:
            table[str(mode)] = None
        else:
            table[str(mode)] = [rng[0], rng[1]]
    return table


def _cmd_sweep(args) -> int:
    cfg = _config_from(args.config)
    table = _sweep_table(cfg)
    print(f"{'mode':>4}  {'name':<20}  range (mm)")
    for mode, name, _ in MODE_SUMMARY:
        rng = table[str(mode)]
        if rng is None:
            print(f"{mode:>4}  {name:<20}  unreachable")
        else:
            print(f"{mode:>4}  {name:<20}  [{rng[0]:.1f}, {rng[1]:.1f}]")
    if args.out:
        _atomic_write(Path(args.out), canonical_json({"ranges": table}) + "\n")
    return 0


def _cmd_modes() -> int:
    for mode, name, text in MODE_SUMMARY:
        print(f"Mode {mode} ({name}): {text}")
    return 0


def _cmd_calibrate(args) -> int:
    cfg = _config_from(args.config)
    g = cfg.geometry
    print("resolved constants:")
    print(f"  L1c            = {g.L1c:.6f} mm")
    print(f"  L2c            = {g.L2c:.6f} mm")
    print(f"  kappa          = {math.degrees(g.kappa):.6f} deg")
    print(f"  palm half width= {cfg.layout.half_width:.6f} mm")
    print(f"  theta1 rest    = {math.degrees(cfg.layout.theta1_rest):.6f} deg")
    print(f"  theta1 vertical= {math.degrees(cfg.layout.theta1_down):.6f} deg")
    print(f"  envelope fold  = {math.degrees(cfg.layout.theta1_fold):.6f} deg")
    print(f"  alpha at rest  = {math.degrees(cfg.alpha_rest):.6f} deg")
    print(f"  distal stop    = {math.degrees(cfg.theta3_max):.6f} deg of wrap")
    print(f"  bar end stops  = ({cfg.L1_min:.1f}, {cfg.L2_min:.1f}, {cfg.L3_min:.1f}) mm")
    return 0


def _config_from(path: str | None):
    if path is None:
        return default_config()
    scenario = _load_scenario(path)
    return scenario.build_config()


if __name__ == "__main__":
    sys.exit(main())
