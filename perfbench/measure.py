"""Measure one workload in this (fresh) process; print one JSON line.

Run by ``run.py``; not meant to be called by hand.  Untraced: one untimed
warm-up pass, then timed passes until ``--seconds`` would be exceeded.
Traced: the same warm-up and untraced passes for half the time, then one
pass with the tracing wrappers installed.  Pass ``n`` runs the scenarios
``gen.generate(workload, seed, n)``; the warm-up and the traced pass both run
pass 0's.  All workload times are in reference-speed seconds (hostspeed.py).
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]

import gen  # noqa: E402
import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

OUT_DIR = ROOT / ".perfbench_out"
FRAMES_DIR = OUT_DIR / "frames"
REF_SAMPLES = 5    # reference samples on each side of the traced pass
_frames_passes = itertools.count()


def run_pass(workload: str, cases: list) -> workloads.PassResult:
    if workload == "frames_batch":
        return workloads.frames_pass(cases, FRAMES_DIR / f"pass{next(_frames_passes):03d}")
    return workloads.sim_pass(cases)


def clear_frames() -> None:
    """Delete every pass's CLI output and wait until the deletion is committed.

    Called only outside timed passes (see workloads.frames_pass): the fsync
    of the parent directory makes the journal commit, with its discards,
    happen here rather than during the next timed pass.
    """
    shutil.rmtree(FRAMES_DIR, ignore_errors=True)
    OUT_DIR.mkdir(exist_ok=True)
    fd = os.open(OUT_DIR, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def timed_passes(workload: str, seed: int, seconds: float) -> list:
    """Passes 1, 2, ... until starting another would likely end past ``seconds`` (at least one)."""
    start = perf_counter()
    passes = []
    while True:
        passes.append(run_pass(workload, gen.generate(workload, seed, len(passes) + 1)))
        typical = statistics.median(b - a for a, b in (p.span for p in passes))
        if perf_counter() - start + typical > seconds:
            return passes


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; children counts the largest reaped child
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    cases = gen.generate(args.workload, args.seed, 0)
    clear_frames()
    warm = run_pass(args.workload, cases)
    clock = hostspeed.HostClock()
    clock.start()
    try:
        timed = timed_passes(args.workload, args.seed,
                             args.seconds / 2 if args.trace else args.seconds)
    finally:
        clock.stop()
    passes = [warm] + timed
    pass_s = [clock.seconds(*p.span) for p in timed]
    wall = statistics.median(pass_s)
    out = {
        "passes": len(timed),
        "attempted": len(cases) * len(passes),
        "problems": [msg for p in passes for msg in p.problems],
        "digest": warm.digest,
        "steps": warm.steps,
        "wall_s": wall,
        "steps_per_s": statistics.median(p.steps / s for p, s in zip(timed, pass_s)),
        "pass_s": pass_s,
        "host_pass_s": [b - a for a, b in (p.span for p in timed)],
    }
    if args.trace:
        # no alarm during the traced pass: its spans would include the handler
        ref_before = [hostspeed.reference_s() for _ in range(REF_SAMPLES)]
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_pass(args.workload, cases)
        finally:
            tracer.uninstall()
        refs = ref_before + [hostspeed.reference_s() for _ in range(REF_SAMPLES)]
        k = hostspeed.NOMINAL_S / statistics.median(refs)
        out["attempted"] += len(cases)
        out["problems"] += traced.problems
        out["digest_mismatch"] = traced.digest != warm.digest
        layers = tracing.layer_metrics(tracer, k)
        layers["assembly.steps"] = traced.steps
        layers["trace.overhead"] = (traced.span[1] - traced.span[0]) * k / wall
        out["layers"] = layers
        out["self_s"] = {name: row["self_s"] * k for name, row in tracer.per_name().items()}
        tracer.write_spans(OUT_DIR / f"spans-{args.workload}.tsv")
    else:
        samples = [clock.seconds(*span) for p in timed for span in p.scenario_spans.values()]
        out["samples"] = len(samples)
        out["scenario_ms_p50"] = statistics.median(samples) * 1000.0
        out["scenario_ms_p90"] = statistics.quantiles(samples, n=10, method="inclusive")[8] * 1000.0
        out["peak_rss_mb"] = peak_rss_mb()
    clear_frames()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
