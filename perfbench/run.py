"""gripsim benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload rect_contact --seed 1 --seconds 30 --trace 0

Run from anywhere inside a source checkout (``src/gripsim`` next to this
directory); nothing needs installing.  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer ones.  Human-readable lines come first;
the last line of standard output is the JSON result.  Scratch files go to
``.perfbench_out/`` at the checkout root.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 5

# Fresh interpreter: import, default configuration, rest-pose assembly,
# timed in reference-speed seconds by a host clock running in the same
# interpreter.  hostspeed itself imports only modules gripsim imports too.
_SETUP_PROBE = """
import sys, time
sys.path[:0] = sys.argv[1:3]
import hostspeed
clock = hostspeed.HostClock()
clock.sample(5)
clock.start()
t0 = time.perf_counter()
import gripsim
t1 = time.perf_counter()
cfg = gripsim.default_config()
t2 = time.perf_counter()
gripsim.build_gripper(cfg)
t3 = time.perf_counter()
clock.stop()
clock.sample(5)
print(clock.seconds(t0, t1), clock.seconds(t1, t2), clock.seconds(t0, t3))
"""

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "steps_per_s": "1/s", "scenario_ms_p50": "ms",
    "scenario_ms_p90": "ms", "peak_rss_mb": "MB", "ok_ratio": "ratio",
}


def setup_times() -> list[tuple[float, float, float]]:
    """(import, default_config, total) reference-speed seconds per fresh interpreter.

    The first interpreter is dropped: it compiles the .pyc files.
    """
    runs = []
    for _ in range(SETUP_RUNS + 1):
        out = subprocess.run([sys.executable, "-c", _SETUP_PROBE, str(ROOT / "src"), str(HERE)],
                             capture_output=True, text=True, check=True, timeout=60)
        runs.append(tuple(float(v) for v in out.stdout.split()))
    return runs[1:]


def measure(args) -> dict:
    cmd = [sys.executable, str(HERE / "measure.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"measure.py exited with {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("rect_contact", "circle_envelop", "frames_batch"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "gripsim" / "__init__.py").is_file():
        print(f"error: no gripsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    setup = setup_times()
    res = measure(args)
    attempted = res["attempted"]
    failed = len(res["problems"])
    for problem in res["problems"]:
        print(f"FAILED {problem}")
    if res.get("digest_mismatch"):
        print("note: the traced pass gave other report bytes than the warm-up on the same input")

    if args.trace:
        metrics = dict(res["layers"])
        metrics["config.import_s"] = statistics.median(s[0] for s in setup)
        metrics["config.default_config_s"] = statistics.median(s[1] for s in setup)
        units = {name: _layer_unit(name) for name in metrics}
        for name, value in sorted(res["self_s"].items()):
            print(f"self  {name:24s} {value:12.6f} s")
    else:
        metrics = {
            "setup_s": statistics.median(s[2] for s in setup),
            "wall_s": res["wall_s"],
            "steps_per_s": res["steps_per_s"],
            "scenario_ms_p50": res["scenario_ms_p50"],
            "scenario_ms_p90": res["scenario_ms_p90"],
            "peak_rss_mb": res["peak_rss_mb"],
            "ok_ratio": (attempted - failed) / attempted,
        }
        units = END_TO_END_UNITS
        print(f"scenario samples {res['samples']} over {res['passes']} passes; "
              f"failed_ratio {failed / attempted:.6f} ({failed}/{attempted}); "
              f"host wall_s {statistics.median(res['host_pass_s']):.6f} before rescaling")
        print("passes s " + " ".join(f"{v:.3f}" for v in res["pass_s"]) + "; host s "
              + " ".join(f"{v:.3f}" for v in res["host_pass_s"]))
    print(f"digest {args.workload} seed {args.seed} pass 0 sha256 {res['digest']} "
          f"assembly.steps {res['steps']} (informational)")
    for name, value in metrics.items():
        print(f"{name:28s} {value:16.6f} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes"):
        return "bytes"
    if name in ("cli.parallelism", "trace.overhead"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
