"""Smoke checks of the benchmark itself (about 10 s):

    python3 perfbench/smoke.py

The generator is deterministic, every generated scenario parses, a tiny
pass of each workload passes its output check, the output check rejects a
wrong outcome, and the tracer reports every per-layer metric and removes
its wrappers afterwards.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]

import gripsim.assembly  # noqa: E402
import gripsim.scenario  # noqa: E402

import gen  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# per workload, the families of its tiny pass
TINY = {
    "rect_contact": ("cube40", "cardboard"),
    "circle_envelop": ("circle_proximal", "cyl120_remote"),
    "frames_batch": ("ruler", "circle_round_trip"),
}


def check(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"smoke: FAILED {what}")
    print(f"smoke: ok {what}")


def tiny(workload: str, seed: int) -> list[gen.Case]:
    firsts = {}
    for case in gen.generate(workload, seed):
        firsts.setdefault(case.name.rsplit("_", 1)[0], case)
    return [firsts[family] for family in TINY[workload]]


def run_tiny(workload: str, cases: list[gen.Case], workdir: Path) -> workloads.PassResult:
    if workload == "frames_batch":
        return workloads.frames_pass(cases, workdir)
    return workloads.sim_pass(cases)


def main() -> int:
    for workload in gen.WORKLOADS:
        a, b = gen.generate(workload, 7), gen.generate(workload, 7)
        check([c.text for c in a] == [c.text for c in b], f"{workload}: seed 7 twice, same bytes")
        check([c.text for c in a] != [c.text for c in gen.generate(workload, 8)],
              f"{workload}: seeds 7 and 8 differ")
        check([c.text for c in a] != [c.text for c in gen.generate(workload, 7, 1)],
              f"{workload}: passes 0 and 1 of seed 7 differ")
        for case in a:
            gripsim.scenario.parse_scenario(case.text, name=case.name)
        check(True, f"{workload}: all {len(a)} scenarios parse")

    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for workload in gen.WORKLOADS:
            res = run_tiny(workload, tiny(workload, 3), Path(tmp) / workload)
            check(res.problems == [] and res.steps > 0,
                  f"{workload}: tiny pass, {res.steps} steps {res.problems}")

        case = tiny("rect_contact", 3)[0]
        wrong = gen.Case(case.name, case.text, gen.Expect(gen.GRASP, 2))
        check(len(workloads.sim_pass([wrong]).problems) == 1, "a wrong mode fails the check")

        original = gripsim.assembly.run_commands
        tracer = tracing.Tracer()
        tracer.install()
        try:
            res = run_tiny("frames_batch", tiny("frames_batch", 3), Path(tmp) / "traced")
        finally:
            tracer.uninstall()
        check(gripsim.assembly.run_commands is original, "tracer removes its wrappers")
        layers = tracing.layer_metrics(tracer)
        check(res.problems == [] and layers["render.frame_calls"] > 0
              and layers["transmission.step_calls"] == res.steps
              and layers["transmission.route.drive"] + layers["transmission.route.stall"]
              == res.steps, f"traced frames pass: {len(layers)} layer metrics")
    return 0


if __name__ == "__main__":
    sys.exit(main())
