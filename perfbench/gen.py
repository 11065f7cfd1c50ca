"""Seeded scenario generator: one family per fixture kind.

Every family turns a ``random.Random`` into the text of one ``.scn`` file and
carries the outcome the output check expects beside it.  The same seed gives
the same bytes: the RNG is seeded from a string (hashed with SHA-512 by
``random``, so independent of PYTHONHASHSEED) and every number is written
with a fixed number of decimals.

Generated scenarios coarsen the fixtures' 0.5 deg motor step so that one run
measures several passes while every code path of the fixtures still runs.
Grasps use 4 deg: 0.133 deg of joint rotation and 0.07 mm of base travel per
step (30:1 reduction).  The six rectangle and slab fixtures take 33 s at
0.5 deg; the eleven scenarios of a rect_contact pass take ~5 s at 4 deg.
Round trips use 1 deg, the coarsest step at which a grasp-and-release round
trip returns exactly to the rest aperture: at 2 and 4 deg the opening
cascade leaves the fingers up to 0.3 mm short of 127 mm.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

FRAMES_TRACE_STRIDE = 5


@dataclass(frozen=True)
class Expect:
    """What a scenario's report must show.

    ``grasp``: ``mode`` reached with ``success: true`` and no warnings.
    ``round_trip``: back at mode 1, base 0 and aperture 127 +- contact_tol.
    """

    kind: str
    mode: int


@dataclass(frozen=True)
class Family:
    name: str
    expect: Expect
    body: Callable[[random.Random], str]
    motor_step_deg: int = 4


@dataclass(frozen=True)
class Case:
    name: str
    text: str
    expect: Expect


def _u(rng: random.Random, lo: float, hi: float) -> str:
    return f"{rng.uniform(lo, hi):.2f}"


def _rect(rng, w, h, y, rot=None, cmds="close = auto"):
    side_w = _u(rng, *w)
    lines = ["[object]", "shape = rectangle", f"width = {side_w}",
             f"height = {side_w if h is None else _u(rng, *h)}", f"y = {_u(rng, *y)}"]
    if rot is not None:
        lines.append(f"rotation_deg = {_u(rng, *rot)}")
    return "\n".join(lines) + f"\n\n[commands]\n{cmds}\n"


def _slab(rng, thickness, width, surface_y):
    return ("[object]\nshape = slab\n"
            f"thickness = {_u(rng, *thickness)}\nwidth = {_u(rng, *width)}\n"
            f"surface_y = {_u(rng, *surface_y)}\n\n[commands]\npick-thin = auto\n")


def _circle(rng, diameter, y, cmds="close = auto"):
    return ("[object]\nshape = circle\n"
            f"diameter = {_u(rng, *diameter)}\ny = {_u(rng, *y)}\n\n"
            f"[commands]\n{cmds}\n")


GRASP = "grasp"
ROUND_TRIP = "round_trip"

# Closing a proximal circle drives the crank 1650 steps at 1 deg before it
# stalls; opening by exactly that count brings the crank back to its rest
# stop without spilling into base translation.
_ROUND_TRIP_OPEN = 1650

FAMILIES: dict[str, Family] = {f.name: f for f in (
    # rect_contact: rectangle and slab clearance, base-translation bisection
    Family("box150", Expect(GRASP, 3), lambda r: _rect(
        r, (147, 153), (78, 82), (-121, -119),
        cmds="reconfigure = end\nrelease-reconfigure = auto")),
    Family("cube80", Expect(GRASP, 4), lambda r: _rect(
        r, (77, 83), None, (-112, -108), cmds="reconfigure = engage\nclose = auto")),
    Family("cube125", Expect(GRASP, 5), lambda r: _rect(
        r, (122, 128), None, (-92, -88), rot=(27, 33),
        cmds="reconfigure = engage\nclose = auto")),
    Family("cube40", Expect(GRASP, 1), lambda r: _rect(r, (39.5, 40.5), None, (-150.5, -149.5))),
    Family("ruler", Expect(GRASP, 1), lambda r: _slab(r, (1.5, 2.5), (25, 35), (-162, -161))),
    Family("cardboard", Expect(GRASP, 1), lambda r: _slab(r, (1.2, 1.8), (70, 90), (-165, -164))),
    # circle_envelop: one point-to-segment distance per clearance test
    Family("circle_proximal", Expect(GRASP, 2), lambda r: _circle(r, (34, 67), (-58, -40))),
    Family("cyl120_remote", Expect(GRASP, 5), lambda r: _circle(
        r, (115, 125), (-95, -85), cmds="reconfigure = engage\nclose = auto")),
    # frames_batch: grasp-and-release; the only source of the opening cascade
    Family("circle_round_trip", Expect(ROUND_TRIP, 1), lambda r: _circle(
        r, (45, 60), (-52, -44), cmds=f"close = auto\nopen = {_ROUND_TRIP_OPEN}"),
        motor_step_deg=1),
)}

# workload -> (family, count) in pass order.  The counts put the median and
# the 90th percentile of the per-scenario times inside one family's cluster
# (cube40 and ruler, box150; proximal, remote circles; round trips) rather
# than on the gap between two, where the seed decides which side they fall
# on.  In rect_contact the three cardboards (~0.1 s, the fastest) balance
# the five scenarios slower than the cube40-and-ruler cluster (~0.19 s), so
# the median sits in that cluster's middle, not at its upper edge.
WORKLOADS: dict[str, tuple[tuple[str, int], ...]] = {
    "rect_contact": (("box150", 2), ("cube80", 1), ("cube125", 1),
                     ("cube40", 5), ("ruler", 1), ("cardboard", 3)),
    "circle_envelop": (("circle_proximal", 12), ("cyl120_remote", 3)),
    "frames_batch": (("cube40", 1), ("ruler", 1), ("circle_round_trip", 3)),
}


def generate(workload: str, seed: int, pass_no: int = 0) -> list[Case]:
    """The scenarios of pass ``pass_no`` of a workload, fully determined by ``seed``.

    Every pass draws its own scenarios, so that a run's per-scenario
    percentiles pool several draws of each family rather than one.
    """
    stride = f"trace_stride = {FRAMES_TRACE_STRIDE}\n" if workload == "frames_batch" else ""
    cases = []
    for family_name, count in WORKLOADS[workload]:
        family = FAMILIES[family_name]
        header = f"[gripper]\nmotor_step_deg = {family.motor_step_deg}\n{stride}\n"
        for k in range(count):
            rng = random.Random(f"gripsim-bench:{seed}:{pass_no}:{workload}:{family_name}:{k}")
            name = f"{family_name}_{k}"
            cases.append(Case(name, f"# {name}, seed {seed}, pass {pass_no}\n"
                                    f"{header}{family.body(rng)}", family.expect))
    return cases
