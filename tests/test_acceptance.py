"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from gripsim import linkage
from gripsim import transmission as tm
from gripsim.assembly import sweep_ranges
from gripsim.cli import run_scenario
from gripsim.config import default_config
from gripsim.errors import InfeasibleConfigurationError
from gripsim.scenario import parse_scenario
from gripsim.transmission import LockStage, Route, SlotGeometry, TransmissionParams

from test_linkage import oracle_lengths

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def _verdict(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {name}: {status}{suffix}")


def _run_fixture(name: str, out_dir: Path, svg: bool = False):
    path = SCENARIOS / f"{name}.scn"
    scn = parse_scenario(path.read_text(encoding="utf-8"), name=name)
    out_dir.mkdir(parents=True, exist_ok=True)
    out = out_dir / f"{name}.json"
    svg_dir = out_dir / name if svg else None
    run_scenario(scn, out, svg_dir)
    return out, svg_dir


def test_criterion_1_oracle_equivalence():
    cfg = default_config()
    g = cfg.geometry
    rng = np.random.default_rng(20240611)
    t0 = time.perf_counter()
    worst = 0.0
    checked = 0

    def check(solver, La, Lb, Lc):
        nonlocal worst, checked
        n = 0
        while n < 10_000:
            near, far = rng.uniform(0.0, math.pi, size=2)
            try:
                roots = solver(near, far)
            except InfeasibleConfigurationError:
                assert oracle_lengths(La, Lb, Lc, near, far) == []
                continue
            expected = oracle_lengths(La, Lb, Lc, near, far)
            got = sorted(roots.as_tuple())
            if len(expected) == 1:
                expected = [expected[0], expected[0]]
            for e, a in zip(expected, got):
                worst = max(worst, abs(e - a))
            n += 1
            checked += 1

    check(lambda n, f: linkage.solve_proximal_retraction(g, n, g.beta - f),
          g.L1a, g.L1b, g.L1c)
    gm = _geom_with_kappa(g, 0.0)  # delta = kappa - theta3 = f when theta3 = -f
    check(lambda n, f: linkage.solve_middle_retraction(gm, -f, n),
          g.L2a, g.L2b, g.L2c)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and checked == 20_000 and elapsed < 2.0
    _verdict(1, "oracle equivalence",
             ok, f"20000 samples, worst {worst:.2e} mm, {elapsed:.2f} s")
    assert worst < 1e-9
    assert elapsed < 2.0


def _geom_with_kappa(g, kappa):
    from dataclasses import replace
    return replace(g, kappa=kappa)


def test_criterion_2_sign_correction_regression():
    g = default_config().geometry
    theta1 = math.radians(30.0)
    theta2 = g.beta - math.radians(60.0)
    corrected = linkage.solve_proximal_retraction(g, theta1, theta2)
    ok = (abs(corrected.root_lo - 17.01) <= 0.01
          and abs(corrected.root_hi - 74.23) <= 0.01)
    printed_infeasible = False
    try:
        linkage.solve_proximal_retraction_printed(g, theta1, theta2)
    except InfeasibleConfigurationError:
        printed_infeasible = True
    _verdict(2, "closure-constant sign regression", ok and printed_infeasible,
             f"roots {corrected.root_lo:.4f}/{corrected.root_hi:.4f}, "
             f"plus-sign variant infeasible={printed_infeasible}")
    assert ok and printed_infeasible


def test_criterion_3_retraction_capacity():
    cfg = default_config()
    g = cfg.geometry
    step = math.radians(0.25)
    fold = cfg.layout.theta1_fold

    l1_min_seen = g.L1_rest
    for theta1 in np.linspace(cfg.layout.theta1_rest, fold - math.radians(0.3), 60):
        alpha = linkage.anchor_alpha(g, float(theta1), g.L1_rest)
        if alpha is None:
            continue
        prev = g.L1_rest
        while True:
            alpha -= step
            try:
                roots = linkage.solve_proximal_alpha(g, float(theta1), alpha)
                cur = linkage.select_root(roots, prev)
            except Exception:
                break
            if abs(cur - prev) > 5.0:
                break
            if cur <= cfg.L1_min:
                prev = cfg.L1_min  # slider end stop
                break
            prev = cur
        l1_min_seen = min(l1_min_seen, prev)

    l2_min_seen = linkage.middle_length(g, cfg.delta_stop)
    l3_min_seen = cfg.L3_min  # prismatic end stop, exercised by distal_retract tests

    d_total = (g.L1_rest - l1_min_seen) + (g.L2_rest - l2_min_seen) + (g.L3_rest - l3_min_seen)
    contact_total = sum(cfg.contact_min)
    r_total = 1.0 - contact_total / sum(cfg.contact_rest)

    ok_l1 = abs(l1_min_seen - 46.0) / 46.0 <= 0.10
    ok_l2 = abs(l2_min_seen - 36.0) / 36.0 <= 0.10
    ok_l3 = abs(l3_min_seen - 36.0) / 36.0 <= 0.10
    ok_dl = abs(d_total - 57.0) / 57.0 <= 0.10
    ok_ct = abs(contact_total - 102.0) / 102.0 <= 0.10
    ok = ok_l1 and ok_l2 and ok_l3 and ok_dl and ok_ct
    _verdict(3, "retraction capacity", ok,
             f"minima ({l1_min_seen:.2f}, {l2_min_seen:.2f}, {l3_min_seen:.2f}) mm, "
             f"total dL {d_total:.2f} mm, contact min {contact_total:.1f} mm "
             f"(R_total {100 * r_total:.2f}%)")
    assert ok


def test_criterion_4_mode_ranges():
    t0 = time.perf_counter()
    ranges = sweep_ranges(default_config())
    elapsed = time.perf_counter() - t0
    expected = {1: (0.0, 127.0), 2: (16.0, 127.0), 3: (127.0, 177.0),
                4: (0.0, 177.0), 5: (34.0, 177.0)}
    bad = []
    for mode, (lo, hi) in expected.items():
        got = ranges[mode]
        if got is None or abs(got[0] - lo) > 2.0 or abs(got[1] - hi) > 2.0:
            bad.append((mode, got))
    nested = (ranges[2][0] >= ranges[1][0] and ranges[2][1] <= ranges[1][1]
              and ranges[5][0] >= ranges[4][0] and ranges[5][1] <= ranges[4][1])
    ok = not bad and nested and elapsed < 10.0
    pretty = {m: None if r is None else (round(r[0], 2), round(r[1], 2))
              for m, r in ranges.items()}
    _verdict(4, "mode aperture ranges", ok, f"{pretty}, {elapsed:.2f} s")
    assert not bad
    assert nested
    assert elapsed < 10.0


def test_criterion_5_self_lock_model_check():
    t0 = time.perf_counter()
    params = TransmissionParams(
        theta1_rest=0.1,
        theta1_max=0.1 + 20.0 / 7.5,
        finger_gear_radius=7.5,
        drive_gear_radius=15.0,
        reduction=30.0,
        slot=SlotGeometry(entry=30.0, peak=40.0, end=50.0),
    )
    delta = 10.0  # one segment width of base shift per step

    violations = []

    def run_string(bits):
        state = tm.initial_transmission(params)
        for b in bits:
            before = state
            state, route = tm.step_transmission(params, state, delta if b else -delta)
            d1_moved = state.D1_angle != before.D1_angle
            base_moved = state.base_translation != before.base_translation
            if route is Route.STALL:
                if d1_moved or base_moved:
                    violations.append(("stall moved", bits))
            elif d1_moved == base_moved:
                violations.append(("exclusivity", bits))
            if before.lock.stage is LockStage.ENGAGED \
                    and state.base_translation < before.base_translation:
                violations.append(("lock safety", bits))
        return state

    total = 0
    for length in range(1, 9):
        for mask in range(2 ** length):
            bits = [(mask >> i) & 1 for i in range(length)]
            run_string(bits)
            total += 1

    # documented unlock sequence: over-travel to the groove end, then reverse home
    state = tm.initial_transmission(params)
    for _ in range(5):
        state, _ = tm.step_transmission(params, state, delta)
    reached_end = state.base_translation == pytest.approx(50.0)
    for _ in range(5):
        state, _ = tm.step_transmission(params, state, -delta)
    ok_roundtrip = (reached_end and state.base_translation == 0.0
                    and state.lock.stage is LockStage.NEUTRAL)

    elapsed = time.perf_counter() - t0
    ok = not violations and ok_roundtrip and elapsed < 5.0
    _verdict(5, "self-lock model check", ok,
             f"{total} command strings, roundtrip={ok_roundtrip}, {elapsed:.2f} s")
    assert not violations
    assert ok_roundtrip
    assert elapsed < 5.0


def test_criterion_6_contact_ratio_trends(tmp_path):
    import json
    results = {}
    for name in ("cyl25_proximal", "cyl40_proximal", "cyl120_remote",
                 "pingpong_proximal", "tennis_proximal",
                 "ruler_thin", "cardboard_thin"):
        out, _ = _run_fixture(name, tmp_path)
        payload = json.loads(out.read_text())
        results[name] = payload["fingers"][0]

    zero_rd = all(results[n]["R_D"] == 0.0 for n in
                  ("cyl40_proximal", "cyl120_remote", "pingpong_proximal",
                   "tennis_proximal"))
    thin_rd = (results["ruler_thin"]["R_D"] > 0.15
               and results["cardboard_thin"]["R_D"] > 0.15)
    ordering = results["cyl25_proximal"]["R_P"] > results["cyl40_proximal"]["R_P"]
    ok = zero_rd and thin_rd and ordering
    _verdict(6, "contact-ratio trends", ok,
             f"R_D(ruler)={results['ruler_thin']['R_D']:.3f}, "
             f"R_D(cardboard)={results['cardboard_thin']['R_D']:.3f}, "
             f"R_P 25mm {results['cyl25_proximal']['R_P']:.3f} vs "
             f"40mm {results['cyl40_proximal']['R_P']:.3f}")
    assert zero_rd
    assert thin_rd
    assert ordering


def test_criterion_7_parallel_mode_perpendicularity():
    from gripsim import finger as fg
    cfg = default_config()
    params = cfg.finger_params()
    state = fg.rest_pose(params)
    step = cfg.motor_to_joint(cfg.motor_step)  # well under 0.5 degrees
    worst = 0.0
    steps = 0
    while state.theta1 < cfg.theta1_close_home:
        state = fg.parallel_step(params, state, step)
        diff = fg.coupler_angle_via_fourbar(params, state) - fg.middle_axis_angle(state)
        worst = max(worst, abs(diff - math.pi / 2.0))
        steps += 1
    ok = worst < 1e-9 and steps > 1000
    _verdict(7, "parallel-mode perpendicularity", ok,
             f"{steps} steps, worst deviation {worst:.2e} rad")
    assert ok


def test_criterion_8_determinism(tmp_path):
    fixtures = sorted(p.stem for p in SCENARIOS.glob("*.scn"))
    mismatches = []
    for name in fixtures:
        out1, svg1 = _run_fixture(name, tmp_path / "first", svg=True)
        out2, svg2 = _run_fixture(name, tmp_path / "second", svg=True)
        if out1.read_bytes() != out2.read_bytes():
            mismatches.append(f"{name}.json")
        frames1 = sorted(svg1.glob("*.svg"))
        frames2 = sorted(svg2.glob("*.svg"))
        if [p.name for p in frames1] != [p.name for p in frames2]:
            mismatches.append(f"{name} frame sets")
        for a, b in zip(frames1, frames2):
            if a.read_bytes() != b.read_bytes():
                mismatches.append(f"{name}/{a.name}")
    ok = not mismatches
    _verdict(8, "byte-identical reruns", ok,
             f"{len(fixtures)} fixtures" + ("" if ok else f"; diffs: {mismatches[:4]}"))
    assert not mismatches
