"""Machine-readable run reports with byte-stable serialization.

The JSON writer is hand-rolled on purpose: keys keep insertion order and
every float prints with exactly six decimals, so identical runs serialize to
identical bytes.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import asdict

from . import __version__
from .assembly import GraspReport
from .config import GripperConfig
from .scenario import Scenario, serialize_scenario


def canonical_json(value, indent: int = 0) -> str:
    """Deterministic JSON: insertion-ordered keys, floats as %.6f."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(value, dict):
        if not value:
            return "{}"
        parts = [f'{inner}"{k}": {canonical_json(v, indent + 1)}'
                 for k, v in value.items()]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        parts = [f"{inner}{canonical_json(v, indent + 1)}" for v in value]
        return "[\n" + ",\n".join(parts) + "\n" + pad + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, float):
        return f"{value:.6f}"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        escaped = value.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    raise TypeError(f"cannot serialize {type(value).__name__}")


def config_fingerprint(cfg: GripperConfig) -> str:
    geom = cfg.geometry
    blob = canonical_json({
        "geometry": {k: float(v) for k, v in asdict(geom).items()},
        "layout": {
            "half_width": cfg.layout.half_width,
            "theta1_down": cfg.layout.theta1_down,
            "theta1_rest": cfg.layout.theta1_rest,
            "aperture_max": cfg.aperture_max,
            "envelope_floor": cfg.envelope_floor,
        },
        "stops": [cfg.L1_min, cfg.L2_min, cfg.L3_min],
        "base": [cfg.base_shift_max, cfg.slot_entry, cfg.slot_peak,
                 cfg.hollow_allowance],
        "motor_step": cfg.motor_step,
    })
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def run_report_dict(scenario: Scenario, cfg: GripperConfig,
                    report: GraspReport) -> dict:
    """GraspReport plus provenance, arranged with a fixed key order."""
    return {
        "provenance": {
            "tool": "gripsim",
            "version": __version__,
            "config_sha256": config_fingerprint(cfg),
            "motor_step_deg": math.degrees(cfg.motor_step),
            "scenario": scenario.name,
            "scenario_sha256": hashlib.sha256(
                serialize_scenario(scenario).encode("utf-8")).hexdigest(),
        },
        "result": {
            "mode": report.mode,
            "success": report.success,
            "aperture_first_contact": report.aperture_first_contact,
            "aperture_final": report.aperture_final,
            "base_translation": report.base_translation,
            "lock_stage": report.lock_stage,
            "rack_segment": report.rack_segment,
            "steps": report.steps,
            "stalled": report.stalled,
            "tip_surface_gap": report.tip_surface_gap,
            "warnings": list(report.warnings),
        },
        "fingers": report.fingers,
        "trace": report.trace,
    }


def render_report(scenario: Scenario, cfg: GripperConfig,
                  report: GraspReport) -> str:
    return canonical_json(run_report_dict(scenario, cfg, report)) + "\n"
