"""SVG rendering of grasp traces: one frame per recorded state.

Coordinates are millimetres, 1 SVG unit = 1 mm, with the y axis flipped so
the fingers hang downward on screen.  Every frame carries exactly one
polyline per phalanx per finger plus one object outline, and one marker per
contact at the exact point of the phalanx nearest the object.  The two right
fingers share a side, so each side is formatted once and emitted per finger.
"""

from __future__ import annotations

from pathlib import Path

from .assembly import SIDES, GripperAssembly, contact_detect
from .geometry import Point
from .scene import SceneObject, ShapeKind

_SIDE_COLORS = ("#1f6feb", "#d33f49")


def _fmt(x: float) -> str:
    return f"{x:.3f}"


def _pt(p: Point) -> str:
    return f"{_fmt(p.x)},{_fmt(-p.y)}"


def frame_svg(assembly: GripperAssembly, obj: SceneObject | None,
              caption: str = "") -> str:
    cfg = assembly.config
    half = cfg.half_span(cfg.base_shift_max) + cfg.geometry.L1_rest + 30.0
    depth = cfg.geometry.L1_rest + cfg.geometry.L2_rest + cfg.geometry.L3_rest + 40.0
    parts: list[str] = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{_fmt(-half)} -20.000 '
        f'{_fmt(2 * half)} {_fmt(depth + 20.0)}">',
        f'  <line x1="{_fmt(-half + 10)}" y1="0.000" x2="{_fmt(half - 10)}" y2="0.000" '
        'stroke="#888888" stroke-width="1.5"/>',
    ]
    if obj is not None and obj.on_surface:
        parts.append(
            f'  <line x1="{_fmt(-half + 10)}" y1="{_fmt(-obj.surface_y)}" '
            f'x2="{_fmt(half - 10)}" y2="{_fmt(-obj.surface_y)}" '
            'stroke="#b89958" stroke-width="0.8" stroke-dasharray="4 3"/>'
        )
    polylines = [[f'  <polyline points="{_pt(a)} {_pt(b)}" fill="none" '
                  f'stroke="{color}" stroke-width="2.5" stroke-linecap="round"/>'
                  for a, b in segments]
                 for color, segments in zip(_SIDE_COLORS, assembly.side_segments)]
    for side in SIDES:
        parts.extend(polylines[side])
    if obj is not None:
        parts.append("  " + _object_outline(obj))
    markers: dict[int, str] = {}   # by id: the fingers of a side share contact objects
    for _, contact in contact_detect(assembly, obj):
        if id(contact) not in markers:
            markers[id(contact)] = (
                f'  <circle cx="{_fmt(contact.point.x)}" cy="{_fmt(-contact.point.y)}" '
                'r="1.6" fill="#e0a020"/>')
        parts.append(markers[id(contact)])
    if caption:
        parts.append(
            f'  <text x="{_fmt(-half + 12)}" y="-8.000" font-size="9" '
            f'fill="#333333">{caption}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _object_outline(obj: SceneObject) -> str:
    if obj.kind is ShapeKind.CIRCLE:
        return (f'<circle cx="{_fmt(obj.x)}" cy="{_fmt(-obj.y)}" '
                f'r="{_fmt(obj.diameter / 2.0)}" fill="none" '
                'stroke="#2e7d32" stroke-width="1.2"/>')
    pts = " ".join(_pt(c) for c in obj.corners())
    return (f'<polygon points="{pts}" fill="none" stroke="#2e7d32" '
            'stroke-width="1.2"/>')


def write_frames(out_dir: str | Path, snapshots: list, obj: SceneObject | None,
                 summary_caption: str) -> None:
    """One frame_%05d.svg per trace snapshot plus a captioned summary frame."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for n, (step, assembly) in enumerate(snapshots):
        (out / f"frame_{n:05d}.svg").write_text(
            frame_svg(assembly, obj, caption=f"step {step}"), encoding="utf-8")
    if snapshots:
        (out / "summary.svg").write_text(
            frame_svg(snapshots[-1][1], obj, caption=summary_caption), encoding="utf-8")
