"""Scenario files: `key = value` lines under [gripper] / [object] / [commands].

UTF-8 text, `#` starts a comment.  The grammar is documented in
docs/scenario_format.md; parsing either returns a validated Scenario or
raises ScenarioError carrying line/column diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace as dc_replace

from .assembly import Command, Verb
from .config import GripperConfig, build_config, default_config, default_geometry
from .errors import ScenarioError
from .scene import SceneObject

_GEOMETRY_KEYS = {"L1_rest", "L1a", "L1b", "L1c", "L2_rest", "L2a", "L2b",
                  "L2c", "L3_rest", "L3a", "D1", "D2"}

_GRIPPER_FLOAT_KEYS = {
    "aperture_max", "envelope_floor", "base_shift_max", "slot_entry",
    "slot_peak", "hollow_allowance", "L1_min", "L2_min", "L3_min",
    "contact_tol", "scale", "base_translation", "rest_lean_deg",
    "motor_step_deg", "theta1_travel_deg",
}
_GRIPPER_INT_KEYS = {"trace_stride"}

# the [object] keys each shape uses (docs/scenario_format.md, "applies to")
_SHAPE_KEYS = {
    "circle": {"shape", "diameter", "x", "y"},
    "rectangle": {"shape", "width", "height", "rotation_deg", "x", "y"},
    "slab": {"shape", "thickness", "width", "surface_y", "x"},
}
_OBJECT_KEYS = set().union(*_SHAPE_KEYS.values())

_VERBS = {v.value: v for v in Verb}

_POSITIVE_KEYS = {"diameter", "width", "height", "scale", "aperture_max", "contact_tol",
                  "L1_min", "L2_min", "L3_min", "motor_step_deg", "theta1_travel_deg",
                  "trace_stride"}


@dataclass(frozen=True)
class Scenario:
    """A parsed, validated scenario: config overrides, target object, command script."""

    name: str = "scenario"
    gripper: dict = field(default_factory=dict)
    object: dict = field(default_factory=dict)
    commands: tuple = ()

    def build_config(self) -> GripperConfig:
        overrides = dict(self.gripper)
        scale = overrides.pop("scale", None)
        overrides.pop("base_translation", None)
        for deg_key in ("rest_lean_deg", "motor_step_deg", "theta1_travel_deg"):
            if deg_key in overrides:
                overrides[deg_key.removesuffix("_deg")] = math.radians(overrides.pop(deg_key))
        geom_over = {k: overrides.pop(k) for k in _GEOMETRY_KEYS & overrides.keys()}
        if geom_over:
            overrides["geometry"] = dc_replace(default_geometry(), **geom_over)
        cfg = build_config(**overrides) if overrides else default_config()
        if scale is not None and scale != 1.0:
            cfg = cfg.scaled(scale)
        return cfg

    @property
    def base_translation(self) -> float:
        return float(self.gripper.get("base_translation", 0.0))

    def build_object(self) -> SceneObject | None:
        if not self.object:
            return None
        o = dict(self.object)
        shape = o.get("shape")
        if shape == "circle":
            return SceneObject.circle(o["diameter"], o.get("x", 0.0), o.get("y", 0.0))
        if shape == "rectangle":
            return SceneObject.rectangle(
                o["width"], o["height"], o.get("x", 0.0), o.get("y", 0.0),
                math.radians(o.get("rotation_deg", 0.0)))
        return SceneObject.slab(o.get("thickness", 0.0), o["width"],
                                o["surface_y"], o.get("x", 0.0))

    def build_commands(self) -> list[Command]:
        if not self.commands:
            return [Command(Verb.CLOSE, "auto")]
        return [Command(_VERBS[v], s) for v, s in self.commands]


def parse_scenario(text: str, name: str = "scenario") -> Scenario:
    diagnostics: list[tuple[int, int, str]] = []
    section: str | None = None
    gripper: dict = {}
    objekt: dict = {}
    commands: list[tuple[str, int | str]] = []
    object_at: tuple[int, int] | None = None   # the first [object] header
    object_keys_at: dict[str, tuple[int, int]] = {}   # each [object] key -> its line, column
    header_line: dict[str, int] = {}              # section -> line of its first header
    key_line: dict[tuple[str, str], int] = {}     # (section, key) -> line of its first use

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        col = len(line) - len(line.lstrip()) + 1
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                diagnostics.append((lineno, col, "unterminated section header"))
                continue
            section = stripped[1:-1].strip().lower()
            if section not in ("gripper", "object", "commands"):
                diagnostics.append((lineno, col, f"unknown section [{section}]"))
                section = None
                continue
            first = header_line.setdefault(section, lineno)
            if first != lineno:
                diagnostics.append((lineno, col,
                                    f"repeated section [{section}], first at line {first}"))
            elif section == "object":
                object_at = (lineno, col)
            continue
        if "=" not in stripped:
            diagnostics.append((lineno, col, "expected `key = value`"))
            continue
        if section is None:
            diagnostics.append((lineno, col, "key outside any [section]"))
            continue
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        vcol = len(line) - len(line[line.index("=") + 1:].lstrip()) + 1
        if section != "commands":   # a command verb may repeat: the script runs in order
            first = key_line.setdefault((section, key), lineno)
            if first != lineno:
                diagnostics.append((lineno, col, f"repeated key `{key}`, first at line {first}"))
                continue
        if section == "gripper":
            _parse_gripper_key(key, value, lineno, col, vcol, gripper, diagnostics)
        elif section == "object":
            _parse_object_key(key, value, lineno, col, vcol, objekt, diagnostics)
            object_keys_at[key] = (lineno, col)
        else:
            _parse_command(key, value, lineno, col, vcol, commands, diagnostics)

    if not diagnostics and objekt:
        _check_object(objekt, object_at, object_keys_at, diagnostics)

    if diagnostics:
        raise ScenarioError(diagnostics)
    return Scenario(name=name, gripper=gripper, object=objekt,
                    commands=tuple(commands))


def _parse_float(value: str) -> float:
    v = float(value)
    if not math.isfinite(v):
        raise ValueError(value)
    return v


def _parse_gripper_key(key, value, lineno, col, vcol, out, diagnostics) -> None:
    if key in _GRIPPER_INT_KEYS:
        try:
            v = int(value)
        except ValueError:
            diagnostics.append((lineno, vcol, f"{key}: expected an integer"))
            return
    elif key in _GRIPPER_FLOAT_KEYS or key in _GEOMETRY_KEYS:
        try:
            v = _parse_float(value)
        except ValueError:
            diagnostics.append((lineno, vcol, f"{key}: expected a finite number"))
            return
    else:
        diagnostics.append((lineno, col, f"unknown [gripper] key `{key}`"))
        return
    if key in _POSITIVE_KEYS and v <= 0:
        diagnostics.append((lineno, vcol, f"{key}: must be positive"))
        return
    if key == "base_translation" and v < 0:
        diagnostics.append((lineno, vcol, "base_translation: cannot be negative"))
        return
    out[key] = v


def _parse_object_key(key, value, lineno, col, vcol, out, diagnostics) -> None:
    if key not in _OBJECT_KEYS:
        diagnostics.append((lineno, col, f"unknown [object] key `{key}`"))
        return
    if key == "shape":
        if value not in ("circle", "rectangle", "slab"):
            diagnostics.append((lineno, vcol, f"shape: unknown shape `{value}`"))
            return
        out[key] = value
        return
    try:
        v = _parse_float(value)
    except ValueError:
        diagnostics.append((lineno, vcol, f"{key}: expected a finite number"))
        return
    if key in _POSITIVE_KEYS and v <= 0:
        diagnostics.append((lineno, vcol, f"{key}: must be positive"))
        return
    if key == "thickness" and v < 0:
        diagnostics.append((lineno, vcol, "thickness: cannot be negative"))
        return
    out[key] = v


def _parse_command(key, value, lineno, col, vcol, out, diagnostics) -> None:
    if key not in _VERBS:
        diagnostics.append((lineno, col, f"unknown command `{key}`"))
        return
    if value in ("auto", "engage", "end"):
        out.append((key, value))
        return
    try:
        steps = int(value)
    except ValueError:
        diagnostics.append((lineno, vcol,
                            f"{key}: expected a step count, `auto`, `engage` or `end`"))
        return
    if steps <= 0:
        diagnostics.append((lineno, vcol, f"{key}: step count must be positive"))
        return
    out.append((key, steps))


def _check_object(obj: dict, at: tuple[int, int], keys_at: dict[str, tuple[int, int]],
                  diagnostics: list) -> None:
    """Report a key the shape does not use at that key (``keys_at``), and a
    missing ``shape`` or required key at the ``[object]`` header ``at``."""
    shape = obj.get("shape")
    if shape is None:
        diagnostics.append((*at, "[object] section needs a `shape` key"))
        return
    for k in obj:
        if k not in _SHAPE_KEYS[shape]:
            diagnostics.append((*keys_at[k], f"{shape} object does not use `{k}`"))
    required = {"circle": ["diameter"], "rectangle": ["width", "height"],
                "slab": ["width", "surface_y"]}[shape]
    for k in required:
        if k not in obj:
            diagnostics.append((*at, f"{shape} object needs `{k}`"))


def serialize_scenario(scn: Scenario) -> str:
    """Canonical text form; parse(serialize(s)) == s."""
    lines: list[str] = []
    if scn.gripper:
        lines.append("[gripper]")
        for k in sorted(scn.gripper):
            lines.append(f"{k} = {scn.gripper[k]!r}")
        lines.append("")
    if scn.object:
        lines.append("[object]")
        for k in sorted(scn.object):
            v = scn.object[k]
            lines.append(f"{k} = {v}" if isinstance(v, str) else f"{k} = {v!r}")
        lines.append("")
    if scn.commands:
        lines.append("[commands]")
        for verb, steps in scn.commands:
            lines.append(f"{verb} = {steps}")
        lines.append("")
    return "\n".join(lines)
