"""Gripper configuration: published constants, calibrated defaults, validation.

A GripperConfig is a frozen value that stores only inputs.  Every value
derived from them (palm layout, rest angles, distal stop) is a property, so
a replaced or scaled config never carries a stale copy; build_config
resolves them up front to validate the inputs.  The default geometry pins
the calibrated ``L2c`` as a literal and solves ``kappa`` from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from functools import cached_property, lru_cache

from . import calibrate, linkage
from .calibrate import PalmLayout
from .errors import ConfigError
from .finger import FingerParams, SpringBank
from .linkage import RIGHT_ANGLE, LinkageGeometry
from .transmission import GearTrain, SlotGeometry, TransmissionParams, output_torque


@dataclass(frozen=True)
class GripperConfig:
    geometry: LinkageGeometry
    springs: SpringBank = SpringBank()

    # palm layout inputs
    aperture_max: float = 127.0        # fingertip gap at rest (parallel, home base)
    envelope_floor: float = 16.0       # smallest gap at which enveloping can initiate
    rest_lean: float = math.radians(25.0)  # outward lean of the proximal bar at rest

    # slider end stops (mm)
    L1_min: float = 46.0
    L2_min: float = 36.0
    L3_min: float = 36.0

    # exposed contact-surface endpoints per phalanx (mm): at rest / at end stop
    contact_rest: tuple[float, float, float] = (70.0, 55.0, 51.0)
    contact_min: tuple[float, float, float] = (40.0, 26.0, 36.0)

    # drive
    theta1_travel: float = math.radians(110.0)
    motor_step: float = math.radians(0.5)
    motor_torque: float = 6.6          # N*m
    drive_gear_radius: float = 15.0    # output gear pitch radius (mm)
    finger_gear_radius: float = 7.5    # finger-base gear pitch radius (mm)

    # reconfiguration (all in total aperture-shift mm)
    base_shift_max: float = 50.0
    slot_entry: float = 48.5
    slot_peak: float = 49.5            # red mark; lock engages here
    hollow_allowance: float = 18.0     # added to the enveloping floor after reconfiguration

    contact_tol: float = 0.01
    trace_stride: int = 250

    # derived values; the cached ones are solved once per instance (equality and
    # hashing see only the fields, and replace() makes a new, empty instance)
    @cached_property
    def layout(self) -> PalmLayout:
        return calibrate.solve_palm_layout(self.geometry, self.aperture_max,
                                           self.envelope_floor, self.rest_lean)

    @cached_property
    def alpha_rest(self) -> float:
        alpha = linkage.anchor_alpha(self.geometry, self.layout.theta1_rest,
                                     self.geometry.L1_rest)
        if alpha is None:
            raise ConfigError("rest_lean", "the four-bar cannot close at the rest drive angle")
        return alpha

    @property
    def theta2_rest(self) -> float:
        return self.geometry.beta - self.alpha_rest

    @cached_property
    def delta_stop(self) -> float:
        return calibrate.middle_stop_angle(self.geometry, self.L2_min)

    @property
    def theta3_max(self) -> float:
        return self.geometry.kappa - self.delta_stop

    @property
    def theta1_close_home(self) -> float:
        """theta1 at which opposed fingertips meet with the base at home."""
        return self.theta1_close_at(0.0)

    def half_span(self, base_shift: float) -> float:
        """Palm centre to each MCP pivot (mm) for a total base shift: the two
        finger bases sit at ``-half_span`` and ``+half_span``."""
        return self.layout.half_width + base_shift / 2.0

    def theta1_close_at(self, base_shift: float) -> float:
        s = self.half_span(base_shift) / self.geometry.L1_rest
        if s >= 1.0:
            return self.theta1_max
        return self.layout.theta1_down + math.asin(s)

    @property
    def theta1_max(self) -> float:
        return self.layout.theta1_rest + self.theta1_travel

    @property
    def remote_floor(self) -> float:
        return self.envelope_floor + self.hollow_allowance

    def aperture_at(self, theta1: float, base_shift: float) -> float:
        """Parallel-mode fingertip gap for a drive angle and base shift."""
        psi = theta1 - self.layout.theta1_down
        return 2.0 * self.half_span(base_shift) - 2.0 * self.geometry.L1_rest * math.sin(psi)

    def motor_to_joint(self, motor_delta: float) -> float:
        """Motor rotation -> finger drive rotation (worm + gear pair + rack)."""
        return self.transmission_params().motor_to_joint(motor_delta)

    @property
    def slot(self) -> SlotGeometry:
        return SlotGeometry(entry=self.slot_entry, peak=self.slot_peak,
                            end=self.base_shift_max)

    def finger_params(self) -> FingerParams:
        return self._finger_params

    def transmission_params(self) -> TransmissionParams:
        return self._transmission_params

    @cached_property
    def _finger_params(self) -> FingerParams:
        return FingerParams(
            geometry=self.geometry,
            theta1_rest=self.layout.theta1_rest,
            theta1_down=self.layout.theta1_down,
            theta1_max=self.theta1_max,
            alpha_rest=self.alpha_rest,
            theta2_rest=self.theta2_rest,
            theta3_max=self.theta3_max,
            L1_min=self.L1_min,
            L2_min=self.L2_min,
            L3_min=self.L3_min,
            contact_rest=self.contact_rest,
            contact_min=self.contact_min,
            springs=self.springs,
        )

    @cached_property
    def force_budget(self) -> float:
        """Force available at the crank: output torque over the crank arm (N)."""
        return output_torque(self.motor_torque) * 1000.0 / self.geometry.D1

    @cached_property
    def _transmission_params(self) -> TransmissionParams:
        return TransmissionParams(
            theta1_rest=self.layout.theta1_rest,
            theta1_max=self.theta1_max,
            finger_gear_radius=self.finger_gear_radius,
            drive_gear_radius=self.drive_gear_radius,
            reduction=float(GearTrain().reduction),
            slot=self.slot,
        )

    def scaled(self, k: float) -> "GripperConfig":
        """Similarity-scaled copy: every length-dimensioned input times k."""
        g = self.geometry
        geom = replace(
            g,
            L1_rest=g.L1_rest * k, L1a=g.L1a * k, L1b=g.L1b * k, L1c=g.L1c * k,
            L2_rest=g.L2_rest * k, L2a=g.L2a * k, L2b=g.L2b * k, L2c=g.L2c * k,
            L3_rest=g.L3_rest * k, L3a=g.L3a * k, D1=g.D1 * k, D2=g.D2 * k,
        )
        inputs = {f.name: getattr(self, f.name) for f in fields(self)}
        inputs.update(
            geometry=geom,
            aperture_max=self.aperture_max * k,
            envelope_floor=self.envelope_floor * k,
            L1_min=self.L1_min * k, L2_min=self.L2_min * k, L3_min=self.L3_min * k,
            contact_rest=tuple(v * k for v in self.contact_rest),
            contact_min=tuple(v * k for v in self.contact_min),
            base_shift_max=self.base_shift_max * k,
            slot_entry=self.slot_entry * k,
            slot_peak=self.slot_peak * k,
            hollow_allowance=self.hollow_allowance * k,
        )
        return build_config(**inputs)


@lru_cache(maxsize=1)
def default_geometry() -> LinkageGeometry:
    """Published link lengths, L1c equal to L1b, the pinned L2c, and kappa.

    L1c = L1b makes the collinear rest length L1a - L1c + L1b equal L1a.
    L2c is the result of the one-off search in :mod:`gripsim.calibrate`.
    """
    published = LinkageGeometry(
        L1_rest=70.0, L1a=70.0, L1b=30.0, L1c=30.0,
        L2_rest=55.0, L2a=30.0, L2b=76.0, L2c=float.fromhex("0x1.de66666666652p+4"),
        L3_rest=51.0, L3a=29.0,
        D1=85.0, D2=68.0,
        beta=RIGHT_ANGLE, kappa=0.0,   # kappa: solved below
    )
    return replace(published, kappa=calibrate.solve_kappa(published))


def build_config(geometry: LinkageGeometry | None = None, **overrides) -> GripperConfig:
    """Assemble and validate a configuration from its inputs."""
    if geometry is None:
        geometry = default_geometry()
    else:
        # validated first: the kappa solve cannot take a non-finite length;
        # kappa keeps the middle rest closure exact whenever L2-side values changed
        geometry.validate()
        geometry = replace(geometry, kappa=calibrate.solve_kappa(geometry))

    unknown = set(overrides) - {f.name for f in fields(GripperConfig)}
    if unknown:
        raise ConfigError(sorted(unknown)[0], "unknown configuration field")

    cfg = GripperConfig(geometry=geometry, **overrides)
    _validate(cfg)
    return cfg


@lru_cache(maxsize=1)
def default_config() -> GripperConfig:
    return build_config()


def _validate(cfg: GripperConfig) -> None:
    cfg.alpha_rest   # solving the layout rejects a palm the linkage cannot meet
    g = cfg.geometry
    if not 0.0 < cfg.L1_min < g.L1_rest:
        raise ConfigError("L1_min", "must lie inside (0, L1_rest)")
    if not 0.0 < cfg.L2_min < g.L2_rest:
        raise ConfigError("L2_min", "must lie inside (0, L2_rest)")
    cfg.delta_stop   # bracketed only once L2_min lies inside (0, L2_rest)
    if not 0.0 < cfg.L3_min < g.L3_rest:
        raise ConfigError("L3_min", "must lie inside (0, L3_rest)")
    for name in ("theta1_travel", "motor_step", "contact_tol", "trace_stride"):
        if not getattr(cfg, name) > 0:
            raise ConfigError(name, "must be positive")
    if not cfg.motor_torque >= 0.0:
        raise ConfigError("motor_torque", "cannot be negative")
    if cfg.base_shift_max > 0.0 and \
            not 0.0 < cfg.slot_entry < cfg.slot_peak <= cfg.base_shift_max:
        raise ConfigError("slot_peak", "lock slot must be ordered inside the base travel")
    residual = linkage.closure_residual(g, cfg.layout.theta1_rest, cfg.alpha_rest, g.L1_rest)
    if abs(residual) > 1e-9:
        raise ConfigError("geometry", f"rest closure residual {residual:.3e} exceeds 1e-9")
    mid_res = linkage.middle_closure_residual(g, 0.0, g.beta, g.L2_rest)
    if abs(mid_res) > 1e-9:
        raise ConfigError("kappa", f"middle rest closure residual {mid_res:.3e} exceeds 1e-9")
