"""Single-motor power path: gear set, rack segmentation, base translation, self-lock.

One motor feeds a worm stage and a gear pair; the output gears drive rack
sets that either rotate each finger's crank (open/close) or, once the crank
reaches its open stop, push the finger bases outward against tension springs
(reconfiguration).  A groove-guided lock block holds a translated base in
place so the motor can close the fingers at the reconfigured position; the
documented over-travel-then-reverse sequence releases it.

The rack is modelled as one unrolled path coordinate with five segments.
When the lock engages and the motor reverses, the mesh point jumps to the
start of the remote-drive segment (the gear shifts tracks).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property

from .errors import RackTravelError


@dataclass(frozen=True)
class GearTrain:
    """Worm stage plus 15/30-tooth pair; torque up 30x, speed down 30x."""

    worm_ratio: int = 15
    small_gear_teeth: int = 15
    large_gear_teeth: int = 30

    @property
    def reduction(self) -> Fraction:
        return Fraction(self.worm_ratio) * Fraction(self.large_gear_teeth,
                                                    self.small_gear_teeth)


def output_torque(motor_torque: float) -> float:
    """Loss-free output torque (N*m)."""
    if motor_torque < 0.0:
        raise ValueError("motor torque must be non-negative")
    return float(GearTrain().reduction) * motor_torque


class RackSegment(Enum):
    PART_A = "a"
    PART_B1 = "b1"
    RED_LINE = "red"
    PART_B2 = "b2"
    PART_C = "c"


class LockStage(Enum):
    NEUTRAL = "neutral"
    UPPER_GROOVE = "upper_groove"
    ENGAGED = "engaged"
    LOWER_GROOVE = "lower_groove"
    RELEASED = "released"


@dataclass(frozen=True)
class SlotGeometry:
    """Lock slot landmarks along the base-shift axis (total aperture-shift mm)."""

    entry: float
    peak: float    # red position; crossing it forward engages the lock
    end: float     # lower-groove far end (base travel maximum)


@dataclass(frozen=True)
class LockState:
    stage: LockStage = LockStage.NEUTRAL
    travel: float = 0.0   # block position = base shift (mm)


def lock_step(lock: LockState, base_motion_delta: float, slot: SlotGeometry) -> LockState:
    """Advance the lock automaton by a signed base motion.

    Total: every (stage, direction) pair transitions somewhere.  A reverse
    request against an engaged lock returns the state unchanged -- the caller
    reads the unchanged travel as "base motion refused".
    """
    t = lock.travel
    if base_motion_delta >= 0.0:
        t_new = min(t + base_motion_delta, slot.end)
        if lock.stage in (LockStage.NEUTRAL, LockStage.UPPER_GROOVE):
            if t_new >= slot.peak:
                stage = LockStage.ENGAGED
                t_new = min(t_new, slot.peak)   # spring drops the block at the red mark
            elif t_new > slot.entry:
                stage = LockStage.UPPER_GROOVE
            else:
                stage = LockStage.NEUTRAL
        elif lock.stage is LockStage.ENGAGED:
            stage = LockStage.LOWER_GROOVE if t_new > t else LockStage.ENGAGED
        else:  # LOWER_GROOVE or RELEASED moving right
            stage = LockStage.LOWER_GROOVE
    else:
        if lock.stage is LockStage.ENGAGED:
            return lock
        t_new = max(t + base_motion_delta, 0.0)
        if lock.stage in (LockStage.LOWER_GROOVE, LockStage.RELEASED):
            stage = LockStage.NEUTRAL if t_new <= slot.entry else LockStage.RELEASED
        else:  # NEUTRAL or UPPER_GROOVE sliding back down
            stage = LockStage.NEUTRAL if t_new <= slot.entry else LockStage.UPPER_GROOVE
    return LockState(stage=stage, travel=t_new)


@dataclass(frozen=True)
class RackLayout:
    """Segment boundaries of the unrolled rack path (mm of mesh travel), each computed once."""

    drive_span: float       # PART_A and PART_C width: full crank stroke
    slot: SlotGeometry

    @cached_property
    def a_end(self) -> float:
        return self.drive_span

    @cached_property
    def b1_end(self) -> float:
        return self.drive_span + self.slot.entry

    @cached_property
    def red_end(self) -> float:
        return self.drive_span + self.slot.peak

    @cached_property
    def b2_end(self) -> float:
        return self.drive_span + self.slot.end

    @cached_property
    def c_end(self) -> float:
        return self.b2_end + self.drive_span


def rack_segment(position: float, layout: RackLayout) -> RackSegment:
    """Classify a rack-path position; boundaries belong to the left segment."""
    if position < 0.0 or position > layout.c_end:
        raise RackTravelError(
            f"rack position {position:.3f} outside travel [0, {layout.c_end:.3f}]"
        )
    if position <= layout.a_end:
        return RackSegment.PART_A
    if position <= layout.b1_end:
        return RackSegment.PART_B1
    if position <= layout.red_end:
        return RackSegment.RED_LINE
    if position <= layout.b2_end:
        return RackSegment.PART_B2
    return RackSegment.PART_C


@dataclass(frozen=True)
class TransmissionParams:
    theta1_rest: float
    theta1_max: float
    finger_gear_radius: float
    drive_gear_radius: float
    reduction: float
    slot: SlotGeometry

    @cached_property
    def layout(self) -> RackLayout:
        span = (self.theta1_max - self.theta1_rest) * self.finger_gear_radius
        return RackLayout(drive_span=span, slot=self.slot)

    def motor_to_joint(self, motor_delta: float) -> float:
        return motor_delta / self.reduction * self.drive_gear_radius / self.finger_gear_radius


@dataclass(frozen=True)
class TransmissionState:
    """Motor-side state; D1_angle doubles as the fingers' drive angle."""

    rack: RackSegment   # the segment the drive gear meshes
    lock: LockState
    D1_angle: float

    @property
    def base_translation(self) -> float:
        """Total base shift (mm); the lock block travels with the base."""
        return self.lock.travel


class Route(Enum):
    DRIVE = "drive"
    BASE = "base"
    STALL = "stall"


def initial_transmission(params: TransmissionParams,
                         base_translation: float = 0.0) -> TransmissionState:
    """The rest state with the base pre-translated by ``base_translation`` in [0, slot.end]."""
    t = base_translation
    if t >= params.slot.peak:
        stage = LockStage.ENGAGED
    elif t > params.slot.entry:
        stage = LockStage.UPPER_GROOVE
    else:
        stage = LockStage.NEUTRAL
    return _moved(params, params.theta1_rest, LockState(stage=stage, travel=t))


def _rack_position(params: TransmissionParams, d1_angle: float,
                   lock: LockState) -> float:
    layout = params.layout
    if lock.stage is LockStage.ENGAGED and d1_angle > params.theta1_rest + 1e-15:
        # remote drive: the gear shifted to mesh the far rack section
        return layout.b2_end + (d1_angle - params.theta1_rest) * params.finger_gear_radius
    if lock.travel > 0.0:
        return layout.a_end + lock.travel
    return (params.theta1_max - d1_angle) * params.finger_gear_radius


def step_transmission(params: TransmissionParams, state: TransmissionState,
                      motor_delta: float) -> tuple[TransmissionState, Route]:
    """Route one motor step into exactly one of crank rotation or base translation.

    Positive motor rotation opens the fingers; once the crank reaches its open
    stop, further positive rotation translates the base.  Negative rotation
    closes -- at the reconfigured position when the lock is engaged, otherwise
    the tension spring returns the base home before the fingers close.
    """
    if motor_delta == 0.0:
        return state, Route.STALL
    joint_delta = params.motor_to_joint(motor_delta)
    # both sides move together, each by the rack travel
    shift_delta = 2.0 * (motor_delta / params.reduction * params.drive_gear_radius)

    d1 = state.D1_angle
    lock = state.lock

    if motor_delta > 0.0:
        if d1 > params.theta1_rest + 1e-15:
            d1_new = max(params.theta1_rest, d1 - joint_delta)
            return _moved(params, d1_new, lock), Route.DRIVE
        if lock.travel < params.slot.end - 1e-15:
            lock_new = lock_step(lock, shift_delta, params.slot)
            return _moved(params, d1, lock_new), Route.BASE
        return state, Route.STALL

    # closing
    if lock.stage is LockStage.ENGAGED:
        if d1 < params.theta1_max - 1e-15:
            d1_new = min(params.theta1_max, d1 - joint_delta)
            return _moved(params, d1_new, lock), Route.DRIVE
        return state, Route.STALL
    if lock.travel > 1e-15:
        lock_new = lock_step(lock, shift_delta, params.slot)
        if lock_new.travel != lock.travel:
            return _moved(params, d1, lock_new), Route.BASE
        return state, Route.STALL
    if d1 < params.theta1_max - 1e-15:
        d1_new = min(params.theta1_max, d1 - joint_delta)
        return _moved(params, d1_new, lock), Route.DRIVE
    return state, Route.STALL


def _moved(params: TransmissionParams, d1_angle: float,
           lock: LockState) -> TransmissionState:
    """The state at a drive angle and lock position, with its rack segment."""
    return TransmissionState(
        rack=rack_segment(_rack_position(params, d1_angle, lock), params.layout),
        lock=lock,
        D1_angle=d1_angle,
    )
