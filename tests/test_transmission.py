from fractions import Fraction

import pytest

from gripsim import transmission as tm
from gripsim.errors import RackTravelError
from gripsim.transmission import (
    GearTrain,
    LockStage,
    LockState,
    RackSegment,
    Route,
    SlotGeometry,
    lock_step,
    output_torque,
    rack_segment,
    step_transmission,
)


def test_output_torque_is_thirty_fold():
    assert GearTrain().reduction == Fraction(30)
    assert output_torque(6.6) == pytest.approx(198.0)
    assert output_torque(0.0) == 0.0
    assert output_torque(1.0) == pytest.approx(30.0)
    with pytest.raises(ValueError):
        output_torque(-1.0)


@pytest.fixture()
def tparams(cfg):
    return cfg.transmission_params()


def test_rack_segments_cover_the_travel(tparams):
    lay = tparams.layout
    assert rack_segment(0.0, lay) is RackSegment.PART_A
    assert rack_segment(lay.a_end, lay) is RackSegment.PART_A
    assert rack_segment(lay.a_end + 1.0, lay) is RackSegment.PART_B1
    # red boundary belongs to the red segment
    assert rack_segment(lay.red_end, lay) is RackSegment.RED_LINE
    assert rack_segment(lay.b2_end, lay) is RackSegment.PART_B2
    assert rack_segment(lay.b2_end + 0.5, lay) is RackSegment.PART_C
    with pytest.raises(RackTravelError):
        rack_segment(lay.c_end + 1.0, lay)
    with pytest.raises(RackTravelError):
        rack_segment(-0.1, lay)


SLOT = SlotGeometry(entry=30.0, peak=40.0, end=50.0)


def test_lock_engages_only_through_the_upper_groove():
    lock = LockState()
    lock = lock_step(lock, 20.0, SLOT)
    assert lock.stage is LockStage.NEUTRAL
    lock = lock_step(lock, 15.0, SLOT)
    assert lock.stage is LockStage.UPPER_GROOVE
    lock = lock_step(lock, 10.0, SLOT)
    assert lock.stage is LockStage.ENGAGED
    assert lock.travel == pytest.approx(SLOT.peak)


def test_engaged_lock_blocks_reverse_motion():
    lock = lock_step(LockState(), 45.0, SLOT)
    assert lock.stage is LockStage.ENGAGED
    blocked = lock_step(lock, -10.0, SLOT)
    assert blocked == lock


def test_upper_groove_slides_back_down_before_the_peak():
    lock = lock_step(LockState(), 35.0, SLOT)
    assert lock.stage is LockStage.UPPER_GROOVE
    back = lock_step(lock, -10.0, SLOT)
    assert back.stage is LockStage.NEUTRAL


def test_overtravel_then_reverse_releases():
    lock = lock_step(LockState(), 45.0, SLOT)      # engaged at the red mark
    lock = lock_step(lock, 10.0, SLOT)             # into the lower groove
    assert lock.stage is LockStage.LOWER_GROOVE
    lock = lock_step(lock, -5.0, SLOT)
    assert lock.stage is LockStage.RELEASED
    lock = lock_step(lock, -20.0, SLOT)
    assert lock.stage is LockStage.NEUTRAL
    lock = lock_step(lock, -30.0, SLOT)
    assert lock.travel == 0.0 and lock.stage is LockStage.NEUTRAL


def _rest(tparams):
    return tm.initial_transmission(tparams)


def test_closing_from_rest_drives_the_crank_not_the_base(tparams):
    state = _rest(tparams)
    nxt, route = step_transmission(tparams, state, -0.01)
    assert route is Route.DRIVE
    assert nxt.D1_angle > state.D1_angle
    assert nxt.base_translation == 0.0
    assert nxt.rack is RackSegment.PART_A


def test_forward_at_the_open_stop_translates_the_base(tparams):
    state = _rest(tparams)
    nxt, route = step_transmission(tparams, state, 0.01)
    assert route is Route.BASE
    assert nxt.base_translation > 0.0
    assert nxt.D1_angle == state.D1_angle
    assert nxt.rack is RackSegment.PART_B1


def test_engaged_reverse_closes_at_the_reconfigured_position(tparams):
    state = _rest(tparams)
    while state.lock.stage is not LockStage.ENGAGED:
        state, route = step_transmission(tparams, state, 1.0)
        assert route is Route.BASE
    assert state.base_translation == pytest.approx(tparams.slot.peak)
    nxt, route = step_transmission(tparams, state, -0.05)
    assert route is Route.DRIVE
    assert nxt.D1_angle > state.D1_angle
    assert nxt.base_translation == state.base_translation
    assert nxt.rack is RackSegment.PART_C


def test_every_step_changes_exactly_one_energy_path(tparams):
    state = _rest(tparams)
    script = [1.0] * 40 + [-1.0] * 10 + [1.0] * 20 + [-0.5] * 60
    for delta in script:
        nxt, route = step_transmission(tparams, state, delta)
        d1_moved = nxt.D1_angle != state.D1_angle
        base_moved = nxt.base_translation != state.base_translation
        if route is Route.STALL:
            assert not d1_moved and not base_moved
        else:
            assert d1_moved != base_moved
        state = nxt


def test_round_trip_restores_home(tparams):
    state = _rest(tparams)
    # forward to the far end of the unlock groove
    for _ in range(20000):
        state, route = step_transmission(tparams, state, 1.0)
        if route is Route.STALL:
            break
    assert state.base_translation == pytest.approx(tparams.slot.end)
    for _ in range(20000):
        state, route = step_transmission(tparams, state, -1.0)
        if state.base_translation == 0.0:
            break
    assert state.base_translation == 0.0
    assert state.lock.stage is LockStage.NEUTRAL
    assert state.rack in (RackSegment.PART_A, RackSegment.PART_B1)


def test_base_translation_stays_inside_its_envelope(tparams):
    state = _rest(tparams)
    for delta in [1.0] * 200:
        state, _ = step_transmission(tparams, state, delta)
        assert 0.0 <= state.base_translation <= tparams.slot.end
