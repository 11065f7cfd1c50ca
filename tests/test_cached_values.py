"""Per-instance cached geometry and parameters must never go stale.

``SceneObject`` caches its outline and ``GripperConfig`` its resolved
parameter sets in the instance ``__dict__``; both are frozen dataclasses, so
a changed value is always a new instance with an empty cache.
"""

from dataclasses import replace

from gripsim.config import build_config
from gripsim.geometry import Point
from gripsim.scene import SceneObject


def test_replaced_rectangle_gets_fresh_corners():
    rect = SceneObject.rectangle(40.0, 20.0, x=0.0, y=-50.0, rotation=0.2)
    before = rect.corners()
    moved = replace(rect, x=10.0)
    assert moved.corners() == SceneObject.rectangle(40.0, 20.0, x=10.0, y=-50.0,
                                                    rotation=0.2).corners()
    assert moved.corners() != before
    assert rect.corners() == before
    # the clearance follows the moved outline, not the cached one of the original
    seg = (Point(25.0, -80.0), Point(25.0, -20.0))
    assert rect.clearance_to_segment(*seg) > 0.0
    assert moved.clearance_to_segment(*seg) == 0.0


def test_corners_returns_a_fresh_list():
    rect = SceneObject.rectangle(40.0, 20.0)
    first = rect.corners()
    first.clear()
    assert len(rect.corners()) == 4


def test_replaced_config_resolves_its_own_params(cfg):
    assert cfg.finger_params().contact_tol == cfg.contact_tol
    changed = replace(cfg, contact_tol=0.02)
    assert changed.finger_params().contact_tol == 0.02
    assert cfg.finger_params().contact_tol == 0.01
    wide = replace(cfg, finger_gear_radius=10.0)
    assert wide.transmission_params().finger_gear_radius == 10.0
    assert cfg.transmission_params().finger_gear_radius == 7.5


def test_filled_caches_leave_equality_and_hash_alone():
    a = SceneObject.rectangle(30.0, 12.0, x=3.0, y=-40.0, rotation=0.4)
    b = SceneObject.rectangle(30.0, 12.0, x=3.0, y=-40.0, rotation=0.4)
    a.clearance_to_segment(Point(0.0, 0.0), Point(1.0, 1.0))
    assert a == b and hash(a) == hash(b)
    b.corners()
    assert a == b and hash(a) == hash(b)
    c1, c2 = build_config(), build_config()
    c1.finger_params()
    c1.transmission_params()
    assert c1 == c2 and hash(c1) == hash(c2)
    assert c1.finger_params() == c2.finger_params()
    assert c1.transmission_params() == c2.transmission_params()
