import pytest

from gripsim.geometry import point_segment_distance, segment_segment_distance


def test_point_segment_distance_clamps_to_endpoints():
    d, t = point_segment_distance(10.0, 0.0, 0.0, 0.0, 1.0, 0.0)
    assert d == pytest.approx(9.0)
    assert t == 1.0
    d, t = point_segment_distance(0.5, 2.0, 0.0, 0.0, 1.0, 0.0)
    assert d == pytest.approx(2.0)
    assert t == pytest.approx(0.5)


def test_segment_segment_distance():
    # parallel and offset: every point ties, the first endpoint wins
    assert segment_segment_distance(0.0, 0.0, 1.0, 0.0,
                                    0.0, 1.0, 1.0, 1.0) == (1.0, 0.0)
    # crossing segments touch at their crossing point
    assert segment_segment_distance(-1.0, -1.0, 1.0, 1.0,
                                    -1.0, 1.0, 1.0, -1.0) == (0.0, 0.5)
    # an endpoint of the other segment projects strictly inside this one
    assert segment_segment_distance(0.0, 0.0, 4.0, 0.0,
                                    1.0, 2.0, 5.0, 7.0) == (2.0, 0.25)
