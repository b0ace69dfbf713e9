"""Sink placement and the mobile top-edge sweep."""
import math

import pytest

from wsnsim import SinkMode, SinkState, collection_distance, sink_position


def test_parse():
    assert SinkMode.parse("static_center") == SinkMode.STATIC_CENTER
    assert SinkMode.parse(" MOBILE_TOP ") == SinkMode.MOBILE_TOP
    with pytest.raises(ValueError):
        SinkMode.parse("orbit")


def test_static_positions():
    assert sink_position(SinkState(SinkMode.STATIC_CENTER, 100.0), 0) == (50.0, 50.0)
    assert sink_position(SinkState(SinkMode.STATIC_CENTER, 100.0), 999) == (50.0, 50.0)
    assert sink_position(SinkState(SinkMode.STATIC_TOP, 100.0), 0) == (50.0, 100.0)
    assert sink_position(SinkState(SinkMode.STATIC_TOP, 200.0), 5) == (100.0, 200.0)


def test_mobile_sweep_frozen_positions():
    st = SinkState(SinkMode.MOBILE_TOP, 100.0)  # 10 m step, 1 round pause
    expect = {0: 0.0, 1: 10.0, 5: 50.0, 10: 100.0, 11: 90.0,
              19: 10.0, 20: 0.0, 21: 10.0, 40: 0.0}
    for rnd, x in expect.items():
        assert sink_position(st, rnd) == (x, 100.0)


def test_mobile_sweep_stays_on_top_edge_and_in_field():
    st = SinkState(SinkMode.MOBILE_TOP, 100.0, step_m=7.0, pause_rounds=3)
    for rnd in range(0, 400):
        x, y = sink_position(st, rnd)
        assert y == 100.0
        assert 0.0 <= x <= 100.0


def test_pause_rounds_hold_position():
    st = SinkState(SinkMode.MOBILE_TOP, 100.0, pause_rounds=4)
    assert sink_position(st, 0) == sink_position(st, 3)
    assert sink_position(st, 4) == (10.0, 100.0)
    assert sink_position(st, 7) == (10.0, 100.0)
    assert sink_position(st, 8) == (20.0, 100.0)


def test_period_of_full_sweep():
    # out and back: 2 * (field / step) * pause rounds
    st = SinkState(SinkMode.MOBILE_TOP, 100.0)
    period = 2 * int(100.0 / 10.0) * 1
    for rnd in range(100):
        assert sink_position(st, rnd) == sink_position(st, rnd + period)


def test_collection_distance():
    st = SinkState(SinkMode.STATIC_CENTER, 100.0)
    assert collection_distance(st, 50.0, 50.0, 0) == 0.0
    assert collection_distance(st, 53.0, 54.0, 0) == math.hypot(3.0, 4.0)
    mob = SinkState(SinkMode.MOBILE_TOP, 100.0)
    assert collection_distance(mob, 0.0, 100.0, 0) == 0.0
    assert collection_distance(mob, 0.0, 100.0, 10) == 100.0


def test_sink_state_validation():
    # field_m, step_m and pause_rounds are checked where ScenarioConfig is built
    with pytest.raises(ValueError):
        sink_position(SinkState(SinkMode.STATIC_TOP, 100.0), -1)
