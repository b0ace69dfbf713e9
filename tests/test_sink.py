"""Sink placement and the mobile top-edge sweep."""
import pytest

from wsnsim import ScenarioConfig, SinkMode, sink_position

CFG = ScenarioConfig()  # 100 m field, 10 m step, 1 round pause


def test_parse():
    assert SinkMode.parse("static_center") == SinkMode.STATIC_CENTER
    assert SinkMode.parse(" MOBILE_TOP ") == SinkMode.MOBILE_TOP
    with pytest.raises(ValueError):
        SinkMode.parse("orbit")


def test_static_positions():
    assert sink_position(CFG, SinkMode.STATIC_CENTER, 0) == (50.0, 50.0)
    assert sink_position(CFG, SinkMode.STATIC_CENTER, 999) == (50.0, 50.0)
    assert sink_position(CFG, SinkMode.STATIC_TOP, 0) == (50.0, 100.0)
    wide = ScenarioConfig(field_m=200.0)
    assert sink_position(wide, SinkMode.STATIC_TOP, 5) == (100.0, 200.0)


def test_mobile_sweep_frozen_positions():
    expect = {0: 0.0, 1: 10.0, 5: 50.0, 10: 100.0, 11: 90.0,
              19: 10.0, 20: 0.0, 21: 10.0, 40: 0.0}
    for rnd, x in expect.items():
        assert sink_position(CFG, SinkMode.MOBILE_TOP, rnd) == (x, 100.0)


def test_mobile_sweep_stays_on_top_edge_and_in_field():
    cfg = ScenarioConfig(sink_step_m=7.0, sink_pause_rounds=3)
    for rnd in range(0, 400):
        x, y = sink_position(cfg, SinkMode.MOBILE_TOP, rnd)
        assert y == 100.0
        assert 0.0 <= x <= 100.0
    # 7 m after every third round: out to 98 m, back from the far corner
    assert sink_position(cfg, SinkMode.MOBILE_TOP, 3) == (7.0, 100.0)
    assert sink_position(cfg, SinkMode.MOBILE_TOP, 45) == (95.0, 100.0)


def test_pause_rounds_hold_position():
    cfg = ScenarioConfig(sink_pause_rounds=4)
    at = {rnd: sink_position(cfg, SinkMode.MOBILE_TOP, rnd) for rnd in (0, 3, 4, 7, 8)}
    assert at[0] == at[3]
    assert at[4] == (10.0, 100.0)
    assert at[7] == (10.0, 100.0)
    assert at[8] == (20.0, 100.0)


def test_period_of_full_sweep():
    # out and back: 2 * (field / step) * pause rounds
    period = 2 * int(100.0 / 10.0) * 1
    for rnd in range(100):
        assert (sink_position(CFG, SinkMode.MOBILE_TOP, rnd)
                == sink_position(CFG, SinkMode.MOBILE_TOP, rnd + period))


def test_sink_position_rejects_negative_round():
    # field_m, sink_step_m and sink_pause_rounds are checked where
    # ScenarioConfig is built; the round is checked here
    with pytest.raises(ValueError):
        sink_position(CFG, SinkMode.STATIC_TOP, -1)
