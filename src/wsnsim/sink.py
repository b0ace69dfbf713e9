"""Sink (base station) placement and trajectory.

Three modes: fixed at the field centre, fixed at the midpoint of the top
edge, or sweeping along the top edge.  The mobile position is a pure
function of the round index and three `ScenarioConfig` fields (`field_m`,
`sink_step_m`, `sink_pause_rounds`), so replays are exact.  Each run of an
engine's batch has its own sink mode: the engine places a static sink
once and moves only the mobile ones each round.  Heads' distances to their
run's sink are taken where the engine routes them
(`protocols.hteen_build_hierarchy`).
"""
from __future__ import annotations

from enum import IntEnum
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .config import ScenarioConfig


class SinkMode(IntEnum):
    STATIC_CENTER = 0
    STATIC_TOP = 1
    MOBILE_TOP = 2

    @classmethod
    def parse(cls, name: str) -> "SinkMode":
        try:
            return cls[name.strip().upper()]
        except KeyError:
            raise ValueError(f"unknown sink mode: {name!r}") from None


def sink_position(cfg: ScenarioConfig, mode: SinkMode, rnd: int) -> tuple[float, float]:
    """Coordinates of a sink in `mode` during round `rnd`.

    The mobile sink starts at x = 0 on the top edge and ping-pongs between
    the corners, advancing `sink_step_m` after every `sink_pause_rounds`
    rounds.
    """
    if rnd < 0:
        raise ValueError("round must be >= 0")
    m = cfg.field_m
    if mode == SinkMode.STATIC_CENTER:
        return (m / 2.0, m / 2.0)
    if mode == SinkMode.STATIC_TOP:
        return (m / 2.0, m)
    hops = rnd // cfg.sink_pause_rounds
    t = (cfg.sink_step_m * hops) % (2.0 * m)
    return (m - abs(m - t), m)
