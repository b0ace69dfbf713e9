"""Sink (base station) placement and trajectory.

Three modes: fixed at the field centre, fixed at the midpoint of the top
edge, or sweeping along the top edge.  The mobile position is a pure
function of the round index, so replays are exact.  Each run of an
engine's batch has its own sink: the engine places a static one once
and moves only the mobile ones each round.  Heads' distances to their
run's sink are taken where the engine routes them
(`protocols.hteen_build_hierarchy`).
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum


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


@dataclass(frozen=True)
class SinkState:
    mode: SinkMode
    field_m: float
    step_m: float = 10.0
    pause_rounds: int = 1


def sink_position(sink: SinkState, rnd: int) -> tuple[float, float]:
    """Sink coordinates during round `rnd`.

    The mobile sink starts at x = 0 on the top edge and ping-pongs between
    the corners, advancing `step_m` after every `pause_rounds` rounds.
    """
    if rnd < 0:
        raise ValueError("round must be >= 0")
    m = sink.field_m
    if sink.mode == SinkMode.STATIC_CENTER:
        return (m / 2.0, m / 2.0)
    if sink.mode == SinkMode.STATIC_TOP:
        return (m / 2.0, m)
    hops = rnd // sink.pause_rounds
    t = (sink.step_m * hops) % (2.0 * m)
    return (m - abs(m - t), m)
