"""First-order radio dissipation model: the expected round energy that
sizes DEEC's lifetime estimate.

All costs are in joules; distances in meters; payload sizes in bits.  The
radio constants are `ScenarioConfig` fields: electronics `e_elec_j` per bit
for transmit and receive circuitry, free-space amplification `e_fs_j` per
bit per m^2, multipath amplification `e_mp_j` per bit per m^4, aggregation
`e_da_j` per bit per incoming signal, and `packet_bits` per packet.
Transmit cost switches from free-space (d^2) to multipath (d^4)
amplification at the crossover distance d0 = sqrt(e_fs / e_mp), which the
engine derives from the amplifier constants rather than stores.  The
per-packet charges themselves (transmission, reception, aggregation) are
paid in the charging kernels, `_kernels.member_phase` and
`_kernels.relay_phase`.
"""
from __future__ import annotations

import math
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .config import ScenarioConfig

TWO_PI = 2.0 * math.pi


def expected_round_energy(cfg: ScenarioConfig, clusters: int, d_to_bs: float) -> float:
    """Expected network energy drained in one round with `clusters` heads.

    Sums member electronics, aggregation, the heads' multipath hops to the
    sink, and the members' free-space hops to their head, using the mean
    member-to-head distance field_m / sqrt(2 * pi * clusters).
    """
    nodes, field_m = cfg.nodes, cfg.field_m
    d_to_ch_sq = field_m * field_m / (TWO_PI * clusters)
    return cfg.packet_bits * (
        2.0 * nodes * cfg.e_elec_j
        + nodes * cfg.e_da_j
        + clusters * cfg.e_mp_j * d_to_bs ** 4
        + nodes * cfg.e_fs_j * d_to_ch_sq
    )
