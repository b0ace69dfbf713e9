"""First-order radio dissipation model: its constants and the expected
round energy that sizes DEEC's lifetime estimate.

All costs are in joules; distances in meters; payload sizes in bits.
Transmit cost switches from free-space (d^2) to multipath (d^4)
amplification at the crossover distance d0 = sqrt(e_fs / e_mp), which is
derived from the amplifier constants rather than stored.  The per-packet
charges themselves (transmission, reception, aggregation) are paid in the
charging kernels, `_kernels.member_phase` and `_kernels.relay_phase`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class EnergyParams:
    """Radio constants for the dissipation model.

    e_elec: electronics cost per bit for both transmit and receive circuitry.
    e_fs: free-space amplifier cost per bit per m^2 (used below d0).
    e_mp: multipath amplifier cost per bit per m^4 (used at and above d0).
    e_da: data-aggregation cost per bit per incoming signal.
    packet_bits: default payload size used by the simulator.
    """

    e_elec: float = 50e-9
    e_fs: float = 10e-12
    e_mp: float = 0.0013e-12
    e_da: float = 5e-9
    packet_bits: int = 4000

    @property
    def d0(self) -> float:
        """Crossover distance between the two amplifier regimes."""
        return math.sqrt(self.e_fs / self.e_mp)

    @property
    def d0_sq(self) -> float:
        return self.e_fs / self.e_mp


def expected_round_energy(
    params: EnergyParams,
    clusters: int,
    nodes: int,
    field_m: float,
    d_to_bs: float,
) -> float:
    """Expected network energy drained in one round with `clusters` heads.

    Sums member electronics, aggregation, the heads' multipath hops to the
    sink, and the members' free-space hops to their head, using the mean
    member-to-head distance field_m / sqrt(2 * pi * clusters).
    """
    d_to_ch_sq = field_m * field_m / (TWO_PI * clusters)
    return params.packet_bits * (
        2.0 * nodes * params.e_elec
        + nodes * params.e_da
        + clusters * params.e_mp * d_to_bs ** 4
        + nodes * params.e_fs * d_to_ch_sq
    )
