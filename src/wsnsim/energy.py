"""First-order radio dissipation model.

All costs are in joules; distances in meters; payload sizes in bits.
Transmit cost switches from free-space (d^2) to multipath (d^4)
amplification at the crossover distance d0 = sqrt(e_fs / e_mp), which is
derived from the amplifier constants rather than stored.
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


def _check_bits(bits: int) -> None:
    if bits < 1:
        raise ValueError("bits must be >= 1")


def tx_energy(params: EnergyParams, bits: int, distance: float) -> float:
    """Energy to transmit `bits` over `distance` meters.

    Uses d^2 amplification below the crossover distance and d^4 at or
    beyond it; the two branches agree at the crossover point.
    """
    _check_bits(bits)
    if distance < 0.0:
        raise ValueError("distance must be >= 0")
    d2 = distance * distance
    if d2 < params.d0_sq:
        return bits * params.e_elec + bits * params.e_fs * d2
    return bits * params.e_elec + bits * params.e_mp * d2 * d2


def rx_energy(params: EnergyParams, bits: int) -> float:
    """Energy for the receiver electronics to accept `bits`."""
    _check_bits(bits)
    return bits * params.e_elec


def aggregation_energy(params: EnergyParams, bits: int, signals: int) -> float:
    """Energy for a cluster head to fuse `signals` readings of `bits` each."""
    _check_bits(bits)
    if signals < 0:
        raise ValueError("signals must be >= 0")
    return signals * bits * params.e_da


def relay_beneficial(
    params: EnergyParams,
    d_ab: float,
    d_bc: float,
    d_ac: float,
    bits: int | None = None,
) -> bool:
    """Whether routing a->b->c costs strictly less transmit energy than a->c.

    Only transmit-side amplifier and electronics costs enter the comparison;
    at short ranges the doubled electronics always make the relay lose.
    """
    b = params.packet_bits if bits is None else bits
    if min(d_ab, d_bc, d_ac) < 0.0:
        raise ValueError("distances must be >= 0")
    return tx_energy(params, b, d_ab) + tx_energy(params, b, d_bc) < tx_energy(params, b, d_ac)


def expected_round_energy(
    params: EnergyParams,
    clusters: int,
    nodes: int,
    field_m: float,
    d_to_bs: float,
    bits: int | None = None,
) -> float:
    """Expected network energy drained in one round with `clusters` heads.

    Sums member electronics, aggregation, the heads' multipath hops to the
    sink, and the members' free-space hops to their head, using the mean
    member-to-head distance field_m / sqrt(2 * pi * clusters).
    """
    if clusters < 1:
        raise ValueError("clusters must be >= 1")
    if nodes < clusters:
        raise ValueError("nodes must be >= clusters")
    if field_m <= 0.0:
        raise ValueError("field_m must be positive")
    if d_to_bs < 0.0:
        raise ValueError("d_to_bs must be >= 0")
    b = params.packet_bits if bits is None else bits
    _check_bits(b)
    d_to_ch_sq = field_m * field_m / (TWO_PI * clusters)
    return b * (
        2.0 * nodes * params.e_elec
        + nodes * params.e_da
        + clusters * params.e_mp * d_to_bs ** 4
        + nodes * params.e_fs * d_to_ch_sq
    )


def optimal_cluster_count(
    params: EnergyParams, nodes: int, field_m: float, d_to_bs: float
) -> float:
    """Cluster count minimizing the expected round energy (analysis helper).

    Returned as a float; simulations pick their head fraction directly and
    never consume this value.
    """
    if nodes < 1:
        raise ValueError("nodes must be >= 1")
    if field_m <= 0.0:
        raise ValueError("field_m must be positive")
    if d_to_bs <= 0.0:
        raise ValueError("d_to_bs must be positive")
    return (
        math.sqrt(nodes)
        / math.sqrt(TWO_PI)
        * math.sqrt(params.e_fs / params.e_mp)
        * field_m
        / (d_to_bs * d_to_bs)
    )
