"""Node population state: deployment, energy bookkeeping, sensing, clusters.

State is held as parallel arrays indexed by node id.  A node is alive
exactly while its residual energy is positive; death is permanent because
every charge path floors at zero and skips dead nodes.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from . import _kernels

SENSED_MIN = 0.0
SENSED_MAX = 200.0


class NodeTier(IntEnum):
    NORMAL = 0
    ADVANCED = 1
    SUPER = 2


@dataclass
class NodeState:
    """Snapshot of a single node (read-only view for inspection/tests)."""

    node_id: int
    x: float
    y: float
    tier: NodeTier
    energy_factor: float
    initial_energy: float
    residual_energy: float
    alive: bool
    sensed_value: float
    last_transmitted: float  # NaN until the node first transmits


class NetworkState:
    """Array-backed population of sensor nodes on a square field."""

    def __init__(self, x, y, tier, energy_factor, initial_energy, field_m):
        self.x = x
        self.y = y
        self.tier = tier
        self.energy_factor = energy_factor
        self.initial_energy = initial_energy
        self.residual = initial_energy.copy()
        self.sensed = np.zeros(x.shape[0])
        self.last_tx = np.full(x.shape[0], np.nan)
        self.field_m = float(field_m)
        self.e_total = float(initial_energy.sum())

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def alive_mask(self) -> np.ndarray:
        return self.residual > 0.0

    def alive_count(self) -> int:
        return int(np.count_nonzero(self.residual > 0.0))

    def node(self, i: int) -> NodeState:
        return NodeState(
            node_id=i,
            x=float(self.x[i]),
            y=float(self.y[i]),
            tier=NodeTier(int(self.tier[i])),
            energy_factor=float(self.energy_factor[i]),
            initial_energy=float(self.initial_energy[i]),
            residual_energy=float(self.residual[i]),
            alive=bool(self.residual[i] > 0.0),
            sensed_value=float(self.sensed[i]),
            last_transmitted=float(self.last_tx[i]),
        )

    def consume(self, i: int, amount: float) -> None:
        """Drain `amount` joules from node `i`, flooring at zero.

        Dead nodes are unaffected; a draw that meets or exceeds the
        remaining energy kills the node.
        """
        if amount < 0.0:
            raise ValueError("amount must be >= 0")
        if self.residual[i] <= 0.0:
            return
        left = self.residual[i] - amount
        self.residual[i] = left if left > 0.0 else 0.0


def deploy(
    node_count: int,
    field_m: float,
    initial_energy_j: float,
    rng: np.random.Generator,
    advanced_fraction: float = 0.0,
    advanced_factor: float = 0.0,
    super_fraction: float = 0.0,
    super_factor: float = 0.0,
) -> NetworkState:
    """Place nodes uniformly at random and assign energy tiers.

    Draw order is fixed: one array of x coordinates, then one of y.
    Exactly floor(super_fraction*N) nodes get factor `super_factor` and
    floor(advanced_fraction*N) get `advanced_factor` (assigned by id,
    supers first); the rest are normal.  Node i starts with
    initial_energy_j * (1 + factor_i).  The arguments are used as given:
    `ScenarioConfig` checks their ranges.
    """
    x = rng.random(node_count) * field_m
    y = rng.random(node_count) * field_m

    n_super = int(super_fraction * node_count)
    n_adv = int(advanced_fraction * node_count)
    tier = np.zeros(node_count, np.int64)
    factor = np.zeros(node_count)
    tier[:n_super] = NodeTier.SUPER
    factor[:n_super] = super_factor
    tier[n_super:n_super + n_adv] = NodeTier.ADVANCED
    factor[n_super:n_super + n_adv] = advanced_factor
    initial = initial_energy_j * (1.0 + factor)
    return NetworkState(x, y, tier, factor, initial, field_m)


def sense_environment(net: NetworkState, rng: np.random.Generator) -> None:
    """Draw a fresh uniform reading on [SENSED_MIN, SENSED_MAX] per alive node.

    One uniform is drawn per node id (dead nodes' draws are discarded) so
    the stream position never depends on the death pattern.
    """
    u = rng.random(net.n)
    vals = SENSED_MIN + (SENSED_MAX - SENSED_MIN) * u
    alive = net.residual > 0.0
    net.sensed[alive] = vals[alive]


def assign_clusters(net: NetworkState, ch_ids) -> dict[int, int]:
    """Map every alive non-head node to its nearest cluster head.

    Distance ties break toward the head that appears first in `ch_ids`.
    Returns {member_id: head_id}.
    """
    ch_ids = np.asarray(ch_ids, np.int64)
    if ch_ids.size == 0:
        return {}
    if np.any(net.residual[ch_ids] <= 0.0):
        raise ValueError("cluster heads must be alive")
    idx, _ = _kernels.nearest_site(net.x, net.y, net.x[ch_ids], net.y[ch_ids])
    out: dict[int, int] = {}
    is_ch = np.zeros(net.n, np.bool_)
    is_ch[ch_ids] = True
    alive = net.residual > 0.0
    for i in range(net.n):
        if alive[i] and not is_ch[i]:
            out[i] = int(ch_ids[idx[i]])
    return out
