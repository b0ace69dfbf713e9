"""Node population state: deployment, stacking and sensing.

State is held as parallel arrays indexed by node id.  A node is alive
exactly while its residual energy is positive; death is permanent because
every charge path (the charging kernels in `_kernels`) floors at zero and
skips dead nodes.  Cluster membership is found per round by the engine
(`protocols.nearest_in_run`).

Runs of equal size can be stacked into one population (`stack`): run r's
node i becomes node r*N + i, so the runs occupy disjoint id ranges and
elementwise work over the stack is the same work done per run.
"""
from __future__ import annotations

import numpy as np

SENSED_MIN = 0.0
SENSED_MAX = 200.0


# the per-node arrays of a NetworkState
_NODE_ARRAYS = ("x", "y", "energy_factor", "initial_energy", "residual",
                "sensed", "last_tx")


class NetworkState:
    """Array-backed population of sensor nodes on a square field.

    `runs` is the number of equal runs stacked into it (see `stack`).
    """

    def __init__(self, x, y, energy_factor, initial_energy):
        self.runs = 1
        self.x = x
        self.y = y
        self.energy_factor = energy_factor
        self.initial_energy = initial_energy
        self.residual = initial_energy.copy()
        self.sensed = np.zeros(x.shape[0])
        self.last_tx = np.full(x.shape[0], np.nan)
        self.e_total = float(initial_energy.sum())

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def run_size(self) -> int:
        """Nodes per stacked run."""
        return self.x.shape[0] // self.runs


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
    factor = np.zeros(node_count)
    factor[:n_super] = super_factor
    factor[n_super:n_super + n_adv] = advanced_factor
    initial = initial_energy_j * (1.0 + factor)
    return NetworkState(x, y, factor, initial)


def stack(nets: list[NetworkState]) -> NetworkState:
    """The runs `nets`, all of one size on one field, as one population.

    Run r's node i is node r*N + i of the stack.  Every array of each run is
    rebound to its slice of the stack's array, so a run keeps reading its
    own nodes while the stack is stepped.  A single run is its own stack.
    """
    if len(nets) == 1:
        return nets[0]
    size = nets[0].n
    whole = {name: np.concatenate([getattr(net, name) for net in nets])
             for name in _NODE_ARRAYS}
    out = NetworkState(whole["x"], whole["y"], whole["energy_factor"],
                       whole["initial_energy"])
    out.runs = len(nets)
    for name, array in whole.items():
        setattr(out, name, array)
        for r, net in enumerate(nets):
            setattr(net, name, array[r * size:(r + 1) * size])
    return out


def sense_environment(net: NetworkState, u: np.ndarray) -> None:
    """Turn one uniform draw per node id into a reading on
    [SENSED_MIN, SENSED_MAX] for every alive node.

    Dead nodes' draws are discarded, so a run's stream position never
    depends on its death pattern.
    """
    vals = SENSED_MIN + (SENSED_MAX - SENSED_MIN) * u
    alive = net.residual > 0.0
    net.sensed[alive] = vals[alive]
