"""Cluster-head election rules for the five protocols.

Each rule is written once, over the whole population, and is the code the
engine runs: LEACH's threshold (`leach_elect_chs`), TEEN's reporting gate
(`teen_gate_mask`), DEEC's energy-weighted probabilities and personal
epochs, H-TEEN's layer promotion and tier walk, CAMP-TEEN's timer-based
cover, and the nearest-head search behind both cluster membership and the
tier walk (`nearest_in_run`).  The steady-state data plane that spends
energy is in ``engine``.

Every rule takes a `NetworkState` that may stack several runs (see
`network.stack`).  Elementwise rules need nothing more; the rest keep to
each run's own nodes: DEEC's population terms, CAMP-TEEN's timer order
and cover, and the nearest next-tier head.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from . import _kernels
from .network import NetworkState


class ProtocolKind(IntEnum):
    LEACH = 0
    TEEN = 1
    DEEC = 2
    HTEEN = 3
    CAMPTEEN = 4

    @classmethod
    def parse(cls, name: str) -> "ProtocolKind":
        key = name.strip().upper().replace("-", "").replace("_", "")
        for kind in cls:
            if kind.name == key:
                return kind
        raise ValueError(f"unknown protocol: {name!r}")


@dataclass
class ProtocolConfig:
    """Per-protocol tunables; only the fields a protocol reads matter to it."""

    p_opt: float = 0.1
    hard_threshold: float = 100.0
    soft_threshold: float = 2.0
    hierarchy_layers: int = 3          # CH tiers above the member layer
    layer_p: float = 0.1               # head fraction at each tier
    timer_k: float = 1.0
    comm_range_m: float = 25.0
    sink_range_m: float = 25.0         # mobile sink short-circuit radius
    advanced_fraction: float = 0.0
    advanced_factor: float = 0.0
    super_fraction: float = 0.0
    super_factor: float = 0.0


def epoch_length(p: float) -> int:
    """Rounds per eligibility epoch for head fraction `p`."""
    return math.ceil(1.0 / p)


class EpochTracker:
    """Tracks which nodes may still become head in the current epoch.

    Every node re-enters the eligible set when the round index is a
    multiple of the epoch length; being elected removes a node until then.
    """

    def __init__(self, n_nodes: int, p: float):
        self.p = p
        self.epoch = epoch_length(p)
        self.eligible = np.ones(n_nodes, np.bool_)

    def start_round(self, rnd: int) -> None:
        if rnd % self.epoch == 0:
            self.eligible[:] = True

    def mark_elected(self, ids) -> None:
        self.eligible[ids] = False


def leach_elect_chs(
    net: NetworkState, p: float, tracker: EpochTracker, rnd: int, u: np.ndarray
) -> np.ndarray:
    """One round of LEACH's threshold election; returns elected ids (ascending).

    A node is elected when it is alive, has not served yet in this epoch
    (`tracker`), and its draw `u` is below the threshold
    T = p / (1 - p * (rnd mod epoch)), capped at 1 and taken as 1 once the
    denominator is zero or below, so the epoch's last round elects every
    remaining node.
    """
    tracker.start_round(rnd)
    rm = float(rnd % tracker.epoch)
    n = net.n
    elected = _kernels.election_mask(
        u, np.full(n, p), np.full(n, rm), tracker.eligible, net.residual > 0.0
    )
    ids = np.where(elected)[0].astype(np.int64)
    tracker.mark_elected(ids)
    return ids


def teen_gate_mask(sensed, last_tx, alive, hard: float, soft: float) -> np.ndarray:
    """TEEN's reactive gate, one flag per node: an alive node reports a
    reading `sensed` at or above `hard` the first time (its `last_tx` is
    NaN until it first reports), and afterwards only when the reading has
    moved by at least `soft` from the last value it reported."""
    first = np.isnan(last_tx)
    moved = np.abs(sensed - last_tx) >= soft
    return alive & (sensed >= hard) & (first | moved)


# ---------------------------------------------------------------------------
# DEEC
# ---------------------------------------------------------------------------

def deec_average_energy(e_total: float, nodes: int, rnd: int, lifetime_estimate: float) -> float:
    """Announced per-node average energy at round `rnd`.

    Declines linearly from e_total/nodes to zero over the estimated
    lifetime; floored at zero afterwards.
    """
    if nodes < 1:
        raise ValueError("nodes must be >= 1")
    if lifetime_estimate <= 0.0:
        raise ValueError("lifetime_estimate must be positive")
    if rnd < 0:
        raise ValueError("round must be >= 0")
    val = (e_total / nodes) * (1.0 - rnd / lifetime_estimate)
    return val if val > 0.0 else 0.0


def deec_lifetime_estimate(e_total: float, e_round: float) -> float:
    """Rounds the network can sustain at `e_round` joules per round."""
    if e_total <= 0.0 or e_round <= 0.0:
        raise ValueError("energies must be positive")
    return e_total / e_round


def deec_probabilities(
    residual: np.ndarray,
    energy_factor: np.ndarray,
    avg_energy: float,
    p_opt: float,
    multi_level: bool,
) -> np.ndarray:
    """Per-node election probability weighted by residual energy.

    Two-level form splits normal/advanced nodes via the population's
    advanced fraction; the multi-level form weights each node by its own
    (1 + a_i) against the population total.  Clamped to [0, 1]; dead
    nodes get 0.  Arrays of shape (R, N) hold R populations, one per row,
    each weighed against its own totals; `avg_energy` may then hold one
    value per row, shaped (R, 1).
    """
    if (np.asarray(avg_energy) <= 0.0).any():
        raise ValueError("avg_energy must be positive")
    if not 0.0 < p_opt <= 1.0:
        raise ValueError("p_opt must be in (0, 1]")
    n = residual.shape[-1]
    if multi_level:
        weight = n * (1.0 + energy_factor) / (n + energy_factor.sum(axis=-1, keepdims=True))
    else:
        adv = energy_factor > 0.0
        count = np.count_nonzero(adv, axis=-1, keepdims=True)
        first = np.take_along_axis(energy_factor, np.argmax(adv, axis=-1, keepdims=True), -1)
        a = np.where(count > 0, first, 0.0)
        weight = np.where(adv, 1.0 + a, 1.0) / (1.0 + a * (count / n))
    p = p_opt * weight * residual / avg_energy
    p[residual <= 0.0] = 0.0
    return np.clip(p, 0.0, 1.0)


class DeecEligibility:
    """Per-node epochs: node i re-enters the pool every floor(1/p_i) rounds."""

    def __init__(self, n_nodes: int):
        self.eligible = np.ones(n_nodes, np.bool_)

    def start_round(self, rnd: int, p: np.ndarray) -> np.ndarray:
        """Re-admit the nodes whose epoch starts at `rnd`; returns every
        node's epoch length max(floor(1/p_i), 1)."""
        with np.errstate(divide="ignore"):
            inv = np.floor(1.0 / np.maximum(p, 1e-300))
        ep = np.maximum(inv, 1.0)
        reset = (rnd % ep) == 0
        self.eligible[reset & (p > 0.0)] = True
        return ep

    def mark_elected(self, ids) -> None:
        self.eligible[ids] = False


def deec_elect_chs(
    net: NetworkState,
    cfg: ProtocolConfig,
    elig: DeecEligibility,
    rnd: int,
    avg_energy: float,
    u: np.ndarray,
) -> np.ndarray:
    """Energy-weighted threshold election; returns elected ids (ascending).

    `avg_energy` is the announced average, one for every run of `net` or
    one per run.  When a run's average has decayed to zero its
    probabilities saturate at 1 (their limiting value), so surviving nodes
    keep electing instead of stalling.
    """
    alive = net.residual > 0.0
    residual = net.residual.reshape(net.runs, -1)
    avg = np.asarray(avg_energy, np.float64).reshape(-1, 1)
    live = avg > 0.0

    def weighted(announced):
        return deec_probabilities(residual, net.energy_factor.reshape(net.runs, -1),
                                  announced, cfg.p_opt, multi_level=cfg.super_fraction > 0.0)

    if live.all():
        p = weighted(avg)
    else:
        p = np.where(residual > 0.0, 1.0, 0.0)
        if live.any():
            p = np.where(live, weighted(np.where(live, avg, 1.0)), p)
    p = p.reshape(-1)
    ep = elig.start_round(rnd, p)
    rm = np.where(p > 0.0, rnd % ep, 0.0)
    elected = _kernels.election_mask(u, p, rm, elig.eligible, alive)
    ids = np.where(elected)[0].astype(np.int64)
    elig.mark_elected(ids)
    return ids


# ---------------------------------------------------------------------------
# H-TEEN
# ---------------------------------------------------------------------------

def hteen_promote_layers(
    net: NetworkState,
    base_ch_ids: np.ndarray,
    layers: int,
    trackers: list[EpochTracker],
    layer_p: float,
    rnd: int,
    draws: np.ndarray,
) -> list[np.ndarray]:
    """Build the nested head tiers: tier l+1 heads are elected among tier l.

    `draws` holds one uniform array per promotion stage.  Returns one id
    array per tier (ascending, each a subset of the previous).
    """
    if layers < 1:
        raise ValueError("layers must be >= 1")
    tiers = [np.asarray(base_ch_ids, np.int64)]
    for level in range(1, layers):
        tracker = trackers[level]
        tracker.start_round(rnd)
        prev = tiers[-1]
        candidate = np.zeros(net.n, np.bool_)
        candidate[prev] = True
        rm = float(rnd % tracker.epoch)
        elected = _kernels.election_mask(
            draws[level - 1],
            np.full(net.n, layer_p),
            np.full(net.n, rm),
            tracker.eligible & candidate,
            net.residual > 0.0,
        )
        ids = np.where(elected)[0].astype(np.int64)
        tracker.mark_elected(ids)
        tiers.append(ids)
    return tiers


def hteen_build_hierarchy(
    net: NetworkState, tiers: list[np.ndarray], sx: float, sy: float, direct_r2: float
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Route every head one hop up the tier hierarchy, bottom tier first.

    Returns one (senders, targets, tx_d2) triple per tier.  A tier's
    senders are its heads not promoted to the next tier (ascending); each
    targets its nearest next-tier head, or the sink (-1) when the next
    tier is empty, the head is in the top tier, or its squared distance
    to the sink at (sx, sy) is within `direct_r2`.  A flat protocol is a
    single tier, so all of its heads target the sink.
    """
    hops = []
    size = net.run_size
    for ids, up in zip(tiers, tiers[1:] + [np.empty(0, np.int64)]):
        promoted = np.zeros(net.n, np.bool_)
        promoted[up] = True
        senders = ids[~promoted[ids]]
        dx = net.x[senders] - sx
        dy = net.y[senders] - sy
        tx_d2 = dx * dx + dy * dy
        targets = np.full(senders.size, -1, np.int64)
        if up.size:
            relay = tx_d2 > direct_r2
            if net.runs > 1:  # a run whose next tier is empty sends to the sink
                relay &= np.bincount(up // size, minlength=net.runs)[senders // size] > 0
            via = senders[relay]
            idx, d2up = nearest_in_run(net, via, up)
            targets[relay] = up[idx]
            tx_d2[relay] = d2up
        hops.append((senders, targets, tx_d2))
    return hops


def nearest_in_run(net: NetworkState, points: np.ndarray, sites: np.ndarray):
    """`_kernels.nearest_site` for node ids `points` among node ids `sites`,
    each point searching only the sites of its own run.

    Both id arrays are ascending, and every run with a point has a site.
    Returns (index into `sites`, squared distance) per point.
    """
    x, y = net.x, net.y
    if net.runs == 1:
        return _kernels.nearest_site(x[points], y[points], x[sites], y[sites])
    bounds = np.arange(net.runs + 1) * net.run_size
    pcut = np.searchsorted(points, bounds).tolist()
    scut = np.searchsorted(sites, bounds).tolist()
    px, py, sx, sy = x[points], y[points], x[sites], y[sites]
    idx = np.empty(points.size, np.int64)
    d2 = np.empty(points.size)
    for a, b, s0, s1 in zip(pcut, pcut[1:], scut, scut[1:]):
        if a < b:
            i, d2[a:b] = _kernels.nearest_site(px[a:b], py[a:b], sx[s0:s1], sy[s0:s1])
            idx[a:b] = i + s0
    return idx, d2


# ---------------------------------------------------------------------------
# CAMP-TEEN
# ---------------------------------------------------------------------------

def campteen_elect_chs(
    net: NetworkState, cfg: ProtocolConfig, alpha: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Timer-ordered greedy cover of the range graph.

    Each alive node's back-off timer is timer_k / E - alpha, with E its
    residual over its initial energy, so richer nodes fire earlier.  Nodes
    fire by ascending timer (ties by id); a node out of range of
    every elected head becomes one and captures its uncovered neighbours.
    Each run of `net` is ordered and covered on its own.
    Returns (head ids ascending, ch_of array with -1 for dead nodes).
    """
    alive = net.residual > 0.0
    e_norm = np.where(alive, net.residual / net.initial_energy, 1.0)
    timer = cfg.timer_k / e_norm - alpha
    timer = np.where(alive, timer, np.inf).reshape(net.runs, -1)
    # dead nodes' infinite timers sort last, after the finite ones
    orders = np.argsort(timer, axis=1, kind="stable").astype(np.int64)
    finite = np.count_nonzero(np.isfinite(timer), axis=1).tolist()
    size = net.run_size
    ch_of = np.full(net.n, -1, np.int64)
    for r, k in enumerate(finite):
        if k:
            lo, hi = r * size, (r + 1) * size
            cover = _kernels.greedy_cover(orders[r, :k], net.x[lo:hi], net.y[lo:hi],
                                          ~alive[lo:hi], cfg.comm_range_m * cfg.comm_range_m)
            ch_of[lo:hi] = np.where(cover < 0, -1, cover + lo)
    ids = np.where(ch_of == np.arange(net.n))[0].astype(np.int64)
    return ids, ch_of
