"""Cluster-head election rules for the five protocols.

Each rule is written once, over the whole population, and is the code the
engine runs: LEACH's threshold (`leach_elect_chs`), TEEN's reporting gate
(`teen_gate_mask`), DEEC's energy-weighted probabilities and personal
epochs, H-TEEN's tiers and tier walk, CAMP-TEEN's timer-based cover, and
the nearest-head search behind both cluster membership and the tier walk
(`nearest_in_run`).  H-TEEN elects each tier by LEACH's rule, among the
heads of the tier below (`hteen_promote_layers`).  DEEC's announced
average and the lifetime estimate it decays over (`deec_lifetime_estimate`,
from the radio model's expected round energy) are derived here too.  The
steady-state data plane that spends energy is in ``engine``.

Every rule takes a `NetworkState` that may stack several runs (see
`network.stack`).  Elementwise rules need nothing more; the rest keep to
each run's own nodes: DEEC's population terms, CAMP-TEEN's timer order
and cover, and the nearest next-tier head.
"""
from __future__ import annotations

import math
from enum import IntEnum
from typing import TYPE_CHECKING

import numpy as np

from . import _kernels
from .network import NetworkState

if TYPE_CHECKING:
    from .config import ScenarioConfig


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


class EpochTracker:
    """Tracks which nodes may still become head in the current epoch.

    An epoch lasts ceil(1/p) rounds (`epoch`).  Every node re-enters the
    eligible set when the round index is a multiple of the epoch length;
    being elected removes a node until then.
    """

    def __init__(self, n_nodes: int, p: float):
        self.p = p
        self.epoch = math.ceil(1.0 / p)
        self.eligible = np.ones(n_nodes, np.bool_)

    def start_round(self, rnd: int) -> None:
        if rnd % self.epoch == 0:
            self.eligible[:] = True

    def mark_elected(self, ids) -> None:
        self.eligible[ids] = False


def leach_elect_chs(
    net: NetworkState, p: float, tracker: EpochTracker, rnd: int, u: np.ndarray,
    among: np.ndarray | None = None,
) -> np.ndarray:
    """One round of LEACH's threshold election; returns elected ids (ascending).

    A node is elected when it is alive, in the boolean mask `among` (default:
    every node), has not served yet in this epoch (`tracker`), and its draw
    `u` is below the threshold T = p / (1 - p * (rnd mod epoch)), capped at 1
    and taken as 1 once the denominator is zero or below, so the epoch's
    last round elects every remaining node.
    """
    tracker.start_round(rnd)
    rm = float(rnd % tracker.epoch)
    n = net.n
    eligible = tracker.eligible if among is None else tracker.eligible & among
    elected = _kernels.election_mask(
        u, np.full(n, p), np.full(n, rm), eligible, net.residual > 0.0
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
    val = (e_total / nodes) * (1.0 - rnd / lifetime_estimate)
    return val if val > 0.0 else 0.0


# Mean distance from a uniform point in a square field to its centre,
# as a fraction of half the side length.
MEAN_BS_DISTANCE_FACTOR = 0.765


def expected_round_energy(cfg: ScenarioConfig, clusters: int, d_to_bs: float) -> float:
    """Expected network energy drained in one round with `clusters` heads,
    under the first-order radio model (see `_kernels`).

    Sums member electronics, aggregation, the heads' multipath hops to the
    sink, and the members' free-space hops to their head, using the mean
    member-to-head distance field_m / sqrt(2 * pi * clusters).
    """
    nodes, field_m = cfg.nodes, cfg.field_m
    d_to_ch_sq = field_m * field_m / (2.0 * math.pi * clusters)
    return cfg.packet_bits * (
        2.0 * nodes * cfg.e_elec_j
        + nodes * cfg.e_da_j
        + clusters * cfg.e_mp_j * d_to_bs ** 4
        + nodes * cfg.e_fs_j * d_to_ch_sq
    )


def deec_lifetime_estimate(cfg: ScenarioConfig, net: NetworkState) -> float:
    """Rounds that `net`, one run deployed from `cfg`, can sustain at the
    expected round energy of round(nodes * p_opt) heads (at least one), with
    the sink MEAN_BS_DISTANCE_FACTOR * field_m / 2 from them."""
    clusters = max(1, round(cfg.nodes * cfg.p_opt))
    d_bs = MEAN_BS_DISTANCE_FACTOR * cfg.field_m / 2.0
    return net.e_total / expected_round_energy(cfg, clusters, d_bs)


def deec_probabilities(
    residual: np.ndarray,
    energy_factor: np.ndarray,
    avg_energy: float,
    p_opt: float,
) -> np.ndarray:
    """Per-node election probability weighted by residual energy.

    Each node is weighed by its own (1 + a_i) against the population
    total, n * (1 + a_i) / (n + sum a): DEEC's multi-level form, which
    also covers a population with one advanced level.  Clamped to [0, 1]; dead
    nodes get 0.  Arrays of shape (R, N) hold R populations, one per row,
    each weighed against its own totals.  `avg_energy` is positive and
    `p_opt` in (0, 1], as `deec_elect_chs` passes them.
    """
    n = residual.shape[-1]
    weight = n * (1.0 + energy_factor) / (n + energy_factor.sum(axis=-1, keepdims=True))
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
    cfg: ScenarioConfig,
    elig: DeecEligibility,
    rnd: int,
    avg_energy: float,
    u: np.ndarray,
) -> np.ndarray:
    """Energy-weighted threshold election; returns elected ids (ascending).

    `avg_energy` is the announced average, one for every run of `net` (the
    runs of a batch are deployed from one config).  Each run is weighed
    against its own population (`deec_probabilities`).  Reads `cfg.p_opt`.
    Once the average has decayed to zero the probabilities saturate at 1
    (their limiting value), so surviving nodes keep electing instead of
    stalling.
    """
    alive = net.residual > 0.0
    if avg_energy > 0.0:
        p = deec_probabilities(net.residual.reshape(net.runs, -1),
                               net.energy_factor.reshape(net.runs, -1),
                               avg_energy, cfg.p_opt).reshape(-1)
    else:
        p = np.where(alive, 1.0, 0.0)
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
    layers: int,
    trackers: list[EpochTracker],
    layer_p: float,
    rnd: int,
    draws: np.ndarray,
) -> list[np.ndarray]:
    """Elect the nested head tiers, each by LEACH's rule (`leach_elect_chs`)
    at `layer_p`: tier 0 among every node, tier l+1 among the heads of tier
    l, with tier l's epoch tracker `trackers[l]` and draws `draws[l]`.

    Returns one id array per tier (ascending, each a subset of the previous).
    """
    tiers = [leach_elect_chs(net, layer_p, trackers[0], rnd, draws[0])]
    for level in range(1, layers):
        heads = np.zeros(net.n, np.bool_)
        heads[tiers[-1]] = True
        tiers.append(leach_elect_chs(net, layer_p, trackers[level], rnd, draws[level],
                                     among=heads))
    return tiers


def hteen_build_hierarchy(
    net: NetworkState, tiers: list[np.ndarray], sx: np.ndarray, sy: np.ndarray,
    direct_r2: np.ndarray,
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Route every head one hop up the tier hierarchy, bottom tier first.

    Returns one (senders, targets, tx_d2) triple per tier.  A tier's
    senders are its heads not promoted to the next tier (ascending); each
    targets its nearest next-tier head, or the sink (-1) when the next
    tier is empty, the head is in the top tier, or its squared distance
    to its run's sink is within its run's `direct_r2`.  `sx`, `sy` and
    `direct_r2` are arrays with one value per run of `net`: the sink's
    coordinates and the squared short-circuit radius.  A flat protocol is
    a single tier, so all of its heads target the sink.
    """
    hops = []
    size = net.run_size
    for ids, up in zip(tiers, tiers[1:] + [np.empty(0, np.int64)]):
        promoted = np.zeros(net.n, np.bool_)
        promoted[up] = True
        senders = ids[~promoted[ids]]
        run = senders // size
        dx = net.x[senders] - sx[run]
        dy = net.y[senders] - sy[run]
        tx_d2 = dx * dx + dy * dy
        targets = np.full(senders.size, -1, np.int64)
        if up.size:
            relay = tx_d2 > direct_r2[run]
            # a run whose next tier is empty sends to the sink
            relay &= np.bincount(up // size, minlength=net.runs)[run] > 0
            via = senders[relay]
            idx, d2up = nearest_in_run(net, via, up)
            targets[relay] = up[idx]
            tx_d2[relay] = d2up
        hops.append((senders, targets, tx_d2))
    return hops


def nearest_in_run(net: NetworkState, points: np.ndarray, sites: np.ndarray):
    """`_kernels.nearest_site` for node ids `points` among node ids `sites`,
    each point searching only the sites of its own run, in one kernel call
    for the whole batch.

    Both id arrays are ascending.  Run r's sites fill column r of two
    (k_max, runs) coordinate tables in id order, padded with +inf, so the
    kernel's first-index tie rule is the first site in id order; a batch
    of one run passes its sites as they are.  Returns (index into `sites`,
    squared distance) per point; raises ValueError if a run with a point
    has no site.
    """
    x, y = net.x, net.y
    if net.runs == 1:
        idx, d2 = _kernels.nearest_site(x[points], y[points], x[sites], y[sites])
    else:
        site_run = sites // net.run_size
        count = np.bincount(site_run, minlength=net.runs)
        first = np.cumsum(count) - count
        shape = (max(int(count.max()), 1), net.runs)
        slot = (np.arange(sites.size) - first[site_run], site_run)
        sx = np.full(shape, np.inf)
        sy = np.full(shape, np.inf)
        sx[slot] = x[sites]
        sy[slot] = y[sites]
        run = points // net.run_size
        idx, d2 = _kernels.nearest_site(x[points], y[points], sx, sy, run)
        idx += first[run]
    # the kernel leaves d2 at +inf only for a point whose run has no site
    if d2.size and d2.max() == np.inf:
        bad = points[np.argmax(d2 == np.inf)] // net.run_size
        raise ValueError(f"nearest_in_run: run {bad} has points but no site")
    return idx, d2


# ---------------------------------------------------------------------------
# CAMP-TEEN
# ---------------------------------------------------------------------------

def campteen_range_graphs(net: NetworkState, cfg: ScenarioConfig) -> list[np.ndarray]:
    """Each run's range graph (`_kernels.range_graph`) at squared range
    `camp_comm_range_m`, one N x N boolean array per run of `net`.  Nodes
    never move, so a run's graph holds for all of its rounds."""
    range2 = cfg.camp_comm_range_m * cfg.camp_comm_range_m
    size = net.run_size
    return [_kernels.range_graph(net.x[lo:lo + size], net.y[lo:lo + size], range2)
            for lo in range(0, net.n, size)]


def campteen_elect_chs(
    net: NetworkState, cfg: ScenarioConfig, alpha: np.ndarray, graphs: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Timer-ordered greedy cover of the range graph.

    Each alive node's back-off timer is camp_timer_k / E - alpha, with E its
    residual over its initial energy, so richer nodes fire earlier.  Nodes
    fire by ascending timer (ties by id); a node out of range of every
    elected head becomes one and captures its uncovered neighbours.  Each
    run of `net` is ordered and covered on its own, on its range graph in
    `graphs` (`campteen_range_graphs`).  Returns (head ids ascending, ch_of
    array with -1 for dead nodes).
    """
    alive = net.residual > 0.0
    e_norm = np.where(alive, net.residual / net.initial_energy, 1.0)
    timer = cfg.camp_timer_k / e_norm - alpha
    timer = np.where(alive, timer, np.inf).reshape(net.runs, -1)
    # dead nodes' infinite timers sort last, after the finite ones
    orders = np.argsort(timer, axis=1, kind="stable").astype(np.int64)
    finite = np.count_nonzero(np.isfinite(timer), axis=1).tolist()
    size = net.run_size
    ch_of = np.full(net.n, -1, np.int64)
    for r, k in enumerate(finite):
        if k:
            lo, hi = r * size, (r + 1) * size
            cover = _kernels.cover(orders[r, :k], graphs[r], ~alive[lo:hi])
            ch_of[lo:hi] = np.where(cover < 0, -1, cover + lo)
    ids = np.where(ch_of == np.arange(net.n))[0].astype(np.int64)
    return ids, ch_of
