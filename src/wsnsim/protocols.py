"""Cluster-head election rules for the five protocols.

Each rule is written once, over the whole population, and is the code the
engine runs: LEACH's threshold (`leach_elect_chs`), TEEN's reporting gate
(`teen_gate_mask`), DEEC's energy-weighted probabilities, H-TEEN's tiers
and tier walk, CAMP-TEEN's timer-based cover, and the nearest-head search
behind both cluster membership and the tier walk (`nearest_in_run`,
`nearest_in_columns`).  LEACH's threshold and its rotating epochs, kept by
one tracker class (`EpochTracker`), serve every threshold election: LEACH
and TEEN at p_opt, DEEC (`deec_elect_chs`) at a probability and a personal
epoch per node, and H-TEEN (`hteen_promote_layers`) once per tier,
evaluated only for the ids of the tier below.  H-TEEN's tier walk serves
every tier's relaying heads with one nearest-head search
(`hteen_build_hierarchy`).  DEEC's announced average and the lifetime
estimate it decays over (`deec_lifetime_estimate`, from the radio model's
expected round energy) are derived here too.  The steady-state data plane
that spends energy is in ``engine``.

Every rule takes a `NetworkState` that may stack several runs (see
`network.stack`).  Elementwise rules need nothing more; the rest keep to
each run's own nodes: DEEC's population terms, CAMP-TEEN's timer-keyed
cover, and the nearest next-tier head.
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

    Every node re-enters the eligible set when the round index is a
    multiple of its epoch length, which the election passes each round
    (`start_round`); being elected removes a node until then.
    """

    def __init__(self, n_nodes: int):
        self.eligible = np.ones(n_nodes, np.bool_)

    def start_round(self, rnd: int, epoch):
        """Re-admit the nodes whose epoch starts at `rnd`; returns rnd mod
        epoch.  `epoch` is one length for every node or one per node."""
        rm = rnd % epoch
        if isinstance(rm, np.ndarray):
            self.eligible[rm == 0] = True
        elif rm == 0:
            self.eligible[:] = True
        return rm

    def mark_elected(self, ids) -> None:
        self.eligible[ids] = False


def _threshold_elect(net, p, epoch, tracker, rnd, u, among=None):
    """LEACH's threshold election (see `leach_elect_chs`) at probability
    `p` and epoch length `epoch`: both one value for every node, or both
    one per node (with `among` left at None).  Returns elected ids
    (ascending)."""
    rm = tracker.start_round(rnd, epoch)
    pick = slice(None) if among is None else among
    alive = net.residual[pick] > 0.0
    if not isinstance(p, np.ndarray):
        m = alive.shape[0]
        p, rm = np.full(m, p), np.full(m, float(rm))
    elected = _kernels.election_mask(u[pick], p, rm, tracker.eligible[pick], alive)
    ids = elected.nonzero()[0] if among is None else among[elected]
    tracker.mark_elected(ids)
    return ids


def leach_elect_chs(
    net: NetworkState, p: float, tracker: EpochTracker, rnd: int, u: np.ndarray,
    among: np.ndarray | None = None,
) -> np.ndarray:
    """One round of LEACH's threshold election; returns elected ids (ascending).

    A node is elected when it is alive, among the candidate ids `among`
    (ascending; default: every node), has not served yet in this epoch of
    ceil(1/p) rounds (`tracker`), and its draw `u` is below the threshold
    T = p / (1 - p * (rnd mod epoch)), capped at 1 and taken as 1 once the
    denominator is zero or below, so the epoch's last round elects every
    remaining node.  The threshold is evaluated for the candidates only.
    """
    return _threshold_elect(net, p, math.ceil(1.0 / p), tracker, rnd, u, among)


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


def deec_elect_chs(
    net: NetworkState,
    cfg: ScenarioConfig,
    tracker: EpochTracker,
    rnd: int,
    avg_energy: float,
    u: np.ndarray,
) -> np.ndarray:
    """Energy-weighted threshold election; returns elected ids (ascending).

    LEACH's rule with a probability p_i per node (`deec_probabilities`)
    and a personal epoch of max(floor(1/p_i), 1) rounds.  `avg_energy` is
    the announced average, one for every run of `net` (the runs of a batch
    are deployed from one config).  Each run is weighed against its own
    population.  Reads `cfg.p_opt`.  Once the average has decayed to zero
    the probabilities saturate at 1 (their limiting value), so surviving
    nodes keep electing instead of stalling.  A node whose p_i is 0 (dead,
    or too poor for p_i to be a positive number) is never elected.
    """
    if avg_energy > 0.0:
        p = deec_probabilities(net.residual.reshape(net.runs, -1),
                               net.energy_factor.reshape(net.runs, -1),
                               avg_energy, cfg.p_opt).reshape(-1)
    else:
        p = np.where(net.residual > 0.0, 1.0, 0.0)
    epoch = np.maximum(np.floor(1.0 / np.maximum(p, 1e-300)), 1.0)
    return _threshold_elect(net, p, epoch, tracker, rnd, u)


# ---------------------------------------------------------------------------
# H-TEEN
# ---------------------------------------------------------------------------

def hteen_promote_layers(
    net: NetworkState,
    trackers: list[EpochTracker],
    layer_p: float,
    rnd: int,
    draws: np.ndarray,
) -> list[np.ndarray]:
    """Elect the nested head tiers, one per epoch tracker in `trackers`,
    each by LEACH's rule (`leach_elect_chs`) at `layer_p`: tier 0 among
    every node, tier l+1 among the ids of tier l, with tier l's tracker
    `trackers[l]` and draws `draws[l]`.  So each tier's election sees only
    the heads of the tier below.

    Returns one id array per tier (ascending, each a subset of the previous).
    """
    tiers = [leach_elect_chs(net, layer_p, trackers[0], rnd, draws[0])]
    for level in range(1, len(trackers)):
        tiers.append(leach_elect_chs(net, layer_p, trackers[level], rnd, draws[level],
                                     among=tiers[-1]))
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

    The tiers are nested and ascending, so every head of tier 0 sends in
    exactly one tier, the highest that holds it, found by binary search in
    tier 0: the walk handles all of them at once.  The relaying heads of
    every tier are served by one nearest-head search, with one site column
    per (tier, run): column l * runs + r holds tier l+1's heads in run r.
    """
    size, runs, layers = net.run_size, net.runs, len(tiers)
    heads = tiers[0]
    level = np.zeros(heads.size, np.int64)
    for up in tiers[1:]:
        level[np.searchsorted(heads, up)] += 1
    run = heads // size
    dx = net.x[heads] - sx[run]
    dy = net.y[heads] - sy[run]
    tx_d2 = dx * dx + dy * dy
    targets = np.full(heads.size, -1, np.int64)
    if layers == 1:
        return [(heads, targets, tx_d2)]
    sites = np.concatenate(tiers[1:])
    site_col = np.concatenate([l * runs + up // size for l, up in enumerate(tiers[1:])])
    col = level * runs + run
    # a head whose run's next tier is empty, or that is in the top tier
    # (whose columns hold nothing), sends to the sink
    filled = np.bincount(site_col, minlength=layers * runs) > 0
    relay = (tx_d2 > direct_r2[run]) & filled[col]
    at = relay.nonzero()[0]
    if at.size:
        idx, d2up = nearest_in_columns(net, heads[at], col[at], sites, site_col,
                                       (layers - 1) * runs)
        targets[at] = sites[idx]
        tx_d2[at] = d2up
    # tier by tier, each tier's senders in id order
    order = np.argsort(level, kind="stable")
    heads, targets, tx_d2 = heads[order], targets[order], tx_d2[order]
    ends = np.cumsum(np.bincount(level, minlength=layers)).tolist()
    return [(heads[lo:hi], targets[lo:hi], tx_d2[lo:hi])
            for lo, hi in zip([0] + ends, ends)]


def nearest_in_run(net: NetworkState, points: np.ndarray, sites: np.ndarray):
    """`_kernels.nearest_site` for node ids `points` among node ids `sites`,
    each point searching only the sites of its own run, in one kernel call
    for the whole batch (`nearest_in_columns` with one column per run).

    Both id arrays are ascending.  Returns (index into `sites`, squared
    distance) per point; raises ValueError if a run with a point has no
    site.
    """
    size = net.run_size
    return nearest_in_columns(net, points, points // size, sites, sites // size, net.runs)


def nearest_in_columns(net: NetworkState, points: np.ndarray, point_col: np.ndarray,
                       sites: np.ndarray, site_col: np.ndarray, columns: int):
    """`_kernels.nearest_site` for node ids `points` among node ids `sites`,
    point i searching only the sites in its column `point_col[i]`, in one
    kernel call.

    `site_col` is non-decreasing, and ascending ids within a column.
    Column c's sites fill row c of two (columns, k_max) coordinate tables
    in that order, padded with +inf, and the kernel reads their transposes,
    so its first-index tie rule is the first site in id order; a single
    column is passed as it is.  Returns (index into `sites`, squared
    distance) per point; raises ValueError if a column with a point has no
    site, naming the point's run.
    """
    x, y = net.x, net.y
    if columns == 1:
        idx, d2 = _kernels.nearest_site(x[points], y[points], x[sites], y[sites])
    else:
        count = np.bincount(site_col, minlength=columns)
        first = np.cumsum(count) - count
        shape = (columns, max(int(count.max()), 1))
        slot = (site_col, np.arange(sites.size) - first[site_col])
        sx = np.full(shape, np.inf)
        sy = np.full(shape, np.inf)
        sx[slot] = x[sites]
        sy[slot] = y[sites]
        idx, d2 = _kernels.nearest_site(x[points], y[points], sx.T, sy.T, point_col)
        idx += first[point_col]
    # the kernel leaves d2 at +inf only for a point whose column has no site
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
    run of `net` is covered on its own, on its range graph in `graphs`
    (`campteen_range_graphs`), by `_kernels.cover` keyed by the run's
    timers, so no timer is sorted.  Returns (head ids ascending, ch_of
    array with -1 for dead nodes).
    """
    alive = net.residual > 0.0
    e_norm = np.where(alive, net.residual / net.initial_energy, 1.0)
    # a dead node's timer is never read: the cover is told it is dead
    timer = cfg.camp_timer_k / e_norm - alpha
    size = net.run_size
    ch_of = np.full(net.n, -1, np.int64)
    for r, lo in enumerate(range(0, net.n, size)):
        hi = lo + size
        cover = _kernels.cover(timer[lo:hi], graphs[r], ~alive[lo:hi])
        ch_of[lo:hi] = np.where(cover < 0, -1, cover + lo)
    ids = np.where(ch_of == np.arange(net.n))[0].astype(np.int64)
    return ids, ch_of
