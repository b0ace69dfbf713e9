"""Per-round simulation engine shared by all five protocols.

Each round runs: sensing draws, head election (free of radio cost),
cluster membership, then the charged data plane in a fixed order --
member transmissions by node id, then head aggregation/forwarding from
the bottom tier up.  Every election yields a list of head tiers; the
flat protocols (LEACH, TEEN, DEEC, CAMP-TEEN) yield a single tier, so
one tier walk forwards for all five.  Every joule leaves through the
residual-energy arrays, so consumed energy always equals the drop in
total residual.

Random draws per round are fixed-size and ordered (sensing, then
election, one array per stage, indexed by node id) so a seed fully
determines a run regardless of who is alive.
"""
from __future__ import annotations

import numpy as np

from . import _kernels
from .energy import EnergyParams, expected_round_energy
from .metrics import RoundMetrics
from .network import NetworkState, sense_environment
from .protocols import (
    DeecEligibility,
    EpochTracker,
    ProtocolConfig,
    ProtocolKind,
    campteen_elect_chs,
    deec_average_energy,
    deec_elect_chs,
    deec_lifetime_estimate,
    hteen_build_hierarchy,
    hteen_promote_layers,
    leach_elect_chs,
    teen_gate_mask,
)
from .sink import SinkMode, SinkState, sink_position

# Mean distance from a uniform point in a square field to its centre,
# as a fraction of half the side length.
MEAN_BS_DISTANCE_FACTOR = 0.765

REACTIVE = (ProtocolKind.TEEN, ProtocolKind.HTEEN, ProtocolKind.CAMPTEEN)


class Engine:
    """Protocol state machine for one run over one deployed network."""

    def __init__(self, kind: ProtocolKind, cfg: ProtocolConfig,
                 energy: EnergyParams, net: NetworkState):
        self.kind = kind
        self.cfg = cfg
        self.energy = energy
        bits = energy.packet_bits
        self._e_elec_b = bits * energy.e_elec
        self._e_fs_b = bits * energy.e_fs
        self._e_mp_b = bits * energy.e_mp
        self._e_da_b = bits * energy.e_da
        self._d0sq = energy.d0_sq
        self._cum_bs = 0
        n = net.n
        if kind in (ProtocolKind.LEACH, ProtocolKind.TEEN):
            self.tracker = EpochTracker(n, cfg.p_opt)
        elif kind == ProtocolKind.HTEEN:
            self.trackers = [EpochTracker(n, cfg.layer_p)
                             for _ in range(cfg.hierarchy_layers)]
        elif kind == ProtocolKind.DEEC:
            self.elig = DeecEligibility(n)
            clusters = max(1, round(n * cfg.p_opt))
            d_bs = MEAN_BS_DISTANCE_FACTOR * net.field_m / 2.0
            e_round = expected_round_energy(energy, clusters, n, net.field_m, d_bs)
            self.lifetime_estimate = deec_lifetime_estimate(net.e_total, e_round)

    # -- election ---------------------------------------------------------

    def _elect(self, net: NetworkState, rnd: int, rng: np.random.Generator):
        """Returns (head tiers bottom up, CAMP cover or None).

        Flat protocols elect a single tier.
        """
        n = net.n
        if self.kind in (ProtocolKind.LEACH, ProtocolKind.TEEN):
            u = rng.random(n)
            return [leach_elect_chs(net, self.cfg.p_opt, self.tracker, rnd, u)], None
        if self.kind == ProtocolKind.DEEC:
            u = rng.random(n)
            avg = deec_average_energy(net.e_total, n, rnd, self.lifetime_estimate)
            return [deec_elect_chs(net, self.cfg, self.elig, rnd, avg, u)], None
        if self.kind == ProtocolKind.HTEEN:
            u = rng.random(n)
            draws = rng.random((self.cfg.hierarchy_layers - 1, n))
            base = leach_elect_chs(net, self.cfg.layer_p, self.trackers[0], rnd, u)
            tiers = hteen_promote_layers(
                net, base, self.cfg.hierarchy_layers, self.trackers,
                self.cfg.layer_p, rnd, draws,
            )
            return tiers, None
        alpha = rng.random(n)
        ch_ids, ch_of = campteen_elect_chs(net, self.cfg, alpha)
        return [ch_ids], ch_of

    # -- one round --------------------------------------------------------

    def step(self, net: NetworkState, sinkst: SinkState, rnd: int,
             rng: np.random.Generator) -> RoundMetrics:
        n = net.n
        alive0 = net.residual > 0.0
        n_alive0 = int(np.count_nonzero(alive0))
        if n_alive0 == 0:
            return RoundMetrics(rnd, 0, n, 0, 0, 0, self._cum_bs, 0.0)

        before = float(net.residual.sum())
        sense_environment(net, rng)
        tiers, camp_cover = self._elect(net, rnd, rng)
        ch_ids = tiers[0]

        if ch_ids.size == 0:
            return RoundMetrics(rnd, n_alive0, n - n_alive0, 0, 0, 0, self._cum_bs, 0.0)

        # reporting gates (the election touches none of their inputs)
        if self.kind in REACTIVE:
            gate = teen_gate_mask(net.sensed, net.last_tx, alive0,
                                  self.cfg.hard_threshold, self.cfg.soft_threshold)
        else:
            gate = alive0

        # membership: CAMP keeps its election-time cover, everyone else
        # joins the nearest head.  The member phase reads `assign` and
        # `d2ch` only for gated nodes, so only gated non-heads are placed.
        if camp_cover is not None:
            assign = camp_cover.copy()
            assign[ch_ids] = -1
            tgt = np.maximum(assign, 0)
            dx = net.x - net.x[tgt]
            dy = net.y - net.y[tgt]
            d2ch = dx * dx + dy * dy
        else:
            member = gate.copy()
            member[ch_ids] = False
            rows = member.nonzero()[0]
            idx, d2 = _kernels.nearest_site(net.x[rows], net.y[rows],
                                            net.x[ch_ids], net.y[ch_ids])
            assign = np.full(n, -1, np.int64)
            assign[rows] = ch_ids[idx]
            d2ch = np.zeros(n)
            d2ch[rows] = d2

        signals, to_ch = _kernels.member_phase(
            gate, assign, d2ch, net.residual,
            self._e_elec_b, self._e_fs_b, self._e_mp_b, self._d0sq,
        )

        # heads fold in their own reading (always for the proactive
        # protocols, gated for the reactive family)
        own = gate[ch_ids] if self.kind in REACTIVE else np.ones(ch_ids.size, np.bool_)
        signals[ch_ids] += own

        if self.kind in REACTIVE:
            sent = gate & (assign >= 0)
            sent[ch_ids[own]] = True
            net.last_tx[sent] = net.sensed[sent]

        # forward aggregates tier by tier from the bottom up; with a mobile
        # sink any head within `sink_range_m` skips the hierarchy
        sx, sy = sink_position(sinkst, rnd)
        direct_r2 = (self.cfg.sink_range_m * self.cfg.sink_range_m
                     if sinkst.mode == SinkMode.MOBILE_TOP else -np.inf)
        to_bs = 0
        for senders, target, tx_d2 in hteen_build_hierarchy(net, tiers, sx, sy, direct_r2):
            b, c = _kernels.relay_phase(
                senders, signals, net.residual, tx_d2, target,
                self._e_elec_b, self._e_fs_b, self._e_mp_b, self._e_da_b, self._d0sq,
            )
            to_bs += b
            to_ch += c

        after = float(net.residual.sum())
        alive_end = net.alive_count()
        self._cum_bs += to_bs
        return RoundMetrics(
            round=rnd, alive=alive_end, dead=n - alive_end,
            ch_count=int(ch_ids.size), packets_to_ch=to_ch, packets_to_bs=to_bs,
            cum_packets_to_bs=self._cum_bs, energy_consumed_j=before - after,
        )
