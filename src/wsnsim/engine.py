"""Per-round simulation engine shared by all five protocols.

Each round runs: sensing draws, head election (free of radio cost),
cluster membership, then the charged data plane in a fixed order --
member transmissions by node id, then head aggregation/forwarding from
the bottom tier up.  Every election yields a list of head tiers; the
flat protocols (LEACH, TEEN, DEEC, CAMP-TEEN) yield a single tier, so
one tier walk forwards for all five.  Every joule leaves through the
residual-energy arrays, so consumed energy always equals the drop in
total residual.

One engine steps a batch of R runs of N nodes (one protocol and sink,
one seed each) as a single population of R*N nodes: run r holds ids
r*N .. r*N+N-1 (`network.stack`).  Runs never interact, and every run
of a batch has the same election probability, epoch, tier count and
sink position in each round, so the elementwise work (sensing, election
masks, the reporting gate, both charging phases) runs once per round on
the stacked arrays.  What stays per run: its generator, membership and
tier routing (a node only joins or relays to a head of its own run),
CAMP-TEEN's cover, DEEC's population terms, and the tallies, which the
engine takes per run from the kernels' per-node outcomes.  A run of one
is the batch of one.

Random draws per round are fixed-size and ordered (sensing, then
election, one array per stage, indexed by node id) so a seed fully
determines a run regardless of who is alive.  A run whose nodes are all
dead draws nothing, and a run that elects no head sends nothing.
"""
from __future__ import annotations

import numpy as np

from . import _kernels
from .energy import EnergyParams, expected_round_energy
from .metrics import RoundMetrics
from .network import NetworkState, sense_environment, stack
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
    nearest_in_run,
    teen_gate_mask,
)
from .sink import SinkMode, SinkState, sink_position

# Mean distance from a uniform point in a square field to its centre,
# as a fraction of half the side length.
MEAN_BS_DISTANCE_FACTOR = 0.765

REACTIVE = (ProtocolKind.TEEN, ProtocolKind.HTEEN, ProtocolKind.CAMPTEEN)


class Engine:
    """Protocol state machine for a batch of runs, each over its own
    deployed network; all networks have the same size and field."""

    def __init__(self, kind: ProtocolKind, cfg: ProtocolConfig,
                 energy: EnergyParams, nets: list[NetworkState]):
        self.kind = kind
        self.cfg = cfg
        self.energy = energy
        bits = energy.packet_bits
        self._e_elec_b = bits * energy.e_elec
        self._e_fs_b = bits * energy.e_fs
        self._e_mp_b = bits * energy.e_mp
        self._e_da_b = bits * energy.e_da
        self._d0sq = energy.d0_sq
        self.nets = list(nets)
        self.net = net = stack(self.nets)
        self.runs = runs = net.runs
        self.size = n = net.run_size
        self._cum_bs = np.zeros(runs, np.int64)
        # one row of draws per run and round: sensing, then each election stage
        stages = 1 + (cfg.hierarchy_layers if kind == ProtocolKind.HTEEN else 1)
        self._draws = np.zeros((runs, stages, n))
        if kind in (ProtocolKind.LEACH, ProtocolKind.TEEN):
            self.tracker = EpochTracker(net.n, cfg.p_opt)
        elif kind == ProtocolKind.HTEEN:
            self.trackers = [EpochTracker(net.n, cfg.layer_p)
                             for _ in range(cfg.hierarchy_layers)]
        elif kind == ProtocolKind.DEEC:
            self.elig = DeecEligibility(net.n)
            clusters = max(1, round(n * cfg.p_opt))
            d_bs = MEAN_BS_DISTANCE_FACTOR * net.field_m / 2.0
            e_round = expected_round_energy(energy, clusters, n, net.field_m, d_bs)
            self.lifetime_estimates = [deec_lifetime_estimate(run.e_total, e_round)
                                       for run in self.nets]

    # -- election ---------------------------------------------------------

    def _elect(self, rnd: int, u: np.ndarray):
        """Returns (head tiers bottom up, CAMP cover or None) for the whole
        batch, from the election draws `u` (one row per stage).

        Flat protocols elect a single tier.
        """
        net = self.net
        if self.kind in (ProtocolKind.LEACH, ProtocolKind.TEEN):
            return [leach_elect_chs(net, self.cfg.p_opt, self.tracker, rnd, u[0])], None
        if self.kind == ProtocolKind.DEEC:
            avg = [deec_average_energy(run.e_total, self.size, rnd, estimate)
                   for run, estimate in zip(self.nets, self.lifetime_estimates)]
            return [deec_elect_chs(net, self.cfg, self.elig, rnd, avg, u[0])], None
        if self.kind == ProtocolKind.HTEEN:
            base = leach_elect_chs(net, self.cfg.layer_p, self.trackers[0], rnd, u[0])
            tiers = hteen_promote_layers(
                net, base, self.cfg.hierarchy_layers, self.trackers,
                self.cfg.layer_p, rnd, u[1:],
            )
            return tiers, None
        ch_ids, ch_of = campteen_elect_chs(net, self.cfg, u[0])
        return [ch_ids], ch_of

    # -- one round --------------------------------------------------------

    def step(self, sinkst: SinkState, rnd: int,
             rngs: list[np.random.Generator]) -> list[RoundMetrics]:
        """One round of every run; `rngs` holds each run's generator.
        Returns each run's RoundMetrics, in run order."""
        net, runs, n = self.net, self.runs, self.size
        per_run = net.residual.reshape(runs, n)
        alive0 = net.residual > 0.0
        live = alive0.reshape(runs, n).any(axis=1)
        if not live.any():
            return [RoundMetrics(rnd, 0, n, 0, 0, 0, cum, 0.0)
                    for cum in self._cum_bs.tolist()]

        before = per_run.sum(axis=1)
        draws = self._draws
        for r in live.nonzero()[0].tolist():
            rngs[r].random(out=draws[r])
        u = draws.transpose(1, 0, 2).reshape(draws.shape[1], net.n)
        sense_environment(net, u[0])
        tiers, camp_cover = self._elect(rnd, u[1:])
        ch_ids = tiers[0]
        head_run = ch_ids // n
        ch_count = np.bincount(head_run, minlength=runs)

        # reporting gates (the election touches none of their inputs); a
        # run without a head sends nothing this round
        if self.kind in REACTIVE:
            gate = teen_gate_mask(net.sensed, net.last_tx, alive0,
                                  self.cfg.hard_threshold, self.cfg.soft_threshold)
        else:
            gate = alive0
        if not ch_count.all():
            gate = (gate.reshape(runs, n) & (ch_count > 0)[:, None]).reshape(-1)

        # membership: CAMP keeps its election-time cover, everyone else
        # joins the nearest head of its run.  The member phase reads
        # `assign` and `d2ch` only for gated nodes, so only gated non-heads
        # are placed.
        if camp_cover is not None:
            assign = camp_cover.copy()
            assign[ch_ids] = -1
            tgt = np.maximum(assign, 0)
            dx = net.x - net.x[tgt]
            dy = net.y - net.y[tgt]
            d2ch = dx * dx + dy * dy
        else:
            assign = np.full(net.n, -1, np.int64)
            d2ch = np.zeros(net.n)
            if ch_ids.size:
                member = gate.copy()
                member[ch_ids] = False
                rows = member.nonzero()[0]
                idx, d2 = nearest_in_run(net, rows, ch_ids)
                assign[rows] = ch_ids[idx]
                d2ch[rows] = d2

        signals = _kernels.member_phase(
            gate, assign, d2ch, net.residual,
            self._e_elec_b, self._e_fs_b, self._e_mp_b, self._d0sq,
        )

        # heads fold in their own reading (always for the proactive
        # protocols, gated for the reactive family)
        if self.kind in REACTIVE:
            own = gate[ch_ids]
            signals[ch_ids] += own
            own_count = np.bincount(head_run[own], minlength=runs)
            sent = gate & (assign >= 0)
            sent[ch_ids[own]] = True
            net.last_tx[sent] = net.sensed[sent]
        else:
            signals[ch_ids] += 1
            own_count = ch_count

        # forward aggregates tier by tier from the bottom up; with a mobile
        # sink any head within `sink_range_m` skips the hierarchy
        sx, sy = sink_position(sinkst, rnd)
        direct_r2 = (self.cfg.sink_range_m * self.cfg.sink_range_m
                     if sinkst.mode == SinkMode.MOBILE_TOP else -np.inf)
        reached = []  # the heads whose packets reached the sink
        for senders, target, tx_d2 in hteen_build_hierarchy(net, tiers, sx, sy, direct_r2):
            to_sink = _kernels.relay_phase(
                senders, signals, net.residual, tx_d2, target,
                self._e_elec_b, self._e_fs_b, self._e_mp_b, self._e_da_b, self._d0sq,
            )
            reached.append(senders[to_sink])
        to_bs = np.bincount(np.concatenate(reached) // n, minlength=runs)

        # every packet a head holds, but its own reading, reached it this round
        to_ch = signals.reshape(runs, n).sum(axis=1) - own_count
        consumed = before - per_run.sum(axis=1)
        alive_end = (per_run > 0.0).sum(axis=1)
        self._cum_bs += to_bs
        return [
            RoundMetrics(round=rnd, alive=a, dead=n - a, ch_count=c, packets_to_ch=tc,
                         packets_to_bs=tb, cum_packets_to_bs=cum, energy_consumed_j=e)
            for a, c, tc, tb, cum, e in zip(
                alive_end.tolist(), ch_count.tolist(), to_ch.tolist(), to_bs.tolist(),
                self._cum_bs.tolist(), consumed.tolist())
        ]
