"""Per-round simulation engine shared by all five protocols.

Each round runs: sensing draws, head election (free of radio cost),
cluster membership, then the charged data plane in a fixed order --
member transmissions by node id, then head aggregation/forwarding from
the bottom tier up.  Every election yields a list of head tiers; the
flat protocols (LEACH, TEEN, DEEC, CAMP-TEEN) yield a single tier, and
H-TEEN one LEACH election per tier, each among the heads of the tier
below, so one tier walk forwards for all five.  LEACH, TEEN, DEEC and
H-TEEN elect by one threshold rule, each election stage with its own
epoch tracker (`protocols.EpochTracker`), kept in one list.  Every joule
leaves through the residual-energy arrays, so consumed energy always
equals the drop in total residual.

One engine steps a batch of R runs of N nodes (one protocol; each run
with its own sink and seed) as a single population of R*N nodes: run r
holds ids r*N .. r*N+N-1 (`network.stack`).  Runs never interact, and
every run of a batch has the same election probability, epoch and tier
count in each round, so the elementwise work (sensing, election masks,
the reporting gate, both charging phases) runs once per round on the
stacked arrays.  Every run is deployed from the batch's config, so all
start with the same total energy, and DEEC announces one average per
round for the whole batch.  What stays per run: its generator, its sink
(position and short-circuit radius, read per head by the tier walk),
membership and tier routing (a node only joins or relays to a head of
its own run), CAMP-TEEN's range graph (N x N booleans, built once at
construction, as nodes never move) and the cover read from it each
round, keyed by the run's timers, DEEC's population terms (each node
weighed against its own run's tiers), and its row of the batch's round
record (`metrics.ROUND_RECORD`, one row per run and one column per
round), which each round fills from the kernels' per-node outcomes.  A
run of one is the batch of one.  Nearest-head lookups take two kernel
calls per round for the whole batch: one for membership, and one for
every tier of the tier walk together.

Every run of a batch reads one validated `ScenarioConfig`: the engine
derives the per-packet radio charges and the amplifier crossover from it
once, and picks the reporting thresholds of its protocol (H-TEEN's and
CAMP-TEEN's own pairs, the plain pair otherwise).

Random draws per round are fixed-size and ordered (sensing, then
election, one array per stage, indexed by node id) so a seed fully
determines a run regardless of who is alive.  A run whose nodes are all
dead draws nothing, and a run that elects no head sends nothing.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from . import _kernels
from .metrics import ROUND_RECORD
from .network import NetworkState, sense_environment, stack
from .protocols import (
    EpochTracker,
    ProtocolKind,
    campteen_elect_chs,
    campteen_range_graphs,
    deec_average_energy,
    deec_elect_chs,
    deec_lifetime_estimate,
    hteen_build_hierarchy,
    hteen_promote_layers,
    leach_elect_chs,
    nearest_in_run,
    teen_gate_mask,
)
from .sink import SinkMode, sink_position

if TYPE_CHECKING:
    from .config import ScenarioConfig

REACTIVE = (ProtocolKind.TEEN, ProtocolKind.HTEEN, ProtocolKind.CAMPTEEN)


class Engine:
    """Protocol state machine for a batch of runs, each over its own
    deployed network and toward a sink of its own mode (`modes`, one per
    network); all networks are deployed from `cfg`, so they share its
    size, field and energy tiers."""

    def __init__(self, kind: ProtocolKind, cfg: ScenarioConfig,
                 nets: list[NetworkState], modes: list[SinkMode]):
        self.kind = kind
        self.cfg = cfg
        bits = cfg.packet_bits
        self._e_elec_b = bits * cfg.e_elec_j
        self._e_fs_b = bits * cfg.e_fs_j
        self._e_mp_b = bits * cfg.e_mp_j
        self._e_da_b = bits * cfg.e_da_j
        self._d0sq = cfg.e_fs_j / cfg.e_mp_j  # squared amplifier crossover d0
        if kind == ProtocolKind.HTEEN:
            self._gate = (cfg.hteen_hard_threshold, cfg.hteen_soft_threshold)
        elif kind == ProtocolKind.CAMPTEEN:
            self._gate = (cfg.camp_hard_threshold, cfg.camp_soft_threshold)
        else:
            self._gate = (cfg.hard_threshold, cfg.soft_threshold)
        self.nets = list(nets)
        self.net = net = stack(self.nets)
        self.runs = runs = net.runs
        self.size = n = net.run_size
        # the batch's round record: step(rnd) writes column rnd, and a
        # column left at zero is the round of an extinct batch
        self.record = np.zeros((runs, cfg.rounds), ROUND_RECORD)
        # each run's sink: a static one stays where round 0 puts it, a
        # mobile one moves each round and short-circuits heads within
        # `sink_range_m`
        at_start = [sink_position(cfg, mode, 0) for mode in modes]
        self._sink_x = np.array([x for x, _ in at_start])
        self._sink_y = np.array([y for _, y in at_start])
        self._mobile = np.flatnonzero([mode == SinkMode.MOBILE_TOP for mode in modes])
        r2 = cfg.sink_range_m * cfg.sink_range_m
        self._direct_r2 = np.array([r2 if mode == SinkMode.MOBILE_TOP else -np.inf
                                    for mode in modes])
        # one row of draws per run and round: sensing, then each election
        # stage, and one epoch tracker per stage (CAMP-TEEN's cover reads none)
        stages = cfg.hteen_layers if kind == ProtocolKind.HTEEN else 1
        self._draws = np.zeros((runs, 1 + stages, n))
        self.trackers = [EpochTracker(net.n) for _ in range(stages)]
        if kind == ProtocolKind.DEEC:
            self.lifetime_estimate = deec_lifetime_estimate(cfg, self.nets[0])
        elif kind == ProtocolKind.CAMPTEEN:
            self.graphs = campteen_range_graphs(net, cfg)

    # -- election ---------------------------------------------------------

    def _elect(self, rnd: int, u: np.ndarray):
        """Returns (head tiers bottom up, CAMP cover or None) for the whole
        batch, from the election draws `u` (one row per stage).

        Flat protocols elect a single tier.
        """
        net, trackers = self.net, self.trackers
        if self.kind in (ProtocolKind.LEACH, ProtocolKind.TEEN):
            return [leach_elect_chs(net, self.cfg.p_opt, trackers[0], rnd, u[0])], None
        if self.kind == ProtocolKind.DEEC:
            # every run starts with the same energy, so all announce one average
            avg = deec_average_energy(self.nets[0].e_total, self.size, rnd,
                                      self.lifetime_estimate)
            return [deec_elect_chs(net, self.cfg, trackers[0], rnd, avg, u[0])], None
        if self.kind == ProtocolKind.HTEEN:
            return hteen_promote_layers(net, trackers, self.cfg.hteen_layer_p, rnd, u), None
        ch_ids, ch_of = campteen_elect_chs(net, self.cfg, u[0], self.graphs)
        return [ch_ids], ch_of

    # -- one round --------------------------------------------------------

    def step(self, rnd: int, rngs: list[np.random.Generator]) -> None:
        """One round of every run; `rngs` holds each run's generator.
        Writes column `rnd` of the round record, one item per run."""
        net, runs, n = self.net, self.runs, self.size
        per_run = net.residual.reshape(runs, n)
        alive0 = net.residual > 0.0
        live = alive0.reshape(runs, n).any(axis=1)
        if not live.any():
            return

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
            gate = teen_gate_mask(net.sensed, net.last_tx, alive0, *self._gate)
        else:
            gate = alive0
        if not ch_count.all():
            gate = (gate.reshape(runs, n) & (ch_count > 0)[:, None]).reshape(-1)

        # membership: CAMP keeps its election-time cover, everyone else
        # joins the nearest head of its run.  The member phase reads
        # `d2ch` only for gated members, so only theirs is computed, and
        # only gated non-heads are placed.
        d2ch = np.zeros(net.n)
        if camp_cover is not None:
            assign = camp_cover.copy()
            assign[ch_ids] = -1
            rows = (gate & (assign >= 0)).nonzero()[0]
            tgt = assign[rows]
            dx = net.x[rows] - net.x[tgt]
            dy = net.y[rows] - net.y[tgt]
            d2ch[rows] = dx * dx + dy * dy
        else:
            assign = np.full(net.n, -1, np.int64)
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

        # heads fold in their own reading when gated (every alive head of
        # a proactive protocol is)
        own = gate[ch_ids]
        signals[ch_ids] += own
        own_count = np.bincount(head_run[own], minlength=runs)
        if self.kind in REACTIVE:
            sent = gate & (assign >= 0)
            sent[ch_ids[own]] = True
            net.last_tx[sent] = net.sensed[sent]

        # forward aggregates tier by tier from the bottom up; with a mobile
        # sink any head within `sink_range_m` skips the hierarchy
        sx, sy = self._sink_x, self._sink_y
        if self._mobile.size:
            # every mobile sink of the batch is at the same place
            sx[self._mobile], sy[self._mobile] = sink_position(self.cfg, SinkMode.MOBILE_TOP, rnd)
        reached = []  # the heads whose packets reached the sink
        for senders, target, tx_d2 in hteen_build_hierarchy(net, tiers, sx, sy,
                                                             self._direct_r2):
            to_sink = _kernels.relay_phase(
                senders, signals, net.residual, tx_d2, target,
                self._e_elec_b, self._e_fs_b, self._e_mp_b, self._e_da_b, self._d0sq,
            )
            reached.append(senders[to_sink])

        col = self.record[:, rnd]
        col["alive"] = (per_run > 0.0).sum(axis=1)
        col["ch_count"] = ch_count
        # every packet a head holds, but its own reading, reached it this round
        col["packets_to_ch"] = signals.reshape(runs, n).sum(axis=1) - own_count
        col["packets_to_bs"] = np.bincount(np.concatenate(reached) // n, minlength=runs)
        col["energy_consumed_j"] = before - per_run.sum(axis=1)
