"""The benchmark's workloads: what one pass simulates, derived from a seed.

A pass is a fixed list of calls into the simulator's public API.  Every
pass of a run repeats the same calls with the same seeds, so passes can
be compared with one another and timed as repeats of identical work.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import wsnsim

PROTOCOLS = ("leach", "teen", "deec", "hteen", "campteen")
SINKS = ("static_center", "mobile_top")

# paper_sweep: the paper's comparison at its 100-node scale, on a horizon
# short enough for several passes per run.
SWEEP_NODES = 100
SWEEP_ROUNDS = 1200
SWEEP_SEEDS = 2
# dense_*: 1000 nodes on the default 100 m field.  Almost no node dies in
# the first 1000 rounds here, so a short horizon keeps every round at
# full population.
DENSE_NODES = 1000
DENSE_ROUNDS = 60


class Call(NamedTuple):
    """One timed call: run_matrix over PROTOCOLS x SINKS x seeds when
    `protocol` is None, else one run_scenario."""
    label: str
    protocol: str | None
    sink: str | None
    seeds: tuple

    @property
    def runs(self):
        return len(PROTOCOLS) * len(SINKS) * len(self.seeds) if self.protocol is None else 1


@dataclass
class Workload:
    name: str
    seed: int
    cfg: wsnsim.ScenarioConfig
    calls: list
    writes_artifacts: bool = False

    def run_call(self, call, out_dir):
        """Run one call; returns its RunResults.

        The functions are looked up on the package at call time, so a tracer
        that rebinds them sees every call.
        """
        if call.protocol is None:
            return wsnsim.run_matrix(self.cfg, PROTOCOLS, SINKS, call.seeds,
                                     out_dir=out_dir)
        return [wsnsim.run_scenario(self.cfg, call.protocol, call.sink, call.seeds[0])]

    @property
    def runs_per_pass(self):
        return sum(c.runs for c in self.calls)


def paper_sweep(seed):
    seeds = tuple(SWEEP_SEEDS * seed + k for k in range(SWEEP_SEEDS))
    cfg = wsnsim.ScenarioConfig(nodes=SWEEP_NODES, rounds=SWEEP_ROUNDS)
    return Workload("paper_sweep", seed, cfg, [Call("run_matrix", None, None, seeds)],
                    writes_artifacts=True)


def _dense(name, protocols, seed):
    cfg = wsnsim.ScenarioConfig(nodes=DENSE_NODES, rounds=DENSE_ROUNDS)
    calls = [Call(f"{p}/{s}", p, s, (seed,)) for p in protocols for s in SINKS]
    return Workload(name, seed, cfg, calls)


def dense_flat(seed):
    return _dense("dense_flat", ("leach", "teen", "deec"), seed)


def dense_hier(seed):
    return _dense("dense_hier", ("hteen", "campteen"), seed)


WORKLOADS = {"paper_sweep": paper_sweep, "dense_flat": dense_flat,
             "dense_hier": dense_hier}
