"""Scenario execution: one run, or a protocol x sink x seed matrix.

Each run gets its own generator seeded from (seed, protocol, sink mode),
so runs never share or reorder random draws and any single combination
can be reproduced in isolation.  That lets one engine step several runs
of the same protocol, whatever their sinks and seeds, as one batch (see
`engine`), and lets `run_matrix` hand its batches to forked worker
processes, and still write the bytes that one run at a time writes.
"""
from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from enum import IntEnum
from functools import partial
from pathlib import Path

import numpy as np

from .config import ScenarioConfig, fingerprint
from .engine import Engine
from .metrics import RunHistory, RunSummary, summarize, write_csv, write_summary
from .network import NetworkState, deploy
from .protocols import ProtocolKind
from .sink import SinkMode

SUMMARY_FILENAME = "summary.json"


@dataclass
class RunResult:
    protocol: ProtocolKind
    sink: SinkMode
    seed: int
    history: RunHistory
    summary: RunSummary
    network: NetworkState


def run_scenario(
    cfg: ScenarioConfig,
    protocol: str | ProtocolKind | None = None,
    sink: str | SinkMode | None = None,
    seed: int | None = None,
) -> RunResult:
    """Simulate one protocol/sink/seed combination for cfg.rounds rounds.

    `protocol`, `sink` and `seed` replace the config's own values and are
    checked by the same rules.
    """
    kind, mode, run_seed = _combination(cfg, protocol, sink, seed)
    return _run_batch(cfg, kind, [(mode, run_seed)])[0]


def _run_batch(cfg: ScenarioConfig, kind: ProtocolKind,
               runs: list[tuple[SinkMode, int]]) -> list[RunResult]:
    """Simulate one protocol for each (sink, seed) of `runs`, all runs as
    one batch; results come in the order of `runs`.

    Module-level, so a pool can submit it by name: `run_scenario` may be
    rebound to a wrapper (a tracer's) that does not pickle.
    """
    rngs = [np.random.default_rng([seed, int(kind), int(mode)]) for mode, seed in runs]
    # only the energy-aware protocol deploys heterogeneous energy tiers
    tiers = {}
    if kind == ProtocolKind.DEEC:
        tiers = dict(
            advanced_fraction=cfg.deec_advanced_fraction,
            advanced_factor=cfg.deec_advanced_factor,
            super_fraction=cfg.deec_super_fraction,
            super_factor=cfg.deec_super_factor,
        )
    nets = [deploy(cfg.nodes, cfg.field_m, cfg.initial_energy_j, rng, **tiers)
            for rng in rngs]
    eng = Engine(kind, cfg, nets, [mode for mode, _ in runs])
    for rnd in range(cfg.rounds):
        eng.step(rnd, rngs)
    hists = [RunHistory.from_record(row, cfg.nodes) for row in eng.record]
    protocol = kind.name.lower()
    return [RunResult(kind, mode, seed, hist,
                      summarize(hist, protocol, mode.name.lower(), seed), net)
            for (mode, seed), hist, net in zip(runs, hists, nets)]


_AXES = ("protocol", "sink", "seed")


def _combination(cfg: ScenarioConfig, protocol=None, sink=None,
                 seed=None) -> tuple[ProtocolKind, SinkMode, int]:
    """The (protocol, sink, seed) of one run, checked by the config's rules."""
    given = {key: value.name.lower() if isinstance(value, IntEnum) else value
             for key, value in zip(_AXES, (protocol, sink, seed)) if value is not None}
    run = dataclasses.replace(cfg, **given)
    return ProtocolKind.parse(run.protocol), SinkMode.parse(run.sink), run.seed


def _axis(cfg: ScenarioConfig, key: str, values) -> list:
    """One axis of a sweep, each value checked by the config's rules.

    An empty axis or a value given twice (after parsing, so 'leach' and
    'LEACH' are the same) is an error naming the key.
    """
    values = list(values)
    pos = _AXES.index(key)
    parsed = [_combination(cfg, **{key: value})[pos] for value in values]
    if not parsed:
        raise ValueError(f"configuration error: no '{key}' to run")
    for i, value in enumerate(parsed):
        if value in parsed[:i]:
            raise ValueError(f"configuration error: '{key}' {values[i]!r} is given twice")
    return parsed


def artifact_name(kind: ProtocolKind, mode: SinkMode, seed: int) -> str:
    return f"{kind.name.lower()}_{mode.name.lower()}_seed{seed}.csv"


def _worker_count(runs: int) -> int:
    """Worker processes for `runs` runs: min(usable CPUs, runs), 1 without fork."""
    if not hasattr(os, "fork"):
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, runs))


def run_matrix(
    cfg: ScenarioConfig,
    protocols=None,
    sinks=None,
    seeds=None,
    out_dir=None,
) -> list[RunResult]:
    """Run every combination; results come in lexicographic (protocol,
    sink, seed) order.

    The runs of each protocol are stepped in batches (see `engine`): its
    (sink, seed) runs, in that order, are split into ceil(workers /
    protocols) batches of consecutive runs, where workers is min(usable
    CPUs, runs).  With more than one worker the batches go to that many
    worker processes started with fork, and come back in order, so the
    output is byte-identical to running one combination at a time.  With
    one usable CPU (pin the process, for example with `taskset -c 0`), one
    run, or no fork on the platform, each protocol is one batch, run in
    this process.

    Every protocol, sink and seed is checked by the config's rules before
    the first run; an empty list or a repeated entry is an error too.
    With `out_dir` set, writes one CSV per run plus a joint summary file.
    A failing run aborts the whole matrix, naming the first combination of
    the first failing batch in that order.
    """
    kinds = sorted(_axis(cfg, "protocol", ProtocolKind if protocols is None else protocols),
                   key=lambda k: k.name)
    modes = sorted(_axis(cfg, "sink", SinkMode if sinks is None else sinks),
                   key=lambda m: m.name)
    seed_list = sorted(_axis(cfg, "seed", [cfg.seed] if seeds is None else seeds))

    runs = [(m, s) for m in modes for s in seed_list]
    workers = _worker_count(len(kinds) * len(runs))
    batches = _batches(kinds, runs, workers)
    if workers == 1:
        results = _collect(batches, [partial(_run_batch, cfg, *b) for b in batches])
    else:
        # imported here: they cost 20-30 ms, which a serial sweep need not pay
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # fork, not spawn: workers inherit the backend chosen with use_backend
        # and numba's compiled kernels instead of importing and compiling anew
        fork = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(workers, mp_context=fork) as pool:
            futures = [pool.submit(_run_batch, cfg, *b) for b in batches]
            try:
                results = _collect(batches, [f.result for f in futures])
            finally:
                # after a failure, drop the batches not yet started; leaving
                # the block waits for the running ones, so no worker outlives
                # the call.  (shutdown's cancel_futures can hang on Python
                # 3.11 when a call fails to pickle.)
                for f in futures:
                    f.cancel()

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        fp = fingerprint(cfg)
        for res in results:
            write_csv(res.history, out / artifact_name(res.protocol, res.sink, res.seed))
        write_summary([r.summary for r in results], out / SUMMARY_FILENAME, fp)
    return results


def _batches(kinds, runs, workers) -> list[tuple[ProtocolKind, list[tuple[SinkMode, int]]]]:
    """Each protocol with its (sink, seed) runs, split into
    ceil(workers / protocols) batches of consecutive runs, in order."""
    parts = -(-workers // len(kinds))
    cuts = [len(runs) * i // parts for i in range(parts + 1)]
    return [(kind, runs[a:b]) for kind in kinds for a, b in zip(cuts, cuts[1:])]


def _collect(batches, calls) -> list[RunResult]:
    """Call each batch in order; the first failure names its batch's first
    combination."""
    results: list[RunResult] = []
    for (kind, runs), call in zip(batches, calls):
        try:
            results.extend(call())
        except Exception as exc:
            mode, seed = runs[0]
            raise RuntimeError(
                f"run failed for protocol={kind.name.lower()} "
                f"sink={mode.name.lower()} seed={seed}: {exc}"
            ) from exc
    return results
