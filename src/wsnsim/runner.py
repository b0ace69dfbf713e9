"""Scenario execution: one run, or a protocol x sink x seed matrix.

Each run gets its own generator seeded from (seed, protocol, sink mode),
so runs never share or reorder random draws and any single combination
can be reproduced in isolation.  That lets one engine step several seeds
of the same protocol and sink as one batch (see `engine`), and lets
`run_matrix` hand its batches to forked worker processes, and still
write the bytes that one run at a time writes.
"""
from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from enum import IntEnum
from functools import partial
from pathlib import Path

import numpy as np

from .config import ScenarioConfig, energy_params, fingerprint, protocol_config
from .engine import Engine
from .metrics import RunHistory, RunSummary, summarize, write_csv, write_summary
from .network import NetworkState, deploy
from .protocols import ProtocolKind
from .sink import SinkMode, SinkState

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
    return _run_seeds(cfg, kind, mode, [run_seed])[0]


def _run_seeds(cfg: ScenarioConfig, kind: ProtocolKind, mode: SinkMode,
               seeds: list[int]) -> list[RunResult]:
    """Simulate one protocol and sink for each seed, all seeds as one batch.

    Module-level, so a pool can submit it by name: `run_scenario` may be
    rebound to a wrapper (a tracer's) that does not pickle.
    """
    rngs = [np.random.default_rng([seed, int(kind), int(mode)]) for seed in seeds]
    pcfg = protocol_config(cfg, kind)
    nets = [
        deploy(
            cfg.nodes, cfg.field_m, cfg.initial_energy_j, rng,
            advanced_fraction=pcfg.advanced_fraction,
            advanced_factor=pcfg.advanced_factor,
            super_fraction=pcfg.super_fraction,
            super_factor=pcfg.super_factor,
        )
        for rng in rngs
    ]
    sinkst = SinkState(mode, cfg.field_m, cfg.sink_step_m, cfg.sink_pause_rounds)
    eng = Engine(kind, pcfg, energy_params(cfg), nets)
    hists = [RunHistory() for _ in seeds]
    for rnd in range(cfg.rounds):
        for hist, metrics in zip(hists, eng.step(sinkst, rnd, rngs)):
            hist.record_round(metrics)
    protocol, sink = kind.name.lower(), mode.name.lower()
    return [RunResult(kind, mode, seed, hist, summarize(hist, protocol, sink, seed), net)
            for seed, hist, net in zip(seeds, hists, nets)]


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

    The seeds of each (protocol, sink) are stepped in batches (see
    `engine`): each is split into ceil(workers / (protocol, sink) pairs)
    batches of consecutive seeds, where workers is min(usable CPUs, runs).
    With more than one worker the batches go to that many worker processes
    started with fork, and come back in order, so the output is
    byte-identical to running one combination at a time.  With one usable
    CPU (pin the process, for example with `taskset -c 0`), one run, or no
    fork on the platform, each pair is one batch, run in this process.

    Every protocol, sink and seed is checked by the config's rules before
    the first run; an empty list or a repeated entry is an error too.
    With `out_dir` set, writes one CSV per run plus a joint summary file.
    A failing run aborts the whole matrix, naming the first combination of
    the first failing batch in that order.
    """
    kinds = _axis(cfg, "protocol", ProtocolKind if protocols is None else protocols)
    modes = _axis(cfg, "sink", SinkMode if sinks is None else sinks)
    seed_list = sorted(_axis(cfg, "seed", [cfg.seed] if seeds is None else seeds))

    pairs = sorted(((k, m) for k in kinds for m in modes),
                   key=lambda t: (t[0].name, t[1].name))
    workers = _worker_count(len(pairs) * len(seed_list))
    batches = _batches(pairs, seed_list, workers)
    if workers == 1:
        results = _collect(batches, [partial(_run_seeds, cfg, *b) for b in batches])
    else:
        # imported here: they cost 20-30 ms, which a serial sweep need not pay
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # fork, not spawn: workers inherit the backend chosen with use_backend
        # and numba's compiled kernels instead of importing and compiling anew
        fork = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(workers, mp_context=fork) as pool:
            futures = [pool.submit(_run_seeds, cfg, *b) for b in batches]
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


def _batches(pairs, seeds, workers) -> list[tuple[ProtocolKind, SinkMode, list[int]]]:
    """Each (protocol, sink) pair with its seeds, split into
    ceil(workers / pairs) batches of consecutive seeds, in order."""
    parts = -(-workers // len(pairs))
    cuts = [len(seeds) * i // parts for i in range(parts + 1)]
    return [(kind, mode, seeds[a:b]) for kind, mode in pairs for a, b in zip(cuts, cuts[1:])]


def _collect(batches, calls) -> list[RunResult]:
    """Call each batch in order; the first failure names its batch's first
    combination."""
    results: list[RunResult] = []
    for (kind, mode, seeds), call in zip(batches, calls):
        try:
            results.extend(call())
        except Exception as exc:
            raise RuntimeError(
                f"run failed for protocol={kind.name.lower()} "
                f"sink={mode.name.lower()} seed={seeds[0]}: {exc}"
            ) from exc
    return results
