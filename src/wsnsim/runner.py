"""Scenario execution: one run, or a protocol x sink x seed matrix.

Each run gets its own generator seeded from (seed, protocol, sink mode),
so runs never share or reorder random draws and any single combination
can be reproduced in isolation.  That also lets `run_matrix` hand its
runs to forked worker processes and still write the bytes a serial
sweep writes.
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
    rng = np.random.default_rng([run_seed, int(kind), int(mode)])
    pcfg = protocol_config(cfg, kind)
    net = deploy(
        cfg.nodes, cfg.field_m, cfg.initial_energy_j, rng,
        advanced_fraction=pcfg.advanced_fraction,
        advanced_factor=pcfg.advanced_factor,
        super_fraction=pcfg.super_fraction,
        super_factor=pcfg.super_factor,
    )
    sinkst = SinkState(mode, cfg.field_m, cfg.sink_step_m, cfg.sink_pause_rounds)
    eng = Engine(kind, pcfg, energy_params(cfg), net)
    hist = RunHistory()
    for rnd in range(cfg.rounds):
        hist.record_round(eng.step(net, sinkst, rnd, rng))
    summary = summarize(hist, kind.name.lower(), mode.name.lower(), run_seed)
    return RunResult(kind, mode, run_seed, hist, summary, net)


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


def _run_combo(cfg: ScenarioConfig, kind: ProtocolKind, mode: SinkMode,
               seed: int) -> RunResult:
    # what the pool submits: a module-level function pickles by name, while
    # run_scenario may be rebound to a wrapper (a tracer's) that does not
    return run_scenario(cfg, kind, mode, seed)


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
    """Run every combination in lexicographic (protocol, sink, seed) order.

    Runs go to min(usable CPUs, runs) worker processes started with fork;
    results come back in combination order, so the output is byte-identical
    to a serial sweep.  With one usable CPU (pin the process, for example
    with `taskset -c 0`), one run, or no fork on the platform, the runs are
    made one after another in this process.

    Every protocol, sink and seed is checked by the config's rules before
    the first run; an empty list or a repeated entry is an error too.
    With `out_dir` set, writes one CSV per run plus a joint summary file.
    A failing run aborts the whole matrix, naming the first failing
    combination in that order.
    """
    kinds = _axis(cfg, "protocol", ProtocolKind if protocols is None else protocols)
    modes = _axis(cfg, "sink", SinkMode if sinks is None else sinks)
    seed_list = _axis(cfg, "seed", [cfg.seed] if seeds is None else seeds)

    combos = sorted(
        ((k, m, s) for k in kinds for m in modes for s in seed_list),
        key=lambda t: (t[0].name, t[1].name, t[2]),
    )
    workers = _worker_count(len(combos))
    if workers == 1:
        results = _collect(combos, [partial(run_scenario, cfg, *c) for c in combos])
    else:
        # imported here: they cost 20-30 ms, which a serial sweep need not pay
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # fork, not spawn: workers inherit the backend chosen with use_backend
        # and numba's compiled kernels instead of importing and compiling anew
        fork = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(workers, mp_context=fork) as pool:
            futures = [pool.submit(_run_combo, cfg, *c) for c in combos]
            try:
                results = _collect(combos, [f.result for f in futures])
            finally:
                # after a failure, drop the runs not yet started; leaving the
                # block waits for the running ones, so no worker outlives the
                # call.  (shutdown's cancel_futures can hang on Python 3.11
                # when a call fails to pickle.)
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


def _collect(combos, calls) -> list[RunResult]:
    """Call each combination's run in order; the first failure names its combination."""
    results: list[RunResult] = []
    for (kind, mode, seed), call in zip(combos, calls):
        try:
            results.append(call())
        except Exception as exc:
            raise RuntimeError(
                f"run failed for protocol={kind.name.lower()} "
                f"sink={mode.name.lower()} seed={seed}: {exc}"
            ) from exc
    return results
