"""Matrix sweeps: ordering, artifacts, reproducibility, failure naming,
the worker pool against the serial path, and batches of a protocol's
runs (every sink and seed) against each run alone."""
import concurrent.futures
import dataclasses
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wsnsim
from wsnsim import (
    ProtocolKind,
    ScenarioConfig,
    SinkMode,
    read_csv,
    read_summary,
    run_matrix,
    run_scenario,
    write_csv,
)
from wsnsim import runner
from wsnsim.runner import artifact_name


CFG = ScenarioConfig(rounds=30)
PROTOCOLS = ["leach", "teen", "deec", "hteen", "campteen"]
SINKS = ["static_center", "static_top", "mobile_top"]


def pin_cpus(monkeypatch, count):
    """Make the runner see `count` usable CPUs."""
    monkeypatch.setattr(runner.os, "sched_getaffinity",
                        lambda pid: set(range(count)), raising=False)


@pytest.fixture
def pools(monkeypatch):
    """The worker count of every pool run_matrix starts, in order."""
    started = []
    real = concurrent.futures.ProcessPoolExecutor

    class Recorded(real):
        def __init__(self, max_workers=None, *args, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorded)
    return started


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork here")


def test_run_scenario_argument_overrides():
    res = run_scenario(CFG, "campteen", "mobile_top", 77)
    assert res.summary.protocol == "campteen"
    assert res.summary.sink == "mobile_top"
    assert res.summary.seed == 77
    assert res.summary.rounds == 30


def test_run_scenario_defaults_from_config():
    cfg = ScenarioConfig(rounds=10, protocol="teen", sink="static_top", seed=12)
    res = run_scenario(cfg)
    assert (res.summary.protocol, res.summary.sink, res.summary.seed) == (
        "teen", "static_top", 12)


def test_matrix_order_is_lexicographic():
    results = run_matrix(CFG, ["teen", "leach"], ["static_top", "mobile_top"], [2, 1])
    combos = [(r.summary.protocol, r.summary.sink, r.summary.seed) for r in results]
    assert combos == sorted(combos)
    assert combos[0] == ("leach", "mobile_top", 1)
    assert len(combos) == 8


def test_matrix_artifacts_round_trip(tmp_path):
    out = tmp_path / "sweep"
    results = run_matrix(CFG, ["leach"], ["static_center"], [1, 2], out_dir=out)
    for res in results:
        path = out / artifact_name(res.protocol, res.sink, res.seed)
        assert path.exists()
        back = read_csv(path)
        assert len(back) == 30
        assert back.cum_packets_to_bs[-1] == res.summary.total_throughput
    records = read_summary(out / "summary.json")
    assert [r["seed"] for r in records] == [1, 2]


def test_matrix_reruns_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run_matrix(CFG, ["deec"], ["mobile_top"], [3], out_dir=a)
    run_matrix(CFG, ["deec"], ["mobile_top"], [3], out_dir=b)
    for name in ("deec_mobile_top_seed3.csv", "summary.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_matrix_failure_names_the_combination(monkeypatch, pools):
    # every run fails mid-way, in this process and in forked workers alike
    # (they inherit the patch)
    def failing_deploy(*args, **kwargs):
        raise ValueError("deployment failed")

    with monkeypatch.context() as patched:
        patched.setattr(runner, "deploy", failing_deploy)
        with pytest.raises(RuntimeError, match="protocol=campteen sink=static_top seed=4"):
            run_matrix(CFG, ["campteen"], ["static_top"], [4])
        # on the pool the error names the first failure in combination
        # order, and no worker outlives the call, whether it raised or returned
        pin_cpus(monkeypatch, 2)
        with pytest.raises(RuntimeError, match="protocol=campteen sink=static_top seed=4"):
            run_matrix(CFG, ["leach", "campteen"], ["static_top"], [4])
    assert multiprocessing.active_children() == []
    run_matrix(CFG, ["leach", "campteen"], ["static_top"], [4])
    assert multiprocessing.active_children() == []
    assert pools == ([2, 2] if hasattr(os, "fork") else [])


@needs_fork
def test_pool_matches_serial_bytes(tmp_path, monkeypatch, pools):
    pooled, serial = tmp_path / "pooled", tmp_path / "serial"
    args = (CFG, ["hteen", "leach"], ["static_top", "mobile_top"], [1, 2])
    pin_cpus(monkeypatch, 2)
    a = run_matrix(*args, out_dir=pooled)
    pin_cpus(monkeypatch, 1)
    b = run_matrix(*args, out_dir=serial)
    assert pools == [2]
    names = sorted(p.name for p in pooled.iterdir())
    assert names == sorted(p.name for p in serial.iterdir())
    assert len(names) == 9  # 8 runs plus summary.json
    for name in names:
        assert (pooled / name).read_bytes() == (serial / name).read_bytes(), name
    for ra, rb in zip(a, b):
        assert ra.network.residual.tobytes() == rb.network.residual.tobytes()


@needs_fork
def test_pool_never_exceeds_the_run_count(monkeypatch, pools):
    # the CPU cap is checked above: two CPUs, eight runs, two workers.
    # run_scenario is rebound to a local closure, as a tracer does, which
    # cannot be pickled: the pool must not send it
    def wrapped(*args, **kwargs):
        return solo(*args, **kwargs)

    solo = runner.run_scenario
    monkeypatch.setattr(runner, "run_scenario", wrapped)
    pin_cpus(monkeypatch, 8)
    results = run_matrix(ScenarioConfig(rounds=5), ["teen"], ["static_center"], [1, 2, 3])
    assert [r.seed for r in results] == [1, 2, 3]
    assert pools == [3]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("cpus, seeds", [(1, [1, 2]), (4, [1])])
def test_serial_sweep_imports_no_pool(cpus, seeds):
    # one usable CPU or one run: the sweep runs in this process and never
    # loads the pool machinery
    code = (
        "import os, sys\n"
        f"os.sched_getaffinity = lambda pid: set(range({cpus}))\n"
        "import wsnsim\n"
        f"wsnsim.run_matrix(wsnsim.ScenarioConfig(rounds=5), ['leach'], ['static_top'], {seeds})\n"
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules))\n"
    )
    src = str(Path(wsnsim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_history_columns_are_plain_lists(monkeypatch, pools, tmp_path):
    # every column is a list of Python ints (floats for energy), from a run
    # of one, a serial sweep and a pooled one: a reader may join columns
    # with `+` and print them with repr; and a trace read back from its
    # file equals the history it was written from
    solo = [run_scenario(CFG, p, "mobile_top", 3) for p in PROTOCOLS]
    pin_cpus(monkeypatch, 1)
    serial = run_matrix(CFG, sinks=["static_top"], seeds=[1, 2])
    pin_cpus(monkeypatch, 2)
    pooled = run_matrix(CFG, sinks=["static_top"], seeds=[1, 2])
    assert pools == ([2] if hasattr(os, "fork") else [])
    for res in solo + serial + pooled:
        for name, column in vars(res.history).items():
            kind = float if name == "energy_consumed_j" else int
            assert type(column) is list, name
            assert len(column) == CFG.rounds, name
            assert all(type(v) is kind for v in column), (res.summary, name)
    for res in solo:
        path = tmp_path / f"{res.summary.protocol}.csv"
        write_csv(res.history, path)
        assert read_csv(path) == res.history


def test_seed_isolation_between_runs():
    # consecutive matrix entries must not borrow draws from one another:
    # a run's trace equals the same combination simulated alone
    solo = run_scenario(CFG, "teen", "static_center", 5)
    swept = run_matrix(CFG, ["leach", "teen"], ["static_center"], [5])
    teen = [r for r in swept if r.summary.protocol == "teen"][0]
    assert solo.history == teen.history


def test_only_deec_deploys_energy_tiers():
    # the deec_* tier fields shape DEEC's networks only; every other
    # protocol deploys homogeneous nodes, whatever those fields say
    cfg = ScenarioConfig(rounds=1, deec_advanced_fraction=0.3, deec_advanced_factor=1.5,
                         deec_super_fraction=0.2, deec_super_factor=3.0)
    results = run_matrix(cfg, sinks=["static_center", "mobile_top"], seeds=[1, 2])
    assert len(results) == 20
    for res in results:
        factor = res.network.energy_factor
        if res.summary.protocol == "deec":
            assert factor[:20].tolist() == [3.0] * 20
            assert factor[20:50].tolist() == [1.5] * 30
            assert not factor[50:].any()
        else:
            assert not factor.any()
            assert np.all(res.network.initial_energy == 0.5)


def test_deec_batch_runs_share_one_total_energy():
    # every run of a batch is deployed from one config, so every run's total
    # energy, and with it DEEC's lifetime estimate and announced average, is
    # the same number, whatever its sink and seed
    cfg = ScenarioConfig(rounds=2, deec_advanced_fraction=0.3, deec_advanced_factor=0.3,
                         deec_super_fraction=0.17, deec_super_factor=1.7)
    runs = [(mode, seed) for mode in SinkMode for seed in (1, 2, 7)]
    results = runner._run_batch(cfg, ProtocolKind.DEEC, runs)
    totals = {res.network.e_total for res in results}
    assert len(results) == 9 and len(totals) == 1
    assert totals != {cfg.nodes * cfg.initial_energy_j}


# Small, short-lived networks: within the horizon every (protocol, sink)
# has rounds in which one seed's network is extinct while another's still
# lives, and every protocol but CAMP-TEEN has live rounds without a head.
ORACLE_CFG = ScenarioConfig(nodes=15, rounds=150, initial_energy_j=0.004,
                            camp_hard_threshold=100.0, hteen_hard_threshold=100.0)
ORACLE_SEEDS = [1, 2, 3, 4, 5]  # not a power of two: batch totals do not scale exactly
ORACLE_CASES = [(ORACLE_CFG, p) for p in ("leach", "teen", "deec", "hteen", "campteen")] + [
    # DEEC's weights use each run's own population totals: the multi-level
    # form (super nodes) and the two-level form.  Factors that are not
    # integers make a total over the whole batch round differently.
    (dataclasses.replace(ORACLE_CFG, deec_super_fraction=0.3, deec_super_factor=1.7,
                         deec_advanced_factor=0.3), "deec"),
    (dataclasses.replace(ORACLE_CFG, deec_super_fraction=0.0, deec_advanced_factor=0.3),
     "deec"),
]


@pytest.mark.parametrize("backend", sorted(wsnsim.BACKENDS))
@pytest.mark.parametrize("cfg, protocol", ORACLE_CASES)
def test_batched_matrix_matches_solo_runs(monkeypatch, backend, cfg, protocol):
    # On one CPU, run_matrix steps all of a protocol's runs, every sink and
    # seed, as one batch; every run must equal the same combination run
    # alone on the numpy fallback, row for row and in its final residual
    # bytes, on every installed backend.
    batches = []

    class Recorded(runner.Engine):
        def __init__(self, *args):
            super().__init__(*args)
            batches.append(self.runs)

    wsnsim.use_backend("python")
    solo = {(sink, seed): run_scenario(cfg, protocol, sink, seed)
            for sink in SINKS for seed in ORACLE_SEEDS}
    wsnsim.use_backend(backend)
    pin_cpus(monkeypatch, 1)
    monkeypatch.setattr(runner, "Engine", Recorded)
    swept = run_matrix(cfg, [protocol], SINKS, ORACLE_SEEDS)
    assert batches == [len(SINKS) * len(ORACLE_SEEDS)]
    assert len(swept) == len(solo)
    for res in swept:
        want = solo[(res.summary.sink, res.seed)]
        assert res.history == want.history, res.summary
        assert res.network.residual.tobytes() == want.network.residual.tobytes()
        assert res.network.e_total == want.network.e_total
    for sink in SINKS:
        alive = np.array([solo[(sink, s)].history.alive for s in ORACLE_SEEDS])
        heads = np.array([solo[(sink, s)].history.ch_count for s in ORACLE_SEEDS])
        assert np.any((alive == 0).any(axis=0) & (alive > 0).any(axis=0)), sink
        if protocol != "campteen":  # a live CAMP-TEEN network always covers itself
            assert np.any((heads == 0) & (alive > 0)), sink


@pytest.mark.parametrize("protocols, sinks, seeds, workers, sizes", [
    pytest.param(5, 2, [1, 2], 2, [4] * 5, id="paper_sweep"),
    pytest.param(5, 2, list(range(1, 11)), 2, [20] * 5, id="criterion_07"),
    pytest.param(5, 3, [1, 2, 3], 1, [9] * 5, id="serial"),
    # the middle batch spans both sinks
    pytest.param(1, 2, [1, 2, 3], 3, [2, 2, 2], id="one_protocol_3_workers"),
    pytest.param(1, 1, [1, 2, 3, 4, 5], 2, [2, 3], id="one_protocol_2_workers"),
    # ceil(3 / 2) = 2 batches per protocol
    pytest.param(2, 1, [1, 2, 3, 4, 5], 3, [2, 3, 2, 3], id="two_protocols_3_workers"),
])
def test_matrix_batches_runs_per_protocol(protocols, sinks, seeds, workers, sizes):
    # each protocol's (sink, seed) runs, in ceil(workers / protocols)
    # batches of consecutive runs: every run once, in combination order
    kinds = list(wsnsim.ProtocolKind)[:protocols]
    runs = [(m, s) for m in list(wsnsim.SinkMode)[:sinks] for s in seeds]
    batches = runner._batches(kinds, runs, workers)
    assert [len(b) for _, b in batches] == sizes
    assert [(k, m, s) for k, b in batches for m, s in b] == [
        (k, m, s) for k in kinds for m, s in runs]
