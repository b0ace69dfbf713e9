"""Acceptance gate: twelve binding checks, one reported line each.

Every test here prints exactly one `[criterion NN] PASS|FAIL ...` line
(with capture suspended, so the verdicts always reach the terminal) and
asserts the same condition, so the human-readable lines and the exit
status can never disagree.

The comparative checks (07-10) share one seed-averaged sweep: all five
protocols x {static_center, mobile_top} x seeds 1..10, 100 nodes, 5000
rounds, default configuration.  Seed means are deterministic, so the
thresholds below are stable, not statistical.
"""
import math
import time

import numpy as np
import pytest

from wsnsim import (
    BACKENDS,
    Engine,
    EpochTracker,
    ProtocolKind,
    ScenarioConfig,
    SinkMode,
    campteen_elect_chs,
    campteen_range_graphs,
    deploy,
    deec_probabilities,
    leach_elect_chs,
    read_csv,
    run_matrix,
    run_scenario,
    use_backend,
    default_backend,
    warmup,
)
from wsnsim.cli import main as cli_main
from wsnsim.protocols import nearest_in_run

SEEDS = list(range(1, 11))
PROTOCOLS = ["leach", "teen", "deec", "hteen", "campteen"]


@pytest.fixture
def report(capsys):
    def _report(num: int, ok: bool, detail: str) -> None:
        verdict = "PASS" if ok else "FAIL"
        with capsys.disabled():
            print(f"[criterion {num:02d}] {verdict} - {detail}", flush=True)
        assert ok, f"criterion {num:02d}: {detail}"
    return _report


@pytest.fixture(scope="module")
def sweep():
    """The shared comparison matrix plus its wall-clock time."""
    use_backend(default_backend())
    warmup()
    cfg = ScenarioConfig(rounds=5000)
    t0 = time.perf_counter()
    results = run_matrix(cfg, PROTOCOLS, ["static_center", "mobile_top"], SEEDS)
    elapsed = time.perf_counter() - t0
    table = {}
    for res in results:
        table.setdefault((res.summary.protocol, res.summary.sink), []).append(res.summary)
    return table, elapsed


def seed_mean(table, protocol, sink, field):
    vals = []
    for s in table[(protocol, sink)]:
        v = getattr(s, field)
        if v is None:  # no event inside the horizon
            v = s.rounds
        vals.append(v)
    return float(np.mean(vals))


def test_criterion_01_probability_identity(report):
    # homogeneous population at the announced average: election
    # probabilities must sum to exactly N * p_opt
    t0 = time.perf_counter()
    worst = 0.0
    for n, p_opt, avg in ((100, 0.1, 0.5), (100, 0.05, 0.437), (500, 0.1, 0.01)):
        probs = deec_probabilities(np.full(n, avg), np.zeros(n), avg, p_opt)
        worst = max(worst, abs(probs.sum() - n * p_opt) / (n * p_opt))
    elapsed = time.perf_counter() - t0
    report(1, worst < 1e-12 and elapsed < 1.0,
           f"sum(p_i) vs N*p_opt rel err {worst:.2e} (limit 1e-12), {elapsed:.2f}s")


def test_criterion_02_epoch_completeness(report):
    # 100 nodes, p = 0.1, deaths disabled (election draws only, no radio
    # charges): after the 10-round epoch every node served exactly once
    t0 = time.perf_counter()
    net = deploy(100, 100.0, 0.5, np.random.default_rng(1))
    tracker = EpochTracker(net.n, 0.1)
    rng = np.random.default_rng(2)
    terms = np.zeros(net.n, int)
    for rnd in range(10):
        terms[leach_elect_chs(net, 0.1, tracker, rnd, rng.random(net.n))] += 1
    elapsed = time.perf_counter() - t0
    ok = bool(np.all(terms == 1)) and elapsed < 1.0
    report(2, ok, f"CH terms per node min={terms.min()} max={terms.max()} "
                  f"(want exactly 1), {elapsed:.2f}s")


def test_criterion_03_energy_conservation(report):
    # every protocol x sink mode, 100 nodes, 1000 rounds: booked per-round
    # consumption must equal the drop in total residual energy
    t0 = time.perf_counter()
    worst = 0.0
    cfg = ScenarioConfig(rounds=1000)
    for proto in PROTOCOLS:
        for sink in ("static_center", "static_top", "mobile_top"):
            res = run_scenario(cfg, proto, sink, 1)
            drained = res.network.e_total - float(res.network.residual.sum())
            booked = float(np.sum(res.history.energy_consumed_j))
            worst = max(worst, abs(drained - booked) / res.network.e_total)
    elapsed = time.perf_counter() - t0
    report(3, worst < 1e-9 and elapsed < 10.0,
           f"15 combos, worst rel err {worst:.2e} (limit 1e-9), {elapsed:.1f}s")


def test_criterion_04_radio_model_continuity(report):
    # the transmit charge that the charging kernels take from a residual of
    # 0.5 J just below, just above and at the amplifier crossover d0: a
    # member's packet to its head, and a head's one-signal forward to the
    # sink; the charges and d0 are the ones an engine derives from the
    # default configuration
    cfg = ScenarioConfig()
    eng = Engine(ProtocolKind.LEACH, cfg,
                 [deploy(cfg.nodes, cfg.field_m, cfg.initial_energy_j, np.random.default_rng(0))],
                 [SinkMode.STATIC_CENTER])
    e_elec_b, e_fs_b, e_mp_b, e_da_b, d0_sq = (eng._e_elec_b, eng._e_fs_b, eng._e_mp_b,
                                               eng._e_da_b, eng._d0sq)
    d0 = math.sqrt(d0_sq)
    d2 = np.array([d0 - 1e-6, d0 + 1e-6, d0]) ** 2
    worst = 0.0
    for impl in BACKENDS.values():
        member = np.full(6, 0.5)
        impl["member_phase"](np.ones(6, np.bool_), np.array([3, 4, 5, -1, -1, -1]),
                             np.concatenate([d2, np.zeros(3)]), member,
                             e_elec_b, e_fs_b, e_mp_b, d0_sq)
        head = np.full(3, 0.5)
        impl["relay_phase"](np.arange(3), np.ones(3, np.int64), head, d2, np.full(3, -1),
                            e_elec_b, e_fs_b, e_mp_b, e_da_b, d0_sq)
        for below, above, at in (0.5 - member[:3], 0.5 - e_da_b - head):
            worst = max(worst, abs(below - above) / at)
    report(4, worst < 1e-6, f"transmit charge jump at d0 in member_phase and relay_phase, "
                            f"{len(BACKENDS)} backend(s), worst rel {worst:.2e} (limit 1e-6)")


def test_criterion_05_cover_election_oracle(report):
    # 50 instances <= 20 nodes: elected heads must equal the brute-force
    # greedy-by-timer cover and form an independent set in the range graph
    rng = np.random.default_rng(55)
    cfg = ScenarioConfig(camp_comm_range_m=25.0)
    bad = 0
    for _ in range(50):
        net = deploy(int(rng.integers(2, 21)), 100.0, 0.5, rng)
        alpha = rng.random(net.n)
        ids, ch_of = campteen_elect_chs(net, cfg, alpha, campteen_range_graphs(net, cfg))

        order = sorted(range(net.n), key=lambda i: (cfg.camp_timer_k - alpha[i], i))
        heads, owner = [], {}
        for i in order:
            if i in owner:
                continue
            heads.append(i)
            owner[i] = i
            for j in range(net.n):
                if j not in owner and ((net.x[i] - net.x[j]) ** 2
                                       + (net.y[i] - net.y[j]) ** 2) <= 625.0:
                    owner[j] = i
        independent = all(
            (net.x[a] - net.x[b]) ** 2 + (net.y[a] - net.y[b]) ** 2 > 625.0
            for a in ids for b in ids if a < b)
        if sorted(heads) != ids.tolist() or not independent:
            bad += 1
    report(5, bad == 0, f"{50 - bad}/50 instances match the greedy oracle "
                        f"and stay mutually out of range")


def test_criterion_06_assignment_oracle(report):
    # 50 instances: the engine's membership call, nearest_in_run over the
    # non-heads, equals the exhaustive nearest-head scan
    rng = np.random.default_rng(66)
    bad = 0
    for _ in range(50):
        n = int(rng.integers(5, 60))
        net = deploy(n, 100.0, 0.5, rng)
        k = int(rng.integers(1, max(2, n // 4)))
        ch_ids = np.sort(rng.choice(n, size=k, replace=False))
        members = np.setdiff1d(np.arange(n), ch_ids)
        idx, _ = nearest_in_run(net, members, ch_ids)
        for i, got in zip(members, ch_ids[idx]):
            d2 = [(net.x[i] - net.x[h]) ** 2 + (net.y[i] - net.y[h]) ** 2
                  for h in ch_ids]
            if got != ch_ids[int(np.argmin(d2))]:
                bad += 1
                break
    report(6, bad == 0, f"{50 - bad}/50 instances: nearest_in_run equals the "
                        f"exhaustive nearest-head scan")


def test_criterion_07_static_throughput_ordering(sweep, report):
    table, elapsed = sweep
    avg = {p: seed_mean(table, p, "static_center", "avg_throughput")
           for p in PROTOCOLS}
    ordering = (max(avg, key=avg.get) == "deec"
                and min(avg, key=avg.get) == "campteen"
                and avg["deec"] >= 2.0 * avg["leach"])
    ok = ordering and elapsed < 120.0
    report(7, ok,
           "static avg throughput "
           + " ".join(f"{p}={avg[p]:.0f}" for p in PROTOCOLS)
           + f"; deec/leach={avg['deec'] / avg['leach']:.2f} (need >= 2), "
           + f"matrix {elapsed:.0f}s (limit 120s)")


def test_criterion_08_stability_ordering(sweep, report):
    table, _ = sweep
    leach = seed_mean(table, "leach", "static_center", "stability_period")
    deec = seed_mean(table, "deec", "static_center", "stability_period")
    teen = seed_mean(table, "teen", "static_center", "stability_period")
    bound = 0.7 * min(deec, teen)
    report(8, leach < bound,
           f"first-death rounds leach={leach:.0f} deec={deec:.0f} teen={teen:.0f}; "
           f"need leach < 0.7*min = {bound:.0f}")


def test_criterion_09_lifetime_ordering(sweep, report):
    table, _ = sweep
    alive = {p: seed_mean(table, p, "static_center", "avg_alive")
             for p in ("hteen", "teen", "leach")}
    ok = alive["hteen"] > alive["teen"] and alive["hteen"] > alive["leach"]
    report(9, ok, "mean alive-node averages hteen={hteen:.1f} teen={teen:.1f} "
                  "leach={leach:.1f}; need hteen above both".format(**alive))


def test_criterion_10_mobility_deltas(sweep, report):
    table, _ = sweep
    delta = {p: (seed_mean(table, p, "mobile_top", "avg_throughput")
                 - seed_mean(table, p, "static_center", "avg_throughput"))
             for p in ("hteen", "leach", "deec")}
    ok = delta["hteen"] > 0 and delta["leach"] < 0 and delta["deec"] < 0
    report(10, ok, "mobile-static avg throughput deltas "
                   "hteen={hteen:+.0f} (need >0) leach={leach:+.0f} "
                   "deec={deec:+.0f} (both need <0)".format(**delta))


def test_criterion_11_compare_determinism(tmp_path, report):
    args = ["compare", "--rounds", "400", "--protocols", "leach,deec,hteen",
            "--sinks", "static_center,mobile_top", "--seeds", "1,2"]
    a, b = tmp_path / "first", tmp_path / "second"
    assert cli_main(args + ["--out-dir", str(a)]) == 0
    assert cli_main(args + ["--out-dir", str(b)]) == 0
    names = sorted(p.name for p in a.iterdir())
    identical = (names == sorted(p.name for p in b.iterdir()) and all(
        (a / n).read_bytes() == (b / n).read_bytes() for n in names))
    report(11, identical,
           f"two sweeps, {len(names)} artifacts each, byte-identical={identical}")


def test_criterion_12_single_run_performance(report):
    warmup()
    cfg = ScenarioConfig(rounds=5000)
    t0 = time.perf_counter()
    res = run_scenario(cfg, "leach", "static_center", 1)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 5.0 and len(res.history) == 5000
    report(12, ok, f"100 nodes x 5000 rounds in {elapsed:.2f}s (limit 5s)")
