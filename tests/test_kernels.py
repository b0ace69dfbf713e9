"""Backend selection and numerical parity between the two kernel sets.

The compiled and pure-python kernels must agree bit-for-bit, not just
approximately: simulation traces are part of the deliverable and may not
depend on whether the JIT is available.
"""
import os
import subprocess
import sys

import numpy as np
import pytest

from wsnsim import _kernels
from wsnsim import ScenarioConfig, run_scenario, use_backend


HAVE_BOTH = len(_kernels.BACKENDS) == 2
needs_both = pytest.mark.skipif(not HAVE_BOTH, reason="numba unavailable")


def test_backend_registry():
    assert "python" in _kernels.BACKENDS
    assert set(_kernels.BACKENDS) <= {"python", "numba"}
    with pytest.raises(ValueError):
        use_backend("fortran")


def test_use_backend_rebinds_entry_points():
    use_backend("python")
    assert _kernels.current_backend() == "python"
    assert _kernels.nearest_site is _kernels.BACKENDS["python"]["nearest_site"]


def test_default_backend_env_flag():
    # spawn a clean interpreter so the import-time decision is exercised
    code = (
        "import wsnsim; print(wsnsim.current_backend())"
    )
    env = dict(os.environ, WSNSIM_DISABLE_NUMBA="1")
    got = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert got.stdout.strip() == "python"


def kernel_impls(name):
    """The uncompiled loop (the reference), the numpy fallback and, if
    installed, numba's compiled kernel."""
    impls = [getattr(_kernels, f"_{name}_loop"), _kernels.BACKENDS["python"][name]]
    if HAVE_BOTH:
        impls.append(_kernels.BACKENDS["numba"][name])
    return impls


def nearest_instances(rng):
    """Random tables, no points at all (a round in which no member
    reports), then tables larger than one row block of the numpy fallback
    on an integer grid, so that equal distances (the first site wins) fall
    at block edges."""
    for _ in range(20):
        n, k = int(rng.integers(1, 200)), int(rng.integers(1, 20))
        yield (rng.uniform(0, 100, n), rng.uniform(0, 100, n),
               rng.uniform(0, 100, k), rng.uniform(0, 100, k))
    yield np.empty(0), np.empty(0), rng.uniform(0, 100, 5), rng.uniform(0, 100, 5)
    block = _kernels._NEAREST_BLOCK
    for n, k in ((1000, 100), (1000, 9), (5, block + 3), (3 * block // 64 + 1, 64)):
        yield tuple(rng.integers(0, 30, m).astype(np.float64) for m in (n, n, k, k))


def test_nearest_site_parity():
    rng = np.random.default_rng(40)
    impls = kernel_impls("nearest_site")
    for px, py, sx, sy in nearest_instances(rng):
        (ia, da), *others = [impl(px, py, sx, sy) for impl in impls]
        for ib, db in [(ia, da)] + others:
            assert ib.dtype == np.int64 and db.dtype == np.float64
            assert ib.shape == db.shape == px.shape
            assert np.array_equal(ia, ib)
            assert np.array_equal(da, db)  # bitwise, no tolerance


def test_election_mask_parity():
    rng = np.random.default_rng(41)
    for _ in range(20):
        n = int(rng.integers(1, 300))
        u = rng.random(n)
        p = rng.uniform(0.01, 1.0, n)
        rm = np.floor(rng.uniform(0, 12, n))
        elig = rng.random(n) < 0.8
        alive = rng.random(n) < 0.9
        ref, *others = kernel_impls("election_mask")
        a = ref(u, p, rm, elig, alive)
        for impl in others:
            assert np.array_equal(a, impl(u, p, rm, elig, alive))


def test_election_mask_epoch_end_certainty():
    # at rm where 1 - p*rm <= 0 the threshold saturates at 1: everyone fires
    n = 64
    u = np.random.default_rng(2).random(n)
    p = np.full(n, 0.1)
    rm = np.full(n, 10.0)  # denominator exactly 0
    flags = np.ones(n, np.bool_)
    for impl in _kernels.BACKENDS.values():
        assert np.all(impl["election_mask"](u, p, rm, flags, flags))


def cover_instances(rng):
    """Seeded cover inputs: dead nodes (left in the order or dropped from
    it, as the election does), empty orders, timer ties (a stable argsort
    over few distinct values), duplicated coordinates, negative and zero
    ranges, a range met exactly and a range wider than the field."""
    for trial in range(60):
        n = int(rng.integers(1, 150))
        if trial % 3 == 0:  # coarse grid: many coincident points
            x = rng.integers(0, 5, n) * 20.0
            y = rng.integers(0, 5, n) * 20.0
        else:
            x, y = rng.uniform(0, 100, n), rng.uniform(0, 100, n)
        dead = rng.random(n) < rng.choice((0.0, 0.3, 0.95))
        timer = np.floor(rng.uniform(0, 4, n))  # few distinct values: ties
        order = np.argsort(timer, kind="stable").astype(np.int64)
        if trial % 5 == 0:
            order = order[:0]
        elif trial % 2:
            order = order[~dead[order]]
        # 400 is the grid step squared (on the boundary); -1 makes every
        # node of the order a head of its own
        for range2 in (-1.0, 0.0, 400.0, 625.0, 1e6):
            yield order, x, y, dead, range2


def test_greedy_cover_parity():
    rng = np.random.default_rng(43)
    ref, *others = kernel_impls("greedy_cover")
    for order, x, y, dead, range2 in cover_instances(rng):
        a = ref(order, x, y, dead, range2)
        for impl in others:
            assert np.array_equal(a, impl(order, x, y, dead, range2))


# Per-packet radio constants: the engine's defaults for a 4000-bit packet,
# then powers of two, under which a head's run of reception charges is
# exact, so a residual that is a multiple of e_elec_b lands on 0.0 and a
# head can sit exactly at e_elec_b before its last packet.
RADIO = ((2e-4, 4e-8, 5.2e-12, 2e-5, 7692.3),
         (2.0**-12, 2.0**-30, 2.0**-40, 2.0**-14, 4096.0))


def tx_cost(d2, e_elec_b, e_fs_b, e_mp_b, d0sq):
    return np.where(d2 < d0sq, e_elec_b + e_fs_b * d2, e_elec_b + e_mp_b * d2 * d2)


def charge_heads(rng, resid, heads, e_elec_b):
    """Head residuals: exact multiples of e_elec_b, dying on the k-th
    reception, already dead, or with plenty to spare."""
    k = rng.integers(0, 6, heads.size)
    kind = rng.integers(0, 4, heads.size)
    resid[heads] = np.select([kind == 0, kind == 1, kind == 2],
                             [k * e_elec_b, (k + 0.5) * e_elec_b, 0.0], 1.0)


def member_instances(rng):
    """Engine-shaped member inputs (heads never send), each followed by an
    off-contract copy in which some heads send, then fully random inputs
    with self-addressed packets."""
    for trial in range(40):
        e_elec_b, e_fs_b, e_mp_b, _, d0sq = RADIO[trial % 2]
        n = int(rng.integers(1, 150))
        heads = np.flatnonzero(rng.random(n) < rng.choice((0.02, 0.15, 0.5)))
        if heads.size == 0:
            heads = np.array([0])
        assign = rng.choice(heads, n).astype(np.int64)
        assign[heads] = -1
        assign[rng.random(n) < 0.1] = -1  # dead or unassigned
        gate = rng.random(n) < 0.7
        d2ch = rng.uniform(0, 2 * d0sq, n)
        d2ch[rng.random(n) < 0.1] = d0sq
        cost = tx_cost(d2ch, e_elec_b, e_fs_b, e_mp_b, d0sq)
        resid = rng.uniform(0, 2 * cost)  # about half the senders die
        exact = rng.random(n) < 0.1
        resid[exact] = cost[exact]  # exactly enough to send
        resid[rng.random(n) < 0.05] = 0.0
        charge_heads(rng, resid, heads, e_elec_b)
        if trial % 9 == 0:
            gate[:] = False
        radio = (e_elec_b, e_fs_b, e_mp_b, d0sq)
        yield (gate, assign, d2ch, resid) + radio
        off = assign.copy()
        off[heads] = rng.choice(heads, heads.size)  # heads send, some to themselves
        gate[heads] = True
        yield (gate, off, d2ch, resid) + radio
    for _ in range(10):
        n = 120
        gate = rng.random(n) < 0.7
        assign = rng.integers(-1, n, n).astype(np.int64)
        d2ch = rng.uniform(0, 12000, n)
        resid = rng.uniform(0.0, 2e-3, n)  # low charge: force mid-phase deaths
        yield gate, assign, d2ch, resid, 2e-4, 4e-8, 5.2e-12, 7692.3


def assert_member_parity(cases):
    ref, *others = kernel_impls("member_phase")
    for gate, assign, d2ch, resid, *radio in cases:
        r = resid.copy()
        rec = ref(gate, assign, d2ch, r, *radio)
        for impl in others:
            r2 = resid.copy()
            rec2 = impl(gate, assign, d2ch, r2, *radio)
            assert rec2.dtype == np.int64 and rec2.shape == gate.shape
            assert np.array_equal(rec, rec2)
            assert r.tobytes() == r2.tobytes()  # residuals bit-equal


def test_member_phase_parity_with_deaths():
    assert_member_parity(member_instances(np.random.default_rng(42)))


def test_member_phase_parity_sparse_gates(monkeypatch):
    # Gates of fewer than _LOOP_BELOW nodes send the fallback to the loop,
    # where it would only meet itself; with the threshold at 0 its
    # vectorized path checks the loop's walk over the gated ids on sparse
    # and empty gates.
    monkeypatch.setattr(_kernels, "_LOOP_BELOW", 0)
    rng = np.random.default_rng(45)

    def sparse_gates():
        for gate, *rest in member_instances(rng):
            sparse = np.zeros_like(gate)
            sparse[rng.permutation(gate.nonzero()[0])[:int(rng.integers(0, 16))]] = True
            yield (sparse, *rest)

    assert_member_parity(sparse_gates())


def relay_instances(rng):
    """One engine-shaped tier per case (distinct senders in ascending id
    order, next-tier targets outside it, -1 for the sink), each followed by
    off-contract copies: a target inside the order, and repeated senders."""
    for trial in range(60):
        e_elec_b, e_fs_b, e_mp_b, e_da_b, d0sq = RADIO[trial % 2]
        n = int(rng.integers(2, 150))
        perm = rng.permutation(n)
        a = int(rng.integers(0, n))
        b = int(rng.integers(a, n + 1))
        order = np.sort(perm[:a]).astype(np.int64)
        upper = perm[a:b]
        if trial % 10 == 0:
            order = order[:0]
        target = np.full(order.size, -1, np.int64)
        if upper.size and trial % 7:  # every seventh tier reports to the sink only
            up = rng.random(order.size) < 0.8
            target[up] = rng.choice(upper, int(np.count_nonzero(up)))
        signals = rng.integers(0, 5, n).astype(np.int64)
        signals[rng.random(n) < 0.1] = 0
        if trial % 11 == 0:
            signals[:] = 0
        tx_d2 = rng.uniform(0, 2 * d0sq, order.size)
        tx_d2[rng.random(order.size) < 0.1] = d0sq
        c_agg = e_da_b * signals[order]
        c_tx = tx_cost(tx_d2, e_elec_b, e_fs_b, e_mp_b, d0sq)
        resid = rng.uniform(0, 1.0, n)
        pick = rng.integers(0, 5, order.size)
        resid[order] = np.select(
            [pick == 0, pick == 1, pick == 2, pick == 3],
            [c_agg, c_agg + c_tx, rng.uniform(0, 2, order.size) * (c_agg + c_tx), 0.0],
            1.0)
        charge_heads(rng, resid, upper, e_elec_b)
        radio = (e_elec_b, e_fs_b, e_mp_b, e_da_b, d0sq)
        yield (order, signals, resid, tx_d2, target) + radio
        if order.size >= 2:
            inner = target.copy()
            inner[0] = order[-1]
            yield (order, signals, resid, tx_d2, inner) + radio
            twice = np.concatenate([order, order[:2]])
            yield (twice, signals, resid, np.concatenate([tx_d2, tx_d2[:2]]),
                   np.concatenate([target, target[:2]])) + radio


def test_relay_phase_parity():
    rng = np.random.default_rng(44)
    ref, *others = kernel_impls("relay_phase")
    for order, signals, resid, tx_d2, target, *radio in relay_instances(rng):
        s, r = signals.copy(), resid.copy()
        out = ref(order, s, r, tx_d2, target, *radio)
        assert not np.any(out & (target >= 0))  # only sink deliveries are flagged
        for impl in others:
            s2, r2 = signals.copy(), resid.copy()
            got = impl(order, s2, r2, tx_d2, target, *radio)
            assert got.dtype == np.bool_ and got.shape == order.shape
            assert np.array_equal(got, out)
            assert np.array_equal(s, s2)
            assert r.tobytes() == r2.tobytes()  # residuals bit-equal


PROTOCOLS = ("leach", "teen", "deec", "hteen", "campteen")
SINKS = ("static_center", "static_top", "mobile_top")


def test_full_run_parity_loop_charging(monkeypatch):
    # The vectorized charging phases against their uncompiled loops over
    # whole runs in which nodes die (CAMP-TEEN's hard threshold lowered so
    # that its nodes report): every history row and the final residuals.
    use_backend("python")
    cfg = ScenarioConfig(nodes=200, rounds=300, initial_energy_j=0.02,
                         camp_hard_threshold=100.0)
    vec = {(p, k): run_scenario(cfg, p, k, 7) for p in PROTOCOLS for k in SINKS}
    monkeypatch.setattr(_kernels, "member_phase", _kernels._member_phase_loop)
    monkeypatch.setattr(_kernels, "relay_phase", _kernels._relay_phase_loop)
    for (proto, sink), a in vec.items():
        b = run_scenario(cfg, proto, sink, 7)
        for i in range(cfg.rounds):
            assert a.history.row(i) == b.history.row(i), f"{proto} {sink} round {i}"
        assert a.network.residual.tobytes() == b.network.residual.tobytes()
    assert all(r.history.dead[-1] > 0 for r in vec.values())


@needs_both
def test_full_run_parity_across_backends():
    cfg = ScenarioConfig(rounds=400)
    for proto in ("leach", "deec", "hteen"):
        use_backend("numba")
        a = run_scenario(cfg, proto, "mobile_top", 11)
        use_backend("python")
        b = run_scenario(cfg, proto, "mobile_top", 11)
        for i in range(400):
            assert a.history.row(i) == b.history.row(i), f"{proto} round {i}"


@needs_both
def test_python_backend_env_flag_matches_numba_run(tmp_path):
    # end to end through a subprocess with the JIT disabled entirely
    cfg = ScenarioConfig(rounds=120)
    use_backend("numba")
    res = run_scenario(cfg, "teen", "static_top", 5)
    expected = (res.summary.total_throughput, res.summary.stability_period)
    code = (
        "from wsnsim import ScenarioConfig, run_scenario\n"
        "r = run_scenario(ScenarioConfig(rounds=120), 'teen', 'static_top', 5)\n"
        "print(r.summary.total_throughput, r.summary.stability_period)\n"
    )
    env = dict(os.environ, WSNSIM_DISABLE_NUMBA="1")
    got = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert got.stdout.split() == [str(expected[0]), str(expected[1])]
