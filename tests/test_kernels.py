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
    """Random tables, then tables larger than one row block of the numpy
    fallback on an integer grid, so that equal distances (the first site
    wins) fall at block edges."""
    for _ in range(20):
        n, k = int(rng.integers(1, 200)), int(rng.integers(1, 20))
        yield (rng.uniform(0, 100, n), rng.uniform(0, 100, n),
               rng.uniform(0, 100, k), rng.uniform(0, 100, k))
    block = _kernels._NEAREST_BLOCK
    for n, k in ((1000, 100), (1000, 9), (5, block + 3), (3 * block // 64 + 1, 64)):
        yield tuple(rng.integers(0, 30, m).astype(np.float64) for m in (n, n, k, k))


def test_nearest_site_parity():
    rng = np.random.default_rng(40)
    ref, *others = kernel_impls("nearest_site")
    for px, py, sx, sy in nearest_instances(rng):
        ia, da = ref(px, py, sx, sy)
        for impl in others:
            ib, db = impl(px, py, sx, sy)
            assert ib.dtype == np.int64
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


@needs_both
def test_member_phase_parity_with_deaths():
    rng = np.random.default_rng(42)
    for _ in range(10):
        n = 120
        gate = rng.random(n) < 0.7
        assign = rng.integers(-1, n, n)
        d2ch = rng.uniform(0, 12000, n)
        resid = rng.uniform(0.0, 2e-3, n)  # low charge: force mid-phase deaths
        args = (gate, assign.astype(np.int64), d2ch, None, 2e-4, 4e-8, 5.2e-12, 7692.3)
        outs = []
        for name in ("numba", "python"):
            r = resid.copy()
            a = list(args)
            a[3] = r
            rec, to_ch, spent = _kernels.BACKENDS[name]["member_phase"](*a)
            outs.append((rec.copy(), to_ch, spent, r))
        assert np.array_equal(outs[0][0], outs[1][0])
        assert outs[0][1] == outs[1][1]
        assert outs[0][2] == outs[1][2]
        assert np.array_equal(outs[0][3], outs[1][3])  # residuals bit-equal


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
