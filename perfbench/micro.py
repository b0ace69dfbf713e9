"""Kernel micro-benchmarks on synthetic inputs, on every installed backend.

Each kernel of `wsnsim._kernels` is called directly, per backend, on inputs
drawn from the run's seed at the workload's node count with one head per
ten nodes.  Reports the median time per call over a few samples.
"""
from __future__ import annotations

import statistics

import numpy as np

from wsnsim import _kernels

SAMPLES = 5
SAMPLE_S = 0.02  # each sample repeats the call for at least this long

# Radio constants in joules per packet, as ScenarioConfig's defaults give
# them for a 4000-bit packet.
E_ELEC_B, E_FS_B, E_MP_B, E_DA_B = 2e-4, 4e-8, 5.2e-12, 2e-5
D0SQ = 7692.3


def kernel_calls(n, seed):
    heads = max(1, n // 10)
    rng = np.random.default_rng([seed, n])
    px, py = rng.uniform(0, 100, n), rng.uniform(0, 100, n)
    sx, sy = rng.uniform(0, 100, heads), rng.uniform(0, 100, heads)
    u = rng.random(n)
    p = np.full(n, 0.1)
    rm = np.full(n, 3.0)
    flags = np.ones(n, np.bool_)
    gate = rng.random(n) < 0.6
    assign = rng.integers(0, n, n).astype(np.int64)
    d2ch = rng.uniform(0, 5000, n)
    resid = rng.uniform(0.1, 0.5, n)
    order = np.arange(heads, dtype=np.int64)
    signals = rng.integers(0, 9, n).astype(np.int64)
    tx_d2 = rng.uniform(0, 9000, heads)
    target = np.full(heads, -1, np.int64)
    timer_order = np.argsort(rng.random(n)).astype(np.int64)
    return {
        "nearest_site": lambda k: k["nearest_site"](px, py, sx, sy),
        "election_mask": lambda k: k["election_mask"](u, p, rm, flags, flags),
        "member_phase": lambda k: k["member_phase"](
            gate, assign, d2ch, resid.copy(), E_ELEC_B, E_FS_B, E_MP_B, D0SQ),
        "relay_phase": lambda k: k["relay_phase"](
            order, signals.copy(), resid.copy(), tx_d2, target,
            E_ELEC_B, E_FS_B, E_MP_B, E_DA_B, D0SQ),
        "greedy_cover": lambda k: k["greedy_cover"](
            timer_order, px, py, ~flags, 625.0),
    }


def _per_call(fn, now):
    t0 = now()
    fn()
    loops = max(1, int(SAMPLE_S / max(now() - t0, 1e-7)))
    samples = []
    for _ in range(SAMPLES):
        t0 = now()
        for _ in range(loops):
            fn()
        samples.append((now() - t0) / loops)
    return statistics.median(samples)


def micro_metrics(n, seed, now):
    """{"micro.<backend>.<kernel>.us": (median microseconds per call, "us")},
    timed on the clock `now`."""
    out = {}
    for backend in sorted(_kernels.BACKENDS):
        impl = _kernels.BACKENDS[backend]
        for name, call in kernel_calls(n, seed).items():
            out[f"micro.{backend}.{name}.us"] = (
                _per_call(lambda: call(impl), now) * 1e6, "us")
    return out
