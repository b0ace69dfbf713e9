"""Hot per-round kernels with selectable backends.

Two implementations are kept for every kernel: a compiled one (numba
``@njit``) and a plain NumPy/Python one.  The elementwise kernels
(``nearest_site``, ``election_mask``) and the greedy cover fall back to
vectorized NumPy; only the charging phases (``member_phase``,
``relay_phase``), whose every step depends on the residuals left by the
previous one, fall back to the identical loop without compilation.  Both
backends perform the same arithmetic in the same order, so results are
bit-identical either way.

Backend selection: the compiled path is the default when numba imports;
set ``WSNSIM_DISABLE_NUMBA=1`` to force the fallback, or call
``use_backend("python"|"numba")`` at runtime.
"""
from __future__ import annotations

import os

import numpy as np

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    HAVE_NUMBA = False

    def njit(*args, **kwargs):
        def wrap(func):
            return func

        if len(args) == 1 and callable(args[0]):
            return args[0]
        return wrap


# ---------------------------------------------------------------------------
# loop implementations (compiled under numba, also used as python fallback
# for the charging phases)
# ---------------------------------------------------------------------------

def _nearest_site_loop(px, py, sx, sy):
    n = px.shape[0]
    k = sx.shape[0]
    idx = np.empty(n, np.int64)
    d2min = np.empty(n, np.float64)
    for i in range(n):
        best = np.inf
        bidx = -1
        for t in range(k):
            dx = px[i] - sx[t]
            dy = py[i] - sy[t]
            d2 = dx * dx + dy * dy
            if d2 < best:
                best = d2
                bidx = t
        idx[i] = bidx
        d2min[i] = best
    return idx, d2min


def _election_mask_loop(u, p, rm, eligible, alive):
    n = u.shape[0]
    out = np.zeros(n, np.bool_)
    for i in range(n):
        if not (eligible[i] and alive[i]):
            continue
        denom = 1.0 - p[i] * rm[i]
        if denom <= 0.0:
            t = 1.0
        else:
            t = p[i] / denom
            if t > 1.0:
                t = 1.0
        out[i] = u[i] < t
    return out


def _member_phase_loop(gate, assign, d2ch, residual, e_elec_b, e_fs_b, e_mp_b, d0sq):
    # Members transmit in node-id order; the head pays reception per packet
    # and may die mid-phase, losing the remaining deliveries addressed to it.
    n = gate.shape[0]
    received = np.zeros(n, np.int64)
    to_ch = 0
    spent = 0.0
    for i in range(n):
        if not gate[i]:
            continue
        j = assign[i]
        if j < 0:
            continue
        r = residual[i]
        if r <= 0.0:
            continue
        d2 = d2ch[i]
        if d2 < d0sq:
            cost = e_elec_b + e_fs_b * d2
        else:
            cost = e_elec_b + e_mp_b * d2 * d2
        if r >= cost:
            residual[i] = r - cost
            spent += cost
        else:
            residual[i] = 0.0
            spent += r
            continue
        rj = residual[j]
        if rj <= 0.0:
            continue
        if rj >= e_elec_b:
            residual[j] = rj - e_elec_b
            spent += e_elec_b
            received[j] += 1
            to_ch += 1
        else:
            residual[j] = 0.0
            spent += rj
    return received, to_ch, spent


def _relay_phase_loop(order, signals, residual, tx_d2, target,
                      e_elec_b, e_fs_b, e_mp_b, e_da_b, d0sq):
    # Heads aggregate their collected signals and forward one packet each,
    # either to the sink (target -1) or to a parent head that then pays
    # reception and inherits the packet as one more signal.
    to_bs = 0
    to_ch = 0
    spent = 0.0
    for t in range(order.shape[0]):
        i = order[t]
        if residual[i] <= 0.0:
            continue
        s = signals[i]
        if s == 0:
            continue
        c_agg = e_da_b * s
        r = residual[i]
        if r < c_agg:
            residual[i] = 0.0
            spent += r
            continue
        residual[i] = r - c_agg
        spent += c_agg
        d2 = tx_d2[t]
        if d2 < d0sq:
            c_tx = e_elec_b + e_fs_b * d2
        else:
            c_tx = e_elec_b + e_mp_b * d2 * d2
        r = residual[i]
        if r < c_tx:
            residual[i] = 0.0
            spent += r
            continue
        residual[i] = r - c_tx
        spent += c_tx
        j = target[t]
        if j < 0:
            to_bs += 1
        else:
            rj = residual[j]
            if rj <= 0.0:
                continue
            if rj >= e_elec_b:
                residual[j] = rj - e_elec_b
                spent += e_elec_b
                signals[j] += 1
                to_ch += 1
            else:
                residual[j] = 0.0
                spent += rj
    return to_bs, to_ch, spent


def _greedy_cover_loop(order, x, y, dead, range2):
    # Visit nodes by ascending timer; an uncovered node becomes a head and
    # covers every still-uncovered neighbour within range.
    n = x.shape[0]
    ch_of = np.full(n, -1, np.int64)
    for t in range(order.shape[0]):
        i = order[t]
        if dead[i]:
            continue
        if ch_of[i] != -1:
            continue
        ch_of[i] = i
        for j in range(n):
            if dead[j] or ch_of[j] != -1:
                continue
            dx = x[i] - x[j]
            dy = y[i] - y[j]
            if dx * dx + dy * dy <= range2:
                ch_of[j] = i
    return ch_of


# ---------------------------------------------------------------------------
# vectorized fallbacks for the elementwise kernels and the greedy cover
# ---------------------------------------------------------------------------

# Most entries of a point-by-site distance block in `_nearest_site_np`:
# 64 KB per float64 temporary, well under malloc's 128 KB mmap threshold.
_NEAREST_BLOCK = 8192


def _nearest_rows(px, py, sx, sy):
    dx = px[:, None] - sx[None, :]
    dy = py[:, None] - sy[None, :]
    d2 = dx * dx + dy * dy
    idx = np.argmin(d2, axis=1).astype(np.int64)
    return idx, d2[np.arange(px.shape[0]), idx]


def _nearest_site_np(px, py, sx, sy):
    # Points are taken in blocks of rows, so no temporary holds the whole
    # N x k table: at 1000 nodes and 100 heads each of the five would be
    # 800 KB, and every call page-faulted ~3 MB of fresh memory in.  Each
    # row's argmin is the same in a block, so the result is bit-identical.
    n = px.shape[0]
    rows = max(1, _NEAREST_BLOCK // max(sx.shape[0], 1))
    if n <= rows:
        return _nearest_rows(px, py, sx, sy)
    idx = np.empty(n, np.int64)
    d2min = np.empty(n, np.float64)
    for a in range(0, n, rows):
        b = a + rows
        idx[a:b], d2min[a:b] = _nearest_rows(px[a:b], py[a:b], sx, sy)
    return idx, d2min


def _election_mask_np(u, p, rm, eligible, alive):
    denom = 1.0 - p * rm
    with np.errstate(divide="ignore", invalid="ignore"):
        raw = p / denom
    t = np.where(denom <= 0.0, 1.0, np.minimum(raw, 1.0))
    return eligible & alive & (u < t)


def _greedy_cover_np(order, x, y, dead, range2):
    # Same cover as the loop, one step per elected head instead of per node:
    # the next head is the first node of `order` still alive and uncovered,
    # and its squared distances are the loop's expression, so the range
    # test selects the same nodes bit for bit.  The head is taken even if
    # its own d2 fails the test (range2 < 0), so every step shrinks `free`
    # and the loop ends.  Memory stays O(N): no distance matrix is built.
    ch_of = np.full(x.shape[0], -1, np.int64)
    free = ~dead
    t = 0
    while t < order.shape[0]:
        rest = free[order[t:]]
        k = int(np.argmax(rest))
        if not rest[k]:
            break
        t += k
        i = order[t]
        dx = x[i] - x
        dy = y[i] - y
        take = free & (dx * dx + dy * dy <= range2)
        take[i] = True
        ch_of[take] = i
        free &= ~take
    return ch_of


_PY_IMPL = {
    "nearest_site": _nearest_site_np,
    "election_mask": _election_mask_np,
    "member_phase": _member_phase_loop,
    "relay_phase": _relay_phase_loop,
    "greedy_cover": _greedy_cover_np,
}

if HAVE_NUMBA:
    _NB_IMPL = {
        "nearest_site": njit(cache=True)(_nearest_site_loop),
        "election_mask": njit(cache=True)(_election_mask_loop),
        "member_phase": njit(cache=True)(_member_phase_loop),
        "relay_phase": njit(cache=True)(_relay_phase_loop),
        "greedy_cover": njit(cache=True)(_greedy_cover_loop),
    }

BACKENDS = {"python": _PY_IMPL}
if HAVE_NUMBA:
    BACKENDS["numba"] = _NB_IMPL

nearest_site = None
election_mask = None
member_phase = None
relay_phase = None
greedy_cover = None
ACTIVE_BACKEND = ""


def use_backend(name: str) -> None:
    """Bind the module-level kernel entry points to one backend."""
    global nearest_site, election_mask, member_phase, relay_phase, greedy_cover
    global ACTIVE_BACKEND
    if name not in BACKENDS:
        raise ValueError(f"unknown kernel backend: {name!r}")
    impl = BACKENDS[name]
    nearest_site = impl["nearest_site"]
    election_mask = impl["election_mask"]
    member_phase = impl["member_phase"]
    relay_phase = impl["relay_phase"]
    greedy_cover = impl["greedy_cover"]
    ACTIVE_BACKEND = name


def current_backend() -> str:
    return ACTIVE_BACKEND


def default_backend() -> str:
    if os.environ.get("WSNSIM_DISABLE_NUMBA", "0").lower() in ("1", "true", "yes"):
        return "python"
    return "numba" if HAVE_NUMBA else "python"


def warmup() -> None:
    """Trigger compilation of every kernel on toy inputs."""
    one = np.ones(2)
    idx = np.zeros(2, np.int64)
    flags = np.ones(2, np.bool_)
    for impl in BACKENDS.values():
        impl["nearest_site"](one, one, one, one)
        impl["election_mask"](one * 0.5, one * 0.1, one, flags, flags)
        impl["member_phase"](flags, idx, one, one.copy(), 1e-6, 1e-9, 1e-12, 100.0)
        impl["relay_phase"](idx, np.ones(2, np.int64), one.copy(), one, idx - 1,
                            1e-6, 1e-9, 1e-12, 1e-8, 100.0)
        impl["greedy_cover"](idx, one, one, ~flags, 1.0)


use_backend(default_backend())
