"""Hot per-round kernels with selectable backends.

Two implementations are kept for every kernel: a compiled one (numba
``@njit``) and a plain NumPy one.  The compiled one is the loop written
out below, which also serves as the reference.  The NumPy fallbacks
vectorize every kernel, the charging phases (``member_phase``,
``relay_phase``) included: within one call the engine never lets a node
both send and receive, so each sender's charge depends only on its own
residual and each receiver's charges are a run of equal reception costs.
Inputs outside that contract, and calls too small to repay numpy's
per-call cost, take the loop.  Both backends perform the same arithmetic
in the same order, so results are bit-identical either way.

The engine hands the kernels a population that may stack several runs
(ids r*N .. r*N+N-1 for run r).  The elementwise kernels and the charging
phases need no run boundaries: no packet crosses from one run to
another, so their contracts hold per run and hence for the stack.  For
the same reason the charging phases report per-node outcomes, not
totals: ``member_phase`` returns the packets each node received, and
``relay_phase`` returns, per sender, whether its packet reached the sink
(receptions by heads are added to ``signals`` in place).  The engine
tallies them per run.  ``nearest_site`` serves a whole batch in one
call: each run's sites fill one column of a (k_max, runs) table padded
with +inf, and each point carries its run index, so a point searches only
its own run's sites; called without run indices it searches one run's
1-D sites.  ``cover`` sees one run at a time: it reads the run's range
graph (``range_graph``), which the engine builds once per run since nodes
never move, and takes one key per node (CAMP-TEEN's timers), so nothing
is sorted: the next head is the free node of least key, the lowest id on
ties, and a node keyed +inf is never a head.  Its work grows with the
heads it elects, not with a sort of every node.  ``greedy_cover`` is
``cover`` on a graph built for the one call, keyed by rank in an order.

The charging phases pay the first-order radio model of LEACH (all costs
in joules, distances in meters, payloads in bits).  Its constants are
`ScenarioConfig` fields: electronics `e_elec_j` per bit for transmit and
receive circuitry, free-space amplification `e_fs_j` per bit per m^2,
multipath amplification `e_mp_j` per bit per m^4, aggregation `e_da_j`
per bit per incoming signal, and `packet_bits` per packet.  Transmit
cost switches from free-space (d^2) to multipath (d^4) amplification at
the crossover distance d0 = sqrt(e_fs / e_mp); the engine derives the
per-packet charges and d0^2 from the config and passes them in.

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
# loop implementations (compiled under numba; the reference for the
# vectorized fallbacks below)
# ---------------------------------------------------------------------------

def _nearest_site_loop(px, py, sx, sy, run):
    # Point i searches column run[i] of the (k_max, runs) site tables; +inf
    # padding never wins, and a point with no finite site gets (-1, inf).
    n = px.shape[0]
    k = sx.shape[0]
    idx = np.empty(n, np.int64)
    d2min = np.empty(n, np.float64)
    for i in range(n):
        r = run[i]
        best = np.inf
        bidx = -1
        for t in range(k):
            dx = px[i] - sx[t, r]
            dy = py[i] - sy[t, r]
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
    # Returns the packets each node received.
    received = np.zeros(gate.shape[0], np.int64)
    for i in np.nonzero(gate)[0]:
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
        else:
            residual[i] = 0.0
            continue
        rj = residual[j]
        if rj <= 0.0:
            continue
        if rj >= e_elec_b:
            residual[j] = rj - e_elec_b
            received[j] += 1
        else:
            residual[j] = 0.0
    return received


def _relay_phase_loop(order, signals, residual, tx_d2, target,
                      e_elec_b, e_fs_b, e_mp_b, e_da_b, d0sq):
    # Heads aggregate their collected signals and forward one packet each,
    # either to the sink (target -1) or to a parent head that then pays
    # reception and inherits the packet as one more signal.  Returns, per
    # sender, whether its packet reached the sink.
    to_sink = np.zeros(order.shape[0], np.bool_)
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
            continue
        residual[i] = r - c_agg
        d2 = tx_d2[t]
        if d2 < d0sq:
            c_tx = e_elec_b + e_fs_b * d2
        else:
            c_tx = e_elec_b + e_mp_b * d2 * d2
        r = residual[i]
        if r < c_tx:
            residual[i] = 0.0
            continue
        residual[i] = r - c_tx
        j = target[t]
        if j < 0:
            to_sink[t] = True
        else:
            rj = residual[j]
            if rj <= 0.0:
                continue
            if rj >= e_elec_b:
                residual[j] = rj - e_elec_b
                signals[j] += 1
            else:
                residual[j] = 0.0
    return to_sink


def _cover_loop(key, adj, dead):
    # Repeatedly elect the free (alive, uncovered) node of least key, the
    # lowest id on ties; it covers itself and every free neighbour in its
    # row of the range graph.  A node keyed +inf (or NaN) is never elected.
    n = adj.shape[0]
    ch_of = np.full(n, -1, np.int64)
    while True:
        h = -1
        best = np.inf
        for i in range(n):
            if not dead[i] and ch_of[i] == -1 and key[i] < best:
                best = key[i]
                h = i
        if h < 0:
            break
        ch_of[h] = h
        row = adj[h]
        for j in range(n):
            if row[j] and not dead[j] and ch_of[j] == -1:
                ch_of[j] = h
    return ch_of


# ---------------------------------------------------------------------------
# vectorized fallbacks
# ---------------------------------------------------------------------------

# Most entries of each of the two scratch tables (512 KB of float64) in
# which `_nearest_site_np` and `range_graph` compute their distances.  The
# tables are kept and reused across calls, so no call faults fresh memory
# in; larger problems are taken in blocks of rows.
# Two threads must not run the fallback at once: the simulator runs
# batches in processes, never in threads.
_NEAREST_CAP = 1 << 16
_nearest_scratch = (np.empty(0), np.empty(0))


def _nearest_tables(size):
    # Two float64 tables of `size` entries: views of the kept scratch up to
    # `_NEAREST_CAP`, fresh arrays beyond it (a single row wider than the
    # cap, i.e. more sites than that in one run).
    global _nearest_scratch
    if size > _NEAREST_CAP:
        return np.empty(size), np.empty(size)
    if _nearest_scratch[0].shape[0] < size:
        _nearest_scratch = (np.empty(size), np.empty(size))
    return _nearest_scratch[0][:size], _nearest_scratch[1][:size]


def _nearest_site_np(px, py, sx, sy, run):
    # The loop's distance table, one block of rows at a time, computed in
    # place in the scratch tables: each row starts as its point's column of
    # sites, from which the point is subtracted (`px - sx`, like the loop),
    # then squared and summed.  A row's first minimum is the loop's strict
    # `<`.  Only the returned arrays are fresh; no view of the scratch
    # outlives the call.
    n = px.shape[0]
    k = sx.shape[0]
    idx = np.empty(n, np.int64)
    d2min = np.empty(n, np.float64)
    if k == 0:
        idx.fill(-1)
        d2min.fill(np.inf)
        return idx, d2min
    # one row of sites per run, gathered per point below; no copy when the
    # tables are transposed row-major ones, as `protocols` passes them
    sxr, syr = np.ascontiguousarray(sx.T), np.ascontiguousarray(sy.T)
    rows = max(1, _NEAREST_CAP // k)
    for a in range(0, n, rows):
        b = min(a + rows, n)
        t1, t2 = _nearest_tables((b - a) * k)
        dx = t1.reshape(b - a, k)
        dy = t2.reshape(b - a, k)
        np.take(sxr, run[a:b], axis=0, out=dx, mode="clip")
        np.subtract(px[a:b, None], dx, out=dx)
        np.multiply(dx, dx, out=dx)
        np.take(syr, run[a:b], axis=0, out=dy, mode="clip")
        np.subtract(py[a:b, None], dy, out=dy)
        np.multiply(dy, dy, out=dy)
        np.add(dx, dy, out=dx)
        np.argmin(dx, axis=1, out=idx[a:b])
        np.take(t1, idx[a:b] + np.arange(0, (b - a) * k, k), out=d2min[a:b])
    # a point with only padding in its column: the loop keeps (-1, inf)
    if n and d2min.max() == np.inf:
        idx[d2min == np.inf] = -1
    return idx, d2min


def _nearest_site_of(kernel):
    """`nearest_site(px, py, sx, sy, run=None)`: for each point
    (`px[i]`, `py[i]`), the index of its nearest site in column `run[i]`
    of the (k_max, runs) site tables `sx`, `sy` (columns padded with +inf),
    and the squared distance to it.  Ties go to the lowest index; a point
    whose column holds no site gets (-1, inf).  Without `run`, `sx` and
    `sy` are one run's 1-D sites and every point searches them."""
    def nearest_site(px, py, sx, sy, run=None):
        if run is None:
            return kernel(px, py, sx.reshape(-1, 1), sy.reshape(-1, 1),
                          np.zeros(px.shape[0], np.int64))
        return kernel(px, py, sx, sy, run)
    return nearest_site


def range_graph(x, y, range2):
    """The N x N boolean range graph of one run: entry (i, j) is True when
    `dx*dx + dy*dy <= range2`, with `dx = x[i] - x[j]` and
    `dy = y[i] - y[j]`.  Node positions never change, so a run builds its
    graph once.  The distances are computed in place in the kept scratch
    tables, in blocks of rows of at most `_NEAREST_CAP` entries, so no
    temporary holds N x N floats.  Shared by both backends."""
    n = x.shape[0]
    adj = np.empty((n, n), np.bool_)
    rows = max(1, _NEAREST_CAP // max(n, 1))
    for a in range(0, n, rows):
        b = min(a + rows, n)
        t1, t2 = _nearest_tables((b - a) * n)
        dx = t1.reshape(b - a, n)
        dy = t2.reshape(b - a, n)
        np.subtract(x[a:b, None], x, out=dx)
        np.multiply(dx, dx, out=dx)
        np.subtract(y[a:b, None], y, out=dy)
        np.multiply(dy, dy, out=dy)
        np.add(dx, dy, out=dx)
        np.less_equal(dx, range2, out=adj[a:b])
    return adj


def _greedy_cover_of(cover):
    """`greedy_cover(order, x, y, dead, range2)`: the backend's `cover` on
    the range graph of `x`, `y`, built for the one call, keyed by rank in
    `order` (nodes outside `order` keyed +inf: covered, never heads).  The
    engine builds each run's graph once and calls `cover`; this form serves
    callers that hold positions, such as `warmup` and the benchmark's
    kernel timings."""
    def greedy_cover(order, x, y, dead, range2):
        key = np.full(x.shape[0], np.inf)
        key[order] = np.arange(order.shape[0], dtype=np.float64)
        return cover(key, range_graph(x, y, range2), dead)
    return greedy_cover


# the reference for both backends' `greedy_cover`: the uncompiled loop
_greedy_cover_loop = _greedy_cover_of(_cover_loop)


def _election_mask_np(u, p, rm, eligible, alive):
    # T is 1 wherever the loop takes it as 1 (denom <= 0), and the loop's
    # capped quotient elsewhere, NaN included
    denom = 1.0 - p * rm
    t = np.ones(u.shape[0])
    np.divide(p, denom, out=t, where=~(denom <= 0.0))
    np.minimum(t, 1.0, out=t)
    return eligible & alive & (u < t)


def _cover_np(key, adj, dead):
    # Same cover as the loop, one step per elected head: `left` holds the
    # keys below +inf of the free nodes and +inf elsewhere (NaN, like +inf,
    # never passes the loop's `<`), so its first least entry is the next
    # head, and the cover ends when that entry is +inf.  The head takes the
    # free nodes of its row of the range graph, itself even if its own
    # entry is False (range2 < 0), so every step shrinks `free`.
    ch_of = np.full(adj.shape[0], -1, np.int64)
    free = ~dead
    left = np.where(free & (key < np.inf), key, np.inf)
    while True:
        h = left.argmin()
        if left[h] == np.inf:
            break
        take = free & adj[h]
        take[h] = True
        took = take.nonzero()[0]
        ch_of[took] = h
        free[took] = False
        left[took] = np.inf
    return ch_of


# Gated nodes (member phase) or tier senders (relay phase) below which the
# charging phases take the loop: its cost grows with each sender, while
# the vectorized path pays a fixed toll of a few dozen numpy calls, which
# small tiers and sparsely gated rounds never earn back.
_LOOP_BELOW = 16


def _pay_tx(r, d2, e_elec_b, e_fs_b, e_mp_b, d0sq):
    # Each sender's transmission on its own residual, with the loop's
    # expressions: (delivered, residual afterwards).  A sender that cannot
    # pay ends at 0.0 and its packet is lost.
    cost = e_elec_b + np.where(d2 < d0sq, e_fs_b * d2, e_mp_b * d2 * d2)
    ok = r >= cost
    return ok, np.where(ok, r - cost, 0.0)


def _receive(residual, dest, count, e_elec_b):
    # Charge reception for packets delivered to heads `dest` (ids >= 0) and
    # add each head's receptions to `count`.
    # A head's charges are a run of equal subtractions, so only its number
    # of packets matters.  Each head's segment [r, e, ..., e] of one flat
    # array, reduced left to right (sequentially, like the loop), is its
    # residual after paying every packet; the run is non-increasing, and
    # r >= e exactly when r - e >= 0, so the head paid every packet exactly
    # when its segment ends >= 0.  Only the heads that fall short replay
    # their rows [r, e, e, ...] accumulated: they pay the entries >= e and
    # end at 0.0.  A head already at <= 0 is left untouched.
    if dest.size == 0:
        return
    per = np.bincount(dest, minlength=residual.shape[0])
    heads = per.nonzero()[0]
    heads = heads[residual[heads] > 0.0]
    if heads.size == 0:
        return
    sent = per[heads]
    starts = np.cumsum(sent + 1) - (sent + 1)
    seg = np.full(int(starts[-1] + sent[-1] + 1), e_elec_b)
    seg[starts] = residual[heads]
    end = np.subtract.reduceat(seg, starts)
    paid = end >= 0.0
    got = sent
    if not paid.all():
        # a short head's entries >= e are a prefix shorter than its packets
        short = ~paid
        run = np.full((np.count_nonzero(short), int(sent[short].max()) + 1), e_elec_b)
        run[:, 0] = seg[starts[short]]
        np.subtract.accumulate(run, axis=1, out=run)
        got = sent.copy()
        got[short] = np.add.reduce(run >= e_elec_b, axis=1)
    residual[heads] = np.where(paid, end, 0.0)
    count[heads] += got


def _member_phase_np(gate, assign, d2ch, residual, e_elec_b, e_fs_b, e_mp_b, d0sq):
    # Exact when no sender is also a head, as the engine guarantees (heads
    # have assign -1): every sender then pays from its own residual alone.
    # Any other input takes the loop.
    args = (gate, assign, d2ch, residual, e_elec_b, e_fs_b, e_mp_b, d0sq)
    if np.count_nonzero(gate) < _LOOP_BELOW:
        return _member_phase_loop(*args)
    sends = gate & (assign >= 0) & (residual > 0.0)
    snd = sends.nonzero()[0]
    dest = assign[snd]
    if np.count_nonzero(sends[dest]):
        return _member_phase_loop(*args)
    received = np.zeros(gate.shape[0], np.int64)
    ok, left = _pay_tx(residual[snd], d2ch[snd], e_elec_b, e_fs_b, e_mp_b, d0sq)
    residual[snd] = left
    _receive(residual, dest[ok], received, e_elec_b)
    return received


def _relay_phase_np(order, signals, residual, tx_d2, target,
                    e_elec_b, e_fs_b, e_mp_b, e_da_b, d0sq):
    # Exact when `order` holds each sender once and no target is a sender,
    # as one tier of the engine's hierarchy guarantees; any other input
    # takes the loop.  Aggregation and transmission are charged as two
    # steps, like the loop; a sender with no signal or no charge is skipped.
    args = (order, signals, residual, tx_d2, target, e_elec_b, e_fs_b, e_mp_b, e_da_b, d0sq)
    if order.shape[0] < _LOOP_BELOW:
        return _relay_phase_loop(*args)
    seen = np.zeros(residual.shape[0], np.bool_)
    seen[order] = True
    if np.count_nonzero(seen) < order.shape[0] or np.count_nonzero(seen[target[target >= 0]]):
        return _relay_phase_loop(*args)
    s = signals[order]
    r = residual[order]
    act = (r > 0.0) & (s != 0)
    c_agg = e_da_b * s
    ok, left = _pay_tx(r - c_agg, tx_d2, e_elec_b, e_fs_b, e_mp_b, d0sq)
    sent = act & (r >= c_agg) & ok
    residual[order] = np.where(sent, left, np.where(act, 0.0, r))
    dest = target[sent]
    _receive(residual, dest[dest >= 0], signals, e_elec_b)
    return sent & (target < 0)


_PY_IMPL = {
    "nearest_site": _nearest_site_of(_nearest_site_np),
    "election_mask": _election_mask_np,
    "member_phase": _member_phase_np,
    "relay_phase": _relay_phase_np,
    "cover": _cover_np,
    "greedy_cover": _greedy_cover_of(_cover_np),
}

if HAVE_NUMBA:
    _NB_IMPL = {
        "nearest_site": _nearest_site_of(njit(cache=True)(_nearest_site_loop)),
        "election_mask": njit(cache=True)(_election_mask_loop),
        "member_phase": njit(cache=True)(_member_phase_loop),
        "relay_phase": njit(cache=True)(_relay_phase_loop),
        "cover": njit(cache=True)(_cover_loop),
    }
    _NB_IMPL["greedy_cover"] = _greedy_cover_of(_NB_IMPL["cover"])

BACKENDS = {"python": _PY_IMPL}
if HAVE_NUMBA:
    BACKENDS["numba"] = _NB_IMPL

nearest_site = None
election_mask = None
member_phase = None
relay_phase = None
cover = None
greedy_cover = None
ACTIVE_BACKEND = ""


def use_backend(name: str) -> None:
    """Bind the module-level kernel entry points to one backend."""
    global nearest_site, election_mask, member_phase, relay_phase, cover, greedy_cover
    global ACTIVE_BACKEND
    if name not in BACKENDS:
        raise ValueError(f"unknown kernel backend: {name!r}")
    impl = BACKENDS[name]
    nearest_site = impl["nearest_site"]
    election_mask = impl["election_mask"]
    member_phase = impl["member_phase"]
    relay_phase = impl["relay_phase"]
    cover = impl["cover"]
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
        # `protocols.nearest_in_columns` passes transposed views of
        # row-major site tables
        impl["nearest_site"](one, one, np.ones((2, 2)).T, np.ones((2, 2)).T, idx)
        impl["election_mask"](one * 0.5, one * 0.1, one, flags, flags)
        impl["member_phase"](flags, idx, one, one.copy(), 1e-6, 1e-9, 1e-12, 100.0)
        impl["relay_phase"](idx, np.ones(2, np.int64), one.copy(), one, idx - 1,
                            1e-6, 1e-9, 1e-12, 1e-8, 100.0)
        impl["greedy_cover"](idx, one, one, ~flags, 1.0)


use_backend(default_backend())
