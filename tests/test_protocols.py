"""Election mechanics for the five protocols.

Threshold/probability constants asserted here were derived by hand with
standalone arithmetic and frozen; structural properties (epoch
completeness, tier nesting, cover independence) are checked over seeded
random instances.
"""
import copy
import itertools
import math

import numpy as np
import pytest

from wsnsim import _kernels
from wsnsim import (
    DeecEligibility,
    EpochTracker,
    ProtocolKind,
    ScenarioConfig,
    campteen_elect_chs,
    campteen_range_graphs,
    deec_average_energy,
    deec_elect_chs,
    deec_lifetime_estimate,
    deec_probabilities,
    deploy,
    hteen_build_hierarchy,
    hteen_promote_layers,
    leach_elect_chs,
    teen_gate_mask,
    use_backend,
)
from wsnsim.network import stack


def small_net(seed=2, n=100):
    return deploy(n, 100.0, 0.5, np.random.default_rng(seed))


# --- naming / config ------------------------------------------------------

@pytest.mark.parametrize("text, kind", [
    ("leach", ProtocolKind.LEACH),
    ("LEACH", ProtocolKind.LEACH),
    ("h-teen", ProtocolKind.HTEEN),
    ("camp_teen", ProtocolKind.CAMPTEEN),
    (" deec ", ProtocolKind.DEEC),
])
def test_protocol_parse(text, kind):
    assert ProtocolKind.parse(text) == kind


def test_protocol_parse_rejects_unknown():
    with pytest.raises(ValueError, match="pegasis"):
        ProtocolKind.parse("pegasis")


def test_epoch_length():
    assert EpochTracker(1, 0.1).epoch == 10
    assert EpochTracker(1, 0.3).epoch == 4  # ceil(10/3)
    assert EpochTracker(1, 1.0).epoch == 1


# --- LEACH ----------------------------------------------------------------

def leach_elects(u, rnd, served=()):
    """The nodes that the draws `u` elect at round `rnd` in a fresh LEACH
    network (p = 0.1) of one node per draw; `served` nodes already headed
    this epoch."""
    net = deploy(len(u), 100.0, 0.5, np.random.default_rng(0))
    tracker = EpochTracker(net.n, 0.1)
    tracker.mark_elected(list(served))
    return leach_elect_chs(net, 0.1, tracker, rnd, np.asarray(u)).tolist()


def test_leach_threshold_frozen_values():
    # T = p / (1 - p * (rnd mod 10)) on every backend: a draw equal to T is
    # not elected, the next draw below it is
    frozen = {0: 0.1, 1: 0.11111111111111112, 5: 0.2,
              9: 1.0,    # epoch end: certain election
              10: 0.1}   # next epoch wraps
    for backend in _kernels.BACKENDS:
        use_backend(backend)
        for rnd, t in frozen.items():
            assert leach_elects([t, np.nextafter(t, 0.0)], rnd) == [1]
        assert leach_elects([0.0, 0.0], 3, served=[0]) == [1]  # served: T = 0


def test_leach_threshold_monotone_within_epoch():
    # the draws elected at each round of an epoch are those below T: a
    # prefix of the sorted draws that grows every round, all of them at the
    # epoch's last round
    u = np.arange(1000) / 1000
    counts = []
    for rnd in range(10):
        ids = leach_elects(u, rnd)
        assert ids == list(range(len(ids)))
        counts.append(len(ids))
    assert all(a < b for a, b in zip(counts, counts[1:]))
    assert counts[-1] == 1000


def test_leach_epoch_completeness():
    # with charges disabled every node must serve exactly once per epoch
    net = small_net()
    tracker = EpochTracker(net.n, 0.1)
    rng = np.random.default_rng(9)
    terms = np.zeros(net.n, int)
    for rnd in range(10):
        ids = leach_elect_chs(net, 0.1, tracker, rnd, rng.random(net.n))
        terms[ids] += 1
    assert np.all(terms == 1)


def test_leach_epoch_completeness_many_epochs():
    net = small_net(seed=6)
    tracker = EpochTracker(net.n, 0.1)
    rng = np.random.default_rng(13)
    for epoch in range(5):
        terms = np.zeros(net.n, int)
        for rnd in range(epoch * 10, epoch * 10 + 10):
            terms[leach_elect_chs(net, 0.1, tracker, rnd, rng.random(net.n))] += 1
        assert np.all(terms == 1)


def test_leach_never_elects_dead_nodes():
    net = small_net()
    net.residual[:40] = 0.0
    tracker = EpochTracker(net.n, 0.1)
    rng = np.random.default_rng(9)
    for rnd in range(20):
        ids = leach_elect_chs(net, 0.1, tracker, rnd, rng.random(net.n))
        assert np.all(ids >= 40)
        assert np.all(np.diff(ids) > 0)  # ascending, unique


# --- TEEN gate ------------------------------------------------------------

def teen_should_transmit(sensed, last_transmitted, hard, soft):
    """One node's reactive gate, written out: the oracle for the
    vectorized `teen_gate_mask`."""
    if sensed < hard:
        return False
    if math.isnan(last_transmitted):
        return True
    return abs(sensed - last_transmitted) >= soft


def test_teen_gate_truth_table():
    nan = float("nan")
    rows = [  # sensed, last reported, reports?
        (120.0, nan, True),      # first crossing
        (80.0, nan, False),      # below hard
        (120.0, 110.0, True),    # moved >= soft
        (120.0, 119.5, False),   # stagnant
        (120.0, 118.0, True),    # boundary: == soft
        (100.0, nan, True),      # boundary: == hard
        (99.999, nan, False),
    ]
    sensed, last, want = (np.array(col) for col in zip(*rows))
    mask = teen_gate_mask(sensed, last, np.ones(len(rows), np.bool_), 100.0, 2.0)
    assert mask.tolist() == want.tolist()


def test_teen_gate_mask_matches_scalar():
    rng = np.random.default_rng(31)
    sensed = rng.uniform(0, 200, 300)
    last = rng.uniform(0, 200, 300)
    last[rng.random(300) < 0.3] = np.nan
    alive = rng.random(300) < 0.9
    mask = teen_gate_mask(sensed, last, alive, 100.0, 2.0)
    for i in range(300):
        want = alive[i] and teen_should_transmit(sensed[i], last[i], 100.0, 2.0)
        assert mask[i] == want


# --- DEEC -----------------------------------------------------------------

def test_deec_average_energy_declines_linearly_then_floors():
    assert deec_average_energy(50.0, 100, 0, 2000.0) == 0.5
    assert deec_average_energy(50.0, 100, 1000, 2000.0) == 0.25
    assert deec_average_energy(50.0, 100, 2000, 2000.0) == 0.0
    assert deec_average_energy(50.0, 100, 4000, 2000.0) == 0.0


def test_deec_lifetime_estimate_frozen():
    # heterogeneous 90 J network (70*0.5 + 20*1.5 + 10*2.5) over the expected
    # round cost of 10 clusters with the sink 0.765 * 50 m away, 0.04274792847007071
    net = deploy(100, 100.0, 0.5, np.random.default_rng(0), advanced_fraction=0.2,
                 advanced_factor=2.0, super_fraction=0.1, super_factor=4.0)
    assert deec_lifetime_estimate(ScenarioConfig(), net) == 2105.365177239222


def test_deec_p_i_frozen_two_level():
    # 20 advanced nodes (a = 2) among 100, announced average 0.9, p_opt 0.1.
    # Frozen values re-derived with plain arithmetic in the function's order,
    # p_opt * weight * residual / avg, where weight is n * (1 + a_i) over
    # n + sum(a) = 100 + 40:
    # 0.1 * (100 * 1.0 / 140.0) * 0.5 / 0.9 for a normal node,
    # 0.1 * (100 * 3.0 / 140.0) * 1.5 / 0.9 for an advanced one.
    factors = np.array([2.0] * 20 + [0.0] * 80)
    resid = np.full(100, 0.5)
    resid[0] = 1.5
    resid[[97, 98]] = 0.0, 99.0
    p = deec_probabilities(resid, factors, 0.9, 0.1)
    assert p[99] == 0.03968253968253969
    assert p[0] == 0.35714285714285715
    assert p[97] == 0.0   # dead
    assert p[98] == 1.0   # clamp


def test_deec_probabilities_homogeneous_identity():
    # equal residuals at the announced average: probabilities sum to N * p_opt
    for avg in (0.5, 0.437, 0.01):
        resid = np.full(100, avg)
        p = deec_probabilities(resid, np.zeros(100), avg, 0.1)
        assert abs(p.sum() - 10.0) / 10.0 < 1e-12


def test_deec_probabilities_multi_level_frozen():
    factors = np.array([4.0] * 10 + [2.0] * 20 + [0.0] * 70)
    resid = 0.5 * (1.0 + factors)
    p = deec_probabilities(resid, factors, 0.9, 0.1)
    assert p[0] == pytest.approx(0.7716049382716049, rel=1e-12)   # super
    assert p[10] == pytest.approx(0.2777777777777778, rel=1e-12)  # advanced
    assert p[99] == pytest.approx(0.030864197530864196, rel=1e-12)


def test_deec_probabilities_two_level_frozen():
    # one advanced level: 0.1 * (100 * (1 + a_i) / 140.0) * 0.5 * (1 + a_i) / 0.9
    factors = np.array([2.0] * 20 + [0.0] * 80)
    resid = 0.5 * (1.0 + factors)
    p = deec_probabilities(resid, factors, 0.9, 0.1)
    assert p[0] == pytest.approx(0.35714285714285715, rel=1e-12)
    assert p[99] == pytest.approx(0.03968253968253969, rel=1e-12)


def test_deec_probabilities_dead_nodes_zero():
    resid = np.full(10, 0.5)
    resid[3] = 0.0
    p = deec_probabilities(resid, np.zeros(10), 0.5, 0.1)
    assert p[3] == 0.0


def test_deec_weighs_each_stacked_run_against_its_own_population():
    # Stacked runs with different tier mixes and one announced average (once
    # positive, once decayed to zero): each row of the probabilities, and
    # each run's heads, equal the run's own, bit for bit.  A total over the
    # whole stack would weigh every run against the others' nodes.
    rng = np.random.default_rng(12)
    mixes = ((0.2, 0.3), (0.5, 0.1), (0.1, 0.6))
    nets = [deploy(40, 100.0, 0.5, rng, advanced_fraction=a, advanced_factor=0.3,
                   super_fraction=s, super_factor=1.7) for a, s in mixes]
    for net in nets:
        net.residual *= rng.uniform(0.0, 1.0, net.n)
    res = np.array([net.residual for net in nets])
    factors = np.array([net.energy_factor for net in nets])
    rows = deec_probabilities(res, factors, 0.21, 0.1)
    for r in range(3):
        want = deec_probabilities(res[r], factors[r], 0.21, 0.1)
        assert rows[r].tobytes() == want.tobytes()
    for super_fraction, avg in itertools.product((0.3, 0.0), (0.21, 0.0)):
        cfg = ScenarioConfig(p_opt=0.1, deec_super_fraction=super_fraction)
        u = rng.random(120)
        solo = [deec_elect_chs(copy.deepcopy(net), cfg, DeecEligibility(40), 7, avg,
                               u[40 * r:40 * (r + 1)]) + 40 * r
                for r, net in enumerate(nets)]
        stacked = stack([copy.deepcopy(net) for net in nets])
        ids = deec_elect_chs(stacked, cfg, DeecEligibility(120), 7, avg, u)
        assert np.array_equal(ids, np.concatenate(solo))
        assert len(solo[1]) > 0 and len(ids) > len(solo[1])


def test_deec_richer_nodes_elect_more_often():
    # empirical frequency over many rounds must order by residual energy
    net = deploy(100, 100.0, 0.5, np.random.default_rng(4),
                 advanced_fraction=0.2, advanced_factor=2.0)
    cfg = ScenarioConfig(deec_advanced_fraction=0.2, deec_advanced_factor=2.0,
                         deec_super_fraction=0.0)
    elig = DeecEligibility(net.n)
    rng = np.random.default_rng(8)
    terms = np.zeros(net.n, int)
    for rnd in range(600):
        ids = deec_elect_chs(net, cfg, elig, rnd, 0.5, rng.random(net.n))
        terms[ids] += 1
    adv, normal = terms[net.energy_factor > 0], terms[net.energy_factor == 0]
    assert adv.mean() > 2.0 * normal.mean()


def test_deec_saturates_when_average_hits_zero():
    # past the lifetime estimate every surviving node elects each round
    net = small_net()
    net.residual[0] = 0.0
    cfg = ScenarioConfig(deec_super_fraction=0.0)
    elig = DeecEligibility(net.n)
    ids = deec_elect_chs(net, cfg, elig, 3000, 0.0, np.random.default_rng(1).random(net.n))
    assert len(ids) == 99
    assert 0 not in ids


def test_deec_eligibility_personal_epochs():
    elig = DeecEligibility(4)
    p = np.array([0.5, 0.25, 0.1, 0.0])
    elig.mark_elected([0, 1, 2, 3])
    # floor(1/p), the clamped p=0 giving floor(1e300)
    epochs = [2.0, 4.0, 10.0, 9.999999999999999e+299]
    assert elig.start_round(2, p).tolist() == epochs  # 2 % 2 == 0 -> node 0 resets
    assert list(elig.eligible) == [True, False, False, False]
    assert elig.start_round(4, p).tolist() == epochs  # 4 % 4 == 0 -> node 1 resets too
    assert list(elig.eligible) == [True, True, False, False]
    elig.start_round(10, p)  # 10 % 10 == 0 -> node 2; p=0 never resets
    assert list(elig.eligible) == [True, True, True, False]
    assert elig.start_round(3, np.array([1.0, 0.3, 0.6, 2.0])).tolist() == [1.0, 3.0, 1.0, 1.0]


# --- H-TEEN ---------------------------------------------------------------

def test_hteen_tiers_are_nested_subsets():
    net = small_net(seed=12)
    trackers = [EpochTracker(net.n, 0.1) for _ in range(3)]
    rng = np.random.default_rng(3)
    draws = np.stack([rng.random(net.n) for _ in range(3)])
    tiers = hteen_promote_layers(net, 3, trackers, 0.5, 0, draws)
    assert len(tiers) == 3
    assert len(tiers[-1]) > 0
    for lower, upper in zip(tiers, tiers[1:]):
        assert set(upper.tolist()) <= set(lower.tolist())
        assert np.all(np.diff(upper) > 0) if len(upper) > 1 else True


def test_hteen_tier_is_leach_election_among_the_tier_below():
    # each tier is LEACH's election at the layer probability restricted to
    # the heads of the tier below, from the same draws and tracker state;
    # over several rounds, so served heads and epoch resets count too
    net = small_net(seed=13)
    dead = np.random.default_rng(6).choice(net.n, 10, replace=False)
    net.residual[dead] = 0.0
    trackers = [EpochTracker(net.n, 0.4) for _ in range(3)]
    rng = np.random.default_rng(7)
    top = 0
    for rnd in range(7):
        draws = rng.random((3, net.n))
        before = [copy.deepcopy(t) for t in trackers]
        tiers = hteen_promote_layers(net, 3, trackers, 0.4, rnd, draws)
        below = np.ones(net.n, np.bool_)
        for level, tier in enumerate(tiers):
            want = leach_elect_chs(net, 0.4, before[level], rnd, draws[level],
                                   among=below)
            assert tier.tobytes() == want.tobytes()
            assert before[level].eligible.tobytes() == trackers[level].eligible.tobytes()
            below = np.zeros(net.n, np.bool_)
            below[tier] = True
        assert not set(tiers[0].tolist()) & set(dead.tolist())
        top += len(tiers[-1])
    assert top > 0


def per_run(*values):
    """One value per run, as `hteen_build_hierarchy` takes the sink's."""
    return np.array(values, np.float64)


def sink_d2(net, ids, sx, sy):
    dx = net.x[ids] - sx
    dy = net.y[ids] - sy
    return dx * dx + dy * dy


def test_hteen_hierarchy_edges_connect_adjacent_tiers():
    net = small_net(seed=12)
    tiers = [np.array([1, 4, 7, 9, 15, 22]), np.array([4, 9, 22]), np.array([9])]
    hops = hteen_build_hierarchy(net, tiers, per_run(50.0), per_run(100.0), per_run(-np.inf))
    assert len(hops) == 3
    (s0, t0, d0), (s1, t1, d1), (s2, t2, d2) = hops
    assert s0.tolist() == [1, 7, 15]          # promoted heads do not send
    assert set(t0.tolist()) <= {4, 9, 22}     # tier-0 heads attach to tier 1
    assert t1.tolist() == [9, 9]              # tier-1 heads attach to tier 2
    assert s1.tolist() == [4, 22]
    assert s2.tolist() == [9] and t2.tolist() == [-1]
    assert d2[0] == sink_d2(net, 9, 50.0, 100.0)
    # attachment is to the geometrically nearest upper head, charged at
    # that head's distance
    ups = [4, 9, 22]
    for k, i in enumerate(s0.tolist()):
        d2 = [(net.x[i] - net.x[u]) ** 2 + (net.y[i] - net.y[u]) ** 2 for u in ups]
        assert t0[k] == ups[int(np.argmin(d2))]
        assert d0[k] == pytest.approx(min(d2), rel=1e-12)
    for k, i in enumerate(s1.tolist()):
        assert d1[k] == pytest.approx(
            (net.x[i] - net.x[9]) ** 2 + (net.y[i] - net.y[9]) ** 2, rel=1e-12)


def test_hteen_empty_upper_tier_reports_to_sink():
    net = small_net(seed=12)
    tiers = [np.array([1, 4, 7]), np.array([], dtype=np.int64)]
    (s0, t0, d0), (s1, t1, d1) = hteen_build_hierarchy(
        net, tiers, per_run(50.0), per_run(50.0), per_run(-np.inf))
    assert s0.tolist() == [1, 4, 7]
    assert t0.tolist() == [-1, -1, -1]
    assert np.array_equal(d0, sink_d2(net, s0, 50.0, 50.0))
    assert s1.size == t1.size == d1.size == 0


def test_hteen_single_layer_is_flat():
    net = small_net(seed=12)
    tiers = [np.array([2, 5])]
    [(s0, t0, _)] = hteen_build_hierarchy(
        net, tiers, per_run(50.0), per_run(100.0), per_run(-np.inf))
    assert s0.tolist() == [2, 5]
    assert t0.tolist() == [-1, -1]


def test_hteen_direct_range_short_circuits_interior_head():
    net = small_net(seed=12)
    tiers = [np.array([1, 4, 7, 9, 15, 22]), np.array([4, 9, 22]), np.array([9])]
    sx, sy = 30.0, 100.0
    walked = hteen_build_hierarchy(net, tiers, per_run(sx), per_run(sy), per_run(-np.inf))
    interior = np.array([1, 7, 15, 4, 22])
    d2s = sink_d2(net, interior, sx, sy)
    near = int(interior[np.argmin(d2s)])
    hops = hteen_build_hierarchy(net, tiers, per_run(sx), per_run(sy), per_run(d2s.min()))
    for (s, t, d), (_, t_ref, d_ref) in zip(hops, walked):
        for k, i in enumerate(s.tolist()):
            if i == near:
                assert t[k] == -1
                assert d[k] == sink_d2(net, i, sx, sy)
            else:
                assert t[k] == t_ref[k]
                assert d[k] == d_ref[k]
    assert sum(int(np.count_nonzero(t == -1)) for _, t, _ in hops) == 2


def test_hteen_hierarchy_reads_each_runs_sink():
    # One static_center run and one mobile_top run stacked: each run's
    # targets and tx_d2 equal its own single-run walk, bit for bit.  The
    # mobile run's radius admits an interior head of either run, yet only
    # the mobile run short-circuits one.
    nets = [small_net(seed=12), small_net(seed=13)]
    tiers = [[np.array([1, 4, 7, 9, 15, 22]), np.array([4, 9, 22]), np.array([9])],
             [np.array([3, 8, 11, 20, 31, 40]), np.array([8, 20, 40]), np.array([20])]]
    interior = [np.array([1, 7, 15, 4, 22]), np.array([3, 11, 31, 8, 40])]
    sinks = [(50.0, 50.0), (30.0, 100.0)]
    r2 = max(float(sink_d2(net, ids, *sink).min())
             for net, ids, sink in zip(nets, interior, sinks))
    radii = [-np.inf, r2]
    solo = [hteen_build_hierarchy(net, t, per_run(sx), per_run(sy), per_run(d))
            for net, t, (sx, sy), d in zip(nets, tiers, sinks, radii)]
    # the shared radius would short-circuit a head of the static run too
    shared = hteen_build_hierarchy(nets[0], tiers[0], per_run(50.0), per_run(50.0), per_run(r2))
    assert any(not np.array_equal(a[1], b[1]) for a, b in zip(shared, solo[0]))

    size = nets[0].n
    both = stack([small_net(seed=12), small_net(seed=13)])
    stacked = [np.concatenate([a, b + size]) for a, b in zip(*tiers)]
    hops = hteen_build_hierarchy(both, stacked, per_run(50.0, 30.0), per_run(50.0, 100.0),
                                 per_run(*radii))
    for (s, t, d), *alone in zip(hops, *solo):
        for run, (s1, t1, d1) in enumerate(alone):
            mine = s // size == run
            assert np.array_equal(s[mine], s1 + run * size)
            assert np.array_equal(t[mine], np.where(t1 < 0, -1, t1 + run * size))
            assert d[mine].tobytes() == d1.tobytes()
    # below the top tier a head targets the sink only by short-circuit
    direct = [sum(int(np.count_nonzero(t[s // size == run] == -1)) for s, t, _ in hops[:-1])
              for run in (0, 1)]
    assert direct[0] == 0 and direct[1] >= 1


def test_hteen_flat_tier_targets_sink_at_sink_distance():
    net = small_net(seed=12)
    tracker = EpochTracker(net.n, 0.1)
    ch_ids = leach_elect_chs(net, 0.1, tracker, 0, np.random.default_rng(4).random(net.n))
    assert ch_ids.size > 1
    for direct_r2 in (-np.inf, 0.0, 1e9):
        [(s, t, d)] = hteen_build_hierarchy(net, [ch_ids], per_run(50.0), per_run(100.0),
                                            per_run(direct_r2))
        assert np.array_equal(s, ch_ids)
        assert np.all(t == -1)
        assert np.array_equal(d, sink_d2(net, ch_ids, 50.0, 100.0))


# --- CAMP-TEEN ------------------------------------------------------------

def campteen_timer(e_norm: float, k_const: float, alpha: float) -> float:
    """Back-off timer k/E - alpha of one node; richer nodes fire earlier.

    The per-node oracle for the vectorized timer in `campteen_elect_chs`.
    """
    if e_norm <= 0.0:
        raise ValueError("e_norm must be positive")
    if k_const <= 0.0:
        raise ValueError("k_const must be positive")
    return k_const / e_norm - alpha


def test_campteen_timer_frozen():
    assert campteen_timer(0.5, 1.0, 0.25) == 1.75
    assert campteen_timer(1.0, 2.0, 0.0) == 2.0
    with pytest.raises(ValueError):
        campteen_timer(0.0, 1.0, 0.1)


def test_campteen_fires_in_oracle_timer_order(monkeypatch):
    # the order handed to the cover is the alive nodes sorted by the
    # oracle's timer, ties by id; dead nodes never fire
    real, orders = _kernels.cover, []

    def spy(order, *args):
        orders.append(order.copy())
        return real(order, *args)

    monkeypatch.setattr(_kernels, "cover", spy)
    rng = np.random.default_rng(29)
    for trial in range(40):
        cfg = ScenarioConfig(camp_timer_k=(1.0, 2.5)[trial % 2])
        net = deploy(int(rng.integers(2, 60)), 100.0, 0.5, rng)
        if trial % 4 < 2:  # few energy levels and no alpha: timer ties
            levels, alpha = rng.choice([0.1, 0.25, 0.5], net.n), np.zeros(net.n)
        else:
            levels, alpha = rng.uniform(1e-6, 0.5, net.n), rng.random(net.n)
        net.residual[:] = np.where(rng.random(net.n) < 0.3, 0.0, levels)
        campteen_elect_chs(net, cfg, alpha, campteen_range_graphs(net, cfg))
        alive = [i for i in range(net.n) if net.residual[i] > 0.0]
        timer = {i: campteen_timer(net.residual[i] / net.initial_energy[i],
                                   cfg.camp_timer_k, alpha[i]) for i in alive}
        assert orders.pop().tolist() == sorted(alive, key=lambda i: (timer[i], i))


def test_campteen_heads_form_maximal_independent_set():
    rng = np.random.default_rng(17)
    cfg = ScenarioConfig(camp_comm_range_m=25.0)
    for trial in range(30):
        net = deploy(int(rng.integers(5, 40)), 100.0, 0.5, rng)
        graphs = campteen_range_graphs(net, cfg)
        ids, ch_of = campteen_elect_chs(net, cfg, rng.random(net.n), graphs)
        # independence: no two heads within range
        for a in ids:
            for b in ids:
                if a < b:
                    d2 = (net.x[a] - net.x[b]) ** 2 + (net.y[a] - net.y[b]) ** 2
                    assert d2 > 625.0
        # maximality: every node is covered by some head within range
        for i in range(net.n):
            h = ch_of[i]
            assert h >= 0
            d2 = (net.x[i] - net.x[h]) ** 2 + (net.y[i] - net.y[h]) ** 2
            assert d2 <= 625.0 or h == i


def test_campteen_matches_bruteforce_greedy():
    # replay the timer order by hand and compare the elected set
    rng = np.random.default_rng(23)
    cfg = ScenarioConfig(camp_comm_range_m=25.0)
    for trial in range(50):
        net = deploy(int(rng.integers(2, 21)), 100.0, 0.5, rng)
        alpha = rng.random(net.n)
        ids, ch_of = campteen_elect_chs(net, cfg, alpha, campteen_range_graphs(net, cfg))

        timers = [cfg.camp_timer_k / 1.0 - alpha[i] for i in range(net.n)]
        order = sorted(range(net.n), key=lambda i: (timers[i], i))
        heads, owner = [], {}
        for i in order:
            if i in owner:
                continue
            heads.append(i)
            owner[i] = i
            for j in range(net.n):
                if j not in owner:
                    d2 = (net.x[i] - net.x[j]) ** 2 + (net.y[i] - net.y[j]) ** 2
                    if d2 <= 625.0:
                        owner[j] = i
        assert sorted(heads) == ids.tolist()
        assert [owner[i] for i in range(net.n)] == ch_of.tolist()


def test_campteen_rich_nodes_win_election():
    # drain one node heavily; with equal alphas the rich neighbour heads
    net = deploy(2, 10.0, 0.5, np.random.default_rng(2))
    net.residual[0] = 0.1
    cfg = ScenarioConfig(camp_comm_range_m=50.0)
    ids, ch_of = campteen_elect_chs(net, cfg, np.zeros(2), campteen_range_graphs(net, cfg))
    assert ids.tolist() == [1]
    assert ch_of.tolist() == [1, 1]
