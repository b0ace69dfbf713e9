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
    # LEACH's epoch is ceil(1/p) rounds: with zero draws a node heads as
    # soon as it is eligible, so every node heads at each multiple of the
    # epoch and none in between
    net = small_net(n=10)
    for p, epoch in ((0.1, 10), (0.3, 4), (1.0, 1)):  # ceil(10/3) = 4
        tracker = EpochTracker(net.n)
        for rnd in range(3 * epoch + 1):
            ids = leach_elect_chs(net, p, tracker, rnd, np.zeros(net.n))
            assert len(ids) == (net.n if rnd % epoch == 0 else 0)


# --- LEACH ----------------------------------------------------------------

def leach_elects(u, rnd, served=()):
    """The nodes that the draws `u` elect at round `rnd` in a fresh LEACH
    network (p = 0.1) of one node per draw; `served` nodes already headed
    this epoch."""
    net = deploy(len(u), 100.0, 0.5, np.random.default_rng(0))
    tracker = EpochTracker(net.n)
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
    tracker = EpochTracker(net.n)
    rng = np.random.default_rng(9)
    terms = np.zeros(net.n, int)
    for rnd in range(10):
        ids = leach_elect_chs(net, 0.1, tracker, rnd, rng.random(net.n))
        terms[ids] += 1
    assert np.all(terms == 1)


def test_leach_epoch_completeness_many_epochs():
    net = small_net(seed=6)
    tracker = EpochTracker(net.n)
    rng = np.random.default_rng(13)
    for epoch in range(5):
        terms = np.zeros(net.n, int)
        for rnd in range(epoch * 10, epoch * 10 + 10):
            terms[leach_elect_chs(net, 0.1, tracker, rnd, rng.random(net.n))] += 1
        assert np.all(terms == 1)


def test_leach_never_elects_dead_nodes():
    net = small_net()
    net.residual[:40] = 0.0
    tracker = EpochTracker(net.n)
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
        solo = [deec_elect_chs(copy.deepcopy(net), cfg, EpochTracker(40), 7, avg,
                               u[40 * r:40 * (r + 1)]) + 40 * r
                for r, net in enumerate(nets)]
        stacked = stack([copy.deepcopy(net) for net in nets])
        ids = deec_elect_chs(stacked, cfg, EpochTracker(120), 7, avg, u)
        assert np.array_equal(ids, np.concatenate(solo))
        assert len(solo[1]) > 0 and len(ids) > len(solo[1])


def test_deec_richer_nodes_elect_more_often():
    # empirical frequency over many rounds must order by residual energy
    net = deploy(100, 100.0, 0.5, np.random.default_rng(4),
                 advanced_fraction=0.2, advanced_factor=2.0)
    cfg = ScenarioConfig(deec_advanced_fraction=0.2, deec_advanced_factor=2.0,
                         deec_super_fraction=0.0)
    tracker = EpochTracker(net.n)
    rng = np.random.default_rng(8)
    terms = np.zeros(net.n, int)
    for rnd in range(600):
        ids = deec_elect_chs(net, cfg, tracker, rnd, 0.5, rng.random(net.n))
        terms[ids] += 1
    adv, normal = terms[net.energy_factor > 0], terms[net.energy_factor == 0]
    assert adv.mean() > 2.0 * normal.mean()


def test_deec_saturates_when_average_hits_zero():
    # past the lifetime estimate every surviving node elects each round
    net = small_net()
    net.residual[0] = 0.0
    cfg = ScenarioConfig(deec_super_fraction=0.0)
    tracker = EpochTracker(net.n)
    ids = deec_elect_chs(net, cfg, tracker, 3000, 0.0, np.random.default_rng(1).random(net.n))
    assert len(ids) == 99
    assert 0 not in ids


def test_deec_eligibility_personal_epochs():
    tracker = EpochTracker(4)
    # floor(1/p) of p = 0.5, 0.25 and 0.1, and of the clamped p = 0
    epochs = np.array([2.0, 4.0, 10.0, 9.999999999999999e+299])
    tracker.mark_elected([0, 1, 2, 3])
    assert tracker.start_round(2, epochs).tolist() == [0.0, 2.0, 2.0, 2.0]
    assert list(tracker.eligible) == [True, False, False, False]  # 2 % 2 == 0
    tracker.start_round(4, epochs)  # 4 % 4 == 0 -> node 1 resets too
    assert list(tracker.eligible) == [True, True, False, False]
    tracker.start_round(10, epochs)  # 10 % 10 == 0 -> node 2; p=0 never resets
    assert list(tracker.eligible) == [True, True, True, False]
    # DEEC gives node i an epoch of max(floor(1/p_i), 1) rounds.  Here p_i
    # is node i's residual (p_opt and the average are 0.5, one energy
    # level), clamped to 1; with zero draws a node heads exactly at the
    # multiples of its epoch, and an alive node whose p_i underflows to 0
    # never heads
    cfg = ScenarioConfig(p_opt=0.5)
    net = small_net(n=4)
    for residual, epochs in (([0.5, 0.25, 0.1, 5e-324], [2, 4, 10, None]),
                             ([1.0, 0.3, 0.6, 2.0], [1, 3, 1, 1])):
        net.residual[:] = residual
        tracker = EpochTracker(net.n)
        for rnd in range(21):
            ids = deec_elect_chs(net, cfg, tracker, rnd, 0.5, np.zeros(net.n))
            assert ids.tolist() == [i for i, ep in enumerate(epochs) if ep and rnd % ep == 0]


def deec_oracle(net, cfg, eligible, rnd, avg, u):
    """DEEC's election as its own eligibility rule wrote it, node by node:
    node i's epoch is max(floor(1/p_i), 1) with p_i clamped to 1e-300, a
    node is re-admitted at the start of its epoch only while p_i > 0, and
    rnd mod epoch is taken as 0 where p_i is 0.  Updates `eligible`;
    returns the elected ids."""
    alive = net.residual > 0.0
    if avg > 0.0:
        p = deec_probabilities(net.residual.reshape(net.runs, -1),
                               net.energy_factor.reshape(net.runs, -1),
                               avg, cfg.p_opt).reshape(-1)
    else:
        p = np.where(alive, 1.0, 0.0)
    ids = []
    for i in range(net.n):
        ep = max(math.floor(1.0 / max(p[i], 1e-300)), 1.0)
        if rnd % ep == 0 and p[i] > 0.0:
            eligible[i] = True
        rm = rnd % ep if p[i] > 0.0 else 0.0
        denom = 1.0 - p[i] * rm
        t = 1.0 if denom <= 0.0 else min(p[i] / denom, 1.0)
        if eligible[i] and alive[i] and u[i] < t:
            ids.append(i)
            eligible[i] = False
    return ids


def test_deec_election_matches_per_node_eligibility_oracle():
    # a stacked population with dead nodes, an alive node whose p_i
    # underflows to 0 and one whose p_i is below the 1e-300 clamp, over
    # rounds from 0 past personal-epoch boundaries to an announced average
    # of 0: the same heads and the same eligible mask as the oracle
    rng = np.random.default_rng(21)
    cfg = ScenarioConfig(p_opt=0.1)
    nets = [deploy(30, 100.0, 0.5, rng, advanced_fraction=0.3, advanced_factor=1.0,
                   super_fraction=0.2, super_factor=2.0) for _ in range(3)]
    net = stack(nets)
    net.residual[[3, 31, 32, 77]] = 0.0
    for backend in _kernels.BACKENDS:
        use_backend(backend)
        residual = net.residual.copy()
        tracker = EpochTracker(net.n)
        eligible = np.ones(net.n, np.bool_)
        epochs = set()
        for rnd in range(40):
            net.residual[5], net.residual[40] = 5e-324, 1e-310
            if rnd == 15:
                net.residual[[10, 50, 88]] = 0.0
            avg = max(0.5 * (1.0 - rnd / 30), 0.0)
            u = rng.random(net.n)
            want = deec_oracle(net, cfg, eligible, rnd, avg, u)
            ids = deec_elect_chs(net, cfg, tracker, rnd, avg, u)
            assert ids.dtype == np.int64 and ids.tolist() == want
            assert tracker.eligible.tobytes() == eligible.tobytes()
            if avg > 0.0:
                p = deec_probabilities(net.residual.reshape(3, -1),
                                       net.energy_factor.reshape(3, -1),
                                       avg, cfg.p_opt)
                assert p.reshape(-1)[5] == 0.0 < p.reshape(-1)[40] < 1e-300
                epochs.update(np.floor(1.0 / p[p > 1e-300]).tolist())
            net.residual *= rng.uniform(0.9, 1.0, net.n)
        net.residual[:] = residual
        assert {1.0, 2.0, 5.0, 10.0} <= epochs


# --- H-TEEN ---------------------------------------------------------------

def test_hteen_tiers_are_nested_subsets():
    net = small_net(seed=12)
    trackers = [EpochTracker(net.n) for _ in range(3)]
    rng = np.random.default_rng(3)
    draws = np.stack([rng.random(net.n) for _ in range(3)])
    tiers = hteen_promote_layers(net, trackers, 0.5, 0, draws)
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
    trackers = [EpochTracker(net.n) for _ in range(3)]
    rng = np.random.default_rng(7)
    top = 0
    for rnd in range(7):
        draws = rng.random((3, net.n))
        before = [copy.deepcopy(t) for t in trackers]
        tiers = hteen_promote_layers(net, trackers, 0.4, rnd, draws)
        below = None
        for level, tier in enumerate(tiers):
            want = leach_elect_chs(net, 0.4, before[level], rnd, draws[level],
                                   among=below)
            assert tier.dtype == np.int64
            assert tier.tobytes() == want.tobytes()
            assert before[level].eligible.tobytes() == trackers[level].eligible.tobytes()
            below = tier
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


def test_hteen_tier_walk_is_one_nearest_site_call(monkeypatch):
    # Three stacked runs of four tiers on a 10 m grid (equal distances:
    # the first next-tier head in id order wins): run 0 fills every tier,
    # run 1 has an empty tier 1 (hence no tier above it either), and run
    # 2 an empty tier 2.  One kernel call serves every tier's relaying
    # heads, and each run's (senders, targets, tx_d2) equals its solo
    # walk, byte for byte.
    real, calls = _kernels.nearest_site, []

    def spy(*args):
        calls.append(len(args[0]))
        return real(*args)

    monkeypatch.setattr(_kernels, "nearest_site", spy)
    rng = np.random.default_rng(31)
    nets = [small_net(seed=s) for s in (12, 13, 14)]
    for net in nets:
        net.x[:] = np.round(net.x / 10.0) * 10.0
        net.y[:] = np.round(net.y / 10.0) * 10.0
    tiers = []
    for sizes in ((30, 8, 3, 1), (20, 0, 0, 0), (25, 5, 0, 0)):
        chosen = [np.arange(100)]
        for k in sizes:
            chosen.append(np.sort(rng.choice(chosen[-1], k, replace=False)).astype(np.int64))
        tiers.append(chosen[1:])
    sinks = [(50.0, 50.0, -np.inf), (50.0, 100.0, -np.inf), (30.0, 100.0, 900.0)]
    solo = [hteen_build_hierarchy(net, t, per_run(sx), per_run(sy), per_run(r2))
            for net, t, (sx, sy, r2) in zip(nets, tiers, sinks)]
    assert len(calls) == 2  # run 1 relays nothing
    calls.clear()

    size = nets[0].n
    stacked = [np.concatenate([t + run * size for run, t in enumerate(level)])
               for level in zip(*tiers)]
    sx, sy, r2 = (per_run(*values) for values in zip(*sinks))
    hops = hteen_build_hierarchy(stack(nets), stacked, sx, sy, r2)
    assert len(calls) == 1
    assert len(hops) == 4
    for (s, t, d), *alone in zip(hops, *solo):
        for run, (s1, t1, d1) in enumerate(alone):
            mine = s // size == run
            assert s[mine].tobytes() == (s1 + run * size).tobytes()
            assert t[mine].tobytes() == np.where(t1 < 0, -1, t1 + run * size).tobytes()
            assert d[mine].tobytes() == d1.tobytes()
    # run 0 relays from each of its three lower tiers; run 2 short-circuits
    relayed = [[bool(np.any(t[s // size == run] >= 0)) for s, t, _ in hops] for run in (0, 1, 2)]
    assert relayed == [[True, True, True, False], [False] * 4, [True, False, False, False]]
    s0, t0, _ = hops[0]
    assert np.any(t0[s0 // size == 2] < 0)


def test_hteen_flat_tier_targets_sink_at_sink_distance():
    net = small_net(seed=12)
    tracker = EpochTracker(net.n)
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


def greedy_in_order(net, order, range2):
    """The cover by hand: nodes fire in `order`, and a node not yet owned
    heads and owns every unowned node within range; -1 for the rest."""
    owner = [-1] * net.n
    for i in order:
        if owner[i] != -1:
            continue
        owner[i] = i
        for j in range(net.n):
            d2 = (net.x[i] - net.x[j]) ** 2 + (net.y[i] - net.y[j]) ** 2
            if owner[j] == -1 and net.residual[j] > 0.0 and d2 <= range2:
                owner[j] = i
    return owner


def test_campteen_fires_in_oracle_timer_order(monkeypatch):
    # the keys handed to the cover are the oracle's timers of the alive
    # nodes, bit for bit, and the dead nodes are passed as dead; the cover
    # they give is the alive nodes firing by timer, ties by id
    real, calls = _kernels.cover, []

    def spy(key, adj, dead):
        calls.append((key.copy(), dead.copy()))
        return real(key, adj, dead)

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
        _, ch_of = campteen_elect_chs(net, cfg, alpha, campteen_range_graphs(net, cfg))
        key, dead = calls.pop()
        alive = [i for i in range(net.n) if net.residual[i] > 0.0]
        timer = {i: campteen_timer(net.residual[i] / net.initial_energy[i],
                                   cfg.camp_timer_k, alpha[i]) for i in alive}
        assert dead.tolist() == [i not in timer for i in range(net.n)]
        assert key[alive].tobytes() == np.array([timer[i] for i in alive]).tobytes()
        order = sorted(alive, key=lambda i: (timer[i], i))
        range2 = cfg.camp_comm_range_m * cfg.camp_comm_range_m
        assert ch_of.tolist() == greedy_in_order(net, order, range2)


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
        owner = greedy_in_order(net, order, 625.0)
        assert [i for i in range(net.n) if owner[i] == i] == ids.tolist()
        assert owner == ch_of.tolist()


def test_campteen_rich_nodes_win_election():
    # drain one node heavily; with equal alphas the rich neighbour heads
    net = deploy(2, 10.0, 0.5, np.random.default_rng(2))
    net.residual[0] = 0.1
    cfg = ScenarioConfig(camp_comm_range_m=50.0)
    ids, ch_of = campteen_elect_chs(net, cfg, np.zeros(2), campteen_range_graphs(net, cfg))
    assert ids.tolist() == [1]
    assert ch_of.tolist() == [1, 1]
