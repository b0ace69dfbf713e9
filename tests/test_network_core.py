"""Deployment, sensing, and the nearest-head search behind cluster
membership."""
import numpy as np
import pytest

from wsnsim import NodeTier, deploy, sense_environment
from wsnsim.network import stack
from wsnsim.protocols import nearest_in_run


def fresh(seed=3, **kw):
    return deploy(100, 100.0, 0.5, np.random.default_rng(seed), **kw)


def test_deploy_positions_inside_field_and_reproducible():
    a = fresh()
    b = fresh()
    assert np.all((a.x >= 0) & (a.x <= 100.0))
    assert np.all((a.y >= 0) & (a.y <= 100.0))
    assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
    assert not np.array_equal(a.x, fresh(seed=4).x)


def test_deploy_homogeneous_energy():
    net = fresh()
    assert np.all(net.residual == 0.5)
    assert np.all(net.tier == NodeTier.NORMAL)
    assert net.e_total == pytest.approx(50.0)
    assert np.count_nonzero(net.residual > 0.0) == 100


def test_deploy_heterogeneous_tiers():
    net = fresh(advanced_fraction=0.2, advanced_factor=2.0,
                super_fraction=0.1, super_factor=4.0)
    # tier ids occupy a fixed prefix so runs are comparable across seeds
    assert np.count_nonzero(net.tier == NodeTier.SUPER) == 10
    assert np.count_nonzero(net.tier == NodeTier.ADVANCED) == 20
    assert np.all(net.tier[:10] == NodeTier.SUPER)
    assert np.all(net.tier[10:30] == NodeTier.ADVANCED)
    assert net.residual[0] == 0.5 * (1 + 4.0)
    assert net.residual[10] == 0.5 * (1 + 2.0)
    assert net.residual[99] == 0.5
    assert net.e_total == 90.0  # 70*0.5 + 20*1.5 + 10*2.5


def test_sense_environment_range_and_dead_nodes():
    net = fresh()
    rng = np.random.default_rng(11)
    sense_environment(net, rng.random(net.n))
    assert np.all((net.sensed >= 0.0) & (net.sensed <= 200.0))
    frozen = net.sensed[7]
    net.residual[7] = 0.0
    sense_environment(net, rng.random(net.n))
    assert net.sensed[7] == frozen  # dead nodes stop sampling


def test_sense_draw_count_is_population_sized():
    # one draw per node id: a dead node's draw is discarded, never shifted
    # onto the nodes after it (the engine's per-round draw count is checked
    # in test_engine)
    net1, net2 = fresh(), fresh()
    net2.residual[0] = 0.0
    u = np.random.default_rng(5).random(net1.n)
    sense_environment(net1, u)
    sense_environment(net2, u)
    assert np.array_equal(net1.sensed[1:], net2.sensed[1:])
    assert net2.sensed[0] == 0.0


def exhaustive_nearest(net, i, heads):
    """The first of `heads` nearest to node `i`, and its squared distance."""
    d2 = [(net.x[i] - net.x[h]) * (net.x[i] - net.x[h])
          + (net.y[i] - net.y[h]) * (net.y[i] - net.y[h]) for h in heads]
    k = int(np.argmin(d2))
    return heads[k], d2[k]


def test_assign_clusters_matches_exhaustive_scan():
    # the engine's membership call: every non-head joins the nearest head
    # (the first one on ties), at that head's squared distance
    rng = np.random.default_rng(21)
    for _ in range(50):
        n = int(rng.integers(5, 30))
        net = deploy(n, 100.0, 0.5, rng)
        k = int(rng.integers(1, max(2, n // 3)))
        ch_ids = np.sort(rng.choice(n, size=k, replace=False))
        members = np.setdiff1d(np.arange(n), ch_ids)
        idx, d2 = nearest_in_run(net, members, ch_ids)
        for i, head, dist in zip(members, ch_ids[idx], d2):
            assert (head, dist) == exhaustive_nearest(net, i, ch_ids)
    # a stack of runs: each member joins a head of its own run
    nets = [deploy(20, 100.0, 0.5, rng) for _ in range(3)]
    net = stack(nets)
    ch_ids = np.sort(np.concatenate([r * 20 + rng.choice(20, size=3, replace=False)
                                     for r in range(3)]))
    members = np.setdiff1d(np.arange(60), ch_ids)
    idx, d2 = nearest_in_run(net, members, ch_ids)
    for i, head, dist in zip(members, ch_ids[idx], d2):
        own = ch_ids[ch_ids // 20 == i // 20]
        assert (head, dist) == exhaustive_nearest(net, i, own)
