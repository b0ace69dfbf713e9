"""Deployment, sensing, energy bookkeeping, and cluster assignment."""
import numpy as np
import pytest

from wsnsim import NodeTier, assign_clusters, deploy, sense_environment


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
    assert net.alive_count() == 100


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


def test_consume_floors_at_zero_and_kills():
    net = fresh()
    net.consume(5, 0.2)
    assert net.residual[5] == pytest.approx(0.3)
    net.consume(5, 10.0)
    assert net.residual[5] == 0.0
    assert not net.alive_mask[5]
    assert net.alive_count() == 99
    # dead node stays at zero
    net.consume(5, 1.0)
    assert net.residual[5] == 0.0


def test_sense_environment_range_and_dead_nodes():
    net = fresh()
    rng = np.random.default_rng(11)
    sense_environment(net, rng.random(net.n))
    assert np.all((net.sensed >= 0.0) & (net.sensed <= 200.0))
    frozen = net.sensed[7]
    net.consume(7, 10.0)
    sense_environment(net, rng.random(net.n))
    assert net.sensed[7] == frozen  # dead nodes stop sampling


def test_sense_draw_count_is_population_sized():
    # one draw per node id: a dead node's draw is discarded, never shifted
    # onto the nodes after it (the engine's per-round draw count is checked
    # in test_engine)
    net1, net2 = fresh(), fresh()
    net2.consume(0, 10.0)
    u = np.random.default_rng(5).random(net1.n)
    sense_environment(net1, u)
    sense_environment(net2, u)
    assert np.array_equal(net1.sensed[1:], net2.sensed[1:])
    assert net2.sensed[0] == 0.0


def test_assign_clusters_matches_exhaustive_scan():
    rng = np.random.default_rng(21)
    for _ in range(50):
        n = int(rng.integers(5, 30))
        net = deploy(n, 100.0, 0.5, rng)
        k = int(rng.integers(1, max(2, n // 3)))
        ch_ids = rng.choice(n, size=k, replace=False)
        got = assign_clusters(net, np.sort(ch_ids))
        for i in range(n):
            if i in ch_ids:
                assert i not in got
                continue
            d2 = [(net.x[i] - net.x[h]) ** 2 + (net.y[i] - net.y[h]) ** 2
                  for h in np.sort(ch_ids)]
            best = np.sort(ch_ids)[int(np.argmin(d2))]
            assert got[i] == best


def test_assign_clusters_requires_alive_heads():
    net = fresh()
    net.consume(3, 10.0)
    with pytest.raises(ValueError):
        assign_clusters(net, np.array([3, 8]))


def test_node_snapshot():
    net = fresh()
    s = net.node(17)
    assert s.node_id == 17
    assert (s.x, s.y) == (net.x[17], net.y[17])
    assert s.residual_energy == 0.5
    assert s.alive
    assert np.isnan(s.last_transmitted)
