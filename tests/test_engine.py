"""Engine-level invariants: conservation, monotone death, gating, hierarchy."""
import numpy as np
import pytest

from wsnsim import _kernels
from wsnsim import (
    Engine,
    ProtocolKind,
    ScenarioConfig,
    SinkMode,
    deploy,
    run_scenario,
)
from wsnsim import engine, protocols, runner


def run_short(protocol, sink="static_center", rounds=300, seed=2, **cfg_kw):
    return run_scenario(ScenarioConfig(rounds=rounds, **cfg_kw), protocol, sink, seed)


@pytest.mark.parametrize("protocol", ["leach", "teen", "deec", "hteen", "campteen"])
def test_energy_conservation(protocol):
    res = run_short(protocol, rounds=500)
    drained = res.network.e_total - float(res.network.residual.sum())
    booked = float(np.sum(res.history.energy_consumed_j))
    assert drained == pytest.approx(booked, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("protocol", ["leach", "deec", "hteen"])
def test_alive_counts_never_increase(protocol):
    # drive well past first deaths with a small energy budget
    res = run_short(protocol, rounds=800, initial_energy_j=0.02)
    alive = res.history.alive
    assert all(a >= b for a, b in zip(alive, alive[1:]))
    assert alive[0] == 100


def test_rows_continue_after_extinction():
    res = run_short("leach", rounds=400, nodes=5, initial_energy_j=0.005)
    alive = res.history.alive
    assert len(alive) == 400
    assert alive[-1] == 0
    died_at = next(i for i, a in enumerate(alive) if a == 0)
    assert all(res.history.alive[i] == 0 for i in range(died_at, 400))
    # the extinction round itself may still burn energy; afterwards nothing
    tail = range(died_at + 1, 400)
    assert all(res.history.packets_to_bs[i] == 0 for i in tail)
    assert all(res.history.energy_consumed_j[i] == 0.0 for i in tail)
    final_cum = res.history.cum_packets_to_bs[died_at]
    assert all(res.history.cum_packets_to_bs[i] == final_cum for i in tail)
    assert res.summary.lifetime == died_at


def test_deaths_only_after_stability_period():
    res = run_short("leach", rounds=2000)
    s = res.summary.stability_period
    assert s is not None
    assert all(d == 0 for d in res.history.dead[:s])
    assert res.history.dead[s] > 0


@pytest.mark.parametrize("sink", ["static_center", "mobile_top"])
@pytest.mark.parametrize("protocol", ["leach", "teen", "deec", "hteen"])
def test_members_join_their_nearest_head(monkeypatch, protocol, sink):
    # The engine's own membership, read where the member phase receives it:
    # every gated non-head node is assigned the exhaustive nearest head of
    # the bottom tier in its own run (the first head wins ties) at that
    # head's squared distance, bit for bit, in rounds before and after
    # nodes die.  Once for a run alone, once for three seeds in one batch.
    rounds = []
    elect, member_phase = Engine._elect, _kernels.member_phase

    def record_heads(self, rnd, u):
        tiers, cover = elect(self, rnd, u)
        rounds.append([self.net, tiers[0]])
        return tiers, cover

    def record_members(gate, assign, d2ch, *rest):
        rounds[-1] += [gate.copy(), assign.copy(), d2ch.copy()]
        return member_phase(gate, assign, d2ch, *rest)

    monkeypatch.setattr(Engine, "_elect", record_heads)
    monkeypatch.setattr(_kernels, "member_phase", record_members)
    cfg = ScenarioConfig(rounds=300, initial_energy_j=0.02)
    solo = run_scenario(cfg, protocol, sink, 2)
    batch = runner._run_batch(cfg, ProtocolKind.parse(protocol),
                              [(SinkMode.parse(sink), seed) for seed in (2, 3, 4)])
    assert all(res.history.dead[-1] > 0 for res in [solo] + batch)
    checked = 0
    for net, heads, gate, assign, d2ch in (r for r in rounds if len(r) == 5):
        size = net.run_size
        members = gate.copy()
        members[heads] = False
        for run in range(net.runs):
            i = members.nonzero()[0]
            i = i[i // size == run]
            own = heads[heads // size == run]
            if i.size == 0:
                continue
            d2 = (net.x[i, None] - net.x[own]) ** 2 + (net.y[i, None] - net.y[own]) ** 2
            nearest = own[np.argmin(d2, axis=1)]
            assert np.array_equal(assign[i], nearest)
            want = (net.x[i] - net.x[nearest]) ** 2 + (net.y[i] - net.y[nearest]) ** 2
            assert d2ch[i].tobytes() == want.tobytes()
            checked += i.size
    assert checked > 0
    assert {net.runs for net, *_ in rounds} == {1, 3}


@pytest.mark.parametrize("protocol", ["leach", "teen", "deec", "campteen"])
def test_single_hop_heads_send_at_most_one_packet(protocol):
    res = run_short(protocol, rounds=300)
    for ch, bs in zip(res.history.ch_count, res.history.packets_to_bs):
        assert bs <= ch


def test_unreachable_hard_threshold_silences_reactive_network():
    # sensed values cap at 200, so nothing ever crosses
    quiet = run_short("teen", rounds=150, hard_threshold=500.0)
    assert quiet.summary.total_throughput == 0
    assert all(p == 0 for p in quiet.history.packets_to_ch)
    # the proactive protocol with the same config keeps reporting
    loud = run_short("leach", rounds=150, hard_threshold=500.0)
    assert loud.summary.total_throughput > 0


def test_zero_thresholds_make_reactive_behave_proactively():
    teen = run_short("teen", rounds=100, hard_threshold=0.0, soft_threshold=0.0)
    # with the gate wide open every member delivers one packet per round
    for alive, ch, to_ch in zip(teen.history.alive, teen.history.ch_count,
                                teen.history.packets_to_ch):
        if alive == 100 and ch > 0:
            assert to_ch == alive - ch


def test_soft_threshold_suppresses_stagnant_readings():
    active = run_short("teen", rounds=400, soft_threshold=0.0).summary.total_throughput
    sluggish = run_short("teen", rounds=400, soft_threshold=150.0).summary.total_throughput
    assert sluggish < active


def test_last_transmission_tracks_sent_values():
    net = deploy(30, 100.0, 0.5, np.random.default_rng(5))
    eng = Engine(ProtocolKind.TEEN, ScenarioConfig(nodes=30), [net], [SinkMode.STATIC_CENTER])
    rng = np.random.default_rng(6)
    eng.step(0, [rng])
    reported = ~np.isnan(net.last_tx)
    assert reported.any()
    # whoever reported stored exactly the value they sensed this round
    assert np.array_equal(net.last_tx[reported], net.sensed[reported])
    # nobody below the hard threshold may have reported
    assert np.all(net.sensed[reported] >= 100.0)


def test_engine_gates_each_protocol_on_its_own_thresholds(monkeypatch):
    # the reactive gate of each protocol gets that protocol's (hard, soft)
    # pair from the config; all six thresholds differ, so reading any other
    # field (even one of equal default) shows
    cfg = ScenarioConfig(nodes=30, hard_threshold=90.0, soft_threshold=1.0,
                         hteen_hard_threshold=120.0, hteen_soft_threshold=2.5,
                         camp_hard_threshold=150.0, camp_soft_threshold=3.5)
    real, seen = engine.teen_gate_mask, []

    def spy(sensed, last_tx, alive, hard, soft):
        seen.append((hard, soft))
        return real(sensed, last_tx, alive, hard, soft)

    monkeypatch.setattr(engine, "teen_gate_mask", spy)
    want = {ProtocolKind.TEEN: (90.0, 1.0), ProtocolKind.HTEEN: (120.0, 2.5),
            ProtocolKind.CAMPTEEN: (150.0, 3.5)}
    for kind, pair in want.items():
        net = deploy(30, 100.0, 0.5, np.random.default_rng(5))
        eng = Engine(kind, cfg, [net], [SinkMode.STATIC_CENTER])
        for rnd in range(3):
            eng.step(rnd, [np.random.default_rng(rnd)])
        assert seen == [pair] * 3
        seen.clear()
    # the proactive protocols report without a gate
    for kind in (ProtocolKind.LEACH, ProtocolKind.DEEC):
        net = deploy(30, 100.0, 0.5, np.random.default_rng(5))
        Engine(kind, cfg, [net], [SinkMode.STATIC_CENTER]).step(0, [np.random.default_rng(0)])
    assert seen == []


def test_engine_elects_with_each_protocols_own_fields(monkeypatch):
    # fields that share a default with another field are set apart here
    # (p_opt and hteen_layer_p, camp_comm_range_m and sink_range_m), so an
    # election that reads the wrong one shows
    cfg = ScenarioConfig(nodes=30, p_opt=0.2, hteen_layer_p=0.3,
                         camp_comm_range_m=20.0, sink_range_m=35.0)
    probs, ranges = [], []
    leach = protocols.leach_elect_chs
    graph = _kernels.range_graph

    def leach_spy(net, p, *args, **kwargs):
        probs.append(p)
        return leach(net, p, *args, **kwargs)

    def graph_spy(x, y, range2):
        ranges.append(range2)
        return graph(x, y, range2)

    # the engine calls LEACH's rule for LEACH and TEEN, and H-TEEN's tiers
    # call it once per tier
    monkeypatch.setattr(engine, "leach_elect_chs", leach_spy)
    monkeypatch.setattr(protocols, "leach_elect_chs", leach_spy)
    monkeypatch.setattr(_kernels, "range_graph", graph_spy)
    want = {ProtocolKind.LEACH: ([0.2], []), ProtocolKind.TEEN: ([0.2], []),
            ProtocolKind.HTEEN: ([0.3, 0.3, 0.3], []),
            ProtocolKind.CAMPTEEN: ([], [400.0])}
    for kind, (p, r2) in want.items():
        net = deploy(30, 100.0, 0.5, np.random.default_rng(5))
        Engine(kind, cfg, [net], [SinkMode.MOBILE_TOP]).step(0, [np.random.default_rng(0)])
        assert (probs, ranges) == (p, r2)
        probs.clear()
        ranges.clear()


def test_campteen_builds_each_runs_range_graph_once(monkeypatch):
    # the range graph is built per run when the engine is built, from that
    # run's own positions, and every round's cover reads that run's graph
    graph, cover, built, read = _kernels.range_graph, _kernels.cover, [], []

    def graph_spy(x, y, range2):
        adj = graph(x, y, range2)
        built.append((x.copy(), adj))
        return adj

    def cover_spy(order, adj, dead):
        read.append(adj)
        return cover(order, adj, dead)

    monkeypatch.setattr(_kernels, "range_graph", graph_spy)
    monkeypatch.setattr(_kernels, "cover", cover_spy)
    cfg = ScenarioConfig(nodes=30)
    nets = [deploy(30, 100.0, 0.5, np.random.default_rng(s)) for s in range(3)]
    xs = [net.x.copy() for net in nets]
    eng = Engine(ProtocolKind.CAMPTEEN, cfg, nets,
                 [SinkMode.STATIC_CENTER, SinkMode.MOBILE_TOP, SinkMode.STATIC_TOP])
    assert [x.tolist() for x, _ in built] == [x.tolist() for x in xs]
    graphs = [adj for _, adj in built]
    rngs = [np.random.default_rng(s) for s in range(3)]
    for rnd in range(4):
        eng.step(rnd, rngs)
    assert len(built) == 3
    assert len(read) == 12
    assert all(adj is graphs[i % 3] for i, adj in enumerate(read))


def test_engine_takes_radio_charges_from_config():
    # per-packet charges are the per-bit constants times the payload, and
    # the squared crossover the ratio of the amplifier constants
    cfg = ScenarioConfig(nodes=30, e_elec_j=60e-9, e_da_j=4e-9, packet_bits=2000)
    eng = Engine(ProtocolKind.LEACH, cfg, [deploy(30, 100.0, 0.5, np.random.default_rng(5))],
                 [SinkMode.STATIC_CENTER])
    assert eng._e_elec_b == 2000 * 60e-9
    assert eng._e_fs_b == 2000 * cfg.e_fs_j
    assert eng._e_mp_b == 2000 * cfg.e_mp_j
    assert eng._e_da_b == 2000 * 4e-9
    assert eng._d0sq == cfg.e_fs_j / cfg.e_mp_j


def test_mobile_short_circuit_delivers_directly():
    # a huge pickup radius turns every hierarchy head into a direct sender
    direct = run_short("hteen", sink="mobile_top", rounds=200, sink_range_m=1000.0)
    relayed = run_short("hteen", sink="mobile_top", rounds=200, sink_range_m=0.0)
    assert direct.summary.total_throughput > relayed.summary.total_throughput
    # with every head delivering directly there is no head-to-head relaying
    # beyond the member phase, so each head sends at most one packet
    for ch, bs in zip(direct.history.ch_count, direct.history.packets_to_bs):
        assert bs <= ch


def test_static_modes_never_short_circuit():
    # zero pickup radius must not change a static-sink run
    a = run_short("hteen", sink="static_top", rounds=200, sink_range_m=0.0)
    b = run_short("hteen", sink="static_top", rounds=200, sink_range_m=50.0)
    assert a.history == b.history


def test_hierarchy_reduces_long_range_sends():
    # flat TEEN: every head fires at the sink; layered variant funnels
    # through upper tiers, so direct-to-sink sends per round shrink
    flat = run_short("teen", rounds=100, hard_threshold=0.0)
    deep = run_short("hteen", rounds=100, hteen_hard_threshold=0.0)
    flat_rate = np.mean([b / c for b, c in zip(flat.history.packets_to_bs,
                                               flat.history.ch_count) if c])
    deep_rate = np.mean([b / c for b, c in zip(deep.history.packets_to_bs,
                                               deep.history.ch_count) if c])
    assert deep_rate < flat_rate


def test_identical_seeds_identical_histories():
    a = run_short("deec", rounds=250, seed=9)
    b = run_short("deec", rounds=250, seed=9)
    assert a.history == b.history


def test_different_seeds_differ():
    a = run_short("leach", rounds=50, seed=1)
    b = run_short("leach", rounds=50, seed=2)
    assert a.history != b.history


def test_protocols_share_seed_but_not_streams():
    # same seed, different protocol: deployments must still differ because
    # the generator is keyed on (seed, protocol, sink)
    a = run_scenario(ScenarioConfig(rounds=5), "leach", "static_center", 4)
    b = run_scenario(ScenarioConfig(rounds=5), "teen", "static_center", 4)
    assert not np.array_equal(a.network.x, b.network.x)


def test_heterogeneous_deployment_only_for_energy_aware():
    deec = run_short("deec", rounds=5)
    assert deec.network.e_total == 90.0
    for proto in ("leach", "teen", "hteen", "campteen"):
        res = run_short(proto, rounds=5)
        assert res.network.e_total == pytest.approx(50.0)


@pytest.mark.parametrize("kind, stages", [
    (ProtocolKind.LEACH, 2), (ProtocolKind.CAMPTEEN, 2), (ProtocolKind.HTEEN, 4)])
def test_draws_per_round_do_not_depend_on_deaths(kind, stages):
    # A round takes one draw per node id and stage (sensing, then each
    # election stage) from a run's generator while any of its nodes lives,
    # dead or not, and none once all are dead; the other runs of the batch
    # keep their streams.
    nets = [deploy(30, 100.0, 0.5, np.random.default_rng(s)) for s in (5, 6, 7)]
    nets[0].residual[::2] = 0.0   # half dead
    nets[1].residual[:] = 0.0     # extinct
    cfg = ScenarioConfig(nodes=30, hteen_hard_threshold=100.0, camp_hard_threshold=100.0)
    eng = Engine(kind, cfg, nets, [SinkMode.STATIC_CENTER] * 3)
    rngs = [np.random.default_rng(s) for s in (8, 9, 10)]
    eng.step(0, rngs)
    for rng, seed, drawn in zip(rngs, (8, 9, 10), (stages, 0, stages)):
        fresh = np.random.default_rng(seed)
        fresh.random(drawn * 30)
        assert rng.random() == fresh.random()
