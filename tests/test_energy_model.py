"""Radio energy model checks against hand-derived values.

The expected constants below were computed independently with plain
python arithmetic (no package imports) and frozen here.  The per-packet
charges are checked where the simulator pays them: every node starts at
0.5 J, and the residual that `member_phase` or `relay_phase` leaves must be
0.5 minus the frozen charge, bit for bit.  Each case runs on every
installed backend, and on both paths of the numpy fallback: the loop,
taken by calls of fewer than `_LOOP_BELOW` senders, and the vectorized one.
"""
import math

import numpy as np
import pytest

from wsnsim import _kernels
from wsnsim import EnergyParams, expected_round_energy

P = EnergyParams()  # 50nJ/bit electronics, fs/mp amplifier, 4000-bit packets
# the per-packet constants, as the engine derives them
E_ELEC_B, E_FS_B, E_MP_B, E_DA_B = (P.packet_bits * e for e in (P.e_elec, P.e_fs, P.e_mp, P.e_da))
RX = 0.00019999999999999998  # electronics charge of one 4000-bit packet
COPIES = _kernels._LOOP_BELOW  # copies of each case that send a call down the vectorized path
# (backend's kernels, vectorized path?)
PATHS = [(impl, vec) for impl in _kernels.BACKENDS.values() for vec in (False, True)]


def on_path(call, vectorized, *cases):
    """Run `call` on parallel case arrays: each case alone (one sender, the
    loop path), or all of them `COPIES` times in one call (the vectorized
    path), checking that the copies agree.  Returns `call`'s output arrays,
    one entry per case."""
    cases = [c.astype(np.float64) for c in np.broadcast_arrays(*map(np.atleast_1d, cases))]
    if not vectorized:
        outs = [call(*(c[k:k + 1] for c in cases)) for k in range(cases[0].size)]
        return [np.concatenate(col) for col in zip(*outs)]
    outs = call(*(np.repeat(c, COPIES) for c in cases))
    rows = [out.reshape(-1, COPIES) for out in outs]
    assert all((row == row[:, :1]).all() for row in rows)
    return [row[:, 0] for row in rows]


def member_after(impl, vectorized, sender, distance, head):
    """Each sender (residual `sender`) sends one packet over `distance` to a
    head of its own (residual `head`) in `member_phase`: the senders' and the
    heads' residuals afterwards, and the packets the heads received."""
    def call(sender, distance, head):
        m = sender.size
        residual = np.concatenate([sender, head])
        assign = np.concatenate([np.arange(m, 2 * m), np.full(m, -1)])
        d2ch = np.concatenate([distance * distance, np.zeros(m)])
        received = impl["member_phase"](np.ones(2 * m, np.bool_), assign, d2ch, residual,
                                        E_ELEC_B, E_FS_B, E_MP_B, P.d0_sq)
        return residual[:m], residual[m:], received[m:]
    return on_path(call, vectorized, sender, distance, head)


def relay_after(impl, vectorized, sender, signals, distance):
    """Each head (residual `sender`, holding `signals`) forwards to the sink
    over `distance` in `relay_phase`: its residual afterwards, and whether its
    packet reached the sink."""
    def call(sender, signals, distance):
        m = sender.size
        residual = sender.copy()
        to_sink = impl["relay_phase"](np.arange(m), signals.astype(np.int64), residual,
                                      distance * distance, np.full(m, -1),
                                      E_ELEC_B, E_FS_B, E_MP_B, E_DA_B, P.d0_sq)
        return residual, to_sink
    return on_path(call, vectorized, sender, signals, distance)


def test_crossover_distance_is_derived_not_hardcoded():
    assert P.d0 == 87.70580193070292
    assert P.d0_sq == 7692.3076923076915
    assert P.d0 == math.sqrt(P.e_fs / P.e_mp)
    # scaling the amplifier constants moves the crossover accordingly
    q = EnergyParams(e_fs=40e-12)
    assert q.d0 == pytest.approx(2 * P.d0)


@pytest.mark.parametrize(
    "distance, expected",
    [
        (0.0, 0.00019999999999999998),
        (10.0, 0.00020399999999999997),
        (50.0, 0.0003),
        (87.0, 0.00050276),          # just under d0: free-space branch
        (100.0, 0.00072),            # above d0: multipath branch
        (150.0, 0.0028325000000000004),
    ],
)
def test_tx_energy_frozen_values(distance, expected):
    # a member's transmission, and a head's forward to the sink (one
    # signal: aggregation first, then the same transmit charge)
    for impl, vec in PATHS:
        after, _, _ = member_after(impl, vec, 0.5, distance, 0.5)
        assert after[0] == 0.5 - expected
        after, _ = relay_after(impl, vec, 0.5, 1, distance)
        assert after[0] == 0.5 - 2e-05 - expected


def test_tx_energy_continuous_at_crossover():
    # the two amplifier branches agree at d0 by construction
    for impl, vec in PATHS:
        after, _, _ = member_after(impl, vec, 0.5, [P.d0 - 1e-6, P.d0 + 1e-6, P.d0], 0.5)
        assert after[2] == 0.5 - 0.0005076923076923076
        below, above, at = 0.5 - after
        assert abs(below - above) / at < 1e-6


def test_tx_energy_monotone_in_distance():
    for impl, vec in PATHS:
        after, _, _ = member_after(impl, vec, 0.5, np.arange(0.0, 200.0, 5.0), 0.5)
        assert all(a > b for a, b in zip(after, after[1:]))


def test_rx_energy_is_electronics_only():
    # a head pays the electronics charge per packet, whatever the sender's
    # distance, and that is a transmission's charge at distance 0
    for impl, vec in PATHS:
        sent, heads, received = member_after(impl, vec, 0.5, [0.0, 50.0, 150.0], 0.5)
        assert np.all(heads == 0.5 - RX)
        assert sent[0] == 0.5 - RX
        assert np.all(received == 1)


def test_aggregation_scales_with_signal_count():
    # a head with no signal neither aggregates nor sends
    for impl, vec in PATHS:
        after, to_sink = relay_after(impl, vec, 0.5, [1, 7, 0], 0.0)
        assert after[0] == 0.5 - 2e-05 - RX
        assert after[1] == 0.5 - 0.00014000000000000001 - RX
        assert after[2] == 0.5
        assert to_sink.tolist() == [True, True, False]


def test_charges_floor_at_zero_and_kill():
    # A sender that cannot pay ends at 0.0 and delivers nothing; one that
    # pays exactly ends at 0.0 and delivers.  A dead sender and a dead head
    # are left untouched, and a head that cannot pay its reception ends at
    # 0.0 without the packet.
    cost = 0.00072  # 100 m
    cases = {  # sender, head -> (sender, head, received) afterwards
        (cost / 2, 0.5): (0.0, 0.5, 0),
        (cost, 0.5): (0.0, 0.5 - RX, 1),
        (0.0, 0.5): (0.0, 0.5, 0),
        (0.5, 0.0): (0.5 - cost, 0.0, 0),
        (0.5, RX / 2): (0.5 - cost, 0.0, 0),
    }
    sender, head = np.array(list(cases)).T
    for impl, vec in PATHS:
        got = member_after(impl, vec, sender, 100.0, head)
        assert list(zip(*(col.tolist() for col in got))) == list(cases.values())
        after, to_sink = relay_after(impl, vec, [cost / 2, 0.0], 1, 100.0)
        assert after.tolist() == [0.0, 0.0] and not to_sink.any()


def test_expected_round_energy_frozen_value():
    # 10 clusters, 100 nodes, 100 m field, BS offset 0.765 * 50
    assert expected_round_energy(P, 10, 100, 100.0, 38.25) == 0.04274792847007071


def test_expected_round_energy_has_interior_minimum():
    costs = {k: expected_round_energy(P, k, 100, 100.0, 38.25) for k in range(1, 80)}
    best = min(costs, key=costs.get)
    assert 1 < best < 79  # electronics/amplifier trade-off bottoms out inside
