"""Radio energy model checks against hand-derived values.

The expected constants below were computed independently with plain
python arithmetic (no package imports) and frozen here; the model must
reproduce them bit-for-bit where the algebraic form is unambiguous.
"""
import math

import pytest

from wsnsim import (
    EnergyParams,
    aggregation_energy,
    expected_round_energy,
    optimal_cluster_count,
    relay_beneficial,
    rx_energy,
    tx_energy,
)

P = EnergyParams()  # 50nJ/bit electronics, fs/mp amplifier, 4000-bit packets


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
    assert tx_energy(P, 4000, distance) == expected


def test_tx_energy_continuous_at_crossover():
    # the two amplifier branches agree at d0 by construction
    below = tx_energy(P, 4000, P.d0 - 1e-6)
    above = tx_energy(P, 4000, P.d0 + 1e-6)
    at = tx_energy(P, 4000, P.d0)
    assert at == 0.0005076923076923076
    assert abs(below - above) / at < 1e-6


def test_tx_energy_monotone_in_distance():
    costs = [tx_energy(P, 4000, d) for d in range(0, 200, 5)]
    assert all(a < b for a, b in zip(costs, costs[1:]))


def test_rx_energy_is_electronics_only():
    assert rx_energy(P, 4000) == 0.00019999999999999998
    assert rx_energy(P, 4000) == tx_energy(P, 4000, 0.0)


def test_aggregation_scales_with_signal_count():
    assert aggregation_energy(P, 4000, 1) == 2e-05
    assert aggregation_energy(P, 4000, 7) == 0.00014000000000000001
    assert aggregation_energy(P, 4000, 0) == 0.0


def test_relay_beneficial_for_long_paths_only():
    # splitting a 120 m hop at the midpoint beats d^4 on the direct path
    assert relay_beneficial(P, 60.0, 60.0, 120.0)
    # short paths stay in the d^2 regime: the extra electronics lose
    assert not relay_beneficial(P, 20.0, 20.0, 40.0)


def test_expected_round_energy_frozen_value():
    # 10 clusters, 100 nodes, 100 m field, BS offset 0.765 * 50
    assert expected_round_energy(P, 10, 100, 100.0, 38.25) == 0.04274792847007071


def test_expected_round_energy_has_interior_minimum():
    costs = {k: expected_round_energy(P, k, 100, 100.0, 38.25) for k in range(1, 80)}
    best = min(costs, key=costs.get)
    assert 1 < best < 79  # electronics/amplifier trade-off bottoms out inside


def test_optimal_cluster_count_matches_round_energy_minimum():
    k_opt = optimal_cluster_count(P, 100, 100.0, 38.25)
    assert k_opt == 23.91528224301491
    costs = {k: expected_round_energy(P, k, 100, 100.0, 38.25) for k in range(1, 80)}
    assert abs(min(costs, key=costs.get) - k_opt) <= 1.0


def test_negative_distance_rejected():
    with pytest.raises(ValueError):
        tx_energy(P, 4000, -1.0)
