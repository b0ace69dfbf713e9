"""Property checks for all five protocols (LEACH, TEEN, DEEC, H-TEEN,
CAMP-TEEN).

Small populations, short horizons and low initial energy, so that deaths,
empty head tiers and heads without members all occur within a few dozen
rounds.  Every drawn scenario is run for each protocol.  Examples are
derandomized: the suite draws the same cases on every run.
"""
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from wsnsim import ScenarioConfig, run_scenario, write_csv

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)
PROTOCOLS = ("leach", "teen", "deec", "hteen", "campteen")

scenarios = st.builds(
    lambda nodes, rounds, energy, layers, comm, seed, sink: (
        ScenarioConfig(nodes=nodes, rounds=rounds, initial_energy_j=energy,
                       hteen_layers=layers, camp_comm_range_m=comm),
        sink, seed),
    nodes=st.integers(1, 40),
    rounds=st.integers(1, 60),
    energy=st.floats(1e-5, 5e-3),
    layers=st.integers(1, 4),
    comm=st.floats(1.0, 150.0),
    seed=st.integers(0, 2**31 - 1),
    sink=st.sampled_from(["static_center", "static_top", "mobile_top"]),
)


@SETTINGS
@given(scenarios)
def test_alive_count_never_increases(case):
    cfg, sink, seed = case
    for proto in PROTOCOLS:
        alive = np.array(run_scenario(cfg, proto, sink, seed).history.alive)
        assert alive[0] <= cfg.nodes, proto
        assert np.all(np.diff(alive) <= 0), proto


@SETTINGS
@given(scenarios)
def test_cumulative_sink_packets_never_decrease(case):
    cfg, sink, seed = case
    for proto in PROTOCOLS:
        cum = np.array(run_scenario(cfg, proto, sink, seed).history.cum_packets_to_bs)
        assert cum[0] >= 0, proto
        assert np.all(np.diff(cum) >= 0), proto


@SETTINGS
@given(scenarios)
def test_equal_seeds_give_byte_equal_traces(case):
    cfg, sink, seed = case
    with tempfile.TemporaryDirectory() as tmp:
        for proto in PROTOCOLS:
            traces = []
            for k in range(2):
                path = Path(tmp, f"{proto}{k}.csv")
                write_csv(run_scenario(cfg, proto, sink, seed).history, path)
                traces.append(path.read_bytes())
            assert traces[0] == traces[1], proto


# Row lengths that are odd or not a power of two, around numpy's pairwise
# summation blocks (8-way unrolled, 128 per block), and one large.
ROW_SIZES = st.sampled_from([1, 3, 7, 9, 15, 100, 127, 129, 255, 257, 384, 1000, 1023, 4097])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(runs=st.integers(1, 12), n=ROW_SIZES, seed=st.integers(0, 2**32 - 1),
       spread=st.floats(1e-12, 1e3))
def test_per_run_sums_of_a_stack_equal_each_runs_own_sum(runs, n, seed, spread):
    # The engine takes each run's energy total as a row sum of the stacked
    # residuals; the trace needs it bitwise equal to summing that run's
    # slice on its own, as a run alone does.
    rng = np.random.default_rng(seed)
    a = rng.random(runs * n) * spread
    a[rng.random(runs * n) < 0.3] = 0.0  # dead nodes
    rows = a.reshape(runs, n).sum(axis=1)
    for r in range(runs):
        assert rows[r].tobytes() == a[r * n:(r + 1) * n].sum().tobytes()
