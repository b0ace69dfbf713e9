"""Properties every simulated run must have, checked from its outputs.

Nothing here compares an output with a stored copy of an earlier output:
each check follows from the method itself (one transmission per node per
round, the radio model's electronics floor, permanent death, energy
conservation) or compares two independent paths to the same number.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

# Rounding slack for energy differences of float sums, as a share of the
# network's initial energy.  One packet's electronics cost is five orders
# of magnitude above it, so a missing charge cannot hide in it.
ENERGY_ABS_SLACK = 1e-9
ENERGY_REL_TOL = 1e-9


def alive_at_start(history, n_nodes):
    """Nodes alive when each round starts (the previous round's end count)."""
    return [n_nodes] + history.alive[:-1]


def node_rounds(history, n_nodes):
    return sum(alive_at_start(history, n_nodes))


def run_violations(res, cfg, n_nodes):
    """Names of the per-run properties that `res` breaks (empty if none)."""
    h = res.history
    bad = []
    start = alive_at_start(h, n_nodes)
    e_packet = cfg.e_elec_j * cfg.packet_bits
    slack = ENERGY_ABS_SLACK * res.network.e_total
    for i in range(len(h)):
        a0 = start[i]
        sent = h.packets_to_ch[i] + h.packets_to_bs[i]
        if sent > a0:
            bad.append(f"round {i}: {sent} packets from {a0} alive nodes")
        if h.ch_count[i] > a0:
            bad.append(f"round {i}: {h.ch_count[i]} heads from {a0} alive nodes")
        floor = (2 * h.packets_to_ch[i] + h.packets_to_bs[i]) * e_packet
        if h.energy_consumed_j[i] < floor - slack:
            bad.append(f"round {i}: {h.energy_consumed_j[i]!r} J below the "
                       f"electronics floor {floor!r} J")
        if h.alive[i] > a0:
            bad.append(f"round {i}: alive count rose from {a0} to {h.alive[i]}")
    drop = res.network.e_total - float(res.network.residual.sum())
    total = sum(h.energy_consumed_j)
    if abs(total - drop) > ENERGY_REL_TOL * abs(drop):
        bad.append(f"consumed {total!r} J but residual fell by {drop!r} J")
    return bad


def history_digest(history):
    """Digest of every per-round column, to compare repeated passes."""
    cols = (history.rounds, history.alive, history.dead, history.ch_count,
            history.packets_to_ch, history.packets_to_bs,
            history.cum_packets_to_bs, history.energy_consumed_j)
    return hashlib.sha256(repr(cols).encode()).hexdigest()


def dir_digests(path):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(Path(path).iterdir())}


def _parse_trace(text):
    """Column lists of a trace CSV, parsed without the simulator's reader."""
    rows = [line.split(",") for line in text.rstrip("\n").split("\n")[1:]]
    return {
        "round": [int(r[0]) for r in rows],
        "alive": [int(r[1]) for r in rows],
        "dead": [int(r[2]) for r in rows],
        "cum": [int(r[6]) for r in rows],
    }


def summary_violations(out_dir, csv_names):
    """Compare summary.json with stability, lifetime and average throughput
    recomputed from the written CSVs.

    `csv_names` maps (protocol, sink, seed) to the CSV file of that run.
    Returns {(protocol, sink, seed): [violations]} for the runs that break.
    """
    out = Path(out_dir)
    records = {(r["protocol"], r["sink"], r["seed"]): r
               for r in json.loads((out / "summary.json").read_text())}
    bad = {}
    for key, name in csv_names.items():
        rec = records.get(key)
        if rec is None:
            bad[key] = ["no summary.json record"]
            continue
        cols = _parse_trace((out / name).read_text())
        stability = next((r for r, d in zip(cols["round"], cols["dead"]) if d > 0), None)
        lifetime = next((r for r, a in zip(cols["round"], cols["alive"]) if a == 0),
                        "survived")
        avg_tp = sum(cols["cum"]) / len(cols["cum"])
        want = {"stability_period": stability, "lifetime": lifetime,
                "avg_throughput": avg_tp}
        errs = [f"{k}: summary {rec[k]!r}, CSV {v!r}"
                for k, v in want.items() if rec[k] != v]
        if errs:
            bad[key] = errs
    return bad
