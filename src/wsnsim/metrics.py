"""Round-by-round tallies, run summaries, and report files.

The CSV schema is fixed (`round,alive,dead,ch_count,packets_to_ch,
packets_to_bs,cum_packets_to_bs,energy_consumed_j`) and energy values are
written with 17 significant digits, so identical histories always produce
byte-identical files that also round-trip exactly.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

CSV_HEADER = "round,alive,dead,ch_count,packets_to_ch,packets_to_bs,cum_packets_to_bs,energy_consumed_j"
LIFETIME_SURVIVED = "survived"


@dataclass(frozen=True)
class RoundMetrics:
    round: int
    alive: int
    dead: int
    ch_count: int
    packets_to_ch: int
    packets_to_bs: int
    cum_packets_to_bs: int
    energy_consumed_j: float


@dataclass(frozen=True)
class RunSummary:
    protocol: str
    sink: str
    seed: int
    rounds: int
    stability_period: int | None   # round of the first death
    lifetime: int | None           # round of the last death; None = survived horizon
    avg_alive: float
    total_throughput: int
    avg_throughput: float          # mean of the cumulative sink-delivery curve


class RunHistory:
    """Append-only per-round record with consecutive round indices."""

    def __init__(self):
        self.rounds: list[int] = []
        self.alive: list[int] = []
        self.dead: list[int] = []
        self.ch_count: list[int] = []
        self.packets_to_ch: list[int] = []
        self.packets_to_bs: list[int] = []
        self.cum_packets_to_bs: list[int] = []
        self.energy_consumed_j: list[float] = []

    def __len__(self) -> int:
        return len(self.rounds)

    def record_round(self, m: RoundMetrics) -> None:
        if m.round != len(self.rounds):
            raise ValueError(
                f"round {m.round} out of sequence (expected {len(self.rounds)})"
            )
        if min(m.alive, m.dead, m.ch_count, m.packets_to_ch, m.packets_to_bs) < 0:
            raise ValueError("negative count in round metrics")
        if m.energy_consumed_j < 0.0:
            raise ValueError("energy_consumed_j must be >= 0")
        prev = self.cum_packets_to_bs[-1] if self.cum_packets_to_bs else 0
        if m.cum_packets_to_bs != prev + m.packets_to_bs:
            raise ValueError("cumulative packet count does not extend the history")
        self.rounds.append(m.round)
        self.alive.append(m.alive)
        self.dead.append(m.dead)
        self.ch_count.append(m.ch_count)
        self.packets_to_ch.append(m.packets_to_ch)
        self.packets_to_bs.append(m.packets_to_bs)
        self.cum_packets_to_bs.append(m.cum_packets_to_bs)
        self.energy_consumed_j.append(m.energy_consumed_j)

    def row(self, i: int) -> RoundMetrics:
        return RoundMetrics(
            self.rounds[i], self.alive[i], self.dead[i], self.ch_count[i],
            self.packets_to_ch[i], self.packets_to_bs[i],
            self.cum_packets_to_bs[i], self.energy_consumed_j[i],
        )


def stability_period(history: RunHistory) -> int | None:
    """Round index of the first death, or None while everyone lives."""
    for r, d in zip(history.rounds, history.dead):
        if d > 0:
            return r
    return None


def lifetime_round(history: RunHistory) -> int | None:
    """Round index at which the last node died, or None if some survive."""
    for r, a in zip(history.rounds, history.alive):
        if a == 0:
            return r
    return None


def summarize(history: RunHistory, protocol: str, sink: str, seed: int) -> RunSummary:
    if len(history) == 0:
        raise ValueError("cannot summarize an empty history")
    alive = np.asarray(history.alive, dtype=np.float64)
    cum = np.asarray(history.cum_packets_to_bs, dtype=np.float64)
    return RunSummary(
        protocol=protocol,
        sink=sink,
        seed=seed,
        rounds=len(history),
        stability_period=stability_period(history),
        lifetime=lifetime_round(history),
        avg_alive=float(alive.mean()),
        total_throughput=int(history.cum_packets_to_bs[-1]),
        avg_throughput=float(cum.mean()),
    )


def write_csv(history: RunHistory, path) -> None:
    """Write one line per round; LF endings; energy with full precision."""
    lines = [CSV_HEADER]
    for i in range(len(history)):
        lines.append(
            "%d,%d,%d,%d,%d,%d,%d,%.17g"
            % (
                history.rounds[i], history.alive[i], history.dead[i],
                history.ch_count[i], history.packets_to_ch[i],
                history.packets_to_bs[i], history.cum_packets_to_bs[i],
                history.energy_consumed_j[i],
            )
        )
    Path(path).write_bytes(("\n".join(lines) + "\n").encode("ascii"))


def read_csv(path) -> RunHistory:
    """Parse a file written by `write_csv` back into a history."""
    text = Path(path).read_text(encoding="ascii")
    lines = text.rstrip("\n").split("\n")
    if lines[0] != CSV_HEADER:
        raise ValueError(f"unexpected CSV header in {path}")
    hist = RunHistory()
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != 8:
            raise ValueError(f"malformed CSV row: {line!r}")
        hist.record_round(RoundMetrics(
            int(parts[0]), int(parts[1]), int(parts[2]), int(parts[3]),
            int(parts[4]), int(parts[5]), int(parts[6]), float(parts[7]),
        ))
    return hist


def summary_record(summary: RunSummary, config_fingerprint: str) -> dict:
    record = asdict(summary)
    if summary.lifetime is None:
        record["lifetime"] = LIFETIME_SURVIVED
    record["config_fingerprint"] = config_fingerprint
    return record


def write_summary(summaries, path, config_fingerprint: str) -> None:
    """Write one JSON record per run with stable key order."""
    records = [summary_record(s, config_fingerprint) for s in summaries]
    Path(path).write_bytes(
        (json.dumps(records, indent=2) + "\n").encode("ascii")
    )


def read_summary(path) -> list[dict]:
    return json.loads(Path(path).read_text(encoding="ascii"))
