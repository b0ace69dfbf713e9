"""Per-round histories, run summaries, and report files.

An engine fills its batch's round record (`ROUND_RECORD`, one row per
run, one item per round) with five measured columns: `alive` (nodes alive
at the end of the round), `ch_count` (heads elected), `packets_to_ch`
(packets that reached a head, its own reading aside), `packets_to_bs`
(packets that reached the sink) and `energy_consumed_j` (the drop in the
run's total residual).  `RunHistory.from_record` turns a run's row into
lists and derives the other three columns: the round index, `dead` (nodes
minus `alive`), and `cum_packets_to_bs`, the running sum of `packets_to_bs`.
Only a trace read back from a file (`read_csv`) is checked, round by round.

The CSV schema is fixed (`round,alive,dead,ch_count,packets_to_ch,
packets_to_bs,cum_packets_to_bs,energy_consumed_j`) and energy values are
written with 17 significant digits, so identical histories always produce
byte-identical files that also round-trip exactly.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

CSV_HEADER = "round,alive,dead,ch_count,packets_to_ch,packets_to_bs,cum_packets_to_bs,energy_consumed_j"
LIFETIME_SURVIVED = "survived"
ROUND_RECORD = np.dtype([("alive", np.int64), ("ch_count", np.int64),
                         ("packets_to_ch", np.int64), ("packets_to_bs", np.int64),
                         ("energy_consumed_j", np.float64)])


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


@dataclass
class RunHistory:
    """One run's per-round columns, one item per round; histories compare
    with `==`, column by column."""

    rounds: list[int] = field(default_factory=list)
    alive: list[int] = field(default_factory=list)
    dead: list[int] = field(default_factory=list)
    ch_count: list[int] = field(default_factory=list)
    packets_to_ch: list[int] = field(default_factory=list)
    packets_to_bs: list[int] = field(default_factory=list)
    cum_packets_to_bs: list[int] = field(default_factory=list)
    energy_consumed_j: list[float] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.rounds)

    @classmethod
    def from_record(cls, row: np.ndarray, n_nodes: int) -> RunHistory:
        """One run's history from its row of an engine's round record."""
        return cls(
            rounds=list(range(len(row))),
            alive=row["alive"].tolist(),
            dead=(n_nodes - row["alive"]).tolist(),
            ch_count=row["ch_count"].tolist(),
            packets_to_ch=row["packets_to_ch"].tolist(),
            packets_to_bs=row["packets_to_bs"].tolist(),
            cum_packets_to_bs=np.cumsum(row["packets_to_bs"]).tolist(),
            energy_consumed_j=row["energy_consumed_j"].tolist(),
        )

    def record_round(self, rnd: int, alive: int, dead: int, ch_count: int,
                     packets_to_ch: int, packets_to_bs: int, cum_packets_to_bs: int,
                     energy_consumed_j: float) -> None:
        """Append one round read from outside (`read_csv`), checked first."""
        if rnd != len(self.rounds):
            raise ValueError(f"round {rnd} out of sequence (expected {len(self.rounds)})")
        if min(alive, dead, ch_count, packets_to_ch, packets_to_bs) < 0:
            raise ValueError(f"round {rnd}: negative count")
        if not (math.isfinite(energy_consumed_j) and energy_consumed_j >= 0.0):
            raise ValueError(f"round {rnd}: energy_consumed_j must be finite and >= 0, "
                             f"got {energy_consumed_j!r}")
        prev = self.cum_packets_to_bs[-1] if self.cum_packets_to_bs else 0
        if cum_packets_to_bs != prev + packets_to_bs:
            raise ValueError(f"round {rnd}: cumulative packet count does not extend the history")
        values = (rnd, alive, dead, ch_count, packets_to_ch, packets_to_bs,
                  cum_packets_to_bs, energy_consumed_j)
        for column, value in zip(vars(self).values(), values):  # in field order
            column.append(value)


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
    for row in zip(*vars(history).values()):  # columns in field order
        lines.append("%d,%d,%d,%d,%d,%d,%d,%.17g" % row)
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
        hist.record_round(*map(int, parts[:7]), float(parts[7]))
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
