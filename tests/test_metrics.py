"""History bookkeeping, summary statistics, and report files."""
import numpy as np
import pytest

from wsnsim import (
    CSV_HEADER,
    RunHistory,
    lifetime_round,
    read_csv,
    read_summary,
    stability_period,
    summarize,
    write_csv,
    write_summary,
)


def toy_history(rows):
    """rows: list of (alive, ch, to_ch, to_bs, energy) tuples."""
    hist = RunHistory()
    cum = 0
    for r, (alive, ch, to_ch, to_bs, energy) in enumerate(rows):
        cum += to_bs
        hist.record_round(r, alive, 100 - alive, ch, to_ch, to_bs, cum, energy)
    return hist


def test_record_round_enforces_sequence():
    hist = RunHistory()
    hist.record_round(0, 100, 0, 5, 90, 5, 5, 0.01)
    with pytest.raises(ValueError, match="out of sequence"):
        hist.record_round(3, 100, 0, 5, 90, 5, 10, 0.01)


def test_record_round_enforces_cumulative_consistency():
    hist = RunHistory()
    hist.record_round(0, 100, 0, 5, 90, 5, 5, 0.01)
    with pytest.raises(ValueError, match="cumulative"):
        hist.record_round(1, 100, 0, 5, 90, 5, 99, 0.01)


def test_record_round_rejects_negative_counts():
    hist = RunHistory()
    with pytest.raises(ValueError):
        hist.record_round(0, 100, 0, -1, 0, 0, 0, 0.0)
    with pytest.raises(ValueError):
        hist.record_round(0, 100, 0, 0, 0, 0, 0, -0.5)


def test_stability_and_lifetime():
    hist = toy_history([
        (100, 5, 90, 5, 0.04),
        (100, 7, 80, 7, 0.04),
        (97, 6, 70, 6, 0.04),   # first deaths here (round 2)
        (50, 3, 30, 3, 0.02),
        (0, 0, 0, 0, 0.001),    # everyone gone (round 4)
        (0, 0, 0, 0, 0.0),
    ])
    assert stability_period(hist) == 2
    assert lifetime_round(hist) == 4


def test_stability_none_while_all_alive():
    hist = toy_history([(100, 5, 90, 5, 0.04)] * 3)
    assert stability_period(hist) is None
    assert lifetime_round(hist) is None


def test_summarize_averages():
    hist = toy_history([
        (100, 5, 90, 10, 0.04),
        (98, 5, 90, 20, 0.04),
        (96, 5, 90, 30, 0.04),
    ])
    s = summarize(hist, "leach", "static_center", 7)
    assert s.rounds == 3
    assert s.stability_period == 1
    assert s.lifetime is None
    assert s.avg_alive == pytest.approx(98.0)
    assert s.total_throughput == 60
    # mean of the cumulative curve (10, 30, 60), not of the increments
    assert s.avg_throughput == pytest.approx(100.0 / 3.0)


def test_summarize_rejects_empty():
    with pytest.raises(ValueError):
        summarize(RunHistory(), "leach", "static_center", 1)


def test_csv_round_trip_is_exact(tmp_path):
    # adversarial energies: denormal-ish, huge, and non-terminating binary
    hist = toy_history([
        (100, 5, 90, 5, 0.1),
        (99, 5, 90, 5, 1.0 / 3.0),
        (98, 5, 90, 5, 4.93e-17),
        (97, 5, 90, 5, 123456.789012345678),
    ])
    p = tmp_path / "trace.csv"
    write_csv(hist, p)
    assert read_csv(p) == hist  # bitwise float equality via ==


def test_csv_format_details(tmp_path):
    hist = toy_history([(100, 5, 90, 5, 0.0625)])
    p = tmp_path / "trace.csv"
    write_csv(hist, p)
    raw = p.read_bytes()
    assert b"\r" not in raw          # LF endings only
    assert raw.endswith(b"\n")
    text = raw.decode("ascii").splitlines()
    assert text[0] == CSV_HEADER
    assert text[1] == "0,100,0,5,90,5,5,0.0625"


def test_csv_energy_precision(tmp_path):
    val = 0.042247806053929082  # needs > 12 significant digits
    hist = toy_history([(100, 5, 90, 5, val)])
    p = tmp_path / "trace.csv"
    write_csv(hist, p)
    digits = p.read_text().splitlines()[1].split(",")[7]
    mantissa = digits.replace("-", "").replace(".", "").lstrip("0")
    assert len(mantissa) >= 12
    assert float(digits) == val


def test_csv_identical_histories_identical_bytes(tmp_path):
    rows = [(100, 5, 90, 5, 0.04321)] * 10
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(toy_history(rows), a)
    write_csv(toy_history(rows), b)
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_read_csv_rejects_non_finite_energy(tmp_path, bad):
    # a trace is outside input: a non-finite energy is refused by its
    # column's name, not summarized
    p = tmp_path / "trace.csv"
    p.write_text(f"{CSV_HEADER}\n0,100,0,5,90,5,5,0.1\n1,100,0,5,90,5,10,{bad}\n"
                 "2,100,0,5,90,5,15,0.1\n")
    with pytest.raises(ValueError, match="energy_consumed_j"):
        read_csv(p)


def test_read_csv_rejects_foreign_header(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("time,alive\n0,100\n")
    with pytest.raises(ValueError, match="header"):
        read_csv(p)


def test_summary_file_round_trip(tmp_path):
    hist = toy_history([(100, 5, 90, 5, 0.04), (0, 0, 0, 0, 0.0)])
    s = summarize(hist, "teen", "mobile_top", 3)
    p = tmp_path / "summary.json"
    write_summary([s], p, "cafe01234567")
    records = read_summary(p)
    assert len(records) == 1
    rec = records[0]
    assert rec["protocol"] == "teen"
    assert rec["sink"] == "mobile_top"
    assert rec["seed"] == 3
    assert rec["lifetime"] == 1
    assert rec["config_fingerprint"] == "cafe01234567"
    # survived runs use a sentinel string instead of a number
    s2 = summarize(toy_history([(100, 5, 90, 5, 0.04)]), "leach", "static_top", 1)
    write_summary([s2], p, "cafe01234567")
    assert read_summary(p)[0]["lifetime"] == "survived"
