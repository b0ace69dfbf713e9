"""Command line interface behaviour (invoked in-process via main())."""
import json

import pytest

from wsnsim import read_csv
from wsnsim.cli import main


def test_run_writes_trace_and_prints_summary(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    code = main([
        "run", "--protocol", "leach", "--sink", "static_center",
        "--rounds", "40", "--seed", "3", "--out", str(out),
    ])
    assert code == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("leach static_center seed=3 ")
    assert "throughput=" in line
    hist = read_csv(out)
    assert len(hist) == 40


def test_run_honors_config_file_and_overrides(tmp_path, capsys):
    cfgfile = tmp_path / "s.cfg"
    cfgfile.write_text("rounds = 30\nprotocol = teen\nseed = 5\n")
    code = main(["run", "--config", str(cfgfile), "--set", "seed=9"])
    assert code == 0
    assert capsys.readouterr().out.startswith("teen static_center seed=9 ")


def test_run_unknown_protocol_is_usage_error(capsys):
    code = main(["run", "--protocol", "flooding", "--rounds", "5"])
    assert code == 2
    assert "unknown protocol" in capsys.readouterr().err


def test_run_bad_override_is_usage_error(capsys):
    code = main(["run", "--set", "nonsense"])
    assert code == 2
    assert "KEY=VALUE" in capsys.readouterr().err


def test_run_unknown_key_is_usage_error(capsys):
    code = main(["run", "--set", "warp_speed=9"])
    assert code == 2
    assert "warp_speed" in capsys.readouterr().err


@pytest.mark.parametrize("override", [
    "field_m=nan", "initial_energy_j=nan", "sink_step_m=nan",
    "camp_comm_range_m=nan", "e_mp_j=inf",
])
def test_run_non_finite_value_is_usage_error(override, capsys):
    code = main(["run", "--rounds", "5", "--set", override])
    assert code == 2
    key = override.split("=")[0]
    assert f"'{key}' must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("argv, key", [
    (["run", "--seed", "-1"], "seed"),
    (["compare", "--seeds", "-1"], "seed"),
    (["compare", "--seeds", "1.5"], "seed"),
    (["compare", "--seeds", "1,1"], "seed"),
    (["compare", "--seeds", ","], "seed"),
    (["compare", "--protocols", "leach,LEACH"], "protocol"),
], ids=lambda p: " ".join(p) if isinstance(p, list) else p)
def test_bad_run_selection_is_usage_error(argv, key, tmp_path, capsys):
    out = tmp_path / "cmp"
    extra = ["--out-dir", str(out)] if argv[0] == "compare" else []
    code = main(argv + ["--rounds", "5"] + extra)
    assert code == 2
    err = capsys.readouterr().err
    assert "configuration error: " in err and f"'{key}'" in err
    assert not out.exists()  # rejected before any run


def test_compare_writes_matrix_artifacts(tmp_path, capsys):
    out = tmp_path / "cmp"
    code = main([
        "compare", "--rounds", "25", "--protocols", "leach,campteen",
        "--sinks", "static_top,mobile_top", "--seeds", "1,2",
        "--out-dir", str(out),
    ])
    assert code == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == [
        "campteen_mobile_top_seed1.csv",
        "campteen_mobile_top_seed2.csv",
        "campteen_static_top_seed1.csv",
        "campteen_static_top_seed2.csv",
        "leach_mobile_top_seed1.csv",
        "leach_mobile_top_seed2.csv",
        "leach_static_top_seed1.csv",
        "leach_static_top_seed2.csv",
        "summary.json",
    ]
    records = json.loads((out / "summary.json").read_text())
    assert len(records) == 8
    # records come in the same lexicographic order as the files
    assert [r["protocol"] for r in records[:4]] == ["campteen"] * 4
    assert all(r["rounds"] == 25 for r in records)
    assert len({r["config_fingerprint"] for r in records}) == 1
    out_lines = capsys.readouterr().out.strip().splitlines()
    assert len(out_lines) == 9  # 8 run lines + the artifact note


def test_compare_requires_out_dir(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--rounds", "5"])
    assert exc.value.code == 2


def test_compare_default_lists_cover_everything(tmp_path):
    out = tmp_path / "all"
    code = main(["compare", "--rounds", "3", "--seeds", "4", "--out-dir", str(out)])
    assert code == 0
    csvs = [p for p in out.iterdir() if p.suffix == ".csv"]
    assert len(csvs) == 15  # 5 protocols x 3 sink modes
