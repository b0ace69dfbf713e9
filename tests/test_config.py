"""Config parsing, precedence, validation, and fingerprints."""
import dataclasses
from functools import partial

import pytest

from wsnsim import (
    ProtocolKind,
    ScenarioConfig,
    energy_params,
    fingerprint,
    parse_config,
    parse_config_text,
    protocol_config,
    run_matrix,
    run_scenario,
)


NAN, INF = float("nan"), float("inf")

# one bad value each; the message must name the key
REJECTED = [
    # radio constants
    dict(e_elec_j=0.0), dict(e_fs_j=-1e-12), dict(e_mp_j=0.0), dict(packet_bits=0),
    # protocol tunables
    dict(p_opt=0.0), dict(p_opt=1.5), dict(hteen_layers=0),
    dict(hteen_layer_p=0.0), dict(camp_timer_k=0.0), dict(camp_comm_range_m=-1.0),
    # sink trajectory
    dict(field_m=-5.0), dict(sink_step_m=0.0), dict(sink_pause_rounds=0),
    # not finite, or out of range
    dict(field_m=NAN), dict(initial_energy_j=NAN), dict(e_mp_j=INF),
    dict(sink_step_m=NAN), dict(camp_comm_range_m=NAN), dict(hard_threshold=NAN),
    dict(deec_advanced_factor=-1.0), dict(rounds=0), dict(nodes=0), dict(seed=-1),
    # of the wrong type: rejected, never converted
    dict(nodes=True), dict(nodes=100.0), dict(field_m="100"),
]


@pytest.mark.parametrize("make, bad", [(ScenarioConfig, bad) for bad in REJECTED] + [
    (partial(dataclasses.replace, ScenarioConfig()), dict(field_m=NAN)),
], ids=[f"{k}={v!r}" for bad in REJECTED for k, v in bad.items()] + ["replace-field_m=nan"])
def test_invalid_values_rejected_by_key(make, bad):
    (key,) = bad
    with pytest.raises(ValueError, match=f"configuration error: '{key}' must be "):
        make(**bad)


def test_defaults_are_valid():
    ScenarioConfig()


def test_ints_stay_ints_in_float_fields():
    # fingerprint uses repr: a converted 100 would change every summary.json
    assert fingerprint(ScenarioConfig(field_m=100)) == "d5c9e972fa65"
    assert fingerprint(ScenarioConfig(field_m=100.0)) == "490a88ba59f3"


def test_parse_text_basic():
    text = """
    # scenario
    nodes = 50
    field_m = 200     # meters
    protocol = teen

    rounds=100
    """
    vals = parse_config_text(text)
    assert vals == {"nodes": 50, "field_m": 200.0, "protocol": "teen", "rounds": 100}
    assert isinstance(vals["nodes"], int)
    assert isinstance(vals["field_m"], float)


def test_parse_text_unknown_key_named_in_error():
    with pytest.raises(ValueError, match="unknown key 'node_count'"):
        parse_config_text("node_count = 5")


def test_parse_text_malformed_line():
    with pytest.raises(ValueError, match="line 2"):
        parse_config_text("nodes = 5\njust words\n")


def test_parse_text_bad_value():
    with pytest.raises(ValueError, match="'nodes'"):
        parse_config_text("nodes = ten")


def test_precedence_file_then_overrides(tmp_path):
    f = tmp_path / "scenario.cfg"
    f.write_text("nodes = 42\nrounds = 77\n")
    cfg = parse_config(f, {"rounds": "123"})
    assert cfg.nodes == 42       # from file
    assert cfg.rounds == 123     # override wins
    assert cfg.field_m == 100.0  # default


def test_overrides_accept_typed_values():
    cfg = parse_config(None, {"rounds": 9, "field_m": 50.0, "protocol": "deec"})
    assert (cfg.rounds, cfg.field_m, cfg.protocol) == (9, 50.0, "deec")


def test_validation_failures_name_the_key():
    with pytest.raises(ValueError, match="'p_opt'"):
        parse_config(None, {"p_opt": "1.7"})
    with pytest.raises(ValueError, match="'rounds'"):
        parse_config(None, {"rounds": "0"})
    with pytest.raises(ValueError, match="configuration error: 'protocol' .*unknown protocol"):
        parse_config(None, {"protocol": "gossip"})
    with pytest.raises(ValueError, match="tier fractions must sum to <= 1"):
        parse_config(None, {"deec_advanced_fraction": "0.6", "deec_super_fraction": "0.5"})


def test_energy_params_projection():
    cfg = ScenarioConfig(e_elec_j=60e-9, packet_bits=2000)
    p = energy_params(cfg)
    assert p.e_elec == 60e-9
    assert p.packet_bits == 2000
    assert p.e_fs == cfg.e_fs_j


def test_protocol_config_threshold_selection():
    cfg = ScenarioConfig()
    assert protocol_config(cfg, ProtocolKind.TEEN).hard_threshold == 100.0
    assert protocol_config(cfg, ProtocolKind.HTEEN).hard_threshold == 130.0
    assert protocol_config(cfg, ProtocolKind.CAMPTEEN).hard_threshold == 198.0


def test_protocol_config_heterogeneity_only_for_energy_aware():
    cfg = ScenarioConfig()
    deec = protocol_config(cfg, ProtocolKind.DEEC)
    assert deec.advanced_fraction == 0.2
    assert deec.super_fraction == 0.1
    for kind in (ProtocolKind.LEACH, ProtocolKind.TEEN,
                 ProtocolKind.HTEEN, ProtocolKind.CAMPTEEN):
        pcfg = protocol_config(cfg, kind)
        assert pcfg.advanced_fraction == 0.0
        assert pcfg.super_fraction == 0.0


def test_fingerprint_tracks_values():
    a = fingerprint(ScenarioConfig())
    b = fingerprint(ScenarioConfig())
    c = fingerprint(ScenarioConfig(rounds=4999))
    assert a == b
    assert a != c
    assert len(a) == 12


@pytest.mark.parametrize("key, value", [("protocol", "flooding"), ("sink", "orbit")])
def test_unknown_names_rejected_by_key(key, value):
    # every path that takes a protocol or sink name: the constructor, the
    # config parser, a single run and a sweep
    cfg = ScenarioConfig(rounds=5)
    want = f"^configuration error: '{key}' must name one of "
    with pytest.raises(ValueError, match=want):
        ScenarioConfig(**{key: value})
    with pytest.raises(ValueError, match=want):
        parse_config(None, {key: value})
    with pytest.raises(ValueError, match=want):
        run_scenario(cfg, **{key: value})
    with pytest.raises(ValueError, match=want):
        run_matrix(cfg, **{key + "s": ["leach" if key == "protocol" else "mobile_top", value]})


def test_overrides_that_are_not_text_are_not_converted():
    # text is converted to the field's type; any other value reaches the
    # constructor as given, which rejects a wrong type by key
    for key, value in (("field_m", True), ("nodes", 100.0), ("nodes", True), ("seed", "")):
        with pytest.raises(ValueError, match=f"'{key}'"):
            parse_config(None, {key: value})
    cfg = parse_config(None, {"field_m": 100, "nodes": 7, "rounds": " 12 "})
    assert (cfg.field_m, cfg.nodes, cfg.rounds) == (100, 7, 12)
    assert type(cfg.field_m) is int
    assert fingerprint(cfg) == fingerprint(ScenarioConfig(field_m=100, nodes=7, rounds=12))
