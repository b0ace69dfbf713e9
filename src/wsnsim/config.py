"""Scenario configuration: defaults, key=value files, and overrides.

Precedence is defaults < config file < explicit overrides (CLI flags).
The file format is flat ``key = value`` lines with ``#`` comments; every
key must match a known field, and values are coerced to the field's type.
"""
from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

from .energy import EnergyParams
from .protocols import ProtocolConfig, ProtocolKind
from .sink import SinkMode


@dataclass
class ScenarioConfig:
    # population / field / horizon
    nodes: int = 100
    field_m: float = 100.0
    rounds: int = 5000
    initial_energy_j: float = 0.5
    packet_bits: int = 4000
    # radio constants
    e_elec_j: float = 50e-9
    e_fs_j: float = 10e-12
    e_mp_j: float = 0.0013e-12
    e_da_j: float = 5e-9
    # clustering
    p_opt: float = 0.1
    # run selection
    protocol: str = "leach"
    sink: str = "static_center"
    seed: int = 1
    # reactive reporting thresholds (sensed scale is 0..200)
    hard_threshold: float = 100.0
    soft_threshold: float = 2.0
    hteen_layers: int = 3
    hteen_layer_p: float = 0.1
    hteen_hard_threshold: float = 130.0
    hteen_soft_threshold: float = 2.0
    camp_hard_threshold: float = 198.0
    camp_soft_threshold: float = 2.0
    camp_timer_k: float = 1.0
    camp_comm_range_m: float = 25.0
    # heterogeneous energy tiers (used by the energy-aware protocol only)
    deec_advanced_fraction: float = 0.2
    deec_advanced_factor: float = 2.0
    deec_super_fraction: float = 0.1
    deec_super_factor: float = 4.0
    # sink trajectory
    sink_step_m: float = 10.0
    sink_pause_rounds: int = 1
    sink_range_m: float = 25.0

    def validate(self) -> None:
        # NaN fails every comparison below, so reject non-finite values first
        for f in dataclasses.fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"configuration error: '{f.name}' must be finite")
        if self.nodes < 1:
            raise ValueError("configuration error: 'nodes' must be >= 1")
        if self.rounds < 1:
            raise ValueError("configuration error: 'rounds' must be >= 1")
        if self.field_m <= 0.0:
            raise ValueError("configuration error: 'field_m' must be positive")
        if self.initial_energy_j <= 0.0:
            raise ValueError("configuration error: 'initial_energy_j' must be positive")
        if self.packet_bits < 1:
            raise ValueError("configuration error: 'packet_bits' must be >= 1")
        for key in ("e_elec_j", "e_fs_j", "e_mp_j", "e_da_j"):
            if getattr(self, key) <= 0.0:
                raise ValueError(f"configuration error: '{key}' must be positive")
        if not 0.0 < self.p_opt <= 1.0:
            raise ValueError("configuration error: 'p_opt' must be in (0, 1]")
        if not 0.0 < self.hteen_layer_p <= 1.0:
            raise ValueError("configuration error: 'hteen_layer_p' must be in (0, 1]")
        if self.hteen_layers < 1:
            raise ValueError("configuration error: 'hteen_layers' must be >= 1")
        for key in ("soft_threshold", "hteen_soft_threshold", "camp_soft_threshold",
                    "sink_range_m"):
            if getattr(self, key) < 0.0:
                raise ValueError(f"configuration error: '{key}' must be >= 0")
        for key in ("camp_timer_k", "camp_comm_range_m", "sink_step_m"):
            if getattr(self, key) <= 0.0:
                raise ValueError(f"configuration error: '{key}' must be positive")
        if self.sink_pause_rounds < 1:
            raise ValueError("configuration error: 'sink_pause_rounds' must be >= 1")
        for key in ("deec_advanced_fraction", "deec_super_fraction"):
            if not 0.0 <= getattr(self, key) <= 1.0:
                raise ValueError(f"configuration error: '{key}' must be in [0, 1]")
        if self.deec_advanced_fraction + self.deec_super_fraction > 1.0:
            raise ValueError(
                "configuration error: tier fractions must sum to <= 1")
        for key in ("deec_advanced_factor", "deec_super_factor"):
            if getattr(self, key) < 0.0:
                raise ValueError(f"configuration error: '{key}' must be >= 0")
        ProtocolKind.parse(self.protocol)
        SinkMode.parse(self.sink)


_FIELDS = {f.name: f for f in dataclasses.fields(ScenarioConfig)}


def _coerce(key: str, raw) -> object:
    field = _FIELDS[key]
    if isinstance(raw, str):
        raw = raw.strip()
    try:
        if field.type == "int":
            return int(str(raw), 10)
        if field.type == "float":
            return float(raw)
        return str(raw)
    except ValueError:
        raise ValueError(
            f"configuration error: invalid value {raw!r} for key '{key}'"
        ) from None


def parse_config_text(text: str) -> dict:
    """Parse flat ``key = value`` lines; '#' starts a comment."""
    out: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ValueError(
                f"configuration error: line {lineno} is not 'key = value': {line!r}"
            )
        key, value = body.split("=", 1)
        key = key.strip()
        if key not in _FIELDS:
            raise ValueError(f"configuration error: unknown key '{key}'")
        out[key] = _coerce(key, value)
    return out


def parse_config(path=None, overrides: dict | None = None) -> ScenarioConfig:
    """Build a validated config from defaults, an optional file, and overrides."""
    values: dict = {}
    if path is not None:
        values.update(parse_config_text(Path(path).read_text(encoding="utf-8")))
    for key, raw in (overrides or {}).items():
        if key not in _FIELDS:
            raise ValueError(f"configuration error: unknown key '{key}'")
        values[key] = _coerce(key, raw)
    cfg = ScenarioConfig(**values)
    cfg.validate()
    return cfg


def energy_params(cfg: ScenarioConfig) -> EnergyParams:
    return EnergyParams(
        e_elec=cfg.e_elec_j, e_fs=cfg.e_fs_j, e_mp=cfg.e_mp_j,
        e_da=cfg.e_da_j, packet_bits=cfg.packet_bits,
    )


def protocol_config(cfg: ScenarioConfig, kind: ProtocolKind) -> ProtocolConfig:
    """Specialize the per-protocol tunables for one engine."""
    hard, soft = cfg.hard_threshold, cfg.soft_threshold
    if kind == ProtocolKind.HTEEN:
        hard, soft = cfg.hteen_hard_threshold, cfg.hteen_soft_threshold
    elif kind == ProtocolKind.CAMPTEEN:
        hard, soft = cfg.camp_hard_threshold, cfg.camp_soft_threshold
    het = {}
    if kind == ProtocolKind.DEEC:
        het = dict(
            advanced_fraction=cfg.deec_advanced_fraction,
            advanced_factor=cfg.deec_advanced_factor,
            super_fraction=cfg.deec_super_fraction,
            super_factor=cfg.deec_super_factor,
        )
    return ProtocolConfig(
        p_opt=cfg.p_opt,
        hard_threshold=hard,
        soft_threshold=soft,
        hierarchy_layers=cfg.hteen_layers,
        layer_p=cfg.hteen_layer_p,
        timer_k=cfg.camp_timer_k,
        comm_range_m=cfg.camp_comm_range_m,
        sink_range_m=cfg.sink_range_m,
        **het,
    )


def fingerprint(cfg: ScenarioConfig) -> str:
    """Short stable digest of every configuration value."""
    text = "\n".join(
        f"{name}={getattr(cfg, name)!r}" for name in sorted(_FIELDS)
    )
    return hashlib.sha256(text.encode("ascii")).hexdigest()[:12]
