"""Scenario configuration: defaults, key=value files, and overrides.

Precedence is defaults < config file < explicit overrides (CLI flags).
The file format is flat ``key = value`` lines with ``#`` comments; every
key must match a known field, and values read from text are converted to
the field's type.  Override values that are not text are passed on
unconverted.

A `ScenarioConfig` checks itself when it is built and is frozen, so every
path crosses the same checks: the constructor, `dataclasses.replace`,
`parse_config` and the CLI.  Values of the wrong type are rejected, not
converted.  A failure raises `ValueError` naming the key.  The layers below
read a checked config itself, and do no range checks of their own: the
engine, the election rules, `sink_position` and `expected_round_energy`
take the `ScenarioConfig`, and `deploy` takes its values.
"""
from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

from .protocols import ProtocolKind
from .sink import SinkMode

# intervals, as (test, what a failing value must be)
_UNBOUNDED = (lambda v: True, "")
_AT_LEAST_1 = (lambda v: v >= 1, ">= 1")
_NON_NEGATIVE = (lambda v: v >= 0, ">= 0")
_POSITIVE = (lambda v: v > 0, "positive")
_FRACTION = (lambda v: 0 < v <= 1, "in (0, 1]")
_SHARE = (lambda v: 0 <= v <= 1, "in [0, 1]")

# accepted types per annotation; ints stay ints in float fields, so that
# `fingerprint` (which uses repr) sees the value the caller gave
_TYPES = {"int": (int, "an int"), "float": ((int, float), "a number"), "str": (str, "a string")}


def _field(default, interval):
    return dataclasses.field(default=default, metadata={"interval": interval})


@dataclass(frozen=True)
class ScenarioConfig:
    """Every input of a run, and the one table of rules for it: each field's
    annotation is its type and its `_field` its interval.  Numbers must also
    be finite, and the two tier fractions may sum to at most 1."""

    # population / field / horizon
    nodes: int = _field(100, _AT_LEAST_1)
    field_m: float = _field(100.0, _POSITIVE)
    rounds: int = _field(5000, _AT_LEAST_1)
    initial_energy_j: float = _field(0.5, _POSITIVE)
    packet_bits: int = _field(4000, _AT_LEAST_1)
    # radio constants
    e_elec_j: float = _field(50e-9, _POSITIVE)
    e_fs_j: float = _field(10e-12, _POSITIVE)
    e_mp_j: float = _field(0.0013e-12, _POSITIVE)
    e_da_j: float = _field(5e-9, _POSITIVE)
    # clustering
    p_opt: float = _field(0.1, _FRACTION)
    # run selection; the names are parsed, not bounded
    protocol: str = "leach"
    sink: str = "static_center"
    seed: int = _field(1, _NON_NEGATIVE)
    # reactive reporting thresholds (sensed scale is 0..200); hard ones are unbounded
    hard_threshold: float = 100.0
    soft_threshold: float = _field(2.0, _NON_NEGATIVE)
    hteen_layers: int = _field(3, _AT_LEAST_1)
    hteen_layer_p: float = _field(0.1, _FRACTION)
    hteen_hard_threshold: float = 130.0
    hteen_soft_threshold: float = _field(2.0, _NON_NEGATIVE)
    camp_hard_threshold: float = 198.0
    camp_soft_threshold: float = _field(2.0, _NON_NEGATIVE)
    camp_timer_k: float = _field(1.0, _POSITIVE)
    camp_comm_range_m: float = _field(25.0, _POSITIVE)
    # heterogeneous energy tiers (used by the energy-aware protocol only)
    deec_advanced_fraction: float = _field(0.2, _SHARE)
    deec_advanced_factor: float = _field(2.0, _NON_NEGATIVE)
    deec_super_fraction: float = _field(0.1, _SHARE)
    deec_super_factor: float = _field(4.0, _NON_NEGATIVE)
    # sink trajectory
    sink_step_m: float = _field(10.0, _POSITIVE)
    sink_pause_rounds: int = _field(1, _AT_LEAST_1)
    sink_range_m: float = _field(25.0, _NON_NEGATIVE)

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            types, words = _TYPES[f.type]
            if not isinstance(value, types) or isinstance(value, bool):
                raise ValueError(
                    f"configuration error: '{f.name}' must be {words}, "
                    f"not {type(value).__name__}")
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"configuration error: '{f.name}' must be finite")
            test, bound = f.metadata.get("interval", _UNBOUNDED)
            if not test(value):
                raise ValueError(f"configuration error: '{f.name}' must be {bound}")
        if self.deec_advanced_fraction + self.deec_super_fraction > 1.0:
            raise ValueError("configuration error: tier fractions must sum to <= 1")
        for key, names in (("protocol", ProtocolKind), ("sink", SinkMode)):
            try:
                names.parse(getattr(self, key))
            except ValueError as exc:
                known = ", ".join(name.name.lower() for name in names)
                raise ValueError(
                    f"configuration error: '{key}' must name one of {known} ({exc})"
                ) from None


_FIELDS = {f.name: f for f in dataclasses.fields(ScenarioConfig)}


def _coerce(key: str, raw) -> object:
    """A value read as text, converted to the field's type.  Any other value
    is returned unchanged, for the constructor to accept or reject."""
    if not isinstance(raw, str):
        return raw
    field = _FIELDS[key]
    raw = raw.strip()
    try:
        if field.type == "int":
            return int(raw, 10)
        if field.type == "float":
            return float(raw)
        return raw
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
    return ScenarioConfig(**values)


def fingerprint(cfg: ScenarioConfig) -> str:
    """Short stable digest of every configuration value."""
    text = "\n".join(
        f"{name}={getattr(cfg, name)!r}" for name in sorted(_FIELDS)
    )
    return hashlib.sha256(text.encode("ascii")).hexdigest()[:12]
