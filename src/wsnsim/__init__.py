"""Round-based simulator for energy-aware WSN clustering protocols.

Five protocol engines (LEACH, TEEN, DEEC, H-TEEN, CAMP-TEEN) run on a
shared first-order radio model against a static or mobile data sink,
producing per-round population/throughput/energy traces.
"""
from ._kernels import BACKENDS, current_backend, default_backend, use_backend, warmup
from .config import (
    ScenarioConfig,
    energy_params,
    fingerprint,
    parse_config,
    parse_config_text,
    protocol_config,
)
from .energy import EnergyParams, expected_round_energy
from .engine import Engine
from .metrics import (
    CSV_HEADER,
    RoundMetrics,
    RunHistory,
    RunSummary,
    read_csv,
    read_summary,
    stability_period,
    lifetime_round,
    summarize,
    write_csv,
    write_summary,
)
from .network import NetworkState, NodeTier, deploy, sense_environment
from .protocols import (
    DeecEligibility,
    EpochTracker,
    ProtocolConfig,
    ProtocolKind,
    campteen_elect_chs,
    deec_average_energy,
    deec_elect_chs,
    deec_lifetime_estimate,
    deec_probabilities,
    epoch_length,
    hteen_build_hierarchy,
    hteen_promote_layers,
    leach_elect_chs,
    teen_gate_mask,
)
from .runner import RunResult, run_matrix, run_scenario
from .sink import SinkMode, SinkState, sink_position

__version__ = "0.1.0"

__all__ = [
    "BACKENDS",
    "CSV_HEADER",
    "DeecEligibility",
    "EnergyParams",
    "Engine",
    "EpochTracker",
    "NetworkState",
    "NodeTier",
    "ProtocolConfig",
    "ProtocolKind",
    "RoundMetrics",
    "RunHistory",
    "RunResult",
    "RunSummary",
    "ScenarioConfig",
    "SinkMode",
    "SinkState",
    "campteen_elect_chs",
    "current_backend",
    "deec_average_energy",
    "deec_elect_chs",
    "deec_lifetime_estimate",
    "deec_probabilities",
    "default_backend",
    "deploy",
    "energy_params",
    "epoch_length",
    "expected_round_energy",
    "fingerprint",
    "hteen_build_hierarchy",
    "hteen_promote_layers",
    "leach_elect_chs",
    "lifetime_round",
    "parse_config",
    "parse_config_text",
    "protocol_config",
    "read_csv",
    "read_summary",
    "run_matrix",
    "run_scenario",
    "sense_environment",
    "sink_position",
    "stability_period",
    "summarize",
    "teen_gate_mask",
    "use_backend",
    "warmup",
    "write_csv",
    "write_summary",
]
