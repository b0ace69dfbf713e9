"""Round-based simulator for energy-aware WSN clustering protocols.

Five protocol engines (LEACH, TEEN, DEEC, H-TEEN, CAMP-TEEN) run on a
shared first-order radio model against a static or mobile data sink,
producing per-round population/throughput/energy traces.
"""
from ._kernels import BACKENDS, current_backend, default_backend, use_backend, warmup
from .config import ScenarioConfig, fingerprint, parse_config, parse_config_text
from .engine import Engine
from .metrics import (
    CSV_HEADER,
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
from .network import NetworkState, deploy, sense_environment
from .protocols import (
    DeecEligibility,
    EpochTracker,
    ProtocolKind,
    campteen_elect_chs,
    campteen_range_graphs,
    deec_average_energy,
    deec_elect_chs,
    deec_lifetime_estimate,
    deec_probabilities,
    expected_round_energy,
    hteen_build_hierarchy,
    hteen_promote_layers,
    leach_elect_chs,
    teen_gate_mask,
)
from .runner import RunResult, run_matrix, run_scenario
from .sink import SinkMode, sink_position

__version__ = "0.1.0"

__all__ = [
    "BACKENDS",
    "CSV_HEADER",
    "DeecEligibility",
    "Engine",
    "EpochTracker",
    "NetworkState",
    "ProtocolKind",
    "RunHistory",
    "RunResult",
    "RunSummary",
    "ScenarioConfig",
    "SinkMode",
    "campteen_elect_chs",
    "campteen_range_graphs",
    "current_backend",
    "deec_average_energy",
    "deec_elect_chs",
    "deec_lifetime_estimate",
    "deec_probabilities",
    "default_backend",
    "deploy",
    "expected_round_energy",
    "fingerprint",
    "hteen_build_hierarchy",
    "hteen_promote_layers",
    "leach_elect_chs",
    "lifetime_round",
    "parse_config",
    "parse_config_text",
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
