"""Variable-length BB84: photon-budget planning plus an event-level
protocol simulator for non-ideal fiber links."""

from .extract import extract_key, secure_length, toeplitz_extract
from .link_model import (ChannelDerived, LinkParams, SecurityParams,
                         channel_at, effective_flip, infer_qber,
                         limit_distance)
from .numerics import binary_entropy, output_length_fixed_point
from .planner import (InfeasibleError, Plan, Strategy, a0, expected_output,
                      fixed_n_strategy, forecast, gamma, kbr_stats, l_f,
                      optimal_extra_noise, photon_budget, plan,
                      strategy_stats, success_probability)
from .protocol import (RunRecord, bits_to_hex, controlled_randomization,
                       derive_seed, estimate_parameters, quantum_phase,
                       run_from_plan, run_protocol, sift)
from .reconcile import ReconcileResult, cascade, leakage_upper_bound

__all__ = [
    "ChannelDerived", "LinkParams", "SecurityParams", "channel_at",
    "effective_flip", "infer_qber", "limit_distance",
    "binary_entropy", "output_length_fixed_point",
    "InfeasibleError", "Plan", "Strategy", "a0",
    "expected_output", "fixed_n_strategy", "forecast", "gamma", "kbr_stats",
    "l_f", "optimal_extra_noise", "photon_budget", "plan", "strategy_stats",
    "success_probability",
    "RunRecord", "bits_to_hex", "controlled_randomization", "derive_seed",
    "estimate_parameters", "quantum_phase", "run_from_plan", "run_protocol",
    "sift",
    "ReconcileResult", "cascade", "leakage_upper_bound",
    "extract_key", "secure_length", "toeplitz_extract",
]

__version__ = "0.1.0"
