"""Coexistence of an age-optimizing and a throughput-optimizing network.

The library models two networks sharing a slotted collision channel: slot
outcome kernels and age dynamics (``model``), closed-form stage-game
solutions with a grid-search certification oracle (``equilibrium``),
repeated-game Monte Carlo (``sim``), grim-trigger self-enforceability
analysis (``etiquette``), and a CSV-emitting experiment CLI (``cli``).
"""

from .model import (
    AccessProfile, ConfigurationError, NetworkSizes, Recommendation, ScenarioParams, SlotLengths,
    SlotProbabilities, slot_probabilities_competitive, slot_probabilities_cooperative,
)
from .equilibrium import (
    CooperationRange, OutOfRangeError, Regime, StagePayoffs, ThresholdAges, best_response_oracle,
    cooperation_beneficial_pr_set, cooperative_optimum, expected_stage_payoffs, msne,
)
from .sim import (
    Aggregate, GainResult, Mode, RunConfig, RunResult, gain_grid, gain_of_cooperation, monte_carlo,
    run_single,
)
from .etiquette import (
    ComplianceFlag, DeviationCase, DeviationReport, InequalityEstimate, RegionGrid,
    deviation_inequalities, expected_next_network_age, region_sweep, simulate_grim_trigger,
    stage1_expected_ton_throughput,
)

# The public names, by module; the submodules stay importable but are not exported.
__all__ = [
    "AccessProfile", "ConfigurationError", "NetworkSizes", "Recommendation", "ScenarioParams",
    "SlotLengths", "SlotProbabilities",
    "slot_probabilities_competitive", "slot_probabilities_cooperative",
    "CooperationRange", "OutOfRangeError", "Regime", "StagePayoffs", "ThresholdAges",
    "best_response_oracle", "cooperation_beneficial_pr_set", "cooperative_optimum",
    "expected_stage_payoffs", "msne",
    "Aggregate", "GainResult", "Mode", "RunConfig", "RunResult",
    "gain_grid", "gain_of_cooperation", "monte_carlo", "run_single",
    "ComplianceFlag", "DeviationCase", "DeviationReport", "InequalityEstimate", "RegionGrid",
    "deviation_inequalities", "expected_next_network_age", "region_sweep",
    "simulate_grim_trigger", "stage1_expected_ton_throughput",
]
