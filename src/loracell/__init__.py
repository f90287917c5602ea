"""Performance modeling toolkit for a single-gateway LoRaWAN cell.

The package combines three tools that share one scenario description:

* ``analytic`` solves a coupled fixed-point system for the per-SF uplink
  and downlink success probabilities of the cell.
* ``metrics`` turns a solved state into delivery ratios, delays, fairness
  and loss-cause breakdowns; ``optimize`` searches SF distributions and
  retransmission limits against those metrics.
* ``simulate`` is an event-driven Monte-Carlo model of the same cell used
  to cross-validate the analytic results.
"""

from .scenario import (
    SPREADING_FACTORS,
    AirtimeTable,
    ParseError,
    ScenarioConfig,
    SfDistribution,
    ValidationError,
    load_scenario,
    preset,
    scenario_to_yaml,
)
from .analytic import ModelError, SteadyState, solve
from .metrics import MetricsReport, compute_report, jain_index
# ``optimize`` stays the submodule; its search function is ``optimize.optimize``.
from .optimize import (
    OptimizationProblem,
    OptimizationResult,
    evaluate_configuration,
    project_to_simplex,
)
from .simulate import SimConfig, SimReport, SimulationError, run

__all__ = [
    "SPREADING_FACTORS",
    "AirtimeTable",
    "ParseError",
    "ScenarioConfig",
    "SfDistribution",
    "ValidationError",
    "load_scenario",
    "preset",
    "scenario_to_yaml",
    "ModelError",
    "SteadyState",
    "solve",
    "MetricsReport",
    "compute_report",
    "jain_index",
    "OptimizationProblem",
    "OptimizationResult",
    "evaluate_configuration",
    "optimize",
    "project_to_simplex",
    "SimConfig",
    "SimReport",
    "SimulationError",
    "run",
]

__version__ = "0.1.0"
