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

import importlib

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

#: Names that load their submodule on first use (PEP 562), so ``import loracell``
#: leaves the optimizer and the simulator unloaded.  ``optimize`` is the
#: submodule; its search function is ``optimize.optimize``.
_LAZY = {
    "optimize": "optimize",
    **dict.fromkeys(("OptimizationProblem", "OptimizationResult", "project_to_simplex"),
                    "optimize"),
    **dict.fromkeys(("SimConfig", "SimReport", "SimulationError", "run"), "simulate"),
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_LAZY[name]}", __name__)
    value = module if name == _LAZY[name] else getattr(module, name)
    globals()[name] = value
    return value


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
    "optimize",
    "project_to_simplex",
    "SimConfig",
    "SimReport",
    "SimulationError",
    "run",
]

__version__ = "0.1.0"
