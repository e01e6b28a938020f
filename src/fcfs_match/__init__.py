"""Exact performance metrics for directed FCFS bipartite matching, with a
Monte Carlo verifier for every analytic quantity.

Every public name is listed in _EXPORTS under the submodule that defines it.
Importing the package loads none of them: the first use of a name imports its
submodule (PEP 562 module __getattr__) and binds the name here. So a caller
pays only for the modules it uses, and numpy, which the simulator needs, loads
only with a simulator name.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

_EXPORTS = {  # submodule -> the public names it defines
    "analytic": ("DEFAULT_TYPE_CAP", "PermutationTerm", "RateReport", "enumerate_terms",
                 "matching_rates", "normalizing_constant", "pi_y_perm"),
    "delays": ("DelayReport", "GeometricStage", "delay_moments", "delay_pgf", "geometric_stage",
               "min_stage_rate", "wait_mgf", "wait_moments"),
    "errors": ("DomainError", "DuplicateType", "FcfsMatchError", "ModelValidationError",
               "TooManyTypes", "UnknownIdentifier", "UnstableGridPoint", "UnstableModel",
               "ZeroRate"),
    "limits": ("DedicatedPair", "LightTrafficLimit", "SweepSeries", "dedicated_baseline",
               "light_traffic_rates", "sweep"),
    "model": ("MatchingModel", "MaxStableRho", "StabilityReport", "check_crp", "check_stability",
              "compatible_agents", "compatible_goods", "load_model", "max_stable_rho",
              "save_model", "unique_users", "validate"),
    "simulator": ("Estimate", "SimStats", "VerifyRow", "analytic_pi_y", "compare_with_analytic",
                  "run"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
