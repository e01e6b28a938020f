"""Exact performance metrics for directed FCFS bipartite matching, with a
Monte Carlo verifier for every analytic quantity."""

from __future__ import annotations

__version__ = "0.1.0"

from .analytic import (
    DEFAULT_TYPE_CAP,
    PermutationTerm,
    RateReport,
    enumerate_terms,
    matching_rates,
    normalizing_constant,
    pi_y_perm,
)
from .delays import (
    DelayReport,
    GeometricStage,
    delay_moments,
    delay_pgf,
    geometric_stage,
    min_stage_rate,
    wait_mgf,
    wait_moments,
)
from .errors import (
    DomainError,
    DuplicateType,
    FcfsMatchError,
    ModelValidationError,
    TooManyTypes,
    UnknownIdentifier,
    UnstableGridPoint,
    UnstableModel,
    ZeroRate,
)
from .limits import (
    DedicatedPair,
    LightTrafficLimit,
    SweepSeries,
    dedicated_baseline,
    light_traffic_rates,
    sweep,
)
from .model import (
    MatchingModel,
    MaxStableRho,
    StabilityReport,
    TypeSubset,
    check_crp,
    check_stability,
    compatible_agents,
    compatible_goods,
    load_model,
    max_stable_rho,
    save_model,
    unique_users,
    validate,
)

# The simulator pulls in numpy; it loads on first use of one of these names,
# so the analytic commands never import it.
_SIMULATOR_NAMES = frozenset(
    ("Estimate", "SimStats", "VerifyRow", "analytic_pi_y", "compare_with_analytic", "run")
)


def __getattr__(name: str):
    if name in _SIMULATOR_NAMES:
        from . import simulator

        value = getattr(simulator, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _SIMULATOR_NAMES)


__all__ = [
    "DEFAULT_TYPE_CAP",
    "DedicatedPair",
    "DelayReport",
    "DomainError",
    "DuplicateType",
    "Estimate",
    "FcfsMatchError",
    "GeometricStage",
    "LightTrafficLimit",
    "MatchingModel",
    "MaxStableRho",
    "ModelValidationError",
    "PermutationTerm",
    "RateReport",
    "SimStats",
    "StabilityReport",
    "SweepSeries",
    "TooManyTypes",
    "TypeSubset",
    "UnknownIdentifier",
    "UnstableGridPoint",
    "UnstableModel",
    "VerifyRow",
    "ZeroRate",
    "analytic_pi_y",
    "check_crp",
    "check_stability",
    "compare_with_analytic",
    "compatible_agents",
    "compatible_goods",
    "dedicated_baseline",
    "delay_moments",
    "delay_pgf",
    "enumerate_terms",
    "geometric_stage",
    "light_traffic_rates",
    "load_model",
    "matching_rates",
    "max_stable_rho",
    "min_stage_rate",
    "normalizing_constant",
    "pi_y_perm",
    "run",
    "save_model",
    "sweep",
    "unique_users",
    "validate",
    "wait_mgf",
    "wait_moments",
]
