"""Exception types shared across the package."""

from __future__ import annotations


class FcfsMatchError(Exception):
    """Base class for all package errors."""


class ValidationIssue(FcfsMatchError):
    """A single violated model invariant. Collected by ModelValidationError."""


class FrequencySumError(ValidationIssue):
    pass


class NonPositiveFrequency(ValidationIssue):
    pass


class NonPositiveRate(ValidationIssue):
    pass


class UnknownIdentifier(ValidationIssue):
    pass


class IsolatedAgentType(ValidationIssue):
    pass


class DuplicateType(ValidationIssue):
    """A type identifier appears more than once where distinctness is required."""


class ModelValidationError(FcfsMatchError):
    """Aggregate of every invariant violated by a model."""

    def __init__(self, issues):
        self.issues = list(issues)
        super().__init__("; ".join(str(i) for i in self.issues))


class UnstableModel(FcfsMatchError):
    """The stability condition fails (or is numerically indistinguishable from failing).

    witness is check_stability's witness: the agent set of smallest drain
    rate, a tuple of agent names in declared order."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class TooManyTypes(FcfsMatchError):
    """Too many agent types for the requested computation.

    Raised when the lists over the 2^I agent sets would take more than half the
    physical memory, and when an e * I! walk over ordered subsets
    (enumerate_terms, simulator.analytic_pi_y) would run on more than
    analytic.DEFAULT_TYPE_CAP = 10 agent types, a fixed limit: at 11 types
    analytic_pi_y would hold about 1.1e8 orders, some 23 GB.
    """


class ZeroRate(FcfsMatchError):
    """A per-pair quantity is undefined because the pair's matching rate is zero.

    Raised for a pair that is not a compatibility edge, and by the subset table
    for a model in which some good's arrival rate mu_bar * beta_j, or some
    edge's rate, rounds to zero (a type frequency near the float minimum); the
    message names the first such good, or else the first such edge.
    """


class DomainError(FcfsMatchError, ValueError):
    """Argument outside the mathematical domain of the requested transform."""


class UnstableGridPoint(FcfsMatchError):
    """A sweep grid point lies at or beyond the maximal stable traffic intensity.

    A point below rho* but inside the model.STABILITY_MARGIN band under it is
    refused too, so the message prints both values in full: rounded, such a
    point would read as rho* itself.
    """

    def __init__(self, rho, limit):
        super().__init__(f"grid point rho={rho!r} is not stable (max stable rho={limit!r})")
        self.rho = rho
        self.limit = limit
