"""Delay and waiting-time distributions for matched pairs.

Conditional on the waiting-type order, the distance between a matched agent
and its good is a sum of independent geometric stage variables, one per type
appearing at or after the match position. Delay moments therefore come out of
the same subset table as the matching rates, as additive completions over the
2^I agent sets, and each generating-function point is one multiplicative
completion over those sets: O(J * I * 2^I) steps either way.

Under Poisson arrivals the items arrive in Exp(Lambda) gaps, Lambda =
lambda_bar + mu_bar, independent of the sequence, so a wait is the sum of its
delay's D gaps and every wait value follows from the delay law:
E[W] = E[D] / Lambda, Var W = (Var D + E[D]) / Lambda^2 and
E[exp(sW)] = E[z^D] at z = Lambda / (Lambda - s). A stage's Geom(theta /
Lambda) count of gaps is then Exp(theta), the stage factor theta / (theta - s).
So delay_moments reports delays, and wait_moments turns that report into
waits; each DelayReport holds one unit only.
"""

from __future__ import annotations

from typing import NamedTuple

from .analytic import _mixture, matching_rates
from .errors import DomainError, UnknownIdentifier, ZeroRate
from .model import MatchingModel, _order_indices, _stable_scan


class GeometricStage(NamedTuple):
    """One stage of a delay: success probability of draining the current prefix."""

    p: float

    @property
    def mean(self) -> float:
        return 1.0 / self.p

    @property
    def variance(self) -> float:
        return (1.0 - self.p) / (self.p * self.p)


def geometric_stage(model: MatchingModel, prefix) -> GeometricStage:
    """Stage parameter theta(prefix set) / (lambda_bar + mu_bar), with theta =
    mu_{S(C)} - lambda_C read from the subset scan: the stage depends only on
    the set of the prefix, not on its order. Raises UnstableModel unless
    check_stability calls the model stable."""
    mask = sum(1 << i for i in _order_indices(model, prefix))
    return GeometricStage(_stable_scan(model).theta[mask] / model.total_rate)


class DelayReport(NamedTuple):
    """Per-pair and per-agent-type means and variances of one quantity.

    Pair keys are compatibility edges (good, agent). The function that builds
    the report sets its unit: delay_moments counts sequence positions,
    wait_moments gives time units. Every edge and every agent type appears:
    the subset table refuses a model with a zero-rate edge (ZeroRate).
    """

    pair_mean: dict[tuple[str, str], float]
    pair_var: dict[tuple[str, str], float]
    agent_mean: dict[str, float]
    agent_var: dict[str, float]


def delay_moments(model: MatchingModel) -> DelayReport:
    """Means and variances of per-pair and per-agent delays, in sequence positions."""
    table = model.subset_table
    report = matching_rates(model)
    pair_mean: dict[tuple[str, str], float] = {}
    pair_var: dict[tuple[str, str], float] = {}
    for (g, a), (r, _, de, de2) in table.edges.items():
        scale = table.b * (model.good_rates[model.good_index[g]] / model.mu_bar) / r
        e = scale * de
        pair_mean[(g, a)] = e
        pair_var[(g, a)] = scale * de2 - e * e

    agent_mean: dict[str, float] = {}
    agent_var: dict[str, float] = {}
    for a, weights in report.theta.items():
        m = sum(w * pair_mean[(g, a)] for g, w in weights.items())
        second = sum(w * (pair_var[(g, a)] + pair_mean[(g, a)] ** 2) for g, w in weights.items())
        agent_mean[a] = m
        agent_var[a] = second - m * m

    return DelayReport(pair_mean, pair_var, agent_mean, agent_var)


def wait_moments(model: MatchingModel) -> DelayReport:
    """Means and variances of per-pair and per-agent waits under Poisson
    arrivals, in time units: a wait is the sum of its delay's D gaps of
    Exp(Lambda), so E[W] = E[D] / Lambda and Var W = (Var D + E[D]) / Lambda^2,
    for the agent-level theta-mixture as for any law of D."""
    d = delay_moments(model)
    rate = model.total_rate
    rate2 = rate * rate
    return DelayReport(
        pair_mean={k: e / rate for k, e in d.pair_mean.items()},
        pair_var={k: (v + d.pair_mean[k]) / rate2 for k, v in d.pair_var.items()},
        agent_mean={a: e / rate for a, e in d.agent_mean.items()},
        agent_var={a: (v + d.agent_mean[a]) / rate2 for a, v in d.agent_var.items()},
    )


def _pair_transform(model: MatchingModel, pair, z: float) -> float:
    """E[z^D] of the pair delay D: the mean over the pair's matches of the
    product of the stage PGFs z p / (1 - z (1 - p)), p = theta / (lambda_bar +
    mu_bar), over the stages from the match position onward."""
    g, a = pair
    if g not in model.good_index or a not in model.agent_index:
        raise UnknownIdentifier(f"unknown pair ({g!r}, {a!r})")
    if not model.is_edge(g, a):
        raise ZeroRate(f"({g!r}, {a!r}) is not a compatibility edge; its rate is zero")
    table, j, i = model.subset_table, model.good_index[g], model.agent_index[a]
    h = _mixture(model.agent_rates, model.agents_of_good[j], table.w, table.theta, model.total_rate, i, z)
    return h / table.edges[(g, a)][1]


def delay_pgf(model: MatchingModel, pair, z: float) -> float:
    """Probability generating function of the pair delay, for z in [0, 1]."""
    if not 0.0 <= z <= 1.0:
        raise DomainError(f"z = {z!r} outside [0, 1]")
    return _pair_transform(model, pair, z)


def min_stage_rate(model: MatchingModel) -> float:
    """Smallest drain rate mu_{S(C)} - lambda_C over nonempty agent subsets.
    Raises UnstableModel unless check_stability calls the model stable."""
    scan = _stable_scan(model)
    return scan.theta[scan.worst]


def wait_mgf(model: MatchingModel, pair, s: float) -> float:
    """Moment generating function of the pair waiting time, for s below the
    smallest stage rate over nonempty agent subsets: the delay PGF at
    z = Lambda / (Lambda - s), whose stage factor is theta / (theta - s)."""
    limit = min_stage_rate(model)
    if not s < limit:
        raise DomainError(f"s = {s!r} must lie strictly below the smallest stage rate {limit!r}")
    total_rate = model.total_rate
    return _pair_transform(model, pair, total_rate / (total_rate - s))
