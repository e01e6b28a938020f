"""Light-traffic limits, traffic-intensity sweeps, and the dedicated-pair baseline."""

from __future__ import annotations

import math
from collections.abc import Mapping
from typing import NamedTuple

from .analytic import matching_rates
from .delays import delay_moments
from .errors import DomainError, DuplicateType, UnknownIdentifier, UnstableGridPoint
from .model import MatchingModel, _mask_sum, _pair_indices, check_stability, max_stable_rho


class LightTrafficLimit(NamedTuple):
    """Vanishing-traffic limits: each agent is served by the first compatible good.

    theta maps each edge (good, agent), in model.edge_list order, to the
    limiting conditional fraction mu_good / mu_{S(agent)}, which is exact and
    normalization-free. rates scales theta by the agent frequency (the limit
    of the per-pair rate under the convention that almost all goods are lost
    as traffic vanishes).
    """

    rates: dict[tuple[str, str], float]
    theta: dict[tuple[str, str], float]


def light_traffic_rates(model: MatchingModel) -> LightTrafficLimit:
    mu_nbhd = [_mask_sum(model.good_rates, mask) for mask in model.goods_of_agent]
    theta = {(g, a): model.good_rates[model.good_index[g]] / mu_nbhd[model.agent_index[a]]
             for g, a in model.edge_list}
    rates = {(g, a): model.alpha[model.agent_index[a]] * frac for (g, a), frac in theta.items()}
    return LightTrafficLimit(rates=rates, theta=theta)


class SweepSeries(NamedTuple):
    """Aligned per-grid-point series of rates and delay moments.

    Every grid point holds mu_bar and the type frequencies fixed and rescales
    lambda_bar to rho * mu_bar.
    """

    rho_grid: tuple[float, ...]
    rates: dict[tuple[str, str], tuple[float, ...]]
    loss: dict[str, tuple[float, ...]]
    delay_mean: dict[tuple[str, str], tuple[float, ...]]
    delay_var: dict[tuple[str, str], tuple[float, ...]]


def sweep(model: MatchingModel, rho_grid) -> SweepSeries:
    """Compute rates and delay moments on a grid of traffic intensities."""
    grid = tuple(float(r) for r in rho_grid)
    if not grid:
        raise DomainError("rho grid must be nonempty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise DomainError("rho grid must be strictly increasing")
    for rho in grid:  # each point's lambda_bar must be positive and finite; NaN fails
        if not 0.0 < rho * model.mu_bar < math.inf:
            raise DomainError(f"grid point rho={rho!r} does not give a positive finite lambda_bar")

    def stable(rho: float) -> bool:
        return check_stability(model.with_lambda_bar(rho * model.mu_bar)).stable

    # The verdict is monotone in rho: every theta(C) falls and Lambda rises
    # with lambda_bar, and rounding keeps that order. So the largest point
    # answers for the grid, at the cost of one subset scan before any table is
    # built; rho* is needed only for the refusal's message.
    if not stable(grid[-1]):
        raise UnstableGridPoint(next(rho for rho in grid if not stable(rho)),
                                max_stable_rho(model).value)

    # a generator, so each grid model, with its subset scan and table, can go
    # once its reports are built
    points = (model.with_lambda_bar(rho * model.mu_bar) for rho in grid)
    rate_reports, delay_reports = zip(*[(matching_rates(p), delay_moments(p)) for p in points])

    def series(reports, field):  # {key: its value at each point}, keys in the first report's order
        return {k: tuple(getattr(r, field)[k] for r in reports) for k in getattr(reports[0], field)}

    return SweepSeries(grid, series(rate_reports, "rates"), series(rate_reports, "loss"),
                       series(delay_reports, "pair_mean"), series(delay_reports, "pair_var"))


class DedicatedPair(NamedTuple):
    """M/M/1 baseline for one good type reserved to one agent type."""

    stable: bool
    wait_mean: float | None  # 1 / (mu_good - lambda_agent); None when unstable


def dedicated_baseline(model: MatchingModel, pairing) -> dict[tuple[str, str], DedicatedPair]:
    """Expected waits when each good type in the pairing serves only its agent.

    pairing maps good identifiers to agent identifiers, one-to-one, along
    compatibility edges, given as a mapping or as (good, agent) pairs. Pairs
    with lambda_agent >= mu_good are reported unstable rather than raising.
    """
    pairs = [_pair_indices(model, pair)
             for pair in (pairing.items() if isinstance(pairing, Mapping) else pairing)]
    if not len({j for j, _ in pairs}) == len({i for _, i in pairs}) == len(pairs):
        raise DuplicateType("pairing must map distinct goods to distinct agents")
    out: dict[tuple[str, str], DedicatedPair] = {}
    for j, i in pairs:
        g, a = model.good_names[j], model.agent_names[i]
        if not model.is_edge(g, a):
            raise UnknownIdentifier(f"({g!r}, {a!r}) is not a compatibility edge")
        mu, lam = model.good_rates[j], model.agent_rates[i]
        if lam < mu:
            out[(g, a)] = DedicatedPair(stable=True, wait_mean=1.0 / (mu - lam))
        else:
            out[(g, a)] = DedicatedPair(stable=False, wait_mean=None)
    return out
