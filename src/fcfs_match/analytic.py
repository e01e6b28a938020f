"""Subset table: normalizing constant, stationary weights, matching rates.

Every quantity here is a sum over ordered subsets (C_1, ..., C_k) of agent
types, and each term is a product over prefixes of lambda_{C_l} / theta(prefix
set), where theta(S) = mu_{S(S)} - lambda_S depends only on the set. Each sum
therefore factors into a forward prefix weight W(S) and a backward completion
weight F(T) over the 2^I agent sets, the set recursion of order-independent
queues. One table per model holds theta, W, F and the per-edge rate and delay
moment sums, built in O(J * I * 2^I) steps. The model keeps it
(MatchingModel.subset_table), so it lives exactly as long as its model. It
holds no wait sums and no transforms: a stage's transform factor folds into
its drain rate, so delays.py gets E[exp(sW)] from the completion pass
_completions at theta - s and E[z^D] from it at (z lambda, z theta + (1 - z)
Lambda), Lambda = lambda_bar + mu_bar. _subset_table, the one builder that
reads the model, takes theta from its subset scan (MatchingModel.subset_scan,
which answers the stability, pooling and rho* checks) and calls _table_core,
the recursions over plain lists in +, -, * and / with no float literal, which
run on any number type, Fraction exactly. It builds a table only for a model
check_stability calls stable, so every theta is at least STABILITY_MARGIN *
Lambda; the scan refuses a model whose 2^I-set lists would not fit in memory.

enumerate_terms, the depth-first walk over all e * I! ordered subsets, stays
in the package as public API and as the independent oracle the table is
tested against, and because the benchmark's traced run probes it. It is the
one computation here capped at DEFAULT_TYPE_CAP agent types.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .errors import TooManyTypes, ZeroRate
from .model import MatchingModel, _order_indices, _stable_scan

# Agent types above which an e * I! walk (enumerate_terms, and
# simulator.analytic_pi_y, which lists every order) is refused. Each added
# type multiplies the orders by about I: at 9 fully connected types
# analytic_pi_y holds 986,410 orders in about 240 MB, so 11 types (1.1e8
# orders) would need some 23 GB.
DEFAULT_TYPE_CAP = 10


class PermutationTerm(NamedTuple):
    """One ordered subset of agent types with its incremental rate sums.

    weight is the product over prefixes of lambda_{C_l} / (prefix_mu[l] -
    prefix_lambda[l]); the stationary probability of observing exactly these
    types, in this first-appearance order, is the normalizing constant times
    weight.
    """

    order: tuple[str, ...]
    prefix_lambda: tuple[float, ...]
    prefix_mu: tuple[float, ...]
    weight: float


def _check_cap(model: MatchingModel) -> None:
    if model.n_agent_types > DEFAULT_TYPE_CAP:
        raise TooManyTypes(
            f"{model.n_agent_types} agent types exceeds the enumeration cap {DEFAULT_TYPE_CAP}"
        )


def enumerate_terms(model: MatchingModel, visit: Callable[[PermutationTerm], None]) -> int:
    """Visit every nonempty ordered subset of agent types once; return the count.

    Visitation is depth-first, extending prefixes in declared type order, so
    two runs see identical term sequences. Models with more than
    DEFAULT_TYPE_CAP agent types are refused with TooManyTypes.
    """
    _check_cap(model)
    _stable_scan(model)  # so every prefix set below drains at a positive rate
    n = model.n_agent_types
    names = model.agent_names
    lam = model.agent_rates
    good_masks = model.goods_of_agent
    mu = model.good_rates
    count = 0
    make = PermutationTerm

    def extend(order, p_lam, p_mu, weight, lam_set, s_mask, mu_set, used, choices):
        nonlocal count
        for i in choices:
            if used >> i & 1:
                continue
            nls = lam_set + lam[i]
            nmask = s_mask | good_masks[i]
            nmu = mu_set
            add = nmask & ~s_mask
            j = 0
            while add:
                if add & 1:
                    nmu += mu[j]
                add >>= 1
                j += 1
            x = weight * lam[i] / (nmu - nls)
            norder = order + (names[i],)
            npl = p_lam + (nls,)
            npm = p_mu + (nmu,)
            visit(make(norder, npl, npm, x))
            count += 1
            extend(norder, npl, npm, x, nls, nmask, nmu, used | 1 << i, all_types)

    all_types = tuple(range(n))
    extend((), (), (), 1.0, 0.0, 0, 0.0, 0, all_types)
    return count


class _SubsetTable(NamedTuple):
    """Per-set weights of one model, indexed by agent bitmask, and the per-edge
    sums derived from them.

    W(S) sums the weights of the orders of S. F0(T) sums, over the ways to
    extend T to a longer order (none included), the product of the added
    prefixes' lambda_k / theta; so the orders extending an order P of the set T
    weigh weight(P) * F0(T) in total, and B = 1 / F0(empty set).

    edges maps every compatibility edge (good, agent), in model.edge_list
    order, to (rate, raw, de, de2): its matching rate B * (mu_good / mu_bar)
    * raw, its first-compatible credit sum raw, and the delay-moment sums
    (position counts) weight * E[D] and weight * E[D^2] given the order.
    _table_core computes b, w, f0 and the sums from plain lists; _subset_table,
    its one model reader, refuses a zero-rate edge, so every rate is positive.
    """

    b: float
    theta: list[float]  # mu_{S(S)} - lambda_S; theta[0] = 0 is never divided by
    w: list[float]
    f0: list[float]
    edges: dict[tuple[str, str], tuple[float, float, float, float]]


def _subset_table(model: MatchingModel) -> _SubsetTable:
    """Build the table: theta from the model's subset scan, _table_core's
    recursions on the model's rates, then the per-edge rates. Raises
    UnstableModel unless check_stability calls the model stable, and ZeroRate
    when some good's arrival rate, or else some edge's rate, is not positive,
    naming the first such good or edge."""
    theta = _stable_scan(model).theta
    for g, mu_j in zip(model.good_names, model.good_rates):
        if not mu_j > 0.0:
            raise ZeroRate(f"good {g!r} has arrival rate {mu_j!r}: the rate underflows a "
                           f"float, and the good's loss rate is undefined")
    b, w, f0, sums = _table_core(model.agent_rates, theta, model.total_rate, model.agents_of_good)
    edges = {}
    for g, a in model.edge_list:
        j, i = model.good_index[g], model.agent_index[a]
        raw, de, de2 = sums[j]
        rate = b * (model.good_rates[j] / model.mu_bar) * raw[i]
        if not rate > 0.0:
            raise ZeroRate(f"edge {(g, a)!r} has matching rate {rate!r}: the rate "
                           f"underflows a float, and the pair's delay is undefined")
        edges[(g, a)] = (rate, raw[i], de[i], de2[i])
    return _SubsetTable(b, theta, w, f0, edges)


def _table_core(lam, theta, total_rate, agents_of_good):
    """The table's recursions over lam per agent type, theta per agent set,
    total_rate = lambda_bar + mu_bar and each good's compatible-agent mask: W by
    increasing mask, _completions, then per good the first-match sums (raw, de,
    de2), as (b, w, f0, sums). No comparison of numbers and no float literal, so
    any number type runs it, Fraction exactly."""
    size = len(theta)
    bits = [(1 << k, lam_k) for k, lam_k in enumerate(lam)]

    one = total_rate ** 0  # 1 of the inputs' type: adds from an int miss CPython's float fast path
    w = [one] * size
    for s in range(1, size):
        acc = one - one
        for bit, lam_k in bits:
            if s & bit:
                acc += w[s ^ bit] * lam_k
        w[s] = acc / theta[s]

    f0, d1, d2 = _completions(lam, theta, total_rate)
    return 1 / f0[0], w, f0, [_first_match_sums(lam, m, w, theta, (f0, d1, d2)) for m in agents_of_good]


def _completions(lam, theta, total_rate):
    """The completions (f0, d1, d2) by decreasing mask: F0(T) = 1 + sum_k c_k
    F0(T+k) with c_k = lambda_k / theta(T+k). A continuation of T passes one
    independent delay stage G(T') at every set T' from T on, and D is their
    sum; F1 sums weight * E[D] and F2 weight * E[D^2], given the order:
    F1(T) = E[G(T)] F0(T) + sum_k c_k F1(T+k),
    F2(T) = E[G(T)^2] F0(T) + 2 E[G(T)] sum_k c_k F1(T+k) + sum_k c_k F2(T+k).
    A stage is Geom(p) with p = theta / total_rate: E[G] = a = 1/p and
    E[G^2] = (2 - p) a^2."""
    size = len(theta)
    bits = [(1 << k, lam_k) for k, lam_k in enumerate(lam)]
    one = total_rate ** 0  # as in _table_core
    f0 = [one] * size
    d1, d2 = [one - one] * size, [one - one] * size
    for t in range(size - 1, -1, -1):
        s0 = one
        sd1 = sd2 = one - one
        for bit, lam_k in bits:
            if t & bit:
                continue
            u = t | bit
            c = lam_k / theta[u]
            s0 += c * f0[u]
            sd1 += c * d1[u]
            sd2 += c * d2[u]
        f0[t] = s0
        if not t:
            break  # the empty set is no stage
        p = theta[t] / total_rate
        a = 1 / p
        d1[t] = a * s0 + sd1
        d2[t] = (2 - p) * a * a * s0 + 2 * a * sd1 + sd2
    return f0, d1, d2


def _first_match_sums(lam, compatible: int, w, theta, completions) -> list[list]:
    """For every completion array F, per agent i in the mask compatible of one
    good (zero elsewhere): the sum over sets P of agents outside the mask of
    W(P) * lambda_i / theta(P+i) * F(P+i). That is the sum over the orders in
    which i is the first type compatible with the good, each weighted and
    completed by F."""
    n = len(lam)
    free = ((1 << n) - 1) & ~compatible
    agents = [(i, 1 << i, lam[i]) for i in range(n) if compatible >> i & 1]
    sums = [[0] * n for _ in completions]
    pairs = list(zip(sums, completions))
    p = free
    while True:  # every subset p of free, free itself first and 0 last
        wp = w[p]
        for i, bit, lam_i in agents:
            u = p | bit
            x = wp * lam_i / theta[u]
            for out, f in pairs:
                out[i] += x * f[u]
        if not p:
            return sums
        p = (p - 1) & free


def _orders_above(model: MatchingModel, threshold: float) -> dict[tuple[str, ...], float]:
    """Stationary probability of every nonempty first-appearance order whose
    probability exceeds threshold, depth-first in declared type order.

    The orders extending a prefix P, P included, have total probability
    B * weight(P) * F0(set of P), so once that is at most threshold the walk
    skips P and all its extensions: the result is exact, not truncated.
    """
    table = model.subset_table
    b, theta, f0 = table.b, table.theta, table.f0
    names = model.agent_names
    steps = [(names[k], 1 << k, lam_k) for k, lam_k in enumerate(model.agent_rates)]
    found: dict[tuple[str, ...], float] = {}

    def extend(order, mask, weight):
        for name, bit, lam_k in steps:
            if mask & bit:
                continue
            u = mask | bit
            x = weight * lam_k / theta[u]
            if b * x * f0[u] <= threshold:
                continue
            norder = order + (name,)
            if b * x > threshold:
                found[norder] = b * x
            extend(norder, u, x)

    extend((), 0, 1.0)
    return found


def normalizing_constant(model: MatchingModel) -> float:
    """Probability of a perfect match (no agent waiting): 1 / (1 + sum of weights)."""
    return model.subset_table.b


def pi_y_perm(model: MatchingModel, order) -> float:
    """Stationary probability that the waiting agent types, in first-appearance
    order, are exactly the given sequence."""
    indices = _order_indices(model, order)
    table = model.subset_table
    mask = 0
    weight = 1.0
    for i in indices:
        mask |= 1 << i
        weight *= model.agent_rates[i] / table.theta[mask]
    return table.b * weight


class RateReport(NamedTuple):
    """Matching and loss rates plus the per-type conditional outcome fractions.

    rates maps each compatibility edge (good, agent) to the long-run fraction
    of all goods producing that match; loss maps each good type to its lost
    fraction. eta conditions on the good type (None key = lost); theta
    conditions on the agent type.
    """

    b: float
    rates: dict[tuple[str, str], float]
    loss: dict[str, float]
    eta: dict[str, dict[str | None, float]]
    theta: dict[str, dict[str, float]]

    def agent_throughput(self, agent: str) -> float:
        return sum(v for (_, a), v in self.rates.items() if a == agent)


def matching_rates(model: MatchingModel) -> RateReport:
    """All matching rates and loss rates from the subset table.

    Each ordered subset credits its weight to the first compatible agent type
    in first-appearance order, per good type; scaling by B and the good-type
    frequency turns the sums into rates, and the lost fraction is the good's
    frequency share minus its matched rates.
    """
    table = model.subset_table
    rates = {edge: entry[0] for edge, entry in table.edges.items()}
    loss: dict[str, float] = {}
    eta: dict[str, dict[str | None, float]] = {}
    for j, g in enumerate(model.good_names):
        share = model.good_rates[j] / model.mu_bar
        by_agent = [(a, r) for (gg, a), r in rates.items() if gg == g]
        loss[g] = share - sum(r for _, r in by_agent)
        eta[g] = {None: loss[g] / share, **{a: r / share for a, r in by_agent}}
    theta: dict[str, dict[str, float]] = {}
    for a in model.agent_names:
        by_good = [(g, r) for (g, aa), r in rates.items() if aa == a]
        through = sum(r for _, r in by_good)
        theta[a] = {g: r / through for g, r in by_good}
    return RateReport(b=table.b, rates=rates, loss=loss, eta=eta, theta=theta)
