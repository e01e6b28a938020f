"""Matching model: types, frequencies, compatibility graph, structural predicates.

The model describes a single stream of items. Each item is an agent with
probability lambda_bar/(lambda_bar+mu_bar) or a good otherwise; agent types are
drawn with frequencies alpha, good types with frequencies beta. Goods match the
earliest waiting compatible agent or are lost. Everything else in the package
derives from this object, so it is immutable and fully validated up front.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
from dataclasses import dataclass, replace
from typing import Iterable, NamedTuple

from .errors import (
    DuplicateIdentifier,
    FrequencySumError,
    IsolatedAgentType,
    ModelValidationError,
    NonPositiveFrequency,
    NonPositiveRate,
    TooManyTypes,
    UnknownIdentifier,
)

FREQ_TOL = 1e-12

# The subset table in analytic.py, the largest user of the per-set sums, keeps
# 9 lists of 2^I floats (theta, W, F0 and six moment completions) while it is
# built; a float in a list costs about 32 bytes.
TABLE_ARRAYS = 9
BYTES_PER_FLOAT = 32


@dataclass(frozen=True)
class TypeSubset:
    """A subset of agent types or of good types, with cached frequency/rate sums."""

    side: str  # "agent" | "good"
    names: tuple[str, ...]  # in declared model order
    mask: int
    freq: float  # alpha_C or beta_S
    rate: float  # lambda_C or mu_S

    def __len__(self) -> int:
        return len(self.names)

    def __contains__(self, name: str) -> bool:
        return name in self.names

    def __iter__(self):
        return iter(self.names)


class StabilityReport(NamedTuple):
    stable: bool
    witness: TypeSubset | None  # worst violating agent subset when unstable


class MaxStableRho(NamedTuple):
    value: float  # stability threshold: stable iff lambda_bar/mu_bar < value
    uncapped: float  # minimum over proper nonempty subsets only (inf when I == 1)
    witness: tuple[str, ...]  # argmin agent subset for `value`


@dataclass(frozen=True)
class MatchingModel:
    """Bipartite compatibility graph plus type frequencies and aggregate rates.

    agent_types / good_types are ordered (identifier, frequency) pairs; their
    order defines the canonical type order used by every enumeration in the
    package. edges holds (good identifier, agent identifier) pairs.
    """

    agent_types: tuple[tuple[str, float], ...]
    good_types: tuple[tuple[str, float], ...]
    edges: frozenset[tuple[str, str]]
    lambda_bar: float
    mu_bar: float

    def __post_init__(self):
        object.__setattr__(self, "agent_types", tuple((str(n), float(a)) for n, a in self.agent_types))
        object.__setattr__(self, "good_types", tuple((str(n), float(b)) for n, b in self.good_types))
        object.__setattr__(self, "edges", frozenset((str(g), str(a)) for g, a in self.edges))

    # --- cached derived views (assume a validated model) ---

    @functools.cached_property
    def agent_names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.agent_types)

    @functools.cached_property
    def good_names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.good_types)

    @functools.cached_property
    def agent_index(self) -> dict[str, int]:
        return {n: i for i, n in enumerate(self.agent_names)}

    @functools.cached_property
    def good_index(self) -> dict[str, int]:
        return {n: j for j, n in enumerate(self.good_names)}

    @functools.cached_property
    def alpha(self) -> tuple[float, ...]:
        return tuple(a for _, a in self.agent_types)

    @functools.cached_property
    def beta(self) -> tuple[float, ...]:
        return tuple(b for _, b in self.good_types)

    @functools.cached_property
    def agent_rates(self) -> tuple[float, ...]:
        """Per-type agent arrival rates lambda_bar * alpha_i."""
        return tuple(self.lambda_bar * a for a in self.alpha)

    @functools.cached_property
    def good_rates(self) -> tuple[float, ...]:
        """Per-type good arrival rates mu_bar * beta_j."""
        return tuple(self.mu_bar * b for b in self.beta)

    @functools.cached_property
    def goods_of_agent(self) -> tuple[int, ...]:
        """Bitmask over good indices compatible with each agent type."""
        masks = [0] * len(self.agent_types)
        for g, a in self.edges:
            masks[self.agent_index[a]] |= 1 << self.good_index[g]
        return tuple(masks)

    @functools.cached_property
    def agents_of_good(self) -> tuple[int, ...]:
        """Bitmask over agent indices compatible with each good type."""
        masks = [0] * len(self.good_types)
        for g, a in self.edges:
            masks[self.good_index[g]] |= 1 << self.agent_index[a]
        return tuple(masks)

    @property
    def n_agent_types(self) -> int:
        return len(self.agent_types)

    @property
    def n_good_types(self) -> int:
        return len(self.good_types)

    @property
    def rho(self) -> float:
        return self.lambda_bar / self.mu_bar

    @property
    def total_rate(self) -> float:
        return self.lambda_bar + self.mu_bar

    def is_edge(self, good: str, agent: str) -> bool:
        return (good, agent) in self.edges

    def with_lambda_bar(self, lambda_bar: float) -> "MatchingModel":
        return replace(self, lambda_bar=lambda_bar)

    # --- subset constructors ---

    def agent_subset(self, names: Iterable[str]) -> TypeSubset:
        return self._subset("agent", names)

    def good_subset(self, names: Iterable[str]) -> TypeSubset:
        return self._subset("good", names)

    def _subset(self, side: str, names: Iterable[str]) -> TypeSubset:
        if isinstance(names, TypeSubset):
            if names.side != side:
                raise UnknownIdentifier(f"expected a {side}-side subset, got {names.side}-side")
            return names
        index = self.agent_index if side == "agent" else self.good_index
        mask = 0
        for n in names:
            i = index.get(n)
            if i is None:
                raise UnknownIdentifier(f"unknown {side} type {n!r}")
            mask |= 1 << i
        return self.subset_from_mask(side, mask)

    def subset_from_mask(self, side: str, mask: int) -> TypeSubset:
        if side == "agent":
            all_names, freqs, rates = self.agent_names, self.alpha, self.agent_rates
        else:
            all_names, freqs, rates = self.good_names, self.beta, self.good_rates
        names = []
        freq = 0.0
        rate = 0.0
        for i, n in enumerate(all_names):
            if mask >> i & 1:
                names.append(n)
                freq += freqs[i]
                rate += rates[i]
        return TypeSubset(side, tuple(names), mask, freq, rate)

    # --- serialization ---

    def to_json_dict(self) -> dict:
        return {
            "agents": [{"name": n, "alpha": a} for n, a in self.agent_types],
            "goods": [{"name": n, "beta": b} for n, b in self.good_types],
            "edges": sorted([g, a] for g, a in self.edges),
            "lambda_bar": self.lambda_bar,
            "mu_bar": self.mu_bar,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "MatchingModel":
        try:
            agents = tuple((d["name"], d["alpha"]) for d in data["agents"])
            goods = tuple((d["name"], d["beta"]) for d in data["goods"])
            edges = frozenset((g, a) for g, a in data["edges"])
            return cls(agents, goods, edges, data["lambda_bar"], data["mu_bar"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ModelValidationError([UnknownIdentifier(f"malformed model data: {exc}")]) from exc


def load_model(path) -> MatchingModel:
    """Read a model JSON file and validate it."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ModelValidationError([UnknownIdentifier(f"invalid JSON: {exc}")]) from exc
    return validate(MatchingModel.from_json_dict(data))


def save_model(model: MatchingModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model.to_json_dict(), fh, indent=2)
        fh.write("\n")


# --- operations ---


def validate(model: MatchingModel) -> MatchingModel:
    """Check every model invariant; return the model or raise with all violations."""
    issues: list = []
    seen: set[str] = set()
    for name, _ in itertools.chain(model.agent_types, model.good_types):
        if name in seen:
            issues.append(DuplicateIdentifier(f"duplicate type identifier {name!r}"))
        seen.add(name)

    a_sum = sum(a for _, a in model.agent_types)
    b_sum = sum(b for _, b in model.good_types)
    if not math.isclose(a_sum, 1.0, rel_tol=0.0, abs_tol=FREQ_TOL):
        issues.append(FrequencySumError(f"agent frequencies sum to {a_sum!r}, expected 1"))
    if not math.isclose(b_sum, 1.0, rel_tol=0.0, abs_tol=FREQ_TOL):
        issues.append(FrequencySumError(f"good frequencies sum to {b_sum!r}, expected 1"))
    for name, a in model.agent_types:
        if not a > 0.0:
            issues.append(NonPositiveFrequency(f"agent type {name!r} has frequency {a!r}"))
    for name, b in model.good_types:
        if not b > 0.0:
            issues.append(NonPositiveFrequency(f"good type {name!r} has frequency {b!r}"))
    if not model.lambda_bar > 0.0:
        issues.append(NonPositiveRate(f"lambda_bar = {model.lambda_bar!r} must be positive"))
    if not model.mu_bar > 0.0:
        issues.append(NonPositiveRate(f"mu_bar = {model.mu_bar!r} must be positive"))

    agent_set = {n for n, _ in model.agent_types}
    good_set = {n for n, _ in model.good_types}
    covered: set[str] = set()
    for g, a in sorted(model.edges):
        if g not in good_set:
            issues.append(UnknownIdentifier(f"edge ({g!r}, {a!r}) references unknown good type"))
        if a not in agent_set:
            issues.append(UnknownIdentifier(f"edge ({g!r}, {a!r}) references unknown agent type"))
        covered.add(a)
    for name, _ in model.agent_types:
        if name not in covered:
            issues.append(IsolatedAgentType(f"agent type {name!r} has no compatible good type"))

    if issues:
        raise ModelValidationError(issues)
    return model


def compatible_goods(model: MatchingModel, agents: Iterable[str] | TypeSubset) -> TypeSubset:
    """Union of the good-type neighborhoods of the given agent types."""
    sub = model.agent_subset(agents)
    mask = 0
    for i in range(model.n_agent_types):
        if sub.mask >> i & 1:
            mask |= model.goods_of_agent[i]
    return model.subset_from_mask("good", mask)


def compatible_agents(model: MatchingModel, goods: Iterable[str] | TypeSubset) -> TypeSubset:
    """Union of the agent-type neighborhoods of the given good types."""
    sub = model.good_subset(goods)
    mask = 0
    for j in range(model.n_good_types):
        if sub.mask >> j & 1:
            mask |= model.agents_of_good[j]
    return model.subset_from_mask("agent", mask)


def unique_users(model: MatchingModel, goods: Iterable[str] | TypeSubset) -> TypeSubset:
    """Agent types whose entire neighborhood lies inside the given good set."""
    sub = model.good_subset(goods)
    complement = ((1 << model.n_good_types) - 1) & ~sub.mask
    outside = compatible_agents(model, model.subset_from_mask("good", complement))
    mask = ((1 << model.n_agent_types) - 1) & ~outside.mask
    return model.subset_from_mask("agent", mask)


def _agent_subsets(model: MatchingModel):
    """Nonempty agent-index subsets, by increasing cardinality then lexicographic."""
    n = model.n_agent_types
    for k in range(1, n + 1):
        for combo in itertools.combinations(range(n), k):
            mask = 0
            for i in combo:
                mask |= 1 << i
            yield mask


def _check_memory(model: MatchingModel) -> None:
    """Refuse, with TooManyTypes, a model whose lists over the 2^I agent sets
    would take more than half the physical memory."""
    n = model.n_agent_types
    need = (1 << n) * TABLE_ARRAYS * BYTES_PER_FLOAT
    physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > physical / 2:
        steps = model.n_good_types * n * (1 << n)
        raise TooManyTypes(
            f"{n} agent types need about {need / 2**30:.3g} GiB for the lists over the "
            f"2^{n} agent sets, more than half of the {physical / 2**30:.3g} GiB of physical "
            f"memory; the subset table would take about {steps:.3g} steps (J * I * 2^I)"
        )


def _subset_sums(model: MatchingModel) -> tuple[list[float], ...]:
    """Per agent mask C, the lists alpha_C, lambda_C, beta_{S(C)} and mu_{S(C)}.

    Each mask extends the mask without its highest type, so every sum adds its
    terms in increasing type order, as subset_from_mask does, and the floats
    are the same to the bit. Raises TooManyTypes before any 2^I list is
    allocated when the lists would not fit in memory.
    """
    _check_memory(model)
    size = 1 << model.n_agent_types
    alpha, lam, goods_of = model.alpha, model.agent_rates, model.goods_of_agent
    freq, rate = [0.0] * size, [0.0] * size
    good_freq, good_rate = [0.0] * size, [0.0] * size
    goods = [0] * size
    good_sums = {0: (0.0, 0.0)}  # by good mask; few distinct neighborhoods
    for mask in range(1, size):
        top = mask.bit_length() - 1
        rest = mask ^ (1 << top)
        freq[mask] = freq[rest] + alpha[top]
        rate[mask] = rate[rest] + lam[top]
        g = goods[mask] = goods[rest] | goods_of[top]
        sums = good_sums.get(g)
        if sums is None:
            sub = model.subset_from_mask("good", g)
            sums = good_sums[g] = (sub.freq, sub.rate)
        good_freq[mask], good_rate[mask] = sums
    return freq, rate, good_freq, good_rate


def check_stability(model: MatchingModel) -> StabilityReport:
    """Strict inequality lambda_C < mu_{S(C)} for every nonempty agent subset.

    Equality counts as unstable. The witness is the subset with the largest
    violation lambda_C - mu_{S(C)}; ties break toward smaller cardinality, then
    lexicographic order of identifiers (guaranteed by the iteration order).
    """
    _, rate, _, good_rate = _subset_sums(model)
    worst = None
    worst_gap = -math.inf
    for mask in _agent_subsets(model):
        gap = rate[mask] - good_rate[mask]
        if gap >= 0.0 and gap > worst_gap:
            worst_gap = gap
            worst = mask
    if worst is None:
        return StabilityReport(stable=True, witness=None)
    return StabilityReport(stable=False, witness=model.subset_from_mask("agent", worst))


def check_crp(model: MatchingModel) -> bool:
    """Complete resource pooling: alpha_C < beta_{S(C)} for every proper nonempty C."""
    freq, _, good_freq, _ = _subset_sums(model)
    full = (1 << model.n_agent_types) - 1
    return all(freq[mask] < good_freq[mask] for mask in range(1, full))


def max_stable_rho(model: MatchingModel) -> MaxStableRho:
    """Largest traffic intensity below which the model is stable.

    value = min over nonempty agent subsets C of beta_{S(C)} / alpha_C (this is
    never above 1 because the full set contributes beta_{S(C)} <= 1); uncapped
    restricts the minimum to proper subsets, which exceeds 1 exactly when the
    model has complete resource pooling.
    """
    freq, _, good_freq, _ = _subset_sums(model)
    full = (1 << model.n_agent_types) - 1
    value = math.inf
    uncapped = math.inf
    best = None
    for mask in _agent_subsets(model):
        ratio = good_freq[mask] / freq[mask]
        if ratio < value:
            value = ratio
            best = mask
        if mask != full and ratio < uncapped:
            uncapped = ratio
    witness = () if best is None else model.subset_from_mask("agent", best).names
    return MaxStableRho(value=value, uncapped=uncapped, witness=witness)
