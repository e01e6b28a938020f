"""Matching model: types, frequencies, compatibility graph, structural predicates.

The model describes a single stream of items. Each item is an agent with
probability lambda_bar/(lambda_bar+mu_bar) or a good otherwise; agent types are
drawn with frequencies alpha, good types with frequencies beta. Goods match the
earliest waiting compatible agent or are lost. Everything else in the package
derives from this object, so it is immutable and valid by construction: the
constructor runs validate on its normalised fields, so direct construction,
from_json_dict, load_model and with_lambda_bar all pass that one check, and no
other function repeats it.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import numbers
import os
from typing import Iterable, NamedTuple

from .errors import (
    DomainError,
    DuplicateType,
    FrequencySumError,
    IsolatedAgentType,
    ModelValidationError,
    NonPositiveFrequency,
    NonPositiveRate,
    TooManyTypes,
    UnknownIdentifier,
    UnstableModel,
    ValidationIssue,
)

FREQ_TOL = 1e-12

# A model is stable when every agent set's drain margin theta(C) / (lambda_bar
# + mu_bar) is at least this. theta = mu_{S(C)} - lambda_C is a difference of
# sums of order Lambda, so below this margin its relative rounding error is
# about 1e-4 or more and the sign of theta says little.
STABILITY_MARGIN = 1e-12

# The subset table in analytic.py, the largest user of the per-set sums, keeps
# 5 lists of 2^I floats (theta, W, F0 and two delay completions) while it is
# built; a float in a list costs about 32 bytes.
TABLE_ARRAYS = 5
BYTES_PER_FLOAT = 32


class StabilityReport(NamedTuple):
    """witness is None when the model is stable, and otherwise the agent set
    of smallest drain rate theta(C), a tuple of agent names in declared order."""

    stable: bool
    witness: tuple[str, ...] | None


class MaxStableRho(NamedTuple):
    value: float  # stable iff lambda_bar/mu_bar < value, up to STABILITY_MARGIN
    uncapped: float  # minimum over proper nonempty subsets only (inf when I == 1)
    witness: tuple[str, ...]  # argmin agent subset for `value`


class SubsetScan(NamedTuple):
    """What one pass over the agent sets C, indexed by bitmask, keeps.

    theta[C] = mu_{S(C)} - lambda_C is the drain rate of C (theta[0] = 0 for
    the empty set). An argmin is the first minimizing set in check order:
    smaller cardinality first, then lexicographic order of type indices.
    """

    theta: list[float]
    worst: int  # argmin mask of theta; its margin decides stability (check_stability)
    rho: MaxStableRho


class MatchingModel:
    """Bipartite compatibility graph plus type frequencies and aggregate rates.

    agent_types / good_types are ordered (identifier, frequency) pairs; their
    order defines the canonical type order used by every enumeration in the
    package. edges holds (good identifier, agent identifier) pairs.

    A model is immutable. Equality, hash and repr go by the _fields, kept in a
    __dict__ that only __init__ writes, so pickle, copy and cached_property work.
    """

    _fields = ("agent_types", "good_types", "edges", "lambda_bar", "mu_bar")

    def __init__(self, agent_types: Iterable[tuple[str, float]],
                 good_types: Iterable[tuple[str, float]],
                 edges: Iterable[tuple[str, str]], lambda_bar: float, mu_bar: float):
        def freq(x):  # validate reports anything else
            return float(x) if _is_number(x) else x

        self.__dict__.update(
            agent_types=tuple((str(n), freq(a)) for n, a in agent_types),
            good_types=tuple((str(n), freq(b)) for n, b in good_types),
            edges=frozenset((str(g), str(a)) for g, a in edges),
            lambda_bar=lambda_bar,
            mu_bar=mu_bar,
        )
        validate(self)

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")

    # --- cached derived views (every name in edges is a declared type) ---

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
    def edge_list(self) -> tuple[tuple[str, str], ...]:
        """The edges (good, agent), goods in declared order and then agents in
        declared order: the order of every per-edge report, table and counter."""
        return tuple(sorted(self.edges, key=lambda e: (self.good_index[e[0]], self.agent_index[e[1]])))

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

    @functools.cached_property
    def subset_scan(self) -> SubsetScan:
        """The one pass over the 2^I agent sets; every agent type has a good."""
        return _scan_subsets(self)

    @functools.cached_property
    def subset_table(self):
        """The subset table (analytic._SubsetTable) built from subset_scan; it
        lives as long as the model. Raises UnstableModel unless check_stability
        calls the model stable."""
        from .analytic import _subset_table

        return _subset_table(self)

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
        return type(self)(self.agent_types, self.good_types, self.edges, lambda_bar, self.mu_bar)

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
        """Build a model from its JSON form. Every name must be a JSON string
        and edges a list of two-name lists: the constructor would turn any
        other value into a string, and unpack a two-letter name as an edge."""
        def name(x):
            if not isinstance(x, str):
                raise TypeError(f"type name {_shown(x)} is not a string")
            return x

        def edge(e):
            if not (isinstance(e, list) and len(e) == 2):
                raise TypeError(f"edge {_shown(e)} is not a list of two names")
            return name(e[0]), name(e[1])

        try:
            agents = tuple((name(d["name"]), d["alpha"]) for d in data["agents"])
            goods = tuple((name(d["name"]), d["beta"]) for d in data["goods"])
            if not isinstance(data["edges"], list):
                raise TypeError(f"edges {_shown(data['edges'])} is not a list")
            edges = frozenset(map(edge, data["edges"]))
            return cls(agents, goods, edges, data["lambda_bar"], data["mu_bar"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ModelValidationError([ValidationIssue(f"malformed model data: {exc}")]) from exc


def load_model(path) -> MatchingModel:
    """Read a model JSON file; the model validates itself when it is built. A
    file that cannot be opened or is not UTF-8 text is an invalid model too."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ModelValidationError([ValidationIssue(f"cannot read model file: {exc}")]) from exc
    try:
        data = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer of too many digits
        raise ModelValidationError([ValidationIssue(f"invalid JSON: {exc}")]) from exc
    return MatchingModel.from_json_dict(data)


def save_model(model: MatchingModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model.to_json_dict(), fh, indent=2)
        fh.write("\n")


# --- operations ---


def _is_number(x) -> bool:
    """A real number that a float can hold: a bool, a numeric string or an
    integer beyond float range is not one."""
    if not isinstance(x, numbers.Real) or isinstance(x, bool):
        return False
    try:
        float(x)
    except OverflowError:
        return False
    return True


def _shown(x) -> str:
    """repr(x) for a message, cut after 30 characters: an integer beyond float
    range would otherwise print every one of its hundreds of digits."""
    text = repr(x)
    if len(text) <= 30:
        return text
    size = (f"an integer of {len(text.lstrip('-'))} digits" if isinstance(x, int)
            else f"{len(text)} characters")
    return f"{text[:30]}... ({size})"


def validate(model: MatchingModel) -> MatchingModel:
    """Check every model invariant; return the model or raise with all violations.

    MatchingModel's constructor calls this, so every built model passes it."""
    issues: list = []
    seen: set[str] = set()
    for name, _ in itertools.chain(model.agent_types, model.good_types):
        if name in seen:
            issues.append(DuplicateType(f"duplicate type identifier {name!r}"))
        seen.add(name)

    sides = (("agent", model.agent_types), ("good", model.good_types))
    # the outputs join names with "," and ">", write CSV cells unquoted and
    # print a good's loss as agent LOST, so each name must read back as itself
    for side, types in sides:
        for name, _ in types:
            if not name or any(c in name for c in ',>"\r\n'):
                issues.append(ValidationIssue(f"{side} type name {name!r} is empty or holds "
                                              "one of , > \" \\r \\n"))
            elif side == "agent" and name == "LOST":
                issues.append(ValidationIssue("agent type name 'LOST' is how a good's loss prints"))
    for side, types in sides:
        freqs = [f for _, f in types]
        if all(map(_is_number, freqs)) and not math.isclose(
                sum(freqs), 1.0, rel_tol=0.0, abs_tol=FREQ_TOL):
            issues.append(FrequencySumError(f"{side} frequencies sum to {sum(freqs)!r}, expected 1"))
    for side, types in sides:
        for name, f in types:
            if not _is_number(f):
                issues.append(NonPositiveFrequency(f"{side} type {name!r} has frequency {_shown(f)}, not a number"))
            elif not f > 0.0:
                issues.append(NonPositiveFrequency(f"{side} type {name!r} has frequency {_shown(f)}"))
    rate_issues = len(issues)
    for name, rate in (("lambda_bar", model.lambda_bar), ("mu_bar", model.mu_bar)):
        if not _is_number(rate):
            issues.append(NonPositiveRate(f"{name} = {_shown(rate)} is not a number"))
        elif not 0.0 < rate < math.inf:  # NaN fails too
            issues.append(NonPositiveRate(f"{name} = {_shown(rate)} must be positive and finite"))
    # every drain margin is theta / (lambda_bar + mu_bar), which is 0 when the sum overflows
    if len(issues) == rate_issues and float(model.lambda_bar) + float(model.mu_bar) == math.inf:
        issues.append(NonPositiveRate(f"lambda_bar + mu_bar = {_shown(model.lambda_bar)} + "
                                      f"{_shown(model.mu_bar)} overflows a float"))

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


def _indices(model: MatchingModel, side: str, names: Iterable[str]) -> list[int]:
    """The indices of the given types of one side, "agent" or "good", in the
    order given. A bare string, which would read as its characters, raises
    DomainError, and a name that is no declared type UnknownIdentifier."""
    if isinstance(names, str):
        raise DomainError(f"{side} types {names!r} must be a collection of names, not a string")
    index = model.agent_index if side == "agent" else model.good_index
    indices = []
    for n in names:
        try:
            indices.append(index[n])
        except (KeyError, TypeError):
            raise UnknownIdentifier(f"unknown {side} type {n!r}") from None
    return indices


def _pair_indices(model: MatchingModel, pair) -> tuple[int, int]:
    """The (good, agent) indices of a pair of names. A string, or anything that
    is not two names, raises DomainError, and a name that is no declared type
    of its side UnknownIdentifier (_indices)."""
    if isinstance(pair, str):
        raise DomainError(f"pair {pair!r} must be a (good, agent) pair of names, not a string")
    try:
        g, a = pair
    except (TypeError, ValueError):
        raise DomainError(f"pair {pair!r} must be a (good, agent) pair of names") from None
    try:
        return _indices(model, "good", (g,))[0], _indices(model, "agent", (a,))[0]
    except UnknownIdentifier:
        raise UnknownIdentifier(f"unknown pair ({g!r}, {a!r})") from None


def _mask(model: MatchingModel, side: str, names: Iterable[str]) -> int:
    """The bitmask of the given types of one side (_indices)."""
    return sum(1 << i for i in set(_indices(model, side, names)))


def _names(names: tuple[str, ...], mask: int) -> tuple[str, ...]:
    """The names whose index is in mask, in declared order."""
    return tuple(n for i, n in enumerate(names) if mask >> i & 1)


def _mask_sum(values: tuple[float, ...], mask: int) -> float:
    """The sum of the values whose index is in mask, added in increasing index
    from 0.0. Not sum(): from CPython 3.12 on it compensates float sums, and
    every subset sum must be the same float as the scan's."""
    total = 0.0
    for i, v in enumerate(values):
        if mask >> i & 1:
            total += v
    return total


def compatible_goods(model: MatchingModel, agents: Iterable[str]) -> tuple[str, ...]:
    """S(C): the good types compatible with some of the given agent types."""
    mask = _mask(model, "agent", agents)
    return tuple(g for g, a in zip(model.good_names, model.agents_of_good) if a & mask)


def compatible_agents(model: MatchingModel, goods: Iterable[str]) -> tuple[str, ...]:
    """The agent types compatible with some of the given good types."""
    mask = _mask(model, "good", goods)
    return tuple(a for a, g in zip(model.agent_names, model.goods_of_agent) if g & mask)


def unique_users(model: MatchingModel, goods: Iterable[str]) -> tuple[str, ...]:
    """Agent types whose entire neighborhood lies inside the given good set."""
    mask = _mask(model, "good", goods)
    return tuple(a for a, g in zip(model.agent_names, model.goods_of_agent) if g & ~mask == 0)


def _first_at(values: list[float], low: float) -> int:
    """The first nonempty mask in check order (see SubsetScan) whose value is low."""
    tied, mask = [], 0
    while True:
        try:
            mask = values.index(low, mask + 1)
        except ValueError:
            break
        tied.append(mask)
    return min(tied, key=lambda m: (m.bit_count(),
                                    [i for i in range(m.bit_length()) if m >> i & 1]))


def _scan_subsets(model: MatchingModel) -> SubsetScan:
    """Build the scan. The sums over each mask extend those of the mask
    without its highest type, so every sum adds its terms in increasing type
    order, as _mask_sum does, and the floats are the same to the bit.
    Raises TooManyTypes, before any 2^I list is allocated, when the lists over
    the 2^I agent sets would take more than half the physical memory."""
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
    goods = [0]  # per agent mask, the mask of its compatible goods
    for g in model.goods_of_agent:
        goods += [s | g for s in goods]
    full = len(goods) - 1
    good_freq, good_rate = {}, {}  # by good mask; few distinct neighborhoods
    for g in set(goods):
        good_freq[g], good_rate[g] = _mask_sum(model.beta, g), _mask_sum(model.good_rates, g)
    freq = [0.0]
    for a in model.alpha:
        freq += [f + a for f in freq]
    ratio = [good_freq[g] / f if f else math.inf for g, f in zip(goods, freq)]  # inf at mask 0
    del freq
    uncapped = min(itertools.islice(ratio, 1, full), default=math.inf)
    value = min(uncapped, ratio[full])
    witness = _names(model.agent_names, _first_at(ratio, value))
    del ratio

    rate = [0.0]
    for lam in model.agent_rates:
        rate += [r + lam for r in rate]
    theta = [good_rate[g] - r for g, r in zip(goods, rate)]
    del goods, rate
    worst = _first_at(theta, min(itertools.islice(theta, 1, None)))
    return SubsetScan(theta, worst, MaxStableRho(value, uncapped, witness))


def check_stability(model: MatchingModel) -> StabilityReport:
    """lambda_C < mu_{S(C)} for every nonempty agent subset C, with room to spare:
    the drain margin theta(C) / (lambda_bar + mu_bar) must be at least
    STABILITY_MARGIN, so equality and a margin lost in rounding count as
    unstable. The witness is the set of smallest drain rate theta, the scan's
    argmin; as lambda_C - mu_{S(C)} is -theta(C) exactly in IEEE arithmetic, it
    is the set of largest violation when the model is unstable. Ties break
    toward smaller cardinality, then lexicographic order of type indices.
    """
    scan = model.subset_scan
    if scan.theta[scan.worst] / model.total_rate >= STABILITY_MARGIN:
        return StabilityReport(stable=True, witness=None)
    return StabilityReport(stable=False, witness=_names(model.agent_names, scan.worst))


def _stable_scan(model: MatchingModel) -> SubsetScan:
    """The model's subset scan, for a computation that needs a stable model.
    Raises UnstableModel with check_stability's witness otherwise."""
    report = check_stability(model)
    scan = model.subset_scan
    if report.stable:
        return scan
    if scan.theta[scan.worst] <= 0.0:
        message = (f"model is unstable: agent subset {report.witness} has arrival rate "
                   f"{_mask_sum(model.agent_rates, scan.worst)!r} >= compatible good rate")
    else:
        message = f"agent subset {report.witness} has drain margin below {STABILITY_MARGIN:g}"
    raise UnstableModel(message, witness=report.witness)


def _order_indices(model: MatchingModel, order) -> list[int]:
    """The indices of an order of distinct agent types (pi_y_perm, geometric_stage):
    _indices, then DomainError when it is empty and DuplicateType on a repeat."""
    indices = _indices(model, "agent", order)
    if not indices:
        raise DomainError("order must be a nonempty sequence of agent types")
    if len(set(indices)) != len(indices):
        names = tuple(model.agent_names[i] for i in indices)
        raise DuplicateType(f"order {names} repeats an agent type")
    return indices


def check_crp(model: MatchingModel) -> bool:
    """Complete resource pooling: alpha_C < beta_{S(C)} for every proper nonempty C."""
    # for positive floats g and f, g / f rounds above 1 exactly when g > f,
    # since g / f is then at least 1 + ulp(f) / f, more than half an ulp of 1
    # above 1; so the minimum ratio over proper subsets answers for them all
    return model.subset_scan.rho.uncapped > 1.0


def max_stable_rho(model: MatchingModel) -> MaxStableRho:
    """Largest traffic intensity below which the model is stable, up to the
    STABILITY_MARGIN that check_stability adds.

    value = min over nonempty agent subsets C of beta_{S(C)} / alpha_C (this is
    never above 1 because the full set contributes beta_{S(C)} <= 1); uncapped
    restricts the minimum to proper subsets, which exceeds 1 exactly when the
    model has complete resource pooling.
    """
    return model.subset_scan.rho
