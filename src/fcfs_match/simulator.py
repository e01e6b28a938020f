"""Monte Carlo verification: batch simulator, estimates, analytic comparison.

run() drives the simulation kernel over a seeded uniform stream and returns raw
per-batch counters. Every estimate carries a batch-means standard error, and
each family comes from one row-wise call: _batch_means for the ratios (rate,
delay mean and loss; B with the waiting-list-order occupancies) and
_batch_variances for the delay variances. compare_with_analytic() lines the
estimates up against the subset table's results as z-scores.
"""

from __future__ import annotations

import functools
import math
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _kernel
from .analytic import _check_cap, _orders_above, matching_rates, normalizing_constant
from .delays import delay_moments
from .errors import DomainError, UnknownIdentifier
from .model import MatchingModel, _order_indices, _stable_scan

BATCHES = 50  # every run splits its post-burn-in events into this many batches
PI_Y_THRESHOLD = 1e-4  # verify checks the waiting orders more probable than this
MIN_BURN_IN = 10_000


class Estimate(NamedTuple):
    value: float
    stderr: float


def _ratio(num, den, where) -> np.ndarray:
    """num / den where where holds, nan elsewhere, without a 0/0 warning."""
    return np.divide(num, den, out=np.full(np.broadcast(num, den).shape, math.nan), where=where)


def _stderrs(ests: np.ndarray) -> np.ndarray:
    """Standard errors of (rows, batches) per-batch estimates, nan where a batch has
    none: the std over the other batches over the root of their count (inf below 2)."""
    count = np.count_nonzero(~np.isnan(ests), axis=1)
    stderrs = np.full(len(ests), math.inf)
    ok = count >= 2
    stderrs[ok] = np.nanstd(ests[ok], axis=1, ddof=1) / np.sqrt(count[ok])
    return stderrs


def _batch_means(num, den) -> tuple[np.ndarray, np.ndarray]:
    """Values and standard errors of the ratio estimates of the rows of num,
    (rows, batches), over den, (batches,) or (rows, batches).

    A row's value is its total over den's total (nan when that is 0); its
    standard error comes from the per-batch ratios of the batches with den > 0.
    """
    total = den.sum(axis=-1)
    return _ratio(num.sum(axis=1), total, total > 0), _stderrs(_ratio(num, den, den > 0))


def _batch_variances(sums, sqs, m) -> tuple[np.ndarray, np.ndarray]:
    """Values and standard errors of the delay variances of the rows of m
    matches, (rows, batches), whose delays total sums and squares total sqs.

    A row's value is its mean square less its squared mean (nan without a
    match); its standard error comes from the batches with 2 matches or more.
    """
    total = m.sum(axis=1)
    mean = _ratio(sums.sum(axis=1), total, total > 0)
    batch_mean = _ratio(sums, m, m > 1)
    return (_ratio(sqs.sum(axis=1), total, total > 0) - mean * mean,
            _stderrs(_ratio(sqs, m, m > 1) - batch_mean * batch_mean))


def _listed(family: tuple[np.ndarray, np.ndarray]) -> list[Estimate]:
    return list(map(Estimate, *(a.tolist() for a in family)))


def _pick(estimates: dict, key) -> Estimate:
    if key not in estimates:
        raise UnknownIdentifier(f"no estimate for {key!r}: not a good type or an edge")
    return estimates[key]


@dataclass
class SimStats:
    """Raw per-batch counters of one simulation run of model, occupancy included."""

    model: MatchingModel
    seed: int
    n_events: int
    burn_in: int
    n_batches: int
    match_counts: np.ndarray  # (batches, goods, agents) int64
    loss_counts: np.ndarray  # (batches, goods) int64
    delay_sums: np.ndarray  # (batches, goods, agents) int64
    delay_sqs: np.ndarray  # (batches, goods, agents) float64
    goods_counts: np.ndarray  # (batches,) int64
    events_counts: np.ndarray  # (batches,) int64
    # occupancy entries, one per (order, batch) cell with events in it, batch
    # after batch; each (entries,) int64: the order's row, the batch, the events
    entry_rows: np.ndarray
    entry_batches: np.ndarray
    entry_counts: np.ndarray
    order_rows: dict[tuple[int, ...], int]  # order of agent indices -> row, by first appearance
    total_agents: int
    total_goods: int
    final_unmatched: int

    # --- estimates ---

    def _estimates(self) -> dict[str, dict]:
        """Every edge's rate, delay_mean and delay_var and every good's loss,
        keyed by edge or good: one batch-means call per family."""
        model = self.model
        edges = [(g, a) for g in model.good_names for a in model.agent_names if model.is_edge(g, a)]
        j, i = zip(*((model.good_index[g], model.agent_index[a]) for g, a in edges))
        m, sums, sqs = (c[:, j, i].T for c in (self.match_counts, self.delay_sums, self.delay_sqs))
        families = {"rate": _batch_means(m, self.goods_counts), "delay_mean": _batch_means(sums, m),
                    "delay_var": _batch_variances(sums, sqs, m)}
        estimates = {name: dict(zip(edges, _listed(f))) for name, f in families.items()}
        loss = _batch_means(self.loss_counts.T, self.goods_counts)
        return {**estimates, "loss": dict(zip(model.good_names, _listed(loss)))}

    def _pi_y_estimates(self, orders) -> list[Estimate]:
        """pi_y of each of a list of distinct valid orders of agent names, the empty
        order (B) included; only the asked orders get dense occupancy rows."""
        agent_index = self.model.agent_index
        rows = [self.order_rows.get(tuple(map(agent_index.__getitem__, o)), -1) for o in orders]
        # entries of rows not asked for land in one spare row, dropped at the
        # end; row -1 indexes the last slot, which no entry reads
        slot = np.full(len(self.order_rows) + 1, len(rows))
        slot[rows] = np.arange(len(rows))
        counts = np.zeros((len(rows) + 1, self.n_batches), dtype=np.int64)
        counts[slot[self.entry_rows], self.entry_batches] = self.entry_counts
        return _listed(_batch_means(counts[:-1], self.events_counts))

    def rate(self, good: str, agent: str) -> Estimate:
        return _pick(self._estimates()["rate"], (good, agent))

    def loss_rate(self, good: str) -> Estimate:
        return _pick(self._estimates()["loss"], good)

    def b_hat(self) -> Estimate:
        return self.pi_y(())

    def pi_y(self, order) -> Estimate:
        names = tuple(order)
        if names:  # the empty order is B
            _order_indices(self.model, names)
        return self._pi_y_estimates([names])[0]

    @functools.cached_property
    def occupancy(self) -> dict[tuple[str, ...], np.ndarray]:
        """Order of agent names -> (batches,) int64 counts, in order of first appearance."""
        names = self.model.agent_names
        table = np.zeros((len(self.order_rows), self.n_batches), dtype=np.int64)
        table[self.entry_rows, self.entry_batches] = self.entry_counts
        return {tuple(map(names.__getitem__, key)): row for key, row in zip(self.order_rows, table)}

    @property
    def total_matches(self) -> int:
        return int(self.match_counts.sum())

    @property
    def total_losses(self) -> int:
        return int(self.loss_counts.sum())

    @property
    def events_post_burn_in(self) -> int:
        return int(self.events_counts.sum())

    # --- serialization ---

    def to_json_dict(self) -> dict:
        from ._format import round12

        def est(e: Estimate):
            return {"value": round12(e.value), "stderr": round12(e.stderr) if math.isfinite(e.stderr) else None}

        ests = self._estimates()
        # an edge that no match reached has no delay mean, and is left out
        matched = [edge for edge, e in ests["delay_mean"].items() if not math.isnan(e.value)]
        return {
            "seeds": [self.seed],
            "n_events": self.n_events,
            "burn_in": self.burn_in,
            "n_batches": self.n_batches,
            "total_agents": self.total_agents,
            "total_goods": self.total_goods,
            "final_unmatched": self.final_unmatched,
            "events_post_burn_in": self.events_post_burn_in,
            "empty_state": est(self.b_hat()),
            "rates": {f"{g},{a}": est(ests["rate"][g, a]) for g, a in matched},
            "loss": {g: est(e) for g, e in ests["loss"].items()},
            "delays": {f"{g},{a}": {"mean": est(ests["delay_mean"][g, a]),
                                    "variance": est(ests["delay_var"][g, a])} for g, a in matched},
            "occupancy": {">".join(k): a.tolist() for k, a in sorted(self.occupancy.items())},
        }


def run(
    model: MatchingModel,
    n_events: int,
    seed: int,
    burn_in: int | None = None,
) -> SimStats:
    """Simulate n_events items from the empty state and tally outcomes.

    Statistics ignore the first burn_in events and split the rest into BATCHES
    batches. The uniform stream is numpy's default generator read as
    rng.random((2, m)) per chunk of m = _kernel.CHUNK items (the last chunk
    shorter): a row of kind uniforms, then a row of type uniforms, so identical
    arguments give bit-identical stats. The rows are drawn a slice at a time,
    never a whole chunk.
    """
    _stable_scan(model)  # refuses an unstable model
    if burn_in is None:  # one percent of the run, at least 10^4, but below the run length
        burn_in = max(MIN_BURN_IN, n_events // 100)
        if burn_in >= n_events:
            burn_in = n_events // 10
    if not 0 <= burn_in < n_events:
        raise DomainError(f"need 0 <= burn_in < n_events, got {burn_in} / {n_events}")
    n_batches = BATCHES
    if n_events - burn_in < n_batches:
        raise DomainError("need at least one post-burn-in event per batch")
    if seed < 0:
        raise DomainError(f"seed must be non-negative, got {seed}")

    n_agent = model.n_agent_types
    n_good = model.n_good_types
    # an item of kind uniform u_kind and type uniform u_type is agent type
    # bisect_right(alpha_cum[:-1], u_type) if u_kind < p_agent, else good type
    # bisect_right(beta_cum[:-1], u_type); searchsorted side="right" is the same
    alpha_edges = np.cumsum(np.asarray(model.alpha))[:-1]
    beta_edges = np.cumsum(np.asarray(model.beta))[:-1]
    compat = [[False] * n_agent for _ in range(n_good)]
    for g, a in model.edges:
        compat[model.good_index[g]][model.agent_index[a]] = True
    p_agent = model.lambda_bar / model.total_rate

    queues = [deque() for _ in range(n_agent)]
    order: list[int] = []
    match_counts = np.zeros((n_batches, n_good, n_agent), dtype=np.int64)
    loss_counts = np.zeros((n_batches, n_good), dtype=np.int64)
    delay_sums = np.zeros((n_batches, n_good, n_agent), dtype=np.int64)
    delay_sqs = np.zeros((n_batches, n_good, n_agent), dtype=np.float64)
    goods_counts = np.zeros(n_batches, dtype=np.int64)
    events_counts = np.zeros(n_batches, dtype=np.int64)
    # occupancy entries of all batches, batch after batch: order row and count
    order_rows: dict[tuple[int, ...], int] = {}
    entry_rows: list[int] = []
    entry_counts: list[int] = []
    batch_entries: list[int] = []

    # event n >= burn_in falls in batch (n - burn_in) * n_batches // span
    span = n_events - burn_in
    starts = [burn_in + -(-b * span // n_batches) for b in range(n_batches + 1)]
    segments = [(0, burn_in, None)] + [(starts[b], starts[b + 1], b) for b in range(n_batches)]

    # one generator reads each row; at a chunk's start the kind generator
    # skips the previous chunk's type row and the type generator this chunk's
    # kind row
    kind_rng = np.random.default_rng(seed)
    type_rng = np.random.default_rng(seed)
    total_agents = 0
    m = pos = chunk_end = 0
    for lo, hi, b in segments:
        tally = _kernel.BatchTally(n_good, n_agent)
        while pos < hi:
            if pos == chunk_end:
                kind_rng.bit_generator.advance(m)
                m = min(_kernel.CHUNK, n_events - pos)
                type_rng.bit_generator.advance(m)
                chunk_end = pos + m
            end = min(hi, chunk_end, pos + _kernel.SLICE)
            u_type = type_rng.random(end - pos)
            codes = np.where(
                kind_rng.random(end - pos) < p_agent,
                np.searchsorted(alpha_edges, u_type, side="right"),
                n_agent + np.searchsorted(beta_edges, u_type, side="right"),
            )
            total_agents += _kernel.sim_slice(
                codes.tolist(), pos, n_agent, compat, queues, order, tally
            )
            pos = end
        if b is None:
            continue
        match_counts[b] = np.reshape(tally.match_counts, (n_good, n_agent))
        delay_sums[b] = np.reshape(tally.delay_sums, (n_good, n_agent))
        delay_sqs[b] = np.reshape(tally.delay_sqs, (n_good, n_agent))
        loss_counts[b] = tally.loss_counts
        goods_counts[b] = tally.goods
        events_counts[b] = hi - lo
        entry_rows += [order_rows.setdefault(key, len(order_rows)) for key in tally.occupancy]
        entry_counts += tally.occupancy.values()
        batch_entries.append(len(tally.occupancy))

    return SimStats(
        model=model,
        seed=seed,
        n_events=n_events,
        burn_in=burn_in,
        n_batches=n_batches,
        match_counts=match_counts,
        loss_counts=loss_counts,
        delay_sums=delay_sums,
        delay_sqs=delay_sqs,
        goods_counts=goods_counts,
        events_counts=events_counts,
        entry_rows=np.array(entry_rows, dtype=np.int64),
        entry_batches=np.repeat(np.arange(len(batch_entries)), batch_entries),
        entry_counts=np.array(entry_counts, dtype=np.int64),
        order_rows=order_rows,
        total_agents=total_agents,
        total_goods=n_events - total_agents,
        final_unmatched=sum(len(q) for q in queues),
    )


class VerifyRow(NamedTuple):
    quantity: str
    analytic: float
    empirical: float
    stderr: float
    z: float


def _z(analytic: float, est: Estimate) -> float:
    if est.stderr == 0.0:
        return 0.0 if est.value == analytic else math.inf
    if not math.isfinite(est.stderr):
        return math.nan
    return (est.value - analytic) / est.stderr


def analytic_pi_y(model: MatchingModel) -> dict[tuple[str, ...], float]:
    """Stationary probability of every first-appearance order, plus the empty one.

    The result lists all e * I! orders, so models with more than
    DEFAULT_TYPE_CAP agent types are refused with TooManyTypes.
    """
    _check_cap(model)
    return {(): normalizing_constant(model), **_orders_above(model, 0.0)}


def compare_with_analytic(model: MatchingModel, stats: SimStats) -> list[VerifyRow]:
    """Side-by-side rows (quantity, analytic, empirical, stderr, z) for every
    analytically computed quantity the simulator estimates.

    The empty state appears once, as B. Waiting orders appear when their
    stationary probability exceeds PI_Y_THRESHOLD. Raises DomainError unless
    stats is a run of model.
    """
    if stats.model != model:
        raise DomainError("stats are from a run of a different model")
    report = matching_rates(model)
    delays = delay_moments(model)
    ests = stats._estimates()
    above = sorted(_orders_above(model, PI_Y_THRESHOLD).items())
    b, *pi_y = stats._pi_y_estimates([()] + [order for order, _ in above])
    checks = [("B", report.b, b)]
    checks += [(f"rate[{g},{a}]", r, ests["rate"][g, a]) for (g, a), r in report.rates.items()]
    checks += [(f"loss[{g}]", r, ests["loss"][g]) for g, r in report.loss.items()]
    for name, values in (("delay_mean", delays.pair_mean), ("delay_var", delays.pair_var)):
        checks += [(f"{name}[{g},{a}]", v, ests[name][g, a]) for (g, a), v in values.items()]
    checks += [(f"pi_y[{'>'.join(order)}]", prob, e) for (order, prob), e in zip(above, pi_y)]
    return [VerifyRow(q, x, e.value, e.stderr, _z(x, e)) for q, x, e in checks]
