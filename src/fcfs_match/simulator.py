"""Monte Carlo verification: batch simulator, estimates, analytic comparison.

run() drives the simulation kernel over a seeded uniform stream and returns raw
per-batch counters. SimStats.estimates() is the one reader of them: every
estimate carries a batch-means standard error, and each family comes from one
row-wise call: _batch_means for the ratios (rate, delay mean and loss; B with
the waiting-list-order occupancies) and _batch_variances for the delay
variances. compare_with_analytic() lines the estimates up against the subset
table's results as z-scores.

The uniform stream has one owner, _event_codes, which draws it with numpy and
decodes it into integer event codes: t < n_agent is an agent of type t, and
n_agent + j a good of type j, so the kernel does no float comparison or type
lookup. run chains the code lists into one iterator and hands each batch's
events to the kernel, _sim_batch, in one call. The kernel keeps one deque of
arrival indices per agent type, and the first-appearance order of the waiting
list (the nonempty types sorted by the arrival index of their oldest agent)
as a list: it changes only when an agent joins an empty queue (the type is
appended) or a good takes a queue's oldest agent (the type moves back by its
new head, or leaves). An arriving good matches the first type in that order
it is compatible with, which is the earliest-arrived compatible agent.
Occupancy of each order is tallied as run lengths between changes.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .analytic import _check_cap, _orders_above, matching_rates, normalizing_constant
from .delays import delay_moments
from .errors import DomainError
from .model import MatchingModel, _order_indices, _stable_scan

BATCHES = 50  # every run splits its post-burn-in events into this many batches
PI_Y_THRESHOLD = 1e-4  # verify checks the waiting orders more probable than this
MIN_BURN_IN = 10_000
# items per chunk of the uniform stream, which reads as rng.random((2, CHUNK)):
# the stream's layout, not a buffer size, so changing it changes every result
CHUNK = 1_000_000
SLICE = 8_192  # events coded and converted to Python ints at a time


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


@dataclass
class SimStats:
    """Raw per-batch counters of one simulation run of model, occupancy included."""

    model: MatchingModel
    seed: int
    n_events: int
    burn_in: int
    n_batches: int
    match_counts: np.ndarray  # (batches, edges) int64, edges in model.edge_list order
    loss_counts: np.ndarray  # (batches, goods) int64
    delay_sums: np.ndarray  # (batches, edges) int64
    delay_sqs: np.ndarray  # (batches, edges) float64
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

    def estimates(self, orders=()) -> dict[str, dict]:
        """Every estimate of the run, {family: {key: Estimate}}, one batch-means
        call per family: rate, delay_mean and delay_var keyed by edge in
        model.edge_list order, loss keyed by good, and pi_y keyed by order of
        agent names, the empty order (B) first and then each of orders, a
        repeated order once. An order with an unknown or repeated agent type
        raises UnknownIdentifier or DuplicateType."""
        model = self.model
        keys = list(dict.fromkeys([(), *map(tuple, orders)]))
        rows = [self.order_rows.get(tuple(_order_indices(model, o)) if o else (), -1) for o in keys]
        # entries of rows not asked for land in one spare row, dropped at the
        # end; row -1 indexes the last slot, which no entry reads
        slot = np.full(len(self.order_rows) + 1, len(rows))
        slot[rows] = np.arange(len(rows))
        counts = np.zeros((len(rows) + 1, self.n_batches), dtype=np.int64)
        counts[slot[self.entry_rows], self.entry_batches] = self.entry_counts
        goods = self.goods_counts
        m, sums, sqs = self.match_counts.T, self.delay_sums.T, self.delay_sqs.T
        edges = model.edge_list
        families = {"rate": (edges, _batch_means(m, goods)),
                    "delay_mean": (edges, _batch_means(sums, m)),
                    "delay_var": (edges, _batch_variances(sums, sqs, m)),
                    "loss": (model.good_names, _batch_means(self.loss_counts.T, goods)),
                    "pi_y": (keys, _batch_means(counts[:-1], self.events_counts))}
        return {name: dict(zip(k, _listed(f))) for name, (k, f) in families.items()}

    @functools.cached_property
    def occupancy(self) -> dict[tuple[str, ...], dict[int, int]]:
        """Order of agent names -> {batch: events} over the batches with events in
        that order: orders by first appearance, batches ascending."""
        names = self.model.agent_names
        cells = [{} for _ in self.order_rows]
        entries = zip(self.entry_rows.tolist(), self.entry_batches.tolist(), self.entry_counts.tolist())
        for row, batch, count in entries:
            cells[row][batch] = count
        return {tuple(map(names.__getitem__, key)): c for key, c in zip(self.order_rows, cells)}

    @property
    def goods_counts(self) -> np.ndarray:
        """(batches,) int64 goods per batch: every good is matched or lost."""
        return self.match_counts.sum(axis=1) + self.loss_counts.sum(axis=1)

    @property
    def events_post_burn_in(self) -> int:
        return int(self.events_counts.sum())


def _event_codes(model: MatchingModel, n_events: int, seed: int):
    """Yield the event codes of a run, at most SLICE ints per list.

    The stream is numpy's default generator read as rng.random((2, m)) per
    chunk of m = CHUNK items (the last chunk shorter): a row of kind uniforms,
    then a row of type uniforms. One generator reads each row and skips the
    other's with advance, so only a slice of uniforms is drawn at a time. An
    item of kind uniform u_kind and type uniform u_type is agent type
    bisect_right(alpha_cum[:-1], u_type) if u_kind < p_agent, else good type
    bisect_right(beta_cum[:-1], u_type); searchsorted side="right" is the same.
    """
    n_agent = model.n_agent_types
    alpha_edges = np.cumsum(np.asarray(model.alpha))[:-1]
    beta_edges = np.cumsum(np.asarray(model.beta))[:-1]
    p_agent = model.lambda_bar / model.total_rate
    kind_rng = np.random.default_rng(seed)
    type_rng = np.random.default_rng(seed)
    for start in range(0, n_events, CHUNK):
        m = min(CHUNK, n_events - start)
        type_rng.bit_generator.advance(m)  # past this chunk's kind row
        for lo in range(0, m, SLICE):
            size = min(SLICE, m - lo)
            u_type = type_rng.random(size)
            yield np.where(
                kind_rng.random(size) < p_agent,
                np.searchsorted(alpha_edges, u_type, side="right"),
                n_agent + np.searchsorted(beta_edges, u_type, side="right"),
            ).tolist()
        kind_rng.bit_generator.advance(m)  # past this chunk's type row


def _sim_batch(codes, n, n_agent, edge_of, n_edge, queues, order):
    """Process the events n, n+1, ... given by the int iterable codes and
    return the batch's counters: per edge, in model.edge_list order, the
    matches, delay sums and squared-delay sums; per good type the losses; and
    the occupancy, {order (tuple of type indices): events that ended with it}.

    edge_of[j][i] is the index of the edge (good type j, agent type i), or
    None where j does not serve i. queues and order are mutated in place and
    carry over to the next batch.
    """
    mc = [0] * n_edge
    ds = [0] * n_edge
    dq = [0.0] * n_edge
    lc = [0] * len(edge_of)
    occ: dict[tuple[int, ...], int] = {}
    key = tuple(order)
    run_start = n
    for c in codes:
        changed = False
        if c < n_agent:
            q = queues[c]
            q.append(n)
            if len(q) == 1:
                order.append(c)
                changed = True
        else:
            j = c - n_agent
            row = edge_of[j]
            for k, i in enumerate(order):
                e = row[i]
                if e is not None:
                    q = queues[i]
                    d = n - q.popleft()
                    mc[e] += 1
                    ds[e] += d
                    dq[e] += float(d * d)
                    if q:
                        head = q[0]
                        end = len(order)
                        pos = k + 1
                        while pos < end and queues[order[pos]][0] < head:
                            pos += 1
                        if pos > k + 1:
                            del order[k]
                            order.insert(pos - 1, i)
                            changed = True
                    else:
                        del order[k]
                        changed = True
                    break
            else:
                lc[j] += 1
        if changed:
            if n > run_start:
                occ[key] = occ.get(key, 0) + n - run_start
                run_start = n
            key = tuple(order)
        n += 1
    if n > run_start:
        occ[key] = occ.get(key, 0) + n - run_start
    return mc, ds, dq, lc, occ


def run(
    model: MatchingModel,
    n_events: int,
    seed: int,
    burn_in: int | None = None,
) -> SimStats:
    """Simulate n_events items from the empty state and tally outcomes.

    Statistics ignore the first burn_in events and split the rest into BATCHES
    batches. Matches, delays and squared delays are counted per edge, in
    model.edge_list order, and losses per good type; a batch's goods are its
    matches plus its losses. The events come from _event_codes, so identical
    arguments give bit-identical stats.
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
    n_edge = len(model.edge_list)
    edge_of = [[None] * n_agent for _ in range(model.n_good_types)]
    for e, (g, a) in enumerate(model.edge_list):
        edge_of[model.good_index[g]][model.agent_index[a]] = e

    queues = [deque() for _ in range(n_agent)]
    order: list[int] = []
    counters = []  # of the counted batches: matches, delay sums, squared delays, losses
    # occupancy entries of all batches, batch after batch: order row and count
    order_rows: dict[tuple[int, ...], int] = {}
    entry_rows: list[int] = []
    entry_counts: list[int] = []
    batch_entries: list[int] = []

    # event n >= burn_in falls in batch (n - burn_in) * n_batches // span; the
    # burn-in ends at starts[0] and batch b at starts[b + 1]
    span = n_events - burn_in
    starts = [burn_in + -(-b * span // n_batches) for b in range(n_batches + 1)]

    codes = itertools.chain.from_iterable(_event_codes(model, n_events, seed))
    lo = 0
    for hi in starts:
        *batch, occupancy = _sim_batch(itertools.islice(codes, hi - lo), lo, n_agent, edge_of,
                                       n_edge, queues, order)
        lo = hi
        if hi == burn_in:
            burn_in_matches = sum(batch[0])  # the burn-in counts in total_agents only
        else:
            counters.append(batch)
            entry_rows += [order_rows.setdefault(key, len(order_rows)) for key in occupancy]
            entry_counts += occupancy.values()
            batch_entries.append(len(occupancy))
        del occupancy  # before the next batch builds its own

    matches, delay_sums, delay_sqs, losses = zip(*counters)
    match_counts = np.array(matches, dtype=np.int64)
    final_unmatched = sum(len(q) for q in queues)
    # every agent that arrived was matched or is still waiting
    total_agents = burn_in_matches + int(match_counts.sum()) + final_unmatched
    return SimStats(
        model=model,
        seed=seed,
        n_events=n_events,
        burn_in=burn_in,
        n_batches=n_batches,
        match_counts=match_counts,
        delay_sums=np.array(delay_sums, dtype=np.int64),
        delay_sqs=np.array(delay_sqs, dtype=np.float64),
        loss_counts=np.array(losses, dtype=np.int64),
        events_counts=np.diff(starts),
        entry_rows=np.array(entry_rows, dtype=np.int64),
        entry_batches=np.repeat(np.arange(len(batch_entries)), batch_entries),
        entry_counts=np.array(entry_counts, dtype=np.int64),
        order_rows=order_rows,
        total_agents=total_agents,
        total_goods=n_events - total_agents,
        final_unmatched=final_unmatched,
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
    above = sorted(_orders_above(model, PI_Y_THRESHOLD).items())
    ests = stats.estimates(order for order, _ in above)
    pi_y = ests["pi_y"]
    checks = [("B", report.b, pi_y[()])]
    checks += [(f"rate[{g},{a}]", r, ests["rate"][g, a]) for (g, a), r in report.rates.items()]
    checks += [(f"loss[{g}]", r, ests["loss"][g]) for g, r in report.loss.items()]
    for name, values in (("delay_mean", delays.pair_mean), ("delay_var", delays.pair_var)):
        checks += [(f"{name}[{g},{a}]", v, ests[name][g, a]) for (g, a), v in values.items()]
    checks += [(f"pi_y[{'>'.join(order)}]", prob, pi_y[order]) for order, prob in above]
    return [VerifyRow(q, x, e.value, e.stderr, _z(x, e)) for q, x, e in checks]
