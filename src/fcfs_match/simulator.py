"""Monte Carlo verification: batch simulator, estimates, analytic comparison.

run() drives the simulation kernel over a seeded uniform stream and returns raw
per-batch counters; every estimate (matching rates, loss rates, empty-state
probability, delay moments, waiting-list-order occupancies) carries a
batch-means standard error. compare_with_analytic() lines the estimates up
against the subset table's results as z-scores.
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
PI_Y_ROW_BLOCK = 128  # pi_y rows per numpy pass: bounds the temporary arrays


class Estimate(NamedTuple):
    value: float
    stderr: float


def _ratio_estimate(num: np.ndarray, den: np.ndarray) -> Estimate:
    total = den.sum()
    if total <= 0:
        return Estimate(math.nan, math.inf)
    value = float(num.sum() / total)
    valid = den > 0
    if valid.sum() < 2:
        return Estimate(value, math.inf)
    ests = num[valid] / den[valid]
    stderr = float(ests.std(ddof=1) / math.sqrt(int(valid.sum())))
    return Estimate(value, stderr)


@dataclass
class SimStats:
    """Raw per-batch counters of one simulation run of model, occupancy included."""

    model: MatchingModel
    seeds: tuple[int, ...]
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

    def _good(self, good: str) -> int:
        if good not in self.model.good_index:
            raise UnknownIdentifier(f"unknown good type {good!r}")
        return self.model.good_index[good]

    def _pair(self, good: str, agent: str) -> tuple[int, int]:
        return self._good(good), *_order_indices(self.model, [agent])

    def rate(self, good: str, agent: str) -> Estimate:
        j, i = self._pair(good, agent)
        return _ratio_estimate(self.match_counts[:, j, i], self.goods_counts)

    def loss_rate(self, good: str) -> Estimate:
        j = self._good(good)
        return _ratio_estimate(self.loss_counts[:, j], self.goods_counts)

    def b_hat(self) -> Estimate:
        return self.pi_y(())

    def pi_y(self, order) -> Estimate:
        names = tuple(order)
        if names:  # the empty order is B
            _order_indices(self.model, names)
        values, stderrs = self._pi_y_rows([names])
        return Estimate(float(values[0]), float(stderrs[0]))

    def _dense_rows(self, rows: np.ndarray) -> np.ndarray:
        """(len(rows), batches) int64 occupancy of distinct rows; row -1 is all zeros."""
        # entries of rows not asked for land in one spare row, dropped at the end;
        # row -1 indexes the last slot, which no entry reads
        slot = np.full(len(self.order_rows) + 1, len(rows))
        slot[rows] = np.arange(len(rows))
        dense = np.zeros((len(rows) + 1, self.n_batches), dtype=np.int64)
        dense[slot[self.entry_rows], self.entry_batches] = self.entry_counts
        return dense[:-1]

    def _pi_y_rows(self, orders) -> tuple[np.ndarray, np.ndarray]:
        """Values and standard errors of pi_y for a list of distinct valid orders.

        Each row is the batch-means ratio of the order's occupancy to the
        events (every batch holds at least one event), and numpy's std along
        a contiguous row matches the 1-D std bit for bit, so the answer for an
        order does not depend on the other orders asked. Only the asked
        orders get dense rows.
        """
        agent_index = self.model.agent_index
        rows = [self.order_rows.get(tuple(map(agent_index.__getitem__, o)), -1) for o in orders]
        counts = self._dense_rows(np.array(rows, dtype=np.int64))
        values = counts.sum(axis=1) / self.events_counts.sum()
        stderrs = np.empty(len(rows))
        for lo in range(0, len(rows), PI_Y_ROW_BLOCK):
            ests = counts[lo:lo + PI_Y_ROW_BLOCK] / self.events_counts
            stderrs[lo:lo + PI_Y_ROW_BLOCK] = ests.std(axis=1, ddof=1)
        return values, stderrs / math.sqrt(self.n_batches)

    @functools.cached_property
    def occupancy(self) -> dict[tuple[str, ...], np.ndarray]:
        """Order of agent names -> (batches,) int64 counts, in order of first appearance."""
        names = self.model.agent_names
        table = self._dense_rows(np.arange(len(self.order_rows)))
        return {tuple(map(names.__getitem__, key)): row for key, row in zip(self.order_rows, table)}

    def delay_mean(self, good: str, agent: str) -> Estimate:
        j, i = self._pair(good, agent)
        return _ratio_estimate(
            self.delay_sums[:, j, i].astype(np.float64), self.match_counts[:, j, i]
        )

    def delay_var(self, good: str, agent: str) -> Estimate:
        j, i = self._pair(good, agent)
        m = self.match_counts[:, j, i]
        total_m = m.sum()
        if total_m <= 0:
            return Estimate(math.nan, math.inf)
        mean = self.delay_sums[:, j, i].sum() / total_m
        value = float(self.delay_sqs[:, j, i].sum() / total_m - mean * mean)
        valid = m > 1
        if valid.sum() < 2:
            return Estimate(value, math.inf)
        bm = self.delay_sums[valid, j, i] / m[valid]
        bv = self.delay_sqs[valid, j, i] / m[valid] - bm * bm
        stderr = float(bv.std(ddof=1) / math.sqrt(int(valid.sum())))
        return Estimate(value, stderr)

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

        rates = {}
        delays = {}
        for j, g in enumerate(self.model.good_names):
            for i, a in enumerate(self.model.agent_names):
                if self.match_counts[:, j, i].sum() > 0:
                    rates[f"{g},{a}"] = est(self.rate(g, a))
                    delays[f"{g},{a}"] = {
                        "mean": est(self.delay_mean(g, a)),
                        "variance": est(self.delay_var(g, a)),
                    }
        return {
            "seeds": list(self.seeds),
            "n_events": self.n_events,
            "burn_in": self.burn_in,
            "n_batches": self.n_batches,
            "total_agents": self.total_agents,
            "total_goods": self.total_goods,
            "final_unmatched": self.final_unmatched,
            "events_post_burn_in": self.events_post_burn_in,
            "empty_state": est(self.b_hat()),
            "rates": rates,
            "loss": {g: est(self.loss_rate(g)) for g in self.model.good_names},
            "delays": delays,
            "occupancy": {
                ">".join(key): [int(v) for v in arr] for key, arr in sorted(self.occupancy.items())
            },
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
        seeds=(seed,),
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
    rows: list[VerifyRow] = []

    est = stats.b_hat()
    rows.append(VerifyRow("B", report.b, est.value, est.stderr, _z(report.b, est)))
    for (g, a), r in report.rates.items():
        e = stats.rate(g, a)
        rows.append(VerifyRow(f"rate[{g},{a}]", r, e.value, e.stderr, _z(r, e)))
    for g, r in report.loss.items():
        e = stats.loss_rate(g)
        rows.append(VerifyRow(f"loss[{g}]", r, e.value, e.stderr, _z(r, e)))
    for (g, a), m in delays.pair_mean.items():
        e = stats.delay_mean(g, a)
        rows.append(VerifyRow(f"delay_mean[{g},{a}]", m, e.value, e.stderr, _z(m, e)))
    for (g, a), v in delays.pair_var.items():
        e = stats.delay_var(g, a)
        rows.append(VerifyRow(f"delay_var[{g},{a}]", v, e.value, e.stderr, _z(v, e)))
    above = sorted(_orders_above(model, PI_Y_THRESHOLD).items())
    values, stderrs = stats._pi_y_rows([order for order, _ in above])
    for (order, prob), e in zip(above, map(Estimate, values.tolist(), stderrs.tolist())):
        rows.append(VerifyRow(f"pi_y[{'>'.join(order)}]", prob, e.value, e.stderr, _z(prob, e)))
    return rows
