"""Monte Carlo verification: batch simulator, estimates, analytic comparison.

run() drives the simulation kernel over a seeded uniform stream and returns raw
per-batch counters as plain lists. SimStats.estimates() is the one reader of
them: every estimate carries a batch-means standard error, and each family
comes from one row-wise call: _batch_means for the ratios (rate, delay mean and
loss; B with the waiting-list-order occupancies) and _batch_variances for the
delay variances. Both are plain Python in numpy's order of operations
(pairwise row sums, a two-pass nanstd), so they give numpy's results to the
bit. compare_with_analytic() lines the estimates up against the subset
table's results as z-scores.

The uniform stream is numpy's default_rng(seed): PCG64 seeded through
SeedSequence. It has one owner, _event_codes, which decodes it into integer
event codes: t < n_agent is an agent of type t, and n_agent + j a good of type
j, so the kernel does no float comparison or type lookup. A run of at most
NUMPY_EVENTS events draws the stream with a pure-Python PCG64 that gives the
same bits, so it never imports numpy; a longer run draws it with numpy, whose
per-event speed then pays for its import. run chains the code lists into one
iterator and hands each batch's events to the kernel, _sim_batch, in one
call. The kernel keeps one deque of arrival indices per agent type, and the
first-appearance order of the waiting list (the nonempty types sorted by the
arrival index of their oldest agent) as a list: it changes only when an agent
joins an empty queue (the type is appended) or a good takes a queue's oldest
agent (the type moves back by its new head, or leaves). An arriving good
matches the first type in that order it is compatible with, which is the
earliest-arrived compatible agent. Occupancy of each order is tallied as run
lengths between changes.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from collections import deque
from dataclasses import dataclass
from operator import add, truediv
from typing import NamedTuple

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
SLICE = 8_192  # events numpy codes and converts to Python ints at a time
# Runs of at most this many events draw the stream in pure Python, longer ones
# with numpy. A cold `import numpy.random` costs about 0.1 s and 18 MB of peak
# RSS; the pure source costs about 0.5 us per event more than numpy's. This is
# the largest power of two at which the pure source won at least 9 of 10
# interleaved cold `verify` pairs on an 8-type model (README "Notes").
NUMPY_EVENTS = 2**17
# items whose kind and type positions one packed int steps at once in the pure
# source: a speed setting, the codes do not depend on it
LANES = 512
# pi_y rows estimated at once: for verify-wide's 928 rows of 50 batches, blocks
# of 128 rows peak at 0.5 MB of tracemalloc, against 3.5 MB for all at once,
# for at most 1 ms more
ROW_BLOCK = 128

# numpy's SeedSequence (a pool of four 32-bit words) and PCG64 (XSL-RR 128/64)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_TWO53 = 1 << 53  # a uniform is (out >> 11) * 2^-53


class Estimate(NamedTuple):
    value: float
    stderr: float


def _plus(a, b):
    return map(add, a, b)


def _row_sums(cols) -> list[float]:
    """numpy's float64 sum along each row, to the bit, of rows given as
    equal-length columns: pairwise, with 8 running sums over each block of at
    most 128 columns."""
    n = len(cols)
    if n < 8:
        return list(functools.reduce(_plus, cols, [0.0] * len(cols[0])))
    if n <= 128:
        m = n - n % 8
        r = [functools.reduce(_plus, cols[k:m:8]) for k in range(8)]
        head = _plus(_plus(_plus(r[0], r[1]), _plus(r[2], r[3])),
                     _plus(_plus(r[4], r[5]), _plus(r[6], r[7])))
        return list(functools.reduce(_plus, cols[m:], head))
    half = n // 2
    half -= half % 8
    return list(map(add, _row_sums(cols[:half]), _row_sums(cols[half:])))


def _stderrs(cols: list[list[float]], counts: list[int]) -> list[float]:
    """Standard errors of rows of per-batch estimates, given as columns, nan
    where a batch has none, and counts[r] of row r not nan: numpy's two-pass
    nanstd (ddof 1), which reads a nan as 0 in its place, over the root of
    the count; inf below 2."""
    filled = cols
    if min(counts, default=len(cols)) < len(cols):
        filled = [[0.0 if x != x else x for x in col] for col in cols]
    means = [total / count if count else 0.0 for total, count in zip(_row_sums(filled), counts)]
    squares = _row_sums([[(dev := x - mean) * dev if x == x else 0.0 for x, mean in zip(col, means)]
                         for col in cols])
    return [math.sqrt(sq / (count - 1)) / math.sqrt(count) if count > 1 else math.inf
            for sq, count in zip(squares, counts)]


def _batch_means(num, den) -> tuple[list[float], list[float]]:
    """Values and standard errors of the ratio estimates of the rows of num,
    (rows, batches) ints, over den, (batches,) or (rows, batches) ints.

    A row's value is its total over den's total (nan when that is 0); its
    standard error comes from the per-batch ratios of the batches with den > 0.
    """
    cols = list(zip(*num))
    if isinstance(den[0], (list, tuple)):
        totals = list(map(sum, den))
        counts = [len(d) - d.count(0) for d in den]
        ratios = [list(map(truediv, col, dcol)) if 0 not in dcol
                  else [x / y if y > 0 else math.nan for x, y in zip(col, dcol)]
                  for col, dcol in zip(cols, zip(*den))]
    else:  # one den per batch, for every row
        totals = [sum(den)] * len(num)
        counts = [len(den) - den.count(0)] * len(num)
        ratios = [[x / d for x in col] if d > 0 else [math.nan] * len(col)
                  for col, d in zip(cols, den)]
    values = [x / total if total > 0 else math.nan for x, total in zip(map(sum, num), totals)]
    return values, _stderrs(ratios, counts)


def _batch_variances(sums, sqs, m) -> tuple[list[float], list[float]]:
    """Values and standard errors of the delay variances of the rows of m
    matches, (rows, batches) ints, whose delays total sums (ints) and squares
    total sqs (floats).

    A row's value is its mean square less its squared mean (nan without a
    match); its standard error comes from the batches with 2 matches or more.
    """
    totals = list(map(sum, m))
    values = []
    for s, sq, total in zip(map(sum, sums), _row_sums(list(zip(*sqs))), totals):
        mean = s / total if total > 0 else math.nan
        values.append((sq / total if total > 0 else math.nan) - mean * mean)
    counts = [len(k) - k.count(0) - k.count(1) for k in m]
    ests = [[b / n - (a / n) * (a / n) if n > 1 else math.nan for a, b, n in zip(*row)]
            for row in zip(sums, sqs, m)]
    return values, _stderrs(list(zip(*ests)), counts)


@dataclass
class SimStats:
    """Raw per-batch counters of one simulation run of model, occupancy included,
    all plain Python lists of ints (floats in delay_sqs)."""

    model: MatchingModel
    seed: int
    n_events: int
    burn_in: int
    n_batches: int
    match_counts: list[list[int]]  # per batch, per edge in model.edge_list order
    loss_counts: list[list[int]]  # per batch, per good type
    delay_sums: list[list[int]]  # per batch, per edge
    delay_sqs: list[list[float]]  # per batch, per edge
    events_counts: list[int]  # per batch
    # occupancy entries, one per (order, batch) cell with events in it, batch
    # after batch: the order's row, the batch, the events
    entry_rows: list[int]
    entry_batches: list[int]
    entry_counts: list[int]
    order_rows: dict[tuple[int, ...], int]  # order of agent indices -> row, by first appearance
    total_agents: int
    total_goods: int
    final_unmatched: int

    def estimates(self, orders=()) -> dict[str, dict]:
        """Every estimate of the run, {family: {key: Estimate}}, one batch-means
        call per family (per ROW_BLOCK rows for pi_y): rate, delay_mean and
        delay_var keyed by edge in
        model.edge_list order, loss keyed by good, and pi_y keyed by order of
        agent names, the empty order (B) first and then each of orders, a
        repeated order once. An order given as a string, or with an unknown or
        repeated agent type, raises DomainError, UnknownIdentifier or DuplicateType."""
        model = self.model
        asked = [tuple(_order_indices(model, o)) if o or isinstance(o, str) else () for o in orders]
        orders = list(dict.fromkeys([(), *asked]))  # agent indices, B's order first, a repeat once
        keys = [tuple(model.agent_names[i] for i in o) for o in orders]
        # the asked orders' events per batch; entries of the other rows land in
        # one spare row, which nothing reads
        counts = [[0] * self.n_batches for _ in orders]
        dense = [[0] * self.n_batches] * len(self.order_rows)
        for order, row in zip(orders, counts):
            if order in self.order_rows:
                dense[self.order_rows[order]] = row
        for row, batch, count in zip(self.entry_rows, self.entry_batches, self.entry_counts):
            dense[row][batch] = count
        # the pi_y rows, up to 1 / PI_Y_THRESHOLD of them, in blocks of ROW_BLOCK
        pi_y = [_batch_means(counts[i:i + ROW_BLOCK], self.events_counts)
                for i in range(0, len(counts), ROW_BLOCK)]
        goods = self.goods_counts
        m, sums, sqs, losses = (list(zip(*c)) for c in (self.match_counts, self.delay_sums,
                                                        self.delay_sqs, self.loss_counts))
        edges = model.edge_list
        families = {"rate": (edges, _batch_means(m, goods)),
                    "delay_mean": (edges, _batch_means(sums, m)),
                    "delay_var": (edges, _batch_variances(sums, sqs, m)),
                    "loss": (model.good_names, _batch_means(losses, goods)),
                    "pi_y": (keys, [[x for block in pi_y for x in block[k]] for k in (0, 1)])}
        return {name: dict(zip(k, map(Estimate, *f))) for name, (k, f) in families.items()}

    @functools.cached_property
    def occupancy(self) -> dict[tuple[str, ...], dict[int, int]]:
        """Order of agent names -> {batch: events} over the batches with events in
        that order: orders by first appearance, batches ascending."""
        names = self.model.agent_names
        cells = [{} for _ in self.order_rows]
        for row, batch, count in zip(self.entry_rows, self.entry_batches, self.entry_counts):
            cells[row][batch] = count
        return {tuple(map(names.__getitem__, key)): c for key, c in zip(self.order_rows, cells)}

    @property
    def goods_counts(self) -> list[int]:
        """Goods per batch: every good is matched or lost."""
        return [sum(m) + sum(lost) for m, lost in zip(self.match_counts, self.loss_counts)]

    @property
    def events_post_burn_in(self) -> int:
        return sum(self.events_counts)


def _seed_words(seed: int) -> tuple[int, int]:
    """numpy's SeedSequence(seed).generate_state(4, np.uint64), read as two
    128-bit words (the first word of each pair high): PCG64's seed state and
    stream."""
    entropy = []
    while True:  # the seed's 32-bit words, least significant first
        entropy.append(seed & _M32)
        seed >>= 32
        if not seed:
            break
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _M32
        value = value * hash_const & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _M32
        return result ^ result >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const = _INIT_B
    state = []
    for value in pool * 2:
        value ^= hash_const
        hash_const = hash_const * _MULT_B & _M32
        value = value * hash_const & _M32
        state.append(value ^ value >> 16)
    words = [lo | hi << 32 for lo, hi in zip(state[::2], state[1::2])]
    return words[0] << 64 | words[1], words[2] << 64 | words[3]


def _pcg_jump(k: int) -> tuple[int, int]:
    """(a, c) such that k steps of the LCG s -> s * _PCG_MULT + inc take s to
    a * s + c * inc (mod 2^128): a = M^k and c = (M^k - 1) / (M - 1), the
    division done exactly modulo (M - 1) * 2^128."""
    a = pow(_PCG_MULT, k, 1 << 128)
    c = (pow(_PCG_MULT, k, (_PCG_MULT - 1) << 128) - 1) // (_PCG_MULT - 1)
    return a, c


def _pcg_lanes(n_events: int, seed: int):
    """Yield numpy's default_rng(seed) stream in _event_codes' layout, LANES
    items at a time, as (items, v): v packs 2 * LANES 64-bit lanes, the kind
    values of LANES consecutive items and then their type values, where a
    value is out >> 11 of its PCG64 output, so the uniform is value * 2^-53.
    Only the first items lanes of each half belong to the run.

    Another int x holds the PCG64 states of those 2 * LANES positions, one per
    256-bit lane. One multiply-add by the LANES-step affine map moves every
    lane on, since a lane's product fits in its 256 bits. The output words
    (hi ^ lo, rotated right by hi >> 58) are read into 64-bit lanes through
    bytes and rotated there in six conditional steps, one per bit of the
    count.
    """
    lanes = LANES
    width = 2 * lanes
    ones256 = ((1 << 256 * width) - 1) // ((1 << 256) - 1)  # a 1 in every 256-bit lane
    ones64 = ((1 << 64 * width) - 1) // _M64  # a 1 in every 64-bit lane
    mult, adds = _pcg_jump(lanes)
    initstate, initseq = _seed_words(seed)
    inc = (initseq << 1 | 1) & _M128
    start_state = ((inc + initstate) * _PCG_MULT + inc) & _M128  # numpy's seeding steps
    plus, keep = (adds * inc & _M128) * ones256, _M128 * ones256
    rotations = [(k, ones64 * (_M64 >> k), ones64 * (_M64 ^ _M64 >> k)) for k in (1, 2, 4, 8, 16, 32)]
    for start in range(0, n_events, CHUNK):
        m = min(CHUNK, n_events - start)
        states = []
        for first in (2 * start, 2 * start + m):  # the chunk's first kind and type outputs
            ja, jc = _pcg_jump(first + 1)  # an output reads the state after its step
            s = (ja * start_state + jc * inc) & _M128
            for _ in range(lanes):
                states.append(s)
                s = (s * _PCG_MULT + inc) & _M128
        x = int.from_bytes(b"".join(s.to_bytes(32, "little") for s in states), "little")
        for lo in range(0, m, lanes):
            if lo:
                x = (x * mult + plus) & keep
            words = memoryview(x.to_bytes(32 * width, "little")).cast("Q")  # 4 per state lane
            hi = int.from_bytes(words[1::4], "little")
            v = hi ^ int.from_bytes(words[::4], "little")
            hi >>= 58  # each lane's rotation count, in its low 6 bits
            for b, (k, low, high) in enumerate(rotations):
                turned = (v >> k) & low | (v << 64 - k) & high
                v ^= (v ^ turned) & ((hi >> b) & ones64) * _M64
            yield min(lanes, m - lo), v >> 11 & ones64 * (_TWO53 - 1)


def _pcg_codes(model: MatchingModel, n_events: int, seed: int):
    """The codes of _event_codes from _pcg_lanes, LANES per list.

    A threshold is an exact integer: a uniform is u = v * 2^-53, so u < p
    exactly when v < ceil(p * 2^53), and bisect_right over the sequential
    cumsum counts the c with ceil(c * 2^53) <= v. Each comparison runs on all
    lanes at once: v + 2^53 - t carries into bit 53 of its lane exactly when
    v >= t, since v < 2^53, and 2047 carries fit in a lane's top 11 bits.
    """
    lanes = LANES
    kinds = (1 << 64 * lanes) - 1  # the 64-bit lanes of the kind values
    ones = kinds // _M64  # a 1 in each of them

    def offsets(cum) -> list[int]:  # 2^53 - ceil(c * 2^53) in every lane
        return [(_TWO53 - min(math.ceil(c * _TWO53), _TWO53)) * ones for c in cum]

    # a type lane adds the agent or the good offsets, as its kind lane says
    agent_at = offsets(itertools.accumulate(map(float, model.alpha[:-1])))
    good_at = offsets(itertools.accumulate(map(float, model.beta[:-1])))
    thresholds = [(a, a ^ g) for a, g in itertools.zip_longest(agent_at, good_at, fillvalue=0)]
    (good_kind,) = offsets([model.lambda_bar / model.total_rate])
    carry = ones << 53
    first_good = model.n_agent_types * ones
    for items, v in _pcg_lanes(n_events, seed):
        kind, kind_type = v & kinds, v >> 64 * lanes
        goods = (((kind + good_kind) & carry) >> 53) * _M64  # all ones in the lanes of goods
        code = first_good & goods
        for i in range(0, len(thresholds), 2047):
            code += sum((kind_type + (a ^ (flip & goods))) & carry
                        for a, flip in thresholds[i:i + 2047]) >> 53
        codes = memoryview(code.to_bytes(8 * lanes, sys.byteorder)).cast("Q").tolist()
        yield codes if items == lanes else codes[:items]


def _event_codes(model: MatchingModel, n_events: int, seed: int):
    """Yield the event codes of a run, at most SLICE ints per list.

    The stream is numpy's default generator read as rng.random((2, m)) per
    chunk of m = CHUNK items (the last chunk shorter): a row of kind uniforms,
    then a row of type uniforms. An item of kind uniform u_kind and type
    uniform u_type is agent type bisect_right(alpha_cum[:-1], u_type) if
    u_kind < p_agent, else good type bisect_right(beta_cum[:-1], u_type);
    searchsorted side="right" is the same. A run of at most NUMPY_EVENTS
    events reads the stream from _pcg_codes. A longer one uses numpy: one
    generator reads each row and skips the other's with advance, so only a
    slice of uniforms is drawn at a time.
    """
    if n_events <= NUMPY_EVENTS:
        yield from _pcg_codes(model, n_events, seed)
        return
    import numpy as np

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
    entry_batches: list[int] = []
    entry_counts: list[int] = []

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
            entry_batches += [len(counters) - 1] * len(occupancy)
            entry_counts += occupancy.values()
        del occupancy  # before the next batch builds its own

    matches, delay_sums, delay_sqs, losses = map(list, zip(*counters))
    final_unmatched = sum(len(q) for q in queues)
    # every agent that arrived was matched or is still waiting
    total_agents = burn_in_matches + sum(map(sum, matches)) + final_unmatched
    return SimStats(
        model=model,
        seed=seed,
        n_events=n_events,
        burn_in=burn_in,
        n_batches=n_batches,
        match_counts=matches,
        delay_sums=delay_sums,
        delay_sqs=delay_sqs,
        loss_counts=losses,
        events_counts=[hi - lo for lo, hi in zip(starts, starts[1:])],
        entry_rows=entry_rows,
        entry_batches=entry_batches,
        entry_counts=entry_counts,
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
