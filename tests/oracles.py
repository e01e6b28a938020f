"""Independent numerical oracles for the analytic results.

Two brute-force routes, deliberately separate from the package's subset table:

* y_chain_rates: enumerates waiting-type-order states with gap counts up to a
  cap, builds the one-step transition kernel (using the conditional gap
  composition implied by the waiting-list product form), solves the balance
  equations by power iteration, and reads off matching rates at good arrivals.

* x_chain_rates: even more mechanical, enumerates full waiting-type
  sequences up to a length cap with transitions taken literally from the
  matching rule. Exponential in the cap, so only for tiny systems; used to
  cross-validate the y-chain kernel construction.

Two walks over every ordered subset, through the package's public
enumerate_terms, check the subset table term by term:

* walk_sums: B, the per-pair rate sums and the six delay/wait moment sums,
  each accumulated with math.fsum, plus the probability of every order.

* mixture_value: the pair-delay generating-function sums, by a recursive walk
  that multiplies the stage factors from the match position onward.

Little's law checks the agent-level waits through the occupancy side of the
subset table, with no delay pass:

* little_agent_counts: the mean number of waiting agents of each type, from
  the table's B, W, F0 and theta alone, and the total probability of the
  waiting sets.

* little_agent_factorial_moments: E[N_a (N_a - 1)] of each type's number of
  waiting agents, by a backward pass over the sets like the delay
  completions, from B, F0 and theta.

* little_agent_pgf: E[z^N_a], by the same backward pass with the stage
  generating functions in place of the moments.

One brute-force pass over agent subsets checks model.py's per-mask sums:

* stability_checks: check_stability, check_crp and max_stable_rho, each subset
  drawn from itertools.combinations and its neighborhood read off the edges.

* min_drain: the smallest drain rate mu_{S(C)} - lambda_C and the first set
  attaining it, in the same order, for validate's min_drain_* keys.

Three builders make models whose answers are known at any I:

* with_flexible_type: a model in which one agent type is compatible with every
  good. That type waits Exp(mu_bar - lambda_bar) at every good, whatever the
  other types: it sees an M/M/1 queue with the pooled rates.

* joined: one disconnected model of two. Each component keeps its own waits,
  and its rates scale by its share of the goods.

* bench_model: a model of the benchmark's generator, by label.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import scipy.sparse as sp

from fcfs_match import MatchingModel, enumerate_terms


def _power_stationary(P: sp.csr_matrix, tol: float = 1e-14, max_iter: int = 500_000) -> np.ndarray:
    n = P.shape[0]
    PT = P.T.tocsr()
    pi = np.full(n, 1.0 / n)
    for _ in range(max_iter):
        new = PT @ pi
        new /= new.sum()
        diff = np.abs(new - pi).max()
        pi = new
        if diff < tol:
            return pi
    raise RuntimeError(f"power iteration did not converge (last diff {diff:.3e})")


def _first_compatible(order, compat_mask) -> int | None:
    for pos, t in enumerate(order):
        if compat_mask >> t & 1:
            return pos
    return None


def y_chain_rates(model, cap: int = 30):
    """Stationary rates from the truncated waiting-order chain.

    Returns (empty_prob, rates dict, loss dict). Truncation reflects
    gap-extending arrivals at the cap; the error scales like the largest
    occupancy ratio to the power cap+1.
    """
    n_agent = model.n_agent_types
    lam = model.agent_rates
    mu = model.good_rates
    tot = model.total_rate

    states: list[tuple] = [()]
    for k in range(1, n_agent + 1):
        for perm in itertools.permutations(range(n_agent), k):
            for total_n in range(cap + 1):
                for comp in itertools.combinations_with_replacement(range(k), total_n):
                    ns = [0] * k
                    for c in comp:
                        ns[c] += 1
                    states.append((perm, tuple(ns)))
    index = {s: i for i, s in enumerate(states)}

    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []

    def add(i, state, p):
        rows.append(i)
        cols.append(index[state])
        vals.append(p)

    for si, st in enumerate(states):
        order, counts = st if st else ((), ())
        k = len(order)
        for t in range(n_agent):
            p = lam[t] / tot
            if t in order:
                if sum(counts) + 1 > cap:
                    add(si, st, p)
                else:
                    add(si, (order, counts[:-1] + (counts[-1] + 1,)), p)
            else:
                add(si, (order + (t,), counts + (0,)), p)
        lam_prefix = list(itertools.accumulate(lam[t] for t in order))
        for j in range(model.n_good_types):
            p = mu[j] / tot
            l = _first_compatible(order, model.agents_of_good[j])
            if l is None:
                add(si, st, p)
                continue
            tl = order[l]
            q = [lam[tl] / lam_prefix[m] for m in range(k)]
            none_prob = 1.0
            for m in range(l, k):
                fail = 1.0
                for i in range(1, counts[m] + 1):
                    pr = p * none_prob * fail * q[m]
                    fail *= 1.0 - q[m]
                    if pr == 0.0:
                        continue
                    if m == l:
                        new_order = order
                        if l == 0:
                            new_counts = (counts[0] - 1,) + counts[1:]
                        else:
                            new_counts = (
                                counts[: l - 1]
                                + (counts[l - 1] + i - 1, counts[l] - i)
                                + counts[l + 1 :]
                            )
                    else:
                        new_order = order[:l] + order[l + 1 : m + 1] + (tl,) + order[m + 1 :]
                        if l == 0:
                            new_counts = counts[1:m] + (i - 1, counts[m] - i) + counts[m + 1 :]
                        else:
                            new_counts = (
                                counts[: l - 1]
                                + (counts[l - 1] + counts[l],)
                                + counts[l + 1 : m]
                                + (i - 1, counts[m] - i)
                                + counts[m + 1 :]
                            )
                    add(si, (new_order, new_counts), pr)
                none_prob *= (1.0 - q[m]) ** counts[m]
            pr = p * none_prob
            if pr > 0.0:
                new_order = order[:l] + order[l + 1 :]
                if l == 0:
                    new_counts = counts[1:]
                else:
                    new_counts = counts[: l - 1] + (counts[l - 1] + counts[l],) + counts[l + 1 :]
                add(si, (new_order, new_counts) if new_order else (), pr)

    n = len(states)
    P = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    rowsum = np.asarray(P.sum(axis=1)).ravel()
    assert np.abs(rowsum - 1.0).max() < 1e-12
    pi = _power_stationary(P)
    return _rates_from_orders(model, ((st[0] if st else (), pi[i]) for i, st in enumerate(states)))


def x_chain_rates(model, max_len: int = 12):
    """Stationary rates from the truncated full waiting-sequence chain."""
    n_agent = model.n_agent_types
    lam = model.agent_rates
    mu = model.good_rates
    tot = model.total_rate

    states: list[tuple[int, ...]] = [()]
    for length in range(1, max_len + 1):
        states.extend(itertools.product(range(n_agent), repeat=length))
    index = {s: i for i, s in enumerate(states)}

    rows, cols, vals = [], [], []
    for si, st in enumerate(states):
        for t in range(n_agent):
            p = lam[t] / tot
            target = st if len(st) == max_len else st + (t,)
            rows.append(si)
            cols.append(index[target])
            vals.append(p)
        for j in range(model.n_good_types):
            p = mu[j] / tot
            pos = _first_compatible(st, model.agents_of_good[j])
            target = st if pos is None else st[:pos] + st[pos + 1 :]
            rows.append(si)
            cols.append(index[target])
            vals.append(p)
    n = len(states)
    P = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    pi = _power_stationary(P)
    return _rates_from_orders(model, ((st, pi[i]) for i, st in enumerate(states)))


def _rates_from_orders(model, weighted_orders):
    """PASTA read-off: rates credited to the first compatible type of each state."""
    mu = model.good_rates
    mu_bar = model.mu_bar
    rates: dict[tuple[str, str], float] = {}
    loss = dict.fromkeys(model.good_names, 0.0)
    empty_prob = 0.0
    for order, weight in weighted_orders:
        if not order:
            empty_prob += weight
        for j, g in enumerate(model.good_names):
            pos = _first_compatible(order, model.agents_of_good[j])
            if pos is None:
                loss[g] += weight
            else:
                key = (g, model.agent_names[order[pos]])
                rates[key] = rates.get(key, 0.0) + weight
    for key in rates:
        rates[key] *= mu[model.good_index[key[0]]] / mu_bar
    for g in loss:
        loss[g] *= mu[model.good_index[g]] / mu_bar
    return empty_prob, rates, loss


WALK_SUMS = ("rate_raw", "de", "de2", "dv", "we", "we2", "wv")


def walk_sums(model):
    """(B, {name: flat (good j * I + agent i) list} for WALK_SUMS, {order: probability}).

    Each term credits its weight to the first type compatible with each good,
    times the stage sums from that match position to the end of the order.
    """
    n = model.n_agent_types
    total = model.total_rate
    terms = []
    enumerate_terms(model, terms.append)
    parts = {key: [[] for _ in range(model.n_good_types * n)] for key in WALK_SUMS}
    for term in terms:
        idx = [model.agent_index[a] for a in term.order]
        thetas = [m - l for l, m in zip(term.prefix_lambda, term.prefix_mu)]
        for j, compatible in enumerate(model.agents_of_good):
            pos = next((l for l, i in enumerate(idx) if compatible >> i & 1), None)
            if pos is None:
                continue
            stages = thetas[pos:]
            ae = math.fsum(total / th for th in stages)
            av = math.fsum((1.0 - th / total) / (th / total) ** 2 for th in stages)
            wme = math.fsum(1.0 / th for th in stages)
            wmv = math.fsum(1.0 / (th * th) for th in stages)
            x = term.weight
            values = (x, x * ae, x * ae * ae, x * av, x * wme, x * wme * wme, x * wmv)
            for key, v in zip(WALK_SUMS, values):
                parts[key][j * n + idx[pos]].append(v)
    b = 1.0 / math.fsum([1.0] + [term.weight for term in terms])
    sums = {key: [math.fsum(v) for v in lists] for key, lists in parts.items()}
    return b, sums, {term.order: b * term.weight for term in terms}


def mixture_value(model, j, i, stage_factor):
    """Sum over ordered subsets of weight * product of per-stage factors from
    the match position onward, for matches of good j to agent i."""
    n = model.n_agent_types
    lam = model.agent_rates
    mu = model.good_rates
    good_masks = model.goods_of_agent
    agents_of_good = model.agents_of_good[j]
    parts = []

    def walk(used, lam_set, s_mask, mu_set, weight, matched, factor):
        for k in range(n):
            if used >> k & 1:
                continue
            nls = lam_set + lam[k]
            nmask = s_mask | good_masks[k]
            nmu = mu_set + sum(mu[jj] for jj in range(len(mu)) if (nmask & ~s_mask) >> jj & 1)
            theta = nmu - nls
            x = weight * lam[k] / theta
            now_matched = matched
            if not matched and agents_of_good >> k & 1:
                if k != i:
                    continue  # matched to another agent: no deeper term contributes
                now_matched = True
            nfactor = factor
            if now_matched:
                nfactor = factor * stage_factor(theta)
                parts.append(x * nfactor)
            walk(used | 1 << k, nls, nmask, nmu, x, now_matched, nfactor)

    walk(0, 0.0, 0, 0.0, 1.0, False, 1.0)
    return math.fsum(parts)


def stability_checks(model):
    """(stable, witness, crp, value, uncapped, rho witness) over every nonempty
    agent subset, by increasing cardinality then lexicographic; a witness is
    the first subset in that order to attain its extremum."""
    n = model.n_agent_types
    worst, worst_gap = None, -math.inf
    crp = True
    value, uncapped, rho_witness = math.inf, math.inf, ()
    for k in range(1, n + 1):
        for combo in itertools.combinations(range(n), k):
            names = tuple(model.agent_names[i] for i in combo)
            goods = [j for j, g in enumerate(model.good_names)
                     if any(model.is_edge(g, a) for a in names)]
            freq = rate = good_freq = good_rate = 0.0
            for i in combo:
                freq += model.alpha[i]
                rate += model.agent_rates[i]
            for j in goods:
                good_freq += model.beta[j]
                good_rate += model.good_rates[j]
            gap = rate - good_rate
            if gap >= 0.0 and gap > worst_gap:
                worst, worst_gap = names, gap
            ratio = good_freq / freq
            if ratio < value:
                value, rho_witness = ratio, names
            if k < n:
                crp = crp and freq < good_freq
                uncapped = min(uncapped, ratio)
    return worst is None, worst, crp, value, uncapped, rho_witness


def min_drain(model):
    """(theta, names): the smallest mu_{S(C)} - lambda_C over nonempty agent
    subsets and the first subset attaining it, by increasing cardinality then
    lexicographic."""
    n = model.n_agent_types
    best, names = math.inf, None
    for k in range(1, n + 1):
        for combo in itertools.combinations(range(n), k):
            subset = tuple(model.agent_names[i] for i in combo)
            goods = [j for j, g in enumerate(model.good_names)
                     if any(model.is_edge(g, a) for a in subset)]
            rate = good_rate = 0.0
            for i in combo:
                rate += model.agent_rates[i]
            for j in goods:
                good_rate += model.good_rates[j]
            if good_rate - rate < best:
                best, names = good_rate - rate, subset
    return best, names


def little_agent_counts(model):
    """Mean number E[N_a] of waiting agents of each type a, and the sum of
    B * W(T) over all agent sets T, from the subset table's b, w, f0 and theta.

    B * W(T) is the probability that the set of waiting types is exactly T, so
    the sets sum to 1. The orders whose prefix set passes T weigh B * W(T) *
    F0(T) in total, and while the prefix set is T the type-a agents behind it
    number Geom with mean lambda_a / theta(T); the first type-a agent adds one
    whenever a is in the final set. So

        E[N_a] = sum over T containing a of B * W(T) * (F0(T) * lambda_a / theta(T) + 1),

    which Little's law sets equal to lambda_a times the mean wait of type a.
    """
    table = model.subset_table
    b, w, f0, theta = table.b, table.w, table.f0, table.theta
    counts = {}
    for i, (a, lam) in enumerate(zip(model.agent_names, model.agent_rates)):
        counts[a] = math.fsum(b * w[t] * (f0[t] * lam / theta[t] + 1.0)
                              for t in range(len(w)) if t >> i & 1)
    return counts, math.fsum(b * x for x in w)


def _stage_means(model, i):
    """Per agent set T, the mean m_T = lambda_i / theta(T) of the Geom0 number of
    type-i agents behind the prefix set T, and 0 when i is not in T."""
    theta = model.subset_table.theta
    lam = model.agent_rates[i]
    return [lam / theta[t] if t >> i & 1 else 0.0 for t in range(len(theta))]


def little_agent_factorial_moments(model):
    """E[N_a (N_a - 1)] of the number N_a of waiting agents of each type a, from
    the subset table's b, f0 and theta alone.

    Given the first-appearance order, N_a is 0 when a is not in it, and else
    1 + S with S the sum over the prefix sets T containing a of independent
    Geom0 counts of mean m_T = lambda_a / theta(T). So N_a (N_a - 1) = 2 S +
    S (S - 1), and a Geom0 count X of mean m has E[X (X - 1)] = 2 m^2. With
    c_k = lambda_k / theta(T+k) and m_T = 0 when a is not in T, the backward
    pass

        G1(T) = m_T F0(T) + sum_k c_k G1(T+k),
        G2(T) = 2 m_T^2 F0(T) + 2 m_T sum_k c_k G1(T+k) + sum_k c_k G2(T+k)

    sums weight * E[S] and weight * E[S (S - 1)] over the continuations of T,
    as d1 and d2 sum the delay moments. B (2 G1 + G2) at the empty set is
    E[N_a (N_a - 1)], which Little's law in distribution sets equal to
    lambda_a^2 E[W_a^2].
    """
    table = model.subset_table
    theta, f0 = table.theta, table.f0
    bits = [(1 << k, lam_k) for k, lam_k in enumerate(model.agent_rates)]
    moments = {}
    for i, a in enumerate(model.agent_names):
        m = _stage_means(model, i)
        g1, g2 = [0.0] * len(theta), [0.0] * len(theta)
        for t in range(len(theta) - 1, -1, -1):
            s1 = s2 = 0.0
            for bit, lam_k in bits:
                if not t & bit:
                    c = lam_k / theta[t | bit]
                    s1 += c * g1[t | bit]
                    s2 += c * g2[t | bit]
            g1[t] = m[t] * f0[t] + s1
            g2[t] = 2.0 * m[t] * m[t] * f0[t] + 2.0 * m[t] * s1 + s2
        moments[a] = table.b * (2.0 * g1[0] + g2[0])
    return moments


def little_agent_pgf(model, a, z):
    """E[z^N_a] of the number N_a of waiting agents of type a, for z in [0, 1],
    from the subset table's b and theta alone.

    Given the order, z^N_a is 1 when a is not in it, and else z times the
    product over the prefix sets T containing a of the Geom0 generating
    function phi_T = 1 / (1 + m_T (1 - z)), m_T = lambda_a / theta(T). So

        H(T) = phi_T (1 + sum_k c_k z^[k = a] H(T+k)),

    phi_T = 1 when a is not in T, sums weight * E[z^N_a] over the
    continuations of T, and B H(empty set) is E[z^N_a]; Little's law in
    distribution sets it equal to E[exp(-lambda_a (1 - z) W_a)].
    """
    theta = model.subset_table.theta
    i = model.agent_index[a]
    m = _stage_means(model, i)
    bits = [(1 << k, lam_k) for k, lam_k in enumerate(model.agent_rates)]
    h = [0.0] * len(theta)
    for t in range(len(theta) - 1, -1, -1):
        acc = 1.0
        for bit, lam_k in bits:
            if not t & bit:
                acc += lam_k / theta[t | bit] * (z if bit == 1 << i else 1.0) * h[t | bit]
        h[t] = acc / (1.0 + m[t] * (1.0 - z))
    return model.subset_table.b * h[0]


def ratio_estimate(num, den):
    """Batch-means ratio estimate of one (batches,) row, one row at a time:
    the row's total over den's total, and the standard deviation of the
    per-batch ratios of the batches with den > 0 over the root of their count.
    Returns (value, stderr): (nan, inf) when den totals 0, and an infinite
    stderr below 2 such batches."""
    total = den.sum()
    if total <= 0:
        return math.nan, math.inf
    value = float(num.sum() / total)
    valid = den > 0
    if valid.sum() < 2:
        return value, math.inf
    ests = num[valid] / den[valid]
    return value, float(ests.std(ddof=1) / math.sqrt(int(valid.sum())))


def variance_estimate(sums, sqs, m):
    """Batch-means delay variance of one (batches,) row of m matches whose
    delays total sums and squares total sqs: the mean square less the squared
    mean, and the standard deviation of the per-batch variances of the batches
    with m > 1 over the root of their count. Returns (value, stderr) as
    ratio_estimate does."""
    total_m = m.sum()
    if total_m <= 0:
        return math.nan, math.inf
    mean = sums.sum() / total_m
    value = float(sqs.sum() / total_m - mean * mean)
    valid = m > 1
    if valid.sum() < 2:
        return value, math.inf
    bm = sums[valid] / m[valid]
    bv = sqs[valid] / m[valid] - bm * bm
    return value, float(bv.std(ddof=1) / math.sqrt(int(valid.sum())))


def with_flexible_type(model, name, alpha=None):
    """The model with agent type name compatible with every good. A type of the
    model gains the goods it lacks; a new name joins with frequency alpha, and
    the other agent frequencies are scaled by 1 - alpha. lambda_bar and mu_bar
    are kept."""
    agents = model.agent_types
    if name not in model.agent_index:
        agents = tuple((a, f * (1.0 - alpha)) for a, f in agents) + ((name, alpha),)
    edges = model.edges | {(g, name) for g in model.good_names}
    return MatchingModel(agents, model.good_types, edges, model.lambda_bar, model.mu_bar)


def joined(first, second):
    """One disconnected model of two: the types of first, each name prefixed
    with "x", then those of second, prefixed with "y". Every arrival rate is
    kept, so lambda_bar and mu_bar are the sums of the two models'."""
    lam, mu = first.lambda_bar + second.lambda_bar, first.mu_bar + second.mu_bar
    parts = ((first, "x"), (second, "y"))
    return MatchingModel(
        [(t + a, r / lam) for m, t in parts for a, r in zip(m.agent_names, m.agent_rates)],
        [(t + g, r / mu) for m, t in parts for g, r in zip(m.good_names, m.good_rates)],
        [(t + g, t + a) for m, t in parts for g, a in m.edges],
        lam, mu)


def split_type(model, name, share):
    """The model with the agent or good type name split into name + "x" and
    name + "y", of frequencies share and 1 - share of its own, in its place in
    the declared order, each with all of its edges. lambda_bar and mu_bar are
    kept."""
    def names(n):
        return (n + "x", n + "y") if n == name else (n,)

    def split(types):
        return [(m, f * part) for n, f in types
                for m, part in zip(names(n), (share, 1.0 - share) if n == name else (1.0,))]

    edges = [(h, b) for g, a in model.edges for h in names(g) for b in names(a)]
    return MatchingModel(split(model.agent_types), split(model.good_types), edges,
                         model.lambda_bar, model.mu_bar)


def bench_model(label):
    """The model bench/workloads.py generates for label: I = J = 8, Dirichlet(2)
    frequencies, edge density 0.4, rho = 0.8 rho*. verify-wide's label is
    "verify-wide", and the analytic-wide models are "analytic-wide/s/k"."""
    import importlib.util
    import sys
    from pathlib import Path

    name = "bench_workloads"
    if name not in sys.modules:
        path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # its dataclasses look the module up by name
        spec.loader.exec_module(module)
    return MatchingModel.from_json_dict(sys.modules[name].random_model(label))
