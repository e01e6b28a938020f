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

One brute-force pass over agent subsets checks model.py's per-mask sums:

* stability_checks: check_stability, check_crp and max_stable_rho, each subset
  drawn from itertools.combinations and its neighborhood read off the edges.

* min_drain: the smallest drain rate mu_{S(C)} - lambda_C and the first set
  attaining it, in the same order, for validate's min_drain_* keys.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import scipy.sparse as sp

from fcfs_match import enumerate_terms


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
