from __future__ import annotations

import math

import numpy as np
import pytest

from fcfs_match import (
    MatchingModel,
    TooManyTypes,
    UnstableModel,
    analytic_pi_y,
    check_crp,
    check_stability,
    delay_moments,
    delay_pgf,
    enumerate_terms,
    matching_rates,
    max_stable_rho,
    min_stage_rate,
    normalizing_constant,
    pi_y_perm,
    validate,
    wait_mgf,
    wait_moments,
)
from fcfs_match.analytic import _orders_above, _subset_table, _table_core
from fcfs_match.errors import DomainError, DuplicateType, UnknownIdentifier

from conftest import make_example3x3, make_single_pair, random_stable_model
from oracles import (bench_model, mixture_value, walk_sums, with_flexible_type, x_chain_rates,
                     y_chain_rates)

# Published rate table of the 3x3 example (3-decimal rounding).
EXPECTED_RATES_3X3 = {
    ("s1", "c1"): 0.090,
    ("s1", "c2"): 0.139,
    ("s2", "c1"): 0.120,
    ("s2", "c3"): 0.067,
    ("s3", "c2"): 0.211,
    ("s3", "c3"): 0.073,
}
EXPECTED_LOSS_3X3 = {"s1": 0.071, "s2": 0.113, "s3": 0.116}


def _count_terms(model) -> int:
    return enumerate_terms(model, lambda term: None)


def test_term_counts(single_pair, example3x3):
    assert _count_terms(single_pair) == 1
    assert _count_terms(example3x3) == 15


def test_term_count_seven_types():
    agents = tuple((f"c{i}", 1.0 / 7) for i in range(7))
    goods = (("s", 1.0),)
    edges = frozenset(("s", f"c{i}") for i in range(7))
    model = validate(MatchingModel(agents, goods, edges, 0.5, 1.0))
    assert _count_terms(model) == 13699  # sum over k of 7!/(7-k)! minus the empty term


def test_term_count_ten_types():
    agents = tuple((f"c{i}", 0.1) for i in range(10))
    goods = (("s", 1.0),)
    edges = frozenset(("s", f"c{i}") for i in range(10))
    model = validate(MatchingModel(agents, goods, edges, 0.5, 1.0))
    assert _count_terms(model) == 9_864_100


def test_eleven_types_exceed_the_walk_cap():
    agents = tuple((f"c{i}", 1.0 / 11) for i in range(11))
    edges = frozenset(("s", f"c{i}") for i in range(11))
    model = validate(MatchingModel(agents, (("s", 1.0),), edges, 0.5, 1.0))

    def refuse(term):  # a walk that started would stop here, not run for hours
        raise AssertionError("the walk visited a term")

    with pytest.raises(TooManyTypes):
        enumerate_terms(model, refuse)
    with pytest.raises(TooManyTypes):
        analytic_pi_y(model)


def test_too_many_types_cap():
    agents = tuple((f"c{i}", 1.0 / 13) for i in range(13))
    goods = (("s", 1.0),)
    edges = frozenset(("s", f"c{i}") for i in range(13))
    model = validate(MatchingModel(agents, goods, edges, 0.1, 1.0))
    # the e * I! walks stay capped
    with pytest.raises(TooManyTypes):
        _count_terms(model)
    with pytest.raises(TooManyTypes):
        analytic_pi_y(model)
    # the subset table is not: fully compatible, so every pair's delay is
    # Geom((mu_bar - lambda_bar) / (lambda_bar + mu_bar)) and the model is M/M/1
    rho, lam, mu = model.rho, model.lambda_bar, model.mu_bar
    report = matching_rates(model)
    assert report.b == pytest.approx(1.0 - rho, rel=1e-12)
    for i in range(13):
        assert report.rates[("s", f"c{i}")] == pytest.approx(rho / 13, rel=1e-12)
    moments = delay_moments(model)
    assert moments.pair_mean[("s", "c0")] == pytest.approx((lam + mu) / (mu - lam), rel=1e-12)
    # and every wait is Exp(mu_bar - lambda_bar), the M/M/1 sojourn time, for
    # a pair and for an agent type alike
    waits = wait_moments(model)
    for mean, var, key in ((waits.pair_mean, waits.pair_var, ("s", "c0")),
                           (waits.agent_mean, waits.agent_var, "c12")):
        assert mean[key] == pytest.approx(1.0 / (mu - lam), rel=1e-12)
        assert var[key] == pytest.approx(1.0 / (mu - lam) ** 2, rel=1e-12)


def test_subset_table_memory_bound():
    # 2^30 sets would need hundreds of GiB: the table and the stability checks,
    # which share the per-set sums, refuse before any 2^I list is allocated
    agents = tuple((f"c{i}", 1.0 / 30) for i in range(30))
    edges = frozenset(("s", f"c{i}") for i in range(30))
    model = validate(MatchingModel(agents, (("s", 1.0),), edges, 0.1, 1.0))
    for compute in (matching_rates, check_stability, check_crp, max_stable_rho):
        with pytest.raises(TooManyTypes, match="GiB"):
            compute(model)


def test_unstable_model_rejected():
    model = make_example3x3(lambda_bar=1.1)
    with pytest.raises(UnstableModel):
        matching_rates(model)
    with pytest.raises(UnstableModel):
        _count_terms(model)


def test_term_invariants(example3x3):
    def check(term):
        assert len(term.order) == len(set(term.order))
        assert all(b > a for a, b in zip(term.prefix_lambda, term.prefix_lambda[1:]))
        assert all(b >= a for a, b in zip(term.prefix_mu, term.prefix_mu[1:]))
        assert all(m > l for l, m in zip(term.prefix_lambda, term.prefix_mu))
        assert term.weight > 0

    enumerate_terms(example3x3, check)


def test_visitation_order_is_depth_first_in_declared_order(example3x3):
    orders = []
    enumerate_terms(example3x3, lambda t: orders.append(t.order))
    assert orders[0] == ("c1",)
    assert orders[1] == ("c1", "c2")
    assert orders[2] == ("c1", "c2", "c3")
    assert orders[3] == ("c1", "c3")
    assert orders[-1] == ("c3", "c2", "c1")


def test_normalizing_constant_single_pair_closed_form():
    assert normalizing_constant(make_single_pair(0.5, 1.0)) == pytest.approx(0.5, abs=1e-12)
    assert normalizing_constant(make_single_pair(0.9, 1.0)) == pytest.approx(0.1, abs=1e-12)


def test_pi_y_perm_examples(example3x3, single_pair):
    assert pi_y_perm(single_pair, ("c",)) == pytest.approx(0.5, abs=1e-12)
    b = normalizing_constant(example3x3)
    assert pi_y_perm(example3x3, ("c1",)) == pytest.approx(b * 0.21 / (0.6 - 0.21), rel=1e-12)
    with pytest.raises(DomainError):
        pi_y_perm(example3x3, ())
    with pytest.raises(DuplicateType):
        pi_y_perm(example3x3, ("c1", "c1"))
    with pytest.raises(UnknownIdentifier):
        pi_y_perm(example3x3, ("c9",))


def test_pi_y_perm_normalization():
    rng = np.random.default_rng(23)
    for _ in range(5):
        model = random_stable_model(rng, max_agents=4, max_goods=4)
        total = normalizing_constant(model)
        acc = [total]
        enumerate_terms(model, lambda t: acc.append(total * t.weight))
        assert math.fsum(acc) == pytest.approx(1.0, abs=1e-12)


def test_matching_rates_match_published_table(example3x3):
    report = matching_rates(example3x3)
    for pair, expected in EXPECTED_RATES_3X3.items():
        assert report.rates[pair] == pytest.approx(expected, abs=5e-4)
    for good, expected in EXPECTED_LOSS_3X3.items():
        assert report.loss[good] == pytest.approx(expected, abs=5e-4)


def test_matching_rates_single_pair():
    report = matching_rates(make_single_pair(0.5, 1.0))
    assert report.rates[("s", "c")] == pytest.approx(0.5, abs=1e-12)
    assert report.loss["s"] == pytest.approx(0.5, abs=1e-12)


def test_rate_identities_random_models():
    rng = np.random.default_rng(5)
    for _ in range(20):
        model = random_stable_model(rng)
        report = matching_rates(model)
        total = math.fsum(report.rates.values()) + math.fsum(report.loss.values())
        assert total == pytest.approx(1.0, abs=1e-9)
        expected_loss = (model.mu_bar - model.lambda_bar) / model.mu_bar
        assert math.fsum(report.loss.values()) == pytest.approx(expected_loss, abs=1e-9)
        for i, a in enumerate(model.agent_names):
            through = report.agent_throughput(a)
            assert through == pytest.approx(
                model.agent_rates[i] / model.mu_bar, abs=1e-9
            )
        for dist in report.eta.values():
            assert math.fsum(dist.values()) == pytest.approx(1.0, abs=1e-9)
        for dist in report.theta.values():
            assert math.fsum(dist.values()) == pytest.approx(1.0, abs=1e-9)


def _flat(model, table, k):
    """Entry k of table.edges (1 raw, 2 de, 3 de2) as a flat (good j * I +
    agent i) list, zero at non-edges, the layout of the walk oracle's sums."""
    return [table.edges[(g, a)][k] if model.is_edge(g, a) else 0.0
            for g in model.good_names for a in model.agent_names]


def test_rate_pass_deterministic(example3x3):
    first = _subset_table(example3x3)
    second = _subset_table(example3x3)
    assert first.b == second.b
    assert _flat(example3x3, first, 1) == _flat(example3x3, second, 1)
    assert _flat(example3x3, first, 2) == _flat(example3x3, second, 2)
    assert _flat(example3x3, first, 3) == _flat(example3x3, second, 3)


def test_subset_table_matches_walk_oracle():
    rng = np.random.default_rng(41)
    for _ in range(10):
        model = random_stable_model(rng, max_agents=7, max_goods=7)
        table = _subset_table(model)
        b, sums, orders = walk_sums(model)
        assert table.b == pytest.approx(b, rel=1e-12)
        # the table keeps no wait sums, and its de2 is the full second moment
        # E[D^2] = Var + (sum of stage means)^2; the wait sums follow from it
        total = model.total_rate
        rate_raw, de, de2 = (_flat(model, table, k) for k in (1, 2, 3))
        checks = {
            "rate_raw": (rate_raw, sums["rate_raw"]),
            "de": (de, sums["de"]),
            "de2": (de2, [e2 + v for e2, v in zip(sums["de2"], sums["dv"])]),
            "we": ([e / total for e in de], sums["we"]),
            "we2+wv": ([(e2 + e) / total ** 2 for e2, e in zip(de2, de)],
                       [e2 + v for e2, v in zip(sums["we2"], sums["wv"])]),
        }
        for key, (got, expected) in checks.items():
            assert got == pytest.approx(expected, rel=1e-12, abs=0.0), key

        n = model.n_agent_types
        limit = min_stage_rate(model)
        for g, a in sorted(model.edges):
            j, i = model.good_index[g], model.agent_index[a]
            raw = sums["rate_raw"][j * n + i]
            for z in (0.3, 0.8):
                p_factor = lambda th, z=z: z * (th / model.total_rate) / (
                    1.0 - z * (1.0 - th / model.total_rate))
                expected = mixture_value(model, j, i, p_factor) / raw
                assert delay_pgf(model, (g, a), z) == pytest.approx(expected, rel=1e-12)
            for s in (0.25 * limit, 0.5 * limit):
                expected = mixture_value(model, j, i, lambda th, s=s: th / (th - s)) / raw
                assert wait_mgf(model, (g, a), s) == pytest.approx(expected, rel=1e-12)

        assert analytic_pi_y(model) == pytest.approx({(): b, **orders}, rel=1e-12)
        for threshold in (1e-4, 1e-2):
            kept = _orders_above(model, threshold)
            expected = {o: p for o, p in orders.items() if p > threshold}
            assert kept == pytest.approx(expected, rel=1e-12)


def _flexible_paper_model():
    """paper-3x3 with a type f compatible with every good and of frequency 0.2
    added, the other frequencies scaled by 0.8, at 0.9 rho*."""
    model = with_flexible_type(make_example3x3(), "f", 0.2)
    return model.with_lambda_bar(0.9 * max_stable_rho(model).value * model.mu_bar)


def _complex_theta(model, mu):
    """theta(S) = mu_{S(S)} - lambda_S for every agent set S, from the good
    rates mu, which may be complex."""
    n = model.n_agent_types
    theta = []
    for s in range(1 << n):
        agents = [i for i in range(n) if s >> i & 1]
        goods = {j for j, mask in enumerate(model.agents_of_good) for i in agents if mask >> i & 1}
        theta.append(sum(mu[j] for j in goods) - sum(model.agent_rates[i] for i in agents))
    return theta


def test_table_core_runs_on_complex_numbers():
    # a complex number has no order, so any comparison in the core would raise
    # TypeError; with zero imaginary parts the core gives the table's values
    for model in (make_example3x3(), _flexible_paper_model(), bench_model("verify-wide")):
        table = model.subset_table
        b, w, f0, sums = _table_core([complex(x) for x in model.agent_rates],
                                     [complex(x) for x in table.theta],
                                     complex(model.total_rate), model.agents_of_good)
        got = [b, *w, *f0]
        expected = [table.b, *table.w, *table.f0]
        for (g, a), (_, *entry) in table.edges.items():
            j, i = model.good_index[g], model.agent_index[a]
            got += [column[i] for column in sums[j]]
            expected += entry
        assert not any(x.imag for x in got)
        assert [x.real for x in got] == pytest.approx(expected, rel=1e-15, abs=0)


def test_complex_step_derivative_of_flexible_delay():
    # E[D] = Lambda / (mu_bar - lambda_bar) for a type compatible with every
    # good, so dE[D]/dmu_j = -2 lambda_bar / (mu_bar - lambda_bar)^2 for every
    # good j; the complex step mu_j + i h gives it as Im E[D] / h, exact to rounding
    h = 1e-30
    random_model = with_flexible_type(bench_model("analytic-wide/1/0"), "c1")
    for model, a in ((_flexible_paper_model(), "f"), (random_model, "c1")):
        i = model.agent_index[a]
        lam_bar, mu_bar = model.lambda_bar, model.mu_bar
        slope = -2 * lam_bar / (mu_bar - lam_bar) ** 2
        for j in range(model.n_good_types):
            mu = [complex(x) for x in model.good_rates]
            mu[j] += h * 1j
            _, _, _, sums = _table_core(list(model.agent_rates), _complex_theta(model, mu),
                                        lam_bar + sum(mu), model.agents_of_good)
            assert [(de[i] / raw[i]).imag / h for raw, de, _ in sums] == pytest.approx(
                [slope] * model.n_good_types, rel=1e-12, abs=0), (model, j)


def test_scale_invariance(example3x3):
    report = matching_rates(example3x3)
    scaled = matching_rates(
        MatchingModel(
            example3x3.agent_types,
            example3x3.good_types,
            example3x3.edges,
            example3x3.lambda_bar * 37.0,
            example3x3.mu_bar * 37.0,
        )
    )
    assert scaled.b == pytest.approx(report.b, rel=1e-12)
    for pair, v in report.rates.items():
        assert scaled.rates[pair] == pytest.approx(v, rel=1e-12)
    for g, v in report.loss.items():
        assert scaled.loss[g] == pytest.approx(v, rel=1e-12)
    for g in report.eta:
        for key, v in report.eta[g].items():
            assert scaled.eta[g][key] == pytest.approx(v, rel=1e-12)


def test_rates_against_truncated_balance_oracle():
    # three agent types at moderate load: gap-capped balance equations are
    # exact to far below the 1e-6 comparison tolerance
    model = make_example3x3(lambda_bar=0.4)
    report = matching_rates(model)
    b_oracle, rates_oracle, loss_oracle = y_chain_rates(model, cap=30)
    assert report.b == pytest.approx(b_oracle, abs=1e-6)
    for pair, v in report.rates.items():
        assert rates_oracle[pair] == pytest.approx(v, abs=1e-6)
    for g, v in report.loss.items():
        assert loss_oracle[g] == pytest.approx(v, abs=1e-6)


def test_oracles_agree_with_each_other():
    # the mechanical waiting-sequence chain validates the gap-chain kernel
    model = validate(
        MatchingModel(
            agent_types=(("c1", 0.6), ("c2", 0.4)),
            good_types=(("s1", 0.5), ("s2", 0.5)),
            edges=frozenset({("s1", "c1"), ("s1", "c2"), ("s2", "c2")}),
            lambda_bar=0.3,
            mu_bar=1.0,
        )
    )
    b_y, rates_y, loss_y = y_chain_rates(model, cap=25)
    b_x, rates_x, loss_x = x_chain_rates(model, max_len=14)
    assert b_y == pytest.approx(b_x, abs=1e-5)
    for pair in rates_y:
        assert rates_y[pair] == pytest.approx(rates_x[pair], abs=1e-5)
    for g in loss_y:
        assert loss_y[g] == pytest.approx(loss_x[g], abs=1e-5)
