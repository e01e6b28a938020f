from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from fcfs_match import (
    DomainError,
    UnstableModel,
    ZeroRate,
    delay_moments,
    delay_pgf,
    geometric_stage,
    matching_rates,
    max_stable_rho,
    min_stage_rate,
    wait_mgf,
    wait_moments,
)
from fcfs_match.errors import DuplicateType, UnknownIdentifier
from fcfs_match.simulator import _event_codes, run

from conftest import make_example3x3, make_single_pair, random_stable_model
from oracles import (
    bench_model,
    joined,
    little_agent_counts,
    little_agent_factorial_moments,
    little_agent_pgf,
    min_drain,
    split_type,
    with_flexible_type,
)

# Published delay/wait tables of the 3x3 example at rho = 0.7, 2-decimal.
# Two cells of the published pair table are internally inconsistent with the
# published agent-level lists (which are mixtures of the pair values) and with
# the published wait list; the mixture identity pins them to the values used
# here: mean(s2,c3) = 6.31 (not 6.38) and sd(s1,c2) = 6.31 (printed 6.30).
EXPECTED_DELAY_MEAN = {
    ("s1", "c1"): 7.63,
    ("s1", "c2"): 7.64,
    ("s2", "c1"): 7.14,
    ("s2", "c3"): 6.31,
    ("s3", "c2"): 7.40,
    ("s3", "c3"): 6.45,
}
EXPECTED_DELAY_SD = {
    ("s1", "c1"): 6.14,
    ("s1", "c2"): 6.31,
    ("s2", "c1"): 5.97,
    ("s2", "c3"): 5.41,
    ("s3", "c2"): 6.21,
    ("s3", "c3"): 5.46,
}
EXPECTED_AGENT_DELAY_MEAN = {"c1": 7.35, "c2": 7.50, "c3": 6.38}
EXPECTED_AGENT_DELAY_SD = {"c1": 6.05, "c2": 6.25, "c3": 5.44}
EXPECTED_AGENT_WAIT_MEAN = {"c1": 4.33, "c2": 4.41, "c3": 3.75}
EXPECTED_AGENT_WAIT_SD = {"c1": 3.90, "c2": 4.01, "c3": 3.53}


def test_geometric_stage_examples(example3x3, single_pair):
    assert geometric_stage(single_pair, ("c",)).p == pytest.approx(1 / 3, rel=1e-12)
    assert geometric_stage(example3x3, ("c1",)).p == pytest.approx((0.6 - 0.21) / 1.7, rel=1e-12)
    assert geometric_stage(example3x3, ("c1", "c2", "c3")).p == pytest.approx(0.3 / 1.7, rel=1e-12)


def test_geometric_stage_errors(example3x3):
    with pytest.raises(UnstableModel):
        geometric_stage(make_example3x3(lambda_bar=1.2), ("c1", "c2", "c3"))
    with pytest.raises(DomainError):
        geometric_stage(example3x3, ())
    with pytest.raises(DuplicateType):
        geometric_stage(example3x3, ("c1", "c1"))
    with pytest.raises(UnknownIdentifier):
        geometric_stage(example3x3, ("zz",))


def test_stage_moments():
    stage = geometric_stage(make_single_pair(0.5, 1.0), ("c",))
    assert stage.mean == pytest.approx(3.0, rel=1e-12)
    assert stage.variance == pytest.approx(6.0, rel=1e-12)


def test_delay_table_published(example3x3):
    report = delay_moments(example3x3)
    for pair, expected in EXPECTED_DELAY_MEAN.items():
        assert report.pair_mean[pair] == pytest.approx(expected, abs=5e-3)
    for pair, expected in EXPECTED_DELAY_SD.items():
        assert math.sqrt(report.pair_var[pair]) == pytest.approx(expected, abs=5e-3)
    for agent, expected in EXPECTED_AGENT_DELAY_MEAN.items():
        assert report.agent_mean[agent] == pytest.approx(expected, abs=5e-3)
    for agent, expected in EXPECTED_AGENT_DELAY_SD.items():
        assert math.sqrt(report.agent_var[agent]) == pytest.approx(expected, abs=5e-3)


def test_wait_list_published(example3x3):
    report = wait_moments(example3x3)
    for agent, expected in EXPECTED_AGENT_WAIT_MEAN.items():
        assert report.agent_mean[agent] == pytest.approx(expected, abs=5e-3)
    for agent, expected in EXPECTED_AGENT_WAIT_SD.items():
        assert math.sqrt(report.agent_var[agent]) == pytest.approx(expected, abs=5e-3)


def test_single_pair_closed_forms():
    model = make_single_pair(0.5, 1.0)
    report = delay_moments(model)
    assert report.pair_mean[("s", "c")] == pytest.approx(3.0, rel=1e-12)
    assert report.pair_var[("s", "c")] == pytest.approx(6.0, rel=1e-12)
    waits = wait_moments(model)
    assert waits.pair_mean[("s", "c")] == pytest.approx(2.0, rel=1e-12)
    assert waits.pair_var[("s", "c")] == pytest.approx(4.0, rel=1e-12)
    # general single-pair forms: E(L) = (lam+mu)/(mu-lam), E(W) = 1/(mu-lam)
    other = make_single_pair(0.3, 1.1)
    rep = delay_moments(other)
    assert rep.pair_mean[("s", "c")] == pytest.approx(1.4 / 0.8, rel=1e-12)
    assert wait_moments(other).pair_mean[("s", "c")] == pytest.approx(1 / 0.8, rel=1e-12)


def test_wait_is_delay_over_total_rate(example3x3):
    report = delay_moments(example3x3)
    waits = wait_moments(example3x3)
    for pair, m in report.pair_mean.items():
        assert waits.pair_mean[pair] == pytest.approx(m / 1.7, abs=1e-9)


def test_agent_moments_are_theta_mixtures(example3x3):
    rates = matching_rates(example3x3)
    report = delay_moments(example3x3)
    for agent, dist in rates.theta.items():
        mixed = sum(w * report.pair_mean[(g, agent)] for g, w in dist.items())
        assert report.agent_mean[agent] == pytest.approx(mixed, abs=1e-9)
        second = sum(
            w * (report.pair_var[(g, agent)] + report.pair_mean[(g, agent)] ** 2)
            for g, w in dist.items()
        )
        assert report.agent_var[agent] == pytest.approx(second - mixed**2, abs=1e-9)


def _random_models_by_size():
    """One random model per agent-type count reached, up to 14."""
    rng = np.random.default_rng(53)
    sizes = {}
    while len(sizes) < 6 or 14 not in sizes:
        model = random_stable_model(rng, max_agents=14, max_goods=6, rho_cap=0.95)
        sizes.setdefault(model.n_agent_types, model)
    return sizes


def _little_models():
    example = make_example3x3()
    near_limit = make_example3x3(lambda_bar=0.999 * max_stable_rho(example).value)
    return [example, near_limit, bench_model("verify-wide"), make_single_pair(),
            *_random_models_by_size().values()]


def test_littles_law_agent_means():
    # E[N_a] from the occupancy of the waiting sets equals lambda_a E[W_a] from
    # the delay completions and first-match sums, which the oracle does not read
    for model in _little_models():
        counts, total = little_agent_counts(model)
        assert total == pytest.approx(1.0, rel=1e-12, abs=0)
        waits = wait_moments(model).agent_mean
        for a, lam in zip(model.agent_names, model.agent_rates):
            assert counts[a] == pytest.approx(lam * waits[a], rel=1e-12, abs=0), (model, a)


def test_littles_law_agent_second_moments():
    # E[N_a (N_a - 1)] from the occupancy of the waiting orders equals
    # lambda_a^2 E[W_a^2] from the delay completions, which the oracle does not read
    for model in _little_models():
        moments = little_agent_factorial_moments(model)
        waits = wait_moments(model)
        for a, lam in zip(model.agent_names, model.agent_rates):
            second = waits.agent_var[a] + waits.agent_mean[a] ** 2
            assert moments[a] == pytest.approx(lam * lam * second, rel=1e-12, abs=0), (model, a)
    rho = 0.5  # the M/M/1 queue: P(N >= n) = rho^n
    assert little_agent_factorial_moments(make_single_pair(rho, 1.0))["c"] == pytest.approx(
        2 * rho**2 / (1 - rho) ** 2, rel=1e-12, abs=0)


def test_littles_law_in_distribution():
    # E[z^N_a] from the occupancy of the waiting orders equals the agent wait's
    # transform at -lambda_a (1 - z), mixed over the goods a is matched to
    sizes = _random_models_by_size()
    for model in (make_example3x3(), bench_model("verify-wide"), sizes[11], sizes[12]):
        theta = matching_rates(model).theta
        for a, lam in zip(model.agent_names, model.agent_rates):
            for z in (0.0, 0.3, 0.9):
                s = -lam * (1.0 - z)
                mixed = math.fsum(th * wait_mgf(model, (g, a), s) for g, th in theta[a].items())
                assert little_agent_pgf(model, a, z) == pytest.approx(mixed, rel=1e-12, abs=0), (
                    model, a, z)


def test_littles_law_over_bench_models():
    # the three Little's law oracles over the 43 analytic-wide models of the
    # benchmark's generator: I = J = 8, Dirichlet(2) frequencies, edge density
    # 0.4, rho = 0.8 rho*
    for s in range(1, 44):
        label = f"analytic-wide/{s}/0"
        model = bench_model(label)
        counts, total = little_agent_counts(model)
        assert total == pytest.approx(1.0, rel=1e-12, abs=0), label
        moments = little_agent_factorial_moments(model)
        waits = wait_moments(model)
        theta = matching_rates(model).theta
        for a, lam in zip(model.agent_names, model.agent_rates):
            mean = waits.agent_mean[a]
            assert counts[a] == pytest.approx(lam * mean, rel=1e-12, abs=0), (label, a)
            second = waits.agent_var[a] + mean * mean
            assert moments[a] == pytest.approx(lam * lam * second, rel=1e-12, abs=0), (label, a)
            for z in (0.0, 0.3, 0.9):
                mixed = math.fsum(th * wait_mgf(model, (g, a), -lam * (1.0 - z))
                                  for g, th in theta[a].items())
                assert little_agent_pgf(model, a, z) == pytest.approx(mixed, rel=1e-12, abs=0), (
                    label, a, z)


def _flexible_models():
    """(model, flexible type): paper-3x3 with a type f of frequency 0.2 added at
    0.9 and 0.999 rho*, verify-wide with f added, and the random models up to
    I = 14 with their first type made flexible, each at 0.9 rho*."""
    def near(model, fraction):
        return model.with_lambda_bar(fraction * max_stable_rho(model).value * model.mu_bar)

    paper = with_flexible_type(make_example3x3(), "f", 0.2)
    found = [(near(paper, 0.9), "f"), (near(paper, 0.999), "f"),
             (near(with_flexible_type(bench_model("verify-wide"), "f", 0.2), 0.9), "f")]
    for model in _random_models_by_size().values():
        a = model.agent_names[0]
        found.append((near(with_flexible_type(model, a), 0.9), a))
    return found


def test_flexible_type_waits_like_pooled_mm1():
    # a type compatible with every good waits Exp(mu_bar - lambda_bar) at every
    # good, whatever the other types, so its delay is Geom(p) with
    # p = (mu_bar - lambda_bar) / Lambda
    for model, a in _flexible_models():
        r = model.mu_bar - model.lambda_bar
        p = r / model.total_rate
        delays, waits = delay_moments(model), wait_moments(model)
        limit = min_stage_rate(model)
        for g in model.good_names:
            pair = (g, a)
            got = (delays.pair_mean[pair], delays.pair_var[pair], waits.pair_mean[pair],
                   waits.pair_var[pair])
            assert got == pytest.approx((1 / p, (1 - p) / p**2, 1 / r, 1 / r**2),
                                        rel=1e-12, abs=0), (model, pair)
            for z in (0.2, 0.7):
                assert delay_pgf(model, pair, z) == pytest.approx(
                    z * p / (1 - z * (1 - p)), rel=1e-12, abs=0), (model, pair, z)
            for s in (-r, 0.5 * limit):
                assert wait_mgf(model, pair, s) == pytest.approx(r / (r - s), rel=1e-12, abs=0), (
                    model, pair, s)
        got = (delays.agent_mean[a], delays.agent_var[a], waits.agent_mean[a], waits.agent_var[a])
        assert got == pytest.approx((1 / p, (1 - p) / p**2, 1 / r, 1 / r**2),
                                    rel=1e-12, abs=0), (model, a)


def test_components_factor_exactly():
    # in a disconnected model each component keeps its waits, its rates scale
    # by its share mu_bar_c / mu_bar of the goods, and its delays count the
    # gaps of the whole model: E[D] = Lambda E[W], Var D = Lambda^2 Var W - E[D]
    rng = np.random.default_rng(61)
    pairs = [(make_example3x3(), bench_model("verify-wide"))]
    pairs += [(random_stable_model(rng, max_agents=6, max_goods=5),
               random_stable_model(rng, max_agents=6, max_goods=5)) for _ in range(8)]
    for first, second in pairs:
        full = joined(first, second)
        rate = full.total_rate
        rates, delays, waits = matching_rates(full), delay_moments(full), wait_moments(full)
        limit = min_stage_rate(full)
        for comp, t in ((first, "x"), (second, "y")):
            share = comp.mu_bar / full.mu_bar
            comp_rates, comp_waits = matching_rates(comp), wait_moments(comp)
            for (g, a), r in comp_rates.rates.items():
                pair, mean, var = (t + g, t + a), comp_waits.pair_mean[(g, a)], comp_waits.pair_var[(g, a)]
                got = (rates.rates[pair], waits.pair_mean[pair], waits.pair_var[pair],
                       delays.pair_mean[pair], delays.pair_var[pair])
                expected = (r * share, mean, var, rate * mean, rate * rate * var - rate * mean)
                assert got == pytest.approx(expected, rel=1e-12, abs=0), (full, pair)
                for s in (-limit, 0.5 * limit):
                    assert wait_mgf(full, pair, s) == pytest.approx(
                        wait_mgf(comp, (g, a), s), rel=1e-12, abs=0), (full, pair, s)
                for z in (0.2, 0.7):  # E[z^D] is E[exp(s W)] at s = Lambda (1 - 1/z)
                    assert delay_pgf(full, pair, z) == pytest.approx(
                        wait_mgf(comp, (g, a), rate * (1 - 1 / z)), rel=1e-12, abs=0), (full, pair, z)
            for a in comp.agent_names:
                assert (waits.agent_mean[t + a], waits.agent_var[t + a]) == pytest.approx(
                    (comp_waits.agent_mean[a], comp_waits.agent_var[a]), rel=1e-12, abs=0), (full, a)
            for g in comp.good_names:
                assert rates.loss[t + g] == pytest.approx(comp_rates.loss[g] * share,
                                                          rel=1e-12, abs=0), (full, g)


def test_lumped_halves_split_exactly():
    # FCFS never reads which of two types with the same neighbourhood an item
    # has, so splitting a type into halves of 0.3 and 0.7 of its frequency
    # splits its rates and losses in that ratio and leaves every law as it was
    share = 0.3
    sizes = _random_models_by_size()
    for model in (make_example3x3(), bench_model("verify-wide"), *sizes.values()):
        rates, delays, waits = matching_rates(model), delay_moments(model), wait_moments(model)
        s = 0.5 * min_stage_rate(model)
        for names in (model.agent_names, model.good_names):
            name = names[len(names) // 2]
            split = split_type(model, name, share)

            def halves(n):
                return [(n + "x", share), (n + "y", 1.0 - share)] if n == name else [(n, 1.0)]

            got_rates, got_delays, got_waits = (matching_rates(split), delay_moments(split),
                                                wait_moments(split))
            assert got_rates.b == pytest.approx(rates.b, rel=1e-12, abs=0), (model, name)
            for g, loss in rates.loss.items():
                for h, part in halves(g):
                    assert got_rates.loss[h] == pytest.approx(part * loss, rel=1e-12, abs=0), (
                        model, name, h)
            for (g, a), r in rates.rates.items():
                expected = (delays.pair_mean[g, a], delays.pair_var[g, a],
                            waits.pair_mean[g, a], waits.pair_var[g, a])
                for pair, part in [((h, b), p * q) for h, p in halves(g) for b, q in halves(a)]:
                    got = (got_delays.pair_mean[pair], got_delays.pair_var[pair],
                           got_waits.pair_mean[pair], got_waits.pair_var[pair])
                    assert got_rates.rates[pair] == pytest.approx(part * r, rel=1e-12, abs=0), (
                        model, pair)
                    assert got == pytest.approx(expected, rel=1e-12, abs=0), (model, pair)
                if a == name:  # the split agent's halves keep its transforms
                    transforms = (delay_pgf(model, (g, a), 0.7), wait_mgf(model, (g, a), s))
                    for b, _ in halves(a):
                        assert (delay_pgf(split, (g, b), 0.7), wait_mgf(split, (g, b), s)) == (
                            pytest.approx(transforms, rel=1e-12, abs=0)), (model, g, b)
            for a in model.agent_names:
                expected = (delays.agent_mean[a], delays.agent_var[a], waits.agent_mean[a],
                            waits.agent_var[a])
                for b, _ in halves(a):
                    got = (got_delays.agent_mean[b], got_delays.agent_var[b],
                           got_waits.agent_mean[b], got_waits.agent_var[b])
                    assert got == pytest.approx(expected, rel=1e-12, abs=0), (model, b)


def _merged(counts, keys, base_keys):
    """(batches, len(base_keys)) sums of the columns of counts, one per key of
    keys, onto the column of the base key each maps to."""
    out = np.zeros((len(counts), len(base_keys)), dtype=counts.dtype)
    for k, key in enumerate(keys):
        out[:, base_keys.index(key)] += counts[:, k]
    return out


def test_simulator_lumps_split_halves_exactly():
    # the halves sit next to each other in declared order, so their uniform
    # ranges tile the split type's: every event decodes to a half of the type
    # it had, the queues act the same, and the split run's counters, merged
    # back onto the base model's edges and goods, are bit-identical
    share, seed = 0.3, 1
    for model, n_events in ((make_example3x3(), 100_000), (bench_model("verify-wide"), 200_000)):
        base = run(model, n_events, seed)
        base_codes = list(itertools.chain.from_iterable(_event_codes(model, n_events, seed)))
        for names in (model.agent_names, model.good_names):
            name = names[len(names) // 2]
            split = split_type(model, name, share)

            def original(n):
                return name if n in (name + "x", name + "y") else n

            to_base = [model.agent_index[original(a)] for a in split.agent_names]
            to_base += [model.n_agent_types + model.good_index[original(g)] for g in split.good_names]
            codes = itertools.chain.from_iterable(_event_codes(split, n_events, seed))
            assert sum(to_base[c] != b for c, b in zip(codes, base_codes)) == 0, (model, name)

            stats = run(split, n_events, seed)
            edges = [(original(g), original(a)) for g, a in split.edge_list]
            goods = [original(g) for g in split.good_names]
            for field, keys, base_keys in (("match_counts", edges, model.edge_list),
                                           ("delay_sums", edges, model.edge_list),
                                           ("delay_sqs", edges, model.edge_list),
                                           ("loss_counts", goods, model.good_names)):
                assert np.array_equal(_merged(getattr(stats, field), keys, base_keys),
                                      getattr(base, field)), (model, name, field)
            assert np.array_equal(stats.events_counts, base.events_counts)
            assert (stats.total_agents, stats.final_unmatched) == (base.total_agents,
                                                                   base.final_unmatched)
            assert stats.occupancy[()] == base.occupancy[()], (model, name)


def test_moment_positivity_random_models():
    rng = np.random.default_rng(29)
    for _ in range(12):
        model = random_stable_model(rng, max_agents=4, max_goods=4)
        report = delay_moments(model)
        waits = wait_moments(model)
        for pair, m in report.pair_mean.items():
            assert m >= 1.0
            assert report.pair_var[pair] >= 0.0
            assert waits.pair_mean[pair] > 0.0
            assert waits.pair_var[pair] >= 0.0
        for a, m in report.agent_mean.items():
            assert m >= 1.0
            assert report.agent_var[a] >= 0.0


def test_pgf_normalization_and_derivative(example3x3):
    report = delay_moments(example3x3)
    h = 1e-6
    for pair in report.pair_mean:
        g1 = delay_pgf(example3x3, pair, 1.0)
        assert g1 == pytest.approx(1.0, abs=1e-12)
        slope = (g1 - delay_pgf(example3x3, pair, 1.0 - h)) / h
        assert slope == pytest.approx(report.pair_mean[pair], rel=1e-4)


def test_pgf_hand_value_single_pair():
    model = make_single_pair(0.5, 1.0)
    assert delay_pgf(model, ("s", "c"), 0.5) == pytest.approx(0.25, rel=1e-12)


def test_pgf_domain_and_zero_rate(example3x3):
    with pytest.raises(DomainError):
        delay_pgf(example3x3, ("s1", "c1"), 1.5)
    with pytest.raises(DomainError):
        delay_pgf(example3x3, ("s1", "c1"), -0.1)
    with pytest.raises(ZeroRate):
        delay_pgf(example3x3, ("s1", "c3"), 0.5)  # not an edge
    with pytest.raises(UnknownIdentifier):
        delay_pgf(example3x3, ("s1", "zz"), 0.5)


def test_mgf_normalization_and_derivative(example3x3):
    report = wait_moments(example3x3)
    h = 1e-8
    for pair in report.pair_mean:
        assert wait_mgf(example3x3, pair, 0.0) == pytest.approx(1.0, abs=1e-12)
        slope = (wait_mgf(example3x3, pair, h) - 1.0) / h
        assert slope == pytest.approx(report.pair_mean[pair], rel=1e-4)


def test_mgf_hand_value_single_pair():
    model = make_single_pair(0.5, 1.0)
    assert wait_mgf(model, ("s", "c"), 0.25) == pytest.approx(2.0, rel=1e-12)


def test_mgf_domain(example3x3):
    limit = min_stage_rate(example3x3)
    assert limit == pytest.approx(0.3, rel=1e-12)  # full-set drain rate 1 - 0.7
    with pytest.raises(DomainError):
        wait_mgf(example3x3, ("s1", "c1"), limit)
    with pytest.raises(DomainError):
        wait_mgf(example3x3, ("s1", "c1"), limit + 0.1)


def test_min_stage_rate_builds_no_table():
    model = make_example3x3(lambda_bar=0.55)
    assert min_stage_rate(model) == min_drain(model)[0]
    assert "subset_table" not in vars(model)
    with pytest.raises(UnstableModel):
        min_stage_rate(make_example3x3(lambda_bar=1.0))


def test_pgf_second_factorial_moment(example3x3):
    # G''(1) = E[L(L-1)]: check variance consistency by central differences
    report = delay_moments(example3x3)
    pair = ("s3", "c2")
    h = 1e-5
    g = lambda z: delay_pgf(example3x3, pair, z)
    second = (g(1.0) - 2.0 * g(1.0 - h) + g(1.0 - 2 * h)) / (h * h)
    mean = report.pair_mean[pair]
    var = report.pair_var[pair]
    assert second == pytest.approx(var + mean**2 - mean, rel=1e-3)
