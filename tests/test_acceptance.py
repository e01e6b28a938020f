"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they pass.
"""

from __future__ import annotations

import math
import time

import numpy as np

from fcfs_match import (
    MatchingModel,
    delay_moments,
    delay_pgf,
    light_traffic_rates,
    matching_rates,
    max_stable_rho,
    normalizing_constant,
    sweep,
    validate,
    wait_mgf,
    wait_moments,
)
from fcfs_match.simulator import compare_with_analytic, run

from conftest import make_example3x3, make_single_pair, random_stable_model
from oracles import y_chain_rates
from reference_dynamics import (
    DetailedTracker,
    is_admissible,
    item_from_uniforms,
    verify_reversibility,
)


def _criterion(number: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[ACCEPTANCE {number:2d}] {status}: {description}{suffix}")
    assert ok, f"criterion {number} failed: {description}{suffix}"


# Published 3x3 tables at rho = 0.7. Two pair-level delay cells of the source
# tables contradict the published agent-level lists (which are theta-mixtures
# of the pair values) and the published wait list; the mixture identity pins
# the consistent values asserted here: mean(s2,c3) = 6.308 (table prints 6.38,
# but then E(L_c3) would be 6.42, not the published 6.38) and sd(s1,c2) =
# 6.3054 (table prints 6.30, consistent with rounding the variance before the
# square root).
RATE_TABLE = {
    ("s1", "c1"): 0.090, ("s1", "c2"): 0.139,
    ("s2", "c1"): 0.120, ("s2", "c3"): 0.067,
    ("s3", "c2"): 0.211, ("s3", "c3"): 0.073,
}
LOSS_TABLE = {"s1": 0.071, "s2": 0.113, "s3": 0.116}
DELAY_MEAN_TABLE = {
    ("s1", "c1"): 7.63, ("s1", "c2"): 7.64,
    ("s2", "c1"): 7.14, ("s2", "c3"): 6.308,
    ("s3", "c2"): 7.40, ("s3", "c3"): 6.45,
}
DELAY_SD_TABLE = {
    ("s1", "c1"): 6.14, ("s1", "c2"): 6.3054,
    ("s2", "c1"): 5.97, ("s2", "c3"): 5.41,
    ("s3", "c2"): 6.21, ("s3", "c3"): 5.46,
}
AGENT_DELAY_MEANS = {"c1": 7.35, "c2": 7.50, "c3": 6.38}
AGENT_WAIT_MEANS = {"c1": 4.33, "c2": 4.41, "c3": 3.75}


def test_criterion_01_rate_table(example3x3):
    start = time.perf_counter()
    report = matching_rates(example3x3)
    elapsed = time.perf_counter() - start
    ok = all(abs(report.rates[p] - v) <= 5e-4 for p, v in RATE_TABLE.items())
    ok &= all(abs(report.loss[g] - v) <= 5e-4 for g, v in LOSS_TABLE.items())
    ok &= elapsed < 1.0
    _criterion(1, "published 3x3 rate and loss table to +-0.0005", ok, f"{elapsed*1e3:.0f} ms")


def test_criterion_02_delay_tables(example3x3):
    report = delay_moments(example3x3)
    ok = all(abs(report.pair_mean[p] - v) <= 5e-3 for p, v in DELAY_MEAN_TABLE.items())
    ok &= all(
        abs(math.sqrt(report.pair_var[p]) - v) <= 5e-3 for p, v in DELAY_SD_TABLE.items()
    )
    ok &= all(abs(report.agent_mean[a] - v) <= 5e-3 for a, v in AGENT_DELAY_MEANS.items())
    _criterion(2, "published 3x3 delay tables to +-0.005 (2 misprinted cells corrected)", ok)


def test_criterion_02_documents_source_table_misprint(example3x3):
    # the published pair table prints mean(s2,c3) = 6.38; the published
    # agent-level mixture E(L_c3) = 6.38 pins the pair value near 6.31 instead
    report = delay_moments(example3x3)
    theta_c3 = {"s2": 0.067 / 0.14, "s3": 0.073 / 0.14}
    implied_by_print = theta_c3["s2"] * 6.38 + theta_c3["s3"] * 6.45
    assert abs(implied_by_print - 6.38) > 5e-3  # printed table is self-inconsistent
    mixed = (
        theta_c3["s2"] * report.pair_mean[("s2", "c3")]
        + theta_c3["s3"] * report.pair_mean[("s3", "c3")]
    )
    assert abs(mixed - 6.38) <= 5e-3  # computed values reproduce the published mixture


def test_criterion_03_wait_list(example3x3):
    report = wait_moments(example3x3)
    ok = all(abs(report.agent_mean[a] - v) <= 5e-3 for a, v in AGENT_WAIT_MEANS.items())
    _criterion(3, "published 3x3 wait list (4.33, 4.41, 3.75) to +-0.005", ok)


def test_criterion_04_identity_suite():
    rng = np.random.default_rng(2024)
    ok = True
    for _ in range(20):
        model = random_stable_model(rng, max_agents=6, max_goods=6)
        report = matching_rates(model)
        total = math.fsum(report.rates.values()) + math.fsum(report.loss.values())
        ok &= abs(total - 1.0) <= 1e-9
        loss_total = math.fsum(report.loss.values())
        ok &= abs(loss_total - (model.mu_bar - model.lambda_bar) / model.mu_bar) <= 1e-9
        for i, a in enumerate(model.agent_names):
            ok &= abs(report.agent_throughput(a) - model.agent_rates[i] / model.mu_bar) <= 1e-9
    _criterion(4, "rate identities at 1e-9 on 20 random stable models (I,J <= 6)", ok)


def test_criterion_05_single_pair_closed_forms():
    ok = True
    for lam, mu in ((0.5, 1.0), (0.9, 1.0), (0.25, 2.0)):
        model = make_single_pair(lam, mu)
        ok &= abs(normalizing_constant(model) - (mu - lam) / mu) <= 1e-12
        report = delay_moments(model)
        ok &= abs(report.pair_mean[("s", "c")] - (lam + mu) / (mu - lam)) <= 1e-9
        ok &= abs(wait_moments(model).pair_mean[("s", "c")] - 1.0 / (mu - lam)) <= 1e-9
    _criterion(5, "single-pair closed forms: B, E(L), E(W) (the M/M/1 oracle)", ok)


def test_criterion_06_monte_carlo_equivalence(example3x3, warm_kernel):
    start = time.perf_counter()
    stats = run(example3x3, 10_000_000, seed=1, burn_in=100_000)
    rows = compare_with_analytic(example3x3, stats)
    elapsed = time.perf_counter() - start
    # max() over a list holding NaN depends on where the NaN sits, so
    # finiteness is checked on its own
    non_finite = [r.quantity for r in rows if not math.isfinite(r.z)]
    worst = max(abs(r.z) for r in rows)
    ok = not non_finite and worst <= 3.0 and elapsed < 60.0 and len(rows) >= 30
    _criterion(
        6,
        "1e7-event Monte Carlo within 3 SE on every quantity",
        ok,
        f"{len(rows)} quantities, max |z| = {worst:.2f}, {elapsed:.1f} s, "
        f"non-finite z: {non_finite}",
    )


def test_criterion_07_reversibility(example3x3):
    failures = 0
    chi_failures = 0
    for seed in range(20):
        report = verify_reversibility(example3x3, 100_000, seed=seed)
        if not report.passed:
            failures += 1
        if report.chi2_pvalue < 0.01:
            chi_failures += 1
    ok = failures == 0 and chi_failures <= 2
    _criterion(
        7,
        "20 x 1e5 exchanged-window reversals reproduce all matches",
        ok,
        f"{failures} reversal failures, {chi_failures} chi-square rejections",
    )


def test_criterion_08_admissibility(example3x3):
    draws = np.random.default_rng(808).random((2, 1_000_000))
    tracker = DetailedTracker(example3x3)
    violations = 0
    for n in range(1_000_000):
        item = item_from_uniforms(example3x3, n, draws[0, n], draws[1, n])
        tracker.step(item.kind, item.type_name)
        if not is_admissible(example3x3, tracker.state()):
            violations += 1

    rng = np.random.default_rng(809)
    edges = sorted(example3x3.edges)
    rejected = 0
    for _ in range(1000):
        g, a = edges[rng.integers(0, len(edges))]
        filler = tuple(
            ("c~", example3x3.agent_names[rng.integers(0, 3)])
            for _ in range(int(rng.integers(0, 5)))
        )
        planted = (("c", a),) + filler + (("s~", g),)
        if not is_admissible(example3x3, planted):
            rejected += 1
    ok = violations == 0 and rejected == 1000
    _criterion(
        8,
        "1e6 simulated detailed states admissible; 1000 planted violations rejected",
        ok,
        f"{violations} violations, {rejected}/1000 rejected",
    )


def test_criterion_09_pgf_mgf_checks(example3x3):
    report = delay_moments(example3x3)
    waits = wait_moments(example3x3)
    ok = True
    for pair, mean in report.pair_mean.items():
        ok &= abs(delay_pgf(example3x3, pair, 1.0) - 1.0) <= 1e-12
        slope = (1.0 - delay_pgf(example3x3, pair, 1.0 - 1e-6)) / 1e-6
        ok &= abs(slope - mean) / mean <= 1e-4
        ok &= abs(wait_mgf(example3x3, pair, 0.0) - 1.0) <= 1e-12
        wslope = (wait_mgf(example3x3, pair, 1e-8) - 1.0) / 1e-8
        wmean = waits.pair_mean[pair]
        ok &= abs(wslope - wmean) / wmean <= 1e-4
    _criterion(9, "PGF/MGF normalization at 1e-12 and derivative means at 1e-4", ok)


def test_criterion_10_limit_checks():
    light = make_example3x3(lambda_bar=0.001)
    report = matching_rates(light)
    limit = light_traffic_rates(light)
    ok = True
    for (g, a), expected in limit.theta.items():
        ok &= abs(report.theta[a][g] - expected) / expected <= 5e-3

    base = make_example3x3()
    grid = [0.05 + 0.055625 * k for k in range(17)]
    series = sweep(base, grid)

    def theta_series(pair):
        _, agent = pair
        out = []
        for t in range(len(grid)):
            tot = sum(series.rates[(g, a)][t] for (g, a) in series.rates if a == agent)
            out.append(series.rates[pair][t] / tot)
        return out

    s1c2 = theta_series(("s1", "c2"))
    s3c2 = theta_series(("s3", "c2"))
    ok &= all(b <= a + 1e-12 for a, b in zip(s1c2, s1c2[1:]))
    ok &= all(b >= a - 1e-12 for a, b in zip(s3c2, s3c2[1:]))

    heavy = matching_rates(make_example3x3(lambda_bar=0.999))
    total_loss = math.fsum(heavy.loss.values())
    ok &= total_loss < 2e-3
    _criterion(
        10,
        "light-traffic proportions (0.5%), supply-split monotonicity, vanishing loss",
        ok,
        f"loss at rho=0.999: {total_loss:.4f}",
    )


def test_criterion_11_heavy_traffic_proxy():
    near = matching_rates(make_example3x3(lambda_bar=0.99))
    nearer = matching_rates(make_example3x3(lambda_bar=0.999))
    worst = 0.0
    for agent, dist in near.theta.items():
        for g, v in dist.items():
            worst = max(worst, abs(nearer.theta[agent][g] - v) / v)
    ok = worst < 1e-2
    _criterion(
        11,
        "heavy-traffic Cauchy proxy: supply splits at rho=0.99 vs 0.999 within 1%",
        ok,
        f"max relative gap {worst:.4f}",
    )


def _two_by_two_graphs():
    k22 = {("s1", "c1"), ("s1", "c2"), ("s2", "c1"), ("s2", "c2")}
    return [
        frozenset(k22),
        frozenset(k22 - {("s2", "c2")}),
        frozenset(k22 - {("s1", "c1")}),
        frozenset({("s1", "c1"), ("s1", "c2")}),  # s2 present but never matched
    ]


def test_criterion_12_truncated_balance_oracle():
    rng = np.random.default_rng(1212)
    ok = True
    worst = 0.0
    for edges in _two_by_two_graphs():
        for _ in range(3):
            alpha = rng.dirichlet((3.0, 3.0))
            beta = rng.dirichlet((3.0, 3.0))
            model = validate(
                MatchingModel(
                    agent_types=(("c1", float(alpha[0])), ("c2", float(alpha[1]))),
                    good_types=(("s1", float(beta[0])), ("s2", float(beta[1]))),
                    edges=edges,
                    lambda_bar=1.0,
                    mu_bar=1.0,
                )
            )
            # keep occupancy ratios <= ~0.55 so the cap-30 truncation error
            # stays orders of magnitude below the 1e-6 comparison tolerance
            rho = float(rng.uniform(0.3, 0.55)) * max_stable_rho(model).value
            model = model.with_lambda_bar(rho)
            report = matching_rates(model)
            b_oracle, rates_oracle, loss_oracle = y_chain_rates(model, cap=30)
            gaps = [abs(report.b - b_oracle)]
            gaps += [abs(rates_oracle[p] - v) for p, v in report.rates.items()]
            gaps += [abs(loss_oracle[g] - v) for g, v in report.loss.items()]
            worst = max(worst, max(gaps))
            ok &= max(gaps) <= 1e-6
    _criterion(
        12,
        "2x2 balance-equation oracle (gap cap 30) matches rates to 1e-6",
        ok,
        f"worst gap {worst:.2e} over 4 graphs x 3 rate draws",
    )
