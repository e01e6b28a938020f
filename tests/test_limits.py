from __future__ import annotations

import math

import pytest

from fcfs_match import (
    UnstableGridPoint,
    dedicated_baseline,
    delay_moments,
    light_traffic_rates,
    matching_rates,
    sweep,
)
from fcfs_match.errors import DomainError, DuplicateType, UnknownIdentifier

from conftest import make_disjoint_pairs, make_example3x3, make_one_letter_names, make_single_pair


def test_light_traffic_examples(example3x3, single_pair):
    limit = light_traffic_rates(example3x3)
    assert limit.rates[("s1", "c2")] == pytest.approx(0.5 * 0.3 / 0.7, rel=1e-12)
    assert limit.rates[("s2", "c1")] == pytest.approx(0.15, rel=1e-12)
    assert light_traffic_rates(single_pair).rates[("s", "c")] == pytest.approx(1.0, rel=1e-12)


def test_theta_converges_to_light_traffic_proportions():
    model = make_example3x3(lambda_bar=0.001)
    report = matching_rates(model)
    limit = light_traffic_rates(model)
    for pair, expected in limit.theta.items():
        assert report.theta[pair[1]][pair[0]] == pytest.approx(expected, rel=5e-3)
    # one percent suffices an order of magnitude earlier
    coarser = matching_rates(make_example3x3(lambda_bar=0.01))
    for pair, expected in limit.theta.items():
        assert coarser.theta[pair[1]][pair[0]] == pytest.approx(expected, rel=1e-2)


def test_sweep_points_are_normalized(example3x3):
    grid = [k / 10 for k in range(1, 10)]
    series = sweep(example3x3, grid)
    assert series.rho_grid == tuple(grid)
    for t in range(len(grid)):
        total = sum(series.rates[p][t] for p in series.rates)
        total += sum(series.loss[g][t] for g in series.loss)
        assert total == pytest.approx(1.0, abs=1e-9)


def _theta_series(series, pair):
    """Per-agent conditional fractions along the grid. The raw per-pair
    fractions all scale up with rho (total matches = rho), so the published
    decrease/increase observation is about how each agent's supply splits."""
    _, agent = pair
    out = []
    for t in range(len(series.rho_grid)):
        total = sum(series.rates[(g, a)][t] for (g, a) in series.rates if a == agent)
        out.append(series.rates[pair][t] / total)
    return out


def test_sweep_published_monotonicity(example3x3):
    grid = [0.05 + 0.055625 * k for k in range(17)]
    series = sweep(example3x3, grid)
    s1c2 = _theta_series(series, ("s1", "c2"))
    s3c2 = _theta_series(series, ("s3", "c2"))
    assert all(b <= a + 1e-12 for a, b in zip(s1c2, s1c2[1:]))
    assert all(b >= a - 1e-12 for a, b in zip(s3c2, s3c2[1:]))


def test_sweep_single_point_matches_direct_computation(example3x3):
    series = sweep(example3x3, [0.7])
    report = matching_rates(example3x3)
    delays = delay_moments(example3x3)
    for pair, v in report.rates.items():
        assert series.rates[pair][0] == v
        assert series.delay_mean[pair][0] == delays.pair_mean[pair]
    for g, v in report.loss.items():
        assert series.loss[g][0] == v


def test_sweep_rejects_unstable_grid_point():
    model = make_disjoint_pairs()  # max stable rho = 0.8
    with pytest.raises(UnstableGridPoint) as exc:
        sweep(model, [0.5, 0.85])
    assert exc.value.rho == pytest.approx(0.85)
    series = sweep(model, [0.5, 0.7])
    assert len(series.rho_grid) == 2


def test_sweep_refuses_a_grid_point_in_the_margin_band():
    # below rho* = 1, but the point's drain margin 5e-14 is under 1e-12
    band = make_single_pair(0.5, 1.0)
    with pytest.raises(UnstableGridPoint) as exc:
        sweep(band, [0.5, 1 - 1e-13])
    assert (exc.value.rho, exc.value.limit) == (1 - 1e-13, 1.0)
    assert "rho=0.9999999999999 is not stable (max stable rho=1.0)" in str(exc.value)


def test_sweep_grid_validation(example3x3):
    with pytest.raises(DomainError):
        sweep(example3x3, [])
    with pytest.raises(DomainError):
        sweep(example3x3, [0.5, 0.5])


@pytest.mark.parametrize("grid", [[0.0, 0.5], [-0.1, 0.5], [math.nan], [0.5, math.inf], [0.5, 1e308]])
def test_sweep_refuses_a_point_without_a_positive_finite_lambda_bar(grid):
    # a DomainError, not an unstable point: rho = 0 is stable, but no model
    model = make_single_pair(0.5, 2.0)  # lambda_bar = rho * 2 overflows at 1e308
    with pytest.raises(DomainError, match="positive finite lambda_bar"):
        sweep(model, grid)


def test_heavy_traffic_loss_vanishes():
    report = matching_rates(make_example3x3(lambda_bar=0.999))
    assert math.fsum(report.loss.values()) == pytest.approx(0.001, abs=1e-9)
    assert math.fsum(report.loss.values()) < 0.002


def test_heavy_traffic_rates_settle():
    # Cauchy-style convergence proxy on the per-agent fractions: the raw
    # per-pair fractions scale with rho itself (total matches = rho), so the
    # convergence claim concerns how each agent's supply splits.
    near = matching_rates(make_example3x3(lambda_bar=0.99))
    nearer = matching_rates(make_example3x3(lambda_bar=0.999))
    for agent, dist in near.theta.items():
        for g, v in dist.items():
            assert nearer.theta[agent][g] == pytest.approx(v, rel=1e-2)


def test_dedicated_baseline_examples():
    model = make_example3x3(lambda_bar=0.9)
    result = dedicated_baseline(model, {"s3": "c2"})
    assert not result[("s3", "c2")].stable  # lambda_c2 = 0.45 > mu_s3 = 0.4
    assert result[("s3", "c2")].wait_mean is None

    model7 = make_example3x3(lambda_bar=0.7)
    result = dedicated_baseline(model7, {"s1": "c1"})
    assert result[("s1", "c1")].wait_mean == pytest.approx(1 / 0.09, rel=1e-9)

    idle = make_single_pair(lam=1e-12, mu=2.0)
    result = dedicated_baseline(idle, {"s": "c"})
    assert result[("s", "c")].wait_mean == pytest.approx(0.5, rel=1e-9)


def test_dedicated_baseline_full_pairing_boundary():
    # the discriminating pairing of the 3x3 example loses (s3, c2) beyond rho = 0.8
    pairing = {"s1": "c1", "s2": "c3", "s3": "c2"}
    below = dedicated_baseline(make_example3x3(lambda_bar=0.79), pairing)
    assert all(v.stable for v in below.values())
    above = dedicated_baseline(make_example3x3(lambda_bar=0.81), pairing)
    assert not above[("s3", "c2")].stable
    assert above[("s1", "c1")].stable and above[("s2", "c3")].stable


def test_dedicated_baseline_validation(example3x3):
    with pytest.raises(UnknownIdentifier):
        dedicated_baseline(example3x3, {"s1": "c3"})  # not an edge
    with pytest.raises(DuplicateType):
        dedicated_baseline(example3x3, {"s1": "c2", "s3": "c2"})
    with pytest.raises(DuplicateType):  # a repeated good, which a dict would drop
        dedicated_baseline(example3x3, [("s1", "c1"), ("s1", "c2")])
    # a pair is two names: a string is refused, not read as its characters,
    # and an unhashable name is an unknown one
    letters = make_one_letter_names()
    for model, pairing in ((letters, ["sa"]), (example3x3, ["s1c1"]), (example3x3, [("s1",)]),
                           (example3x3, [("s1", "c1", "c2")])):
        with pytest.raises(DomainError):
            dedicated_baseline(model, pairing)
    for pairing in ([(["s1"], "c1")], {"s1": ["c1"]}, [("s1", "zz")]):
        with pytest.raises(UnknownIdentifier, match="unknown pair"):
            dedicated_baseline(example3x3, pairing)
    assert dedicated_baseline(letters, [("s", "a")]) == dedicated_baseline(letters, {"s": "a"})
