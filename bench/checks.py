"""Correctness checks on CLI outputs. Each returns a list of problems (empty = correct).

The benchmark keeps its own copy of the published 3x3 tables, so a change to
the program's test data cannot move the reference.
"""

from __future__ import annotations

import csv
import io
import math

# Published 3x3 tables at rho = 0.7: rates and losses to three decimals,
# delay means to two. mean(s2,c3) is printed as 6.38 in the source, but the
# published agent-level mean E(L_c3) = 6.38, a theta-mixture of the pair
# means, pins it at 6.31.
PAPER_RATES = {
    ("s1", "c1"): 0.090, ("s1", "c2"): 0.139,
    ("s2", "c1"): 0.120, ("s2", "c3"): 0.067,
    ("s3", "c2"): 0.211, ("s3", "c3"): 0.073,
}
PAPER_LOSS = {"s1": 0.071, "s2": 0.113, "s3": 0.116}
PAPER_DELAY_MEANS = {
    ("s1", "c1"): 7.63, ("s1", "c2"): 7.64,
    ("s2", "c1"): 7.14, ("s2", "c3"): 6.31,
    ("s3", "c2"): 7.40, ("s3", "c3"): 6.45,
}
PAPER_AGENT_DELAY_MEANS = {"c1": 7.35, "c2": 7.50, "c3": 6.38}
RATE_TOL = 5e-4  # half a unit in the third decimal
DELAY_TOL = 5e-3  # half a unit in the second decimal

IDENTITY_TOL = 1e-9
Z_MAX = 4.0  # verify's default --z-max


def _close(x: float, y: float, rel: float = IDENTITY_TOL) -> bool:
    return abs(x - y) <= rel * max(abs(x), abs(y)) + 1e-12


def check_validate(out: dict, expected_max_rho: float) -> list[str]:
    problems = []
    if out.get("valid") is not True or out.get("stable") is not True:
        problems.append(f"validate: model not reported valid and stable: {out}")
    elif not _close(out["max_stable_rho"], expected_max_rho):
        problems.append(
            f"validate: max_stable_rho {out['max_stable_rho']} != independent {expected_max_rho}"
        )
    return problems


def check_rates(out: dict, model: dict) -> list[str]:
    problems = []
    if not 0.0 < out["b"] <= 1.0:
        problems.append(f"rates: B = {out['b']} outside (0, 1]")
    for good in model["goods"]:
        g = good["name"]
        total = sum(out["rates"].get(g, {}).values()) + out["loss"][g]
        if abs(total - good["beta"]) > IDENTITY_TOL:
            problems.append(f"rates: sum of rates + loss for {g} is {total}, beta is {good['beta']}")
    return problems


def check_delays(out: dict, rates: dict) -> list[str]:
    problems = []
    variances = [v["variance"] for v in out["pairs"].values()]
    variances += [v["variance"] for v in out["agents"].values()]
    if any(not v >= 0.0 for v in variances):
        problems.append("delays: negative or NaN variance")
    for a, agent in out["agents"].items():
        theta = rates["theta"][a]
        mixture = sum(w * out["pairs"][f"{g},{a}"]["mean"] for g, w in theta.items())
        if not _close(agent["mean"], mixture):
            problems.append(f"delays: agent {a} mean {agent['mean']} != theta-mixture {mixture}")
    return problems


def check_paper(rates: dict, delays: dict) -> list[str]:
    problems = []
    for (g, a), v in PAPER_RATES.items():
        if abs(rates["rates"][g][a] - v) > RATE_TOL:
            problems.append(f"paper: rate[{g},{a}] = {rates['rates'][g][a]}, published {v}")
    for g, v in PAPER_LOSS.items():
        if abs(rates["loss"][g] - v) > RATE_TOL:
            problems.append(f"paper: loss[{g}] = {rates['loss'][g]}, published {v}")
    for (g, a), v in PAPER_DELAY_MEANS.items():
        if abs(delays["pairs"][f"{g},{a}"]["mean"] - v) > DELAY_TOL:
            problems.append(f"paper: delay mean[{g},{a}] differs from published {v}")
    for a, v in PAPER_AGENT_DELAY_MEANS.items():
        if abs(delays["agents"][a]["mean"] - v) > DELAY_TOL:
            problems.append(f"paper: agent delay mean[{a}] differs from published {v}")
    return problems


def parse_verify(text: str) -> list[tuple[str, float, float, float, float]]:
    """Rows of the verify table; raises ValueError when it is malformed."""
    lines = text.strip().splitlines()
    if not lines or lines[0] != "quantity,analytic,empirical,stderr,z_score":
        raise ValueError("verify: missing table header")
    rows = []
    for line in lines[1:]:
        quantity, *numbers = line.rsplit(",", 4)
        if len(numbers) != 4:
            raise ValueError(f"verify: malformed row {line!r}")
        rows.append((quantity, *(float(x) for x in numbers)))
    if not rows:
        raise ValueError("verify: empty table")
    return rows


def check_verify(rows, rates: dict, delays: dict) -> list[str]:
    """The analytic column must equal the `rates` and `delays` outputs."""
    expected = {"B": rates["b"]}
    for g, by_agent in rates["rates"].items():
        for a, v in by_agent.items():
            expected[f"rate[{g},{a}]"] = v
    for g, v in rates["loss"].items():
        expected[f"loss[{g}]"] = v
    for pair, v in delays["pairs"].items():
        expected[f"delay_mean[{pair}]"] = v["mean"]
        expected[f"delay_var[{pair}]"] = v["variance"]
    problems = []
    seen = set()
    for quantity, analytic, *_ in rows:
        if quantity in expected:
            seen.add(quantity)
            if not _close(analytic, expected[quantity]):
                problems.append(f"verify: {quantity} analytic {analytic} != {expected[quantity]}")
    missing = set(expected) - seen
    if missing:
        problems.append(f"verify: rows missing for {sorted(missing)[:3]}")
    return problems


def bad_rows(z_scores) -> tuple[int, int]:
    """(rows with a non-finite z or |z| > Z_MAX, rows with a non-finite z)."""
    z_scores = list(z_scores)
    unestimable = sum(1 for z in z_scores if not math.isfinite(z))
    over = sum(1 for z in z_scores if math.isfinite(z) and abs(z) > Z_MAX)
    return unestimable + over, unestimable


def sweep_grid(rho_min: float, rho_max: float, steps: int) -> list[float]:
    """The grid `fcfs-match sweep` evaluates, computed the same way."""
    if steps == 1:
        return [rho_min]
    step = (rho_max - rho_min) / (steps - 1)
    return [rho_min + k * step for k in range(steps)]


def check_sweep(text: str, grid: list[float], direct: list[dict]) -> list[str]:
    """Every sweep row must equal the single-point rates result at its rho.

    direct[t] is {"rates": {"g,a": rate}, "loss": {g: rate}} at grid[t].
    """
    problems = []
    reader = csv.reader(io.StringIO(text))
    if next(reader, None) != ["rho", "good", "agent", "rate", "delay_mean", "delay_var"]:
        return ["sweep: missing header"]
    seen = 0
    for rho, g, a, rate, *_ in reader:
        t = min(range(len(grid)), key=lambda k: abs(grid[k] - float(rho)))
        if not _close(float(rho), grid[t]):
            problems.append(f"sweep: row at rho {rho} is off the grid")
            continue
        want = direct[t]["loss"][g] if a == "LOST" else direct[t]["rates"][f"{g},{a}"]
        if not _close(float(rate), want):
            problems.append(f"sweep: rho {rho} {g},{a} rate {rate} != single-point {want}")
        seen += 1
    expected = sum(len(d["rates"]) + len(d["loss"]) for d in direct)
    if seen != expected:
        problems.append(f"sweep: {seen} rows, expected {expected}")
    return problems
