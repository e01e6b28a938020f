"""Benchmark inputs: the model generator and the per-workload command schedules.

Everything here is standard library only, so the timing harness stays small
and never imports the package it measures. A model is the JSON dict the CLI
reads (`--model FILE`).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

# The published 3x3 example at rho = 0.7, verbatim from the README.
PAPER_3X3 = {
    "agents": [{"name": "c1", "alpha": 0.3}, {"name": "c2", "alpha": 0.5}, {"name": "c3", "alpha": 0.2}],
    "goods": [{"name": "s1", "beta": 0.3}, {"name": "s2", "beta": 0.3}, {"name": "s3", "beta": 0.4}],
    "edges": [["s1", "c1"], ["s1", "c2"], ["s2", "c1"], ["s2", "c3"], ["s3", "c2"], ["s3", "c3"]],
    "lambda_bar": 0.7,
    "mu_bar": 1.0,
}

WIDE_TYPES = 8  # 109,601 ordered subsets: the walk dominates every analytic call
EDGE_DENSITY = 0.4
DIRICHLET_SHAPE = 2.0
RHO_FRACTION = 0.8  # of max_stable_rho, so every generated model is stable

COMMANDS = ("validate", "rates", "delays", "sweep", "verify")
THREADS_ENV = "FCFS_MATCH_THREADS"  # the CLI's process-pool size for `sweep`


def _dirichlet(rng: random.Random, n: int) -> list[float]:
    draws = [rng.gammavariate(DIRICHLET_SHAPE, 1.0) for _ in range(n)]
    total = sum(draws)
    return [d / total for d in draws]


def max_stable_rho(model: dict) -> float:
    """min over nonempty agent subsets C of beta_{S(C)} / alpha_C.

    An independent copy of the library's stability threshold: the generator
    needs it to place rho, and the `validate` check compares the two.
    """
    agents = [a["name"] for a in model["agents"]]
    alpha = [a["alpha"] for a in model["agents"]]
    beta = {g["name"]: g["beta"] for g in model["goods"]}
    goods_of = {a: {g for g, aa in model["edges"] if aa == a} for a in agents}
    best = float("inf")
    for k in range(1, len(agents) + 1):
        for combo in itertools.combinations(range(len(agents)), k):
            goods = set().union(*(goods_of[agents[i]] for i in combo))
            best = min(best, sum(beta[g] for g in goods) / sum(alpha[i] for i in combo))
    return best


def random_model(label: str) -> dict:
    """A stable I = J = 8 model: Dirichlet(2) frequencies, edge density about
    0.4 with at least one edge per agent type, rho = 0.8 * max_stable_rho.

    The label seeds the stream (string seeds hash with SHA-512, so the same
    label gives the same model on every run and platform).
    """
    rng = random.Random(label)
    n = WIDE_TYPES
    alpha = _dirichlet(rng, n)
    beta = _dirichlet(rng, n)
    edges = set()
    for i in range(n):
        edges.add((f"s{rng.randrange(n) + 1}", f"c{i + 1}"))
        for j in range(n):
            if rng.random() < EDGE_DENSITY:
                edges.add((f"s{j + 1}", f"c{i + 1}"))
    model = {
        "agents": [{"name": f"c{i + 1}", "alpha": a} for i, a in enumerate(alpha)],
        "goods": [{"name": f"s{j + 1}", "beta": b} for j, b in enumerate(beta)],
        "edges": sorted([g, a] for g, a in edges),
        "lambda_bar": 1.0,
        "mu_bar": 1.0,
    }
    model["lambda_bar"] = RHO_FRACTION * max_stable_rho(model)
    return model


@dataclass(frozen=True)
class Step:
    """One CLI call: the command and the index of the model it reads."""

    command: str
    model: int


@dataclass(frozen=True)
class Workload:
    name: str
    verify_events: int
    sweep_points: int  # on [rho/2, rho], or [rho] for one point; paper-3x3 spans 0.05-0.95 as in the README
    sweep_threads: int | None  # FCFS_MATCH_THREADS for `sweep`; None leaves it unset

    def model(self, seed: int, k: int) -> dict:
        if self.name == "paper-3x3":
            return PAPER_3X3
        if self.name == "verify-wide":
            # One model for every seed: the kernel's cost depends on the model,
            # so the seed moves only the simulation stream.
            return random_model(self.name)
        return random_model(f"{self.name}/{seed}/{k}")

    def sweep_args(self, model: dict) -> list[str]:
        if self.name == "paper-3x3":
            return ["--rho-min", "0.05", "--rho-max", "0.95", "--steps", str(self.sweep_points)]
        rho = model["lambda_bar"] / model["mu_bar"]
        lo = rho / 2 if self.sweep_points > 1 else rho
        return ["--rho-min", repr(lo), "--rho-max", repr(rho), "--steps", str(self.sweep_points)]

    def schedule(self):
        """The closed loop's calls, in order, without end. `validate` calls are
        spread through the run, so setup_s is a median over all of it."""
        if self.name == "paper-3x3":
            cycle = [Step(c, 0) for c in ("validate", "rates", "delays", "validate", "sweep", "verify")]
            yield from itertools.chain.from_iterable(itertools.repeat(cycle))
        elif self.name == "analytic-wide":
            for k in itertools.count():
                yield from (Step(c, k) for c in ("validate", "rates", "delays"))
                yield from (Step("validate", 0), Step("verify" if k % 2 else "sweep", 0))
        else:
            # rates is cheap next to the others, so it runs three times a cycle
            cycle = [Step(c, 0) for c in ("validate", "verify", "validate", "rates", "delays", "rates",
                                          "sweep", "rates")]
            yield from itertools.chain.from_iterable(itertools.repeat(cycle))


WORKLOADS = {
    w.name: w
    for w in (
        # Fifteen ordered subsets: analytic calls are interpreter start plus
        # import, and verify is mostly the simulator kernel.
        Workload("paper-3x3", verify_events=100_000, sweep_points=19, sweep_threads=None),
        # Distinct models, so nothing is shared between calls; verify runs so
        # few events that its time is the analytic side (walk plus pi_y table).
        Workload("analytic-wide", verify_events=5_000, sweep_points=2, sweep_threads=2),
        # One model; verify splits about evenly between the 8-queue kernel and
        # the analytic side.
        Workload("verify-wide", verify_events=200_000, sweep_points=1, sweep_threads=None),
    )
}
