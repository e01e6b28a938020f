"""Time the passes over the 2^I agent sets at growing I, each in a fresh process.

    python3 scripts/subset_scale.py --src src --types 9,14,17,20 --repeats 3
    python3 scripts/subset_scale.py --src src --types 14,17,20 --probes table,rates,delays
    python3 scripts/subset_scale.py --src src --types 16,18 --probes sweep

--src is the source directory of the tree to measure, so two checkouts can be
compared with the same script. For each I the script writes one random model
(I = J agent and good types, Dirichlet(2) frequencies, edge density 0.4 with
at least one edge per agent type, rho = 0.8 * max_stable_rho, seeded by I and
--seed) to --models, or reuses the file there, so two trees read the same
model. Each probe then runs --repeats times, each time in a new interpreter
that loads the model and makes one cold call:

    scan            the per-set pass, model._scan_subsets
    checks          check_stability, check_crp and max_stable_rho
    table           analytic._subset_table
    min_stage_rate  delays.min_stage_rate
    rates           analytic.matching_rates
    delays          delays.delay_moments (the delay moments)
    sweep           limits.sweep on 9 points evenly over [rho / 2, rho]

A probe reports its wall time (time.perf_counter around the call, import and
model load excluded) and the process's peak RSS (ru_maxrss, interpreter and
import included). The script prints the median time and the largest peak RSS
per probe (and the smallest, to show the spread); the last line of output is
one JSON object.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

PROBES = ("scan", "checks", "table", "min_stage_rate", "rates", "delays", "sweep")
SWEEP_POINTS = 9
EDGE_DENSITY = 0.4
DIRICHLET_SHAPE = 2.0
RHO_FRACTION = 0.8


def _dirichlet(rng: random.Random, n: int) -> list[float]:
    draws = [rng.gammavariate(DIRICHLET_SHAPE, 1.0) for _ in range(n)]
    total = sum(draws)
    return [d / total for d in draws]


def _max_stable_rho(alpha: list[float], beta: list[float], goods_of: list[int]) -> float:
    """min over nonempty agent sets C of beta_{S(C)} / alpha_C, by the same
    highest-type extension the library uses, without importing it."""
    freq, goods = [0.0], [0]
    for a, g in zip(alpha, goods_of):
        freq += [f + a for f in freq]
        goods += [s | g for s in goods]
    good_freq = {g: sum(b for j, b in enumerate(beta) if g >> j & 1) for g in set(goods)}
    return min(good_freq[g] / f for g, f in zip(goods[1:], freq[1:]))


def write_model(n: int, seed: int, path: Path) -> None:
    rng = random.Random(f"subset-scale/{n}/{seed}")
    alpha, beta = _dirichlet(rng, n), _dirichlet(rng, n)
    goods_of = []
    for _ in range(n):
        mask = 1 << rng.randrange(n)
        for j in range(n):
            if rng.random() < EDGE_DENSITY:
                mask |= 1 << j
        goods_of.append(mask)
    model = {
        "agents": [{"name": f"c{i + 1}", "alpha": a} for i, a in enumerate(alpha)],
        "goods": [{"name": f"s{j + 1}", "beta": b} for j, b in enumerate(beta)],
        "edges": [[f"s{j + 1}", f"c{i + 1}"] for i, mask in enumerate(goods_of)
                  for j in range(n) if mask >> j & 1],
        "lambda_bar": RHO_FRACTION * _max_stable_rho(alpha, beta, goods_of),
        "mu_bar": 1.0,
    }
    path.write_text(json.dumps(model) + "\n", encoding="utf-8")


def probe(src: str, name: str, model_path: str) -> dict:
    """One cold call in this interpreter."""
    sys.path.insert(0, str(Path(src).resolve()))
    from fcfs_match import analytic, delays, limits, model as model_mod

    model = model_mod.load_model(model_path)
    calls = {
        "scan": [model_mod._scan_subsets],
        "checks": [model_mod.check_stability, model_mod.check_crp, model_mod.max_stable_rho],
        "table": [analytic._subset_table],
        "min_stage_rate": [delays.min_stage_rate],
        "rates": [analytic.matching_rates],
        "delays": [delays.delay_moments],
        "sweep": [lambda m: limits.sweep(m, [m.rho * (SWEEP_POINTS - 1 + k) / (2 * SWEEP_POINTS - 2)
                                             for k in range(SWEEP_POINTS)])],
    }[name]
    start = time.perf_counter()
    for call in calls:
        call(model)
    seconds = time.perf_counter() - start
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"seconds": seconds, "peak_rss_mb": peak_kb / 1024}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", required=True, help="source directory holding fcfs_match")
    parser.add_argument("--types", default="9,14,17,20", help="comma-separated agent-type counts")
    parser.add_argument("--probes", default=",".join(PROBES), help="comma-separated probe names")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--models", default=None,
                        help="directory for the model files (default: a temporary one)")
    parser.add_argument("--probe", default=None, help=argparse.SUPPRESS)
    parser.add_argument("--model", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.probe:
        print(json.dumps(probe(args.src, args.probe, args.model)))
        return 0

    probes = args.probes.split(",")
    unknown = set(probes) - set(PROBES)
    if unknown:
        parser.error(f"unknown probes: {', '.join(sorted(unknown))}")
    with tempfile.TemporaryDirectory() as scratch:
        models = Path(args.models or scratch)
        models.mkdir(parents=True, exist_ok=True)
        result = {"src": args.src, "seed": args.seed, "repeats": args.repeats, "types": {}}
        for n in (int(t) for t in args.types.split(",")):
            path = models / f"subset-scale-{n}-{args.seed}.json"
            if not path.exists():
                write_model(n, args.seed, path)
            row = {}
            for name in probes:
                runs = []
                for _ in range(args.repeats):
                    command = [sys.executable, __file__, "--src", args.src,
                               "--probe", name, "--model", str(path)]
                    out = subprocess.run(command, check=True, capture_output=True, text=True)
                    runs.append(json.loads(out.stdout.strip().splitlines()[-1]))
                row[name] = r = {
                    "median_s": round(statistics.median(run["seconds"] for run in runs), 4),
                    "min_s": round(min(run["seconds"] for run in runs), 4),
                    "max_s": round(max(run["seconds"] for run in runs), 4),
                    "peak_rss_mb": round(max(run["peak_rss_mb"] for run in runs), 1),
                    "peak_rss_mb_min": round(min(run["peak_rss_mb"] for run in runs), 1),
                }
                print(f"I={n} {name}: median {r['median_s']:.4f} s (min {r['min_s']:.4f}, "
                      f"max {r['max_s']:.4f}), peak RSS {r['peak_rss_mb_min']:.1f}-"
                      f"{r['peak_rss_mb']:.1f} MB", flush=True)
            result["types"][str(n)] = row
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
