"""Measure how well verify's error bars cover: z-score statistics per row family
over many seeds.

    python3 scripts/coverage.py --seeds 200 --out BENCH_27.json

The cases are paper-3x3 at 2e4 and at 1e5 events and verify-wide at 2e5
events, the models read from bench/workloads.py, which is only read. Each
case runs simulator.run with the default burn-in and compare_with_analytic, in
this process, for seeds 1..N, on this checkout's src.

The rows of compare_with_analytic fall into families by the name before "[":
rate, loss, delay_mean, delay_var and B; the pi_y rows split at pi = 1e-3 into
"pi_y<1e-3" and "pi_y>=1e-3"; "all" holds every row. Per case and family the
script reports the rows per seed, the mean and sd of z over the finite z, the
share of rows with |z| > 3 and with |z| > 4, the rows with no z (nan: a row
the run could not estimate, which verify fails; counted in neither share) and
the share of seeds with any |z| > 4, next to the value for independent
Gaussian rows, 1 - (1 - p)^rows with p = P(|Z| > 4) = 6.33e-5. It changes no
estimator, bound or threshold. The last line of output is one JSON object,
which --out also writes to a file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
CASES = (("paper-3x3", 20_000), ("paper-3x3", 100_000), ("verify-wide", 200_000))
PI_Y_SPLIT = 1e-3
P_ABOVE_4 = math.erfc(4 / math.sqrt(2))  # P(|Z| > 4) for a standard Gaussian Z


def bench_models() -> dict[str, dict]:
    """paper-3x3 and verify-wide from bench/workloads.py, which is only read."""
    sys.dont_write_bytecode = True  # leave no __pycache__ in bench/
    sys.path.insert(0, str(ROOT / "bench"))
    from workloads import PAPER_3X3, WORKLOADS

    return {"paper-3x3": PAPER_3X3, "verify-wide": WORKLOADS["verify-wide"].model(0, 0)}


def family(quantity: str, analytic: float) -> str:
    name = quantity.split("[", 1)[0]
    if name == "pi_y":
        return "pi_y<1e-3" if analytic < PI_Y_SPLIT else "pi_y>=1e-3"
    return name


def summary(z: np.ndarray) -> dict:
    """Statistics of a (seeds, rows) array of z-scores."""
    finite = z[np.isfinite(z)]
    above = np.abs(np.nan_to_num(z, nan=0.0))
    return {
        "rows": z.shape[1],
        "mean_z": float(finite.mean()),
        "sd_z": float(finite.std(ddof=1)),
        "share_abs_z_gt_3": float((above > 3).mean()),
        "share_abs_z_gt_4": float((above > 4).mean()),
        "nan_z": int(np.isnan(z).sum()),
        "seeds_any_abs_z_gt_4": float((above > 4).any(axis=1).mean()),
        "gaussian_any_abs_z_gt_4": 1.0 - (1.0 - P_ABOVE_4) ** z.shape[1],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=200, help="seeds 1..N per case")
    parser.add_argument("--out", help="JSON file to write the results to")
    args = parser.parse_args(argv)
    if args.seeds < 2:
        parser.error("need --seeds >= 2")

    sys.path.insert(0, str(ROOT / "src"))
    from fcfs_match.model import MatchingModel
    from fcfs_match.simulator import compare_with_analytic, run

    models = {name: MatchingModel.from_json_dict(m) for name, m in bench_models().items()}
    result = {"seeds": args.seeds, "cpus": os.cpu_count(), "python": platform.python_version(),
              "numpy": np.__version__, "cases": {}}
    for name, events in CASES:
        model = models[name]
        start = time.perf_counter()
        z, families = [], None
        for seed in range(1, args.seeds + 1):
            rows = compare_with_analytic(model, run(model, events, seed))
            families = families or [family(r.quantity, r.analytic) for r in rows]
            z.append([r.z for r in rows])
        seconds = time.perf_counter() - start
        z = np.array(z)
        labels = np.array(families)
        stats = {f: summary(z[:, labels == f]) for f in sorted(set(families))}
        stats["all"] = summary(z)
        case = f"{name}/{events:.0e}".replace("+0", "")
        result["cases"][case] = {"model": name, "events": events, "seconds": round(seconds, 2),
                                 "families": stats}
        print(f"{case}: {args.seeds} seeds in {seconds:.1f} s")
        print(f"  {'family':<11} {'rows':>5} {'mean z':>7} {'sd z':>6} {'|z|>3':>7} {'|z|>4':>7} "
              f"{'nan':>5} {'seeds any |z|>4':>16} {'gaussian':>9}")
        for f, s in stats.items():
            print(f"  {f:<11} {s['rows']:>5} {s['mean_z']:>7.3f} {s['sd_z']:>6.3f} "
                  f"{s['share_abs_z_gt_3']:>7.2%} {s['share_abs_z_gt_4']:>7.2%} {s['nan_z']:>5} "
                  f"{s['seeds_any_abs_z_gt_4']:>16.1%} {s['gaussian_any_abs_z_gt_4']:>9.2%}")
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
