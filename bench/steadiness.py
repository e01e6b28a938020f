"""Run-to-run spread of the end-to-end metrics.

    python3 bench/steadiness.py --workload paper-3x3 --runs 10 [--first-seed 1]

runs bench/run.py untraced once per seed, one run at a time, with the run
length from BENCHMARK.json, and prints per metric the median and the spread:
the distance between the first and third quartiles (statistics.quantiles, n=4)
as a share of the median. The summary is also written to .bench_run/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values: dict[str, list[float]] = {}
    runs = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        done = subprocess.run(
            [*spec["command"], "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        if done.returncode != 0:
            print(done.stdout[-2000:], done.stderr[-2000:], file=sys.stderr)
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']} "
              + " ".join(f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()), flush=True)

    summary = {}
    for name, xs in values.items():
        q1, median, q3 = statistics.quantiles(xs, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        summary[name] = {"median": statistics.median(xs), "spread": spread, "bound": bounds.get(name)}
        print(f"  {name:<40} median {statistics.median(xs):.6g}  spread {spread:.3f}"
              + (f"  bound {bounds[name]}" if name in bounds else ""))
    out = ROOT / ".bench_run" / f"steadiness-{args.workload}-{args.first_seed}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"workload": args.workload, "runs": runs, "summary": summary}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
