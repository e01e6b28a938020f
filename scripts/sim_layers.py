"""Time the simulator's layers on one model: run, split into the uniform draws,
the kernel and the rest of run, and compare_with_analytic; and measure their
memory.

    python3 scripts/sim_layers.py --src src --model model.json --events 200000 --seed 1

--src is the source directory of the tree to measure, so two checkouts can be
compared with the same script. Every figure is measured twice: cold, the first
call in this fresh interpreter (the analytic table is built inside that first
compare_with_analytic), and warm, over 5 further calls: the layers of the
call with the median run_s, and the median compare_s. run's time splits into
three layers that sum to run_s: draws_s is the time spent in the steps of
simulator._event_codes (drawing the uniforms and decoding them into Python
int event codes); kernel_s is the time spent in the simulator._sim_batch
calls less the draws they pulled; rest_s is everything else in run, chiefly
the occupancy entries and stacking the counters into arrays.

Memory comes after the timed calls, of which only the cold run's statistics
stay alive: first the process's peak RSS (ru_maxrss), then the tracemalloc
peak of one more run and of one more compare_with_analytic (its analytic
tables already cached). occupancy_entries counts the (order, batch) cells
with events, occupancy_keys the orders. The last line of output is one JSON
object.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

WARM_REPEATS = 5


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", required=True, help="source directory holding fcfs_match")
    parser.add_argument("--model", required=True, help="model JSON file")
    parser.add_argument("--events", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(Path(args.src).resolve()))
    from fcfs_match import simulator
    from fcfs_match.model import load_model

    draws_s = batch_s = 0.0
    event_codes, sim_batch = simulator._event_codes, simulator._sim_batch

    def timed_codes(*args):
        nonlocal draws_s
        t = time.perf_counter()
        for codes in event_codes(*args):
            draws_s += time.perf_counter() - t
            yield codes
            t = time.perf_counter()

    def timed_batch(*batch_args):
        nonlocal batch_s
        t = time.perf_counter()
        try:
            return sim_batch(*batch_args)
        finally:
            batch_s += time.perf_counter() - t

    model = load_model(args.model)

    def measure() -> tuple[dict, object, int]:
        nonlocal draws_s, batch_s
        draws_s = batch_s = 0.0
        simulator._event_codes, simulator._sim_batch = timed_codes, timed_batch
        try:
            t = time.perf_counter()
            stats = simulator.run(model, args.events, args.seed)
            run_s = time.perf_counter() - t
        finally:
            simulator._event_codes, simulator._sim_batch = event_codes, sim_batch
        t = time.perf_counter()
        rows = simulator.compare_with_analytic(model, stats)
        compare_s = time.perf_counter() - t
        times = {"run_s": run_s, "draws_s": draws_s, "kernel_s": batch_s - draws_s,
                 "rest_s": run_s - batch_s, "compare_s": compare_s}
        return times, stats, len(rows)

    def traced_peak_mb(fn, *fn_args):
        tracemalloc.start()
        try:
            out = fn(*fn_args)
            return out, tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()

    cold, stats, n_rows = measure()
    warm = [measure()[0] for _ in range(WARM_REPEATS)]
    layers = ("run_s", "draws_s", "kernel_s", "rest_s", "compare_s")
    median_run = {**sorted(warm, key=lambda w: w["run_s"])[WARM_REPEATS // 2],
                  "compare_s": statistics.median(w["compare_s"] for w in warm)}
    max_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    traced, run_peak = traced_peak_mb(simulator.run, model, args.events, args.seed)
    _, compare_peak = traced_peak_mb(simulator.compare_with_analytic, model, traced)
    result = {
        "model": args.model,
        "events": args.events,
        "seed": args.seed,
        "cold": {k: round(cold[k], 6) for k in layers},
        "warm_median": {k: round(median_run[k], 6) for k in layers},
        "memory_mb": {
            "run_traced_peak": round(run_peak, 3),
            "compare_traced_peak": round(compare_peak, 3),
            "ru_maxrss": round(max_rss_mb, 2),
        },
        "occupancy_keys": len(stats.order_rows),
        "occupancy_entries": len(stats.entry_counts),
        "verify_rows": n_rows,
    }
    for phase in ("cold", "warm_median", "memory_mb"):
        print(phase, " ".join(f"{k}={v:.4f}" for k, v in result[phase].items()))
    print(f"occupancy_keys={result['occupancy_keys']} "
          f"occupancy_entries={result['occupancy_entries']} verify_rows={result['verify_rows']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
