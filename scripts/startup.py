"""Time the CLI's cold start, command by command, for two source trees.

    python3 scripts/startup.py --before ../old/src --after src --model model.json --repeats 41

Each repeat runs every command once from each tree, as its own
`python -m fcfs_match.cli` process, the tree that goes first alternating from
repeat to repeat, so both see the same host load. Wall time is measured
around the child from start to os.wait4, and peak RSS is the child's
ru_maxrss. One discarded call per tree and command comes first. Every call
must exit as documented (0, or 5 for a verify whose table has some |z| above
--z-max), and both trees must print the same bytes.

sweep runs two points, rho/2 and the model's rho; simulate and verify run
20,000 events at seed 1, verify with --z-max inf.

Then all the modules are imported in `python -X importtime` 11 times from
each tree, interleaved the same way: each repeat imports once from each
tree, the tree that goes first alternating. The median self time of every
fcfs_match module is printed per tree.

The children inherit this process's environment, PYTHONDONTWRITEBYTECODE
included: run the script with and without it to see what compiling the
modules from source costs. The last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

COMMANDS = ("validate", "rates", "delays", "waits", "sweep", "simulate", "verify")
OK_CODES = {"verify": (0, 5)}
EVENTS = 20_000  # simulate and verify
IMPORT_ALL = "import fcfs_match.cli, fcfs_match.limits, fcfs_match.simulator"
IMPORT_REPEATS = 11


def child_env(src: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(src), env.get("PYTHONPATH"))))
    return env


def call(src: Path, argv: list[str]) -> tuple[float, float, int, bytes]:
    """(wall seconds, peak RSS in MB, exit code, stdout) of one CLI process."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "fcfs_match.cli", *argv], env=child_env(src),
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL)
    out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    return seconds, usage.ru_maxrss / 1024.0, proc.returncode, out  # ru_maxrss: KiB on Linux


def command_argv(command: str, model: str) -> list[str]:
    argv = [command, "--model", model]
    if command == "sweep":
        data = json.loads(Path(model).read_text(encoding="utf-8"))
        rho = data["lambda_bar"] / data["mu_bar"]
        argv += ["--rho-min", repr(rho / 2), "--rho-max", repr(rho), "--steps", "2"]
    elif command in ("simulate", "verify"):
        argv += ["--events", str(EVENTS), "--seed", "1"]
        if command == "verify":
            argv += ["--z-max", "inf"]
    return argv


def summary(samples: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def tree_order(trees: dict[str, Path], repeat: int) -> list[str]:
    """The trees in the order repeat runs them: the first one alternates."""
    return list(trees) if repeat % 2 else list(reversed(trees))


def import_self_us(trees: dict[str, Path]) -> dict[str, dict[str, float]]:
    """Per tree, the median -X importtime self time (microseconds) of each
    fcfs_match module, the trees interleaved repeat by repeat."""
    found: dict[str, dict[str, list[int]]] = {tree: {} for tree in trees}
    for repeat in range(IMPORT_REPEATS):
        for tree in tree_order(trees, repeat):
            proc = subprocess.run([sys.executable, "-X", "importtime", "-c", IMPORT_ALL],
                                  env=child_env(trees[tree]), capture_output=True, text=True,
                                  check=True)
            for line in proc.stderr.splitlines():
                fields = line.removeprefix("import time:").split("|")
                if len(fields) == 3 and fields[2].strip().startswith("fcfs_match"):
                    found[tree].setdefault(fields[2].strip(), []).append(int(fields[0]))
    return {tree: {name: statistics.median(us) for name, us in sorted(by_module.items())}
            for tree, by_module in found.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--before", required=True, help="source directory holding fcfs_match")
    parser.add_argument("--after", required=True, help="source directory holding fcfs_match")
    parser.add_argument("--model", required=True, help="model JSON file")
    parser.add_argument("--repeats", type=int, default=41)
    args = parser.parse_args(argv)
    trees = {"before": Path(args.before).resolve(), "after": Path(args.after).resolve()}
    if args.repeats < 2:
        parser.error("need --repeats >= 2")

    seconds = {c: {t: [] for t in trees} for c in COMMANDS}
    rss = {c: {t: [] for t in trees} for c in COMMANDS}
    problems = []
    for repeat in range(-1, args.repeats):  # repeat -1 is the discarded warm-up
        order = tree_order(trees, repeat)
        for command in COMMANDS:
            cli_argv = command_argv(command, args.model)
            outputs = {}
            for tree in order:
                wall, peak, code, out = call(trees[tree], cli_argv)
                if code not in OK_CODES.get(command, (0,)):
                    problems.append(f"{tree} {command}: exit {code}")
                outputs[tree] = out
                if repeat >= 0:
                    seconds[command][tree].append(wall)
                    rss[command][tree].append(peak)
            if outputs["before"] != outputs["after"]:
                problems.append(f"{command}: the trees print different output")

    result = {"model": args.model, "repeats": args.repeats,
              "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
              "commands": {}, "import_self_us": {}, "problems": sorted(set(problems))}
    print(f"{'command':<9} {'before s (q1-q3)':>24} {'after s (q1-q3)':>24} {'after/before':>12} "
          f"{'RSS MB':>13}")
    for command in COMMANDS:
        row = {t: {**summary(seconds[command][t]),
                   "peak_rss_mb": statistics.median(rss[command][t])} for t in trees}
        row["after_faster"] = sum(a < b for a, b in zip(seconds[command]["after"],
                                                        seconds[command]["before"]))
        result["commands"][command] = row
        b, a = row["before"], row["after"]
        print(f"{command:<9} {b['median']:>8.4f} ({b['q1']:.4f}-{b['q3']:.4f}) "
              f"{a['median']:>8.4f} ({a['q1']:.4f}-{a['q3']:.4f}) "
              f"{a['median'] / b['median']:>12.3f} {b['peak_rss_mb']:>6.1f} {a['peak_rss_mb']:>6.1f}")

    result["import_self_us"] = import_self_us(trees)
    modules = sorted(set().union(*(found.keys() for found in result["import_self_us"].values())))
    print(f"\n{'-X importtime self, median us':<30} {'before':>8} {'after':>8}")
    for name in modules:
        cells = [result["import_self_us"][t].get(name) for t in trees]
        print(f"{name:<30} " + " ".join(f"{'-' if c is None else round(c):>8}" for c in cells))
    for problem in result["problems"]:
        print(f"problem: {problem}")
    print(json.dumps(result))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
