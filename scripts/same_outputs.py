"""Check that two source trees give the same CLI output, call for call.

    python3 scripts/same_outputs.py --before ../old/src --after src

The models are the benchmark's: paper-3x3, verify-wide and the 43
analytic-wide models analytic-wide/s/0, s = 1..43, from bench/workloads.py;
and two unstable ones, so the gate holds the refusal paths: paper-3x3
overloaded (lambda_bar = 1.3) and paper-3x3 in the margin band (lambda_bar =
1 - 1e-13, a drain margin of 5e-14, below model.STABILITY_MARGIN). Every
call on these two but validate exits 3, except the overloaded model's sweep
up to rho = 1.3, which exits 2 (sweep needs rho-max < 1). They are written to files once, and
both trees read those files: the generator's lambda_bar can move by an ulp
with the string hash seed, so two interpreters generating the same model may
not agree.

Per model the calls are: validate; rates, delays and waits, each as json, as
csv and as --table; sweep over [rho/2, rho] in 3 steps; simulate --events
20000 --seed 3; and verify with the same arguments. paper-3x3 also runs
sweep --rho-min 0.05 --rho-max 0.95 --steps 19, the README's curve and the
bench's grid, so the gate holds a many-point grid. That verify call exits 5
on every bench model, at every tree since at least the one that added this
script: with the default burn-in of 10^4 it tallies 50 batches of 200
events, too few to pass. Identical exit codes, not exit 0, are what the
comparison asks of it. Each tree runs all calls in one interpreter of its own,
through fcfs_match.cli.main, and records per call the exit code, stdout and
stderr, or the exception that escaped main. The script prints how many calls
are identical and how many differ, lists the calls that differ, and exits 1
when any does. Every call, simulate included, is compared byte for byte.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ANALYTIC_WIDE_MODELS = range(1, 44)
REPORTS = ("rates", "delays", "waits")
REPORT_FORMATS = (["--format", "json"], ["--format", "csv"], ["--table"])
PUBLISHED_SWEEP = ["--rho-min", "0.05", "--rho-max", "0.95", "--steps", "19"]

# Runs in the child interpreter: reads a JSON list of argv lists on stdin and
# writes a JSON list of [exit code, stdout, stderr] on stdout.
CHILD = r"""
import contextlib, io, json, sys
from fcfs_match.cli import main

results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code = f"raised {type(exc).__name__}: {exc}"
    results.append([code, out.getvalue(), err.getvalue()])
json.dump(results, sys.stdout)
"""


def bench_models() -> dict[str, dict]:
    """The models by name, from bench/workloads.py, which is only read."""
    sys.dont_write_bytecode = True  # leave no __pycache__ in bench/
    sys.path.insert(0, str(ROOT / "bench"))
    from workloads import PAPER_3X3, WORKLOADS

    models = {"paper-3x3": PAPER_3X3, "paper-3x3-overloaded": {**PAPER_3X3, "lambda_bar": 1.3},
              "paper-3x3-margin": {**PAPER_3X3, "lambda_bar": 1 - 1e-13},
              "verify-wide": WORKLOADS["verify-wide"].model(0, 0)}
    for s in ANALYTIC_WIDE_MODELS:
        models[f"analytic-wide/{s}/0"] = WORKLOADS["analytic-wide"].model(s, 0)
    return models


def calls_for(name: str, path: str, model: dict) -> list[list[str]]:
    rho = model["lambda_bar"] / model["mu_bar"]
    calls = [["validate", "--model", path]]
    calls += [[command, "--model", path, *form] for command in REPORTS for form in REPORT_FORMATS]
    calls.append(["sweep", "--model", path, "--rho-min", repr(rho / 2), "--rho-max", repr(rho),
                  "--steps", "3"])
    if name == "paper-3x3":
        calls.append(["sweep", "--model", path, *PUBLISHED_SWEEP])
    calls += [[command, "--model", path, "--events", "20000", "--seed", "3"]
              for command in ("simulate", "verify")]
    return calls


def run_tree(src: Path, calls: list[list[str]]) -> list[list]:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0")
    proc = subprocess.run([sys.executable, "-c", CHILD], input=json.dumps(calls), env=env,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{src}: the child interpreter failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--before", required=True, help="source directory holding fcfs_match")
    parser.add_argument("--after", required=True, help="source directory holding fcfs_match")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        names, calls = [], []
        for name, model in bench_models().items():
            path = Path(tmp) / (name.replace("/", "-") + ".json")
            path.write_text(json.dumps(model), encoding="utf-8")
            for call in calls_for(name, str(path), model):
                names.append(name)
                calls.append(call)
        before = run_tree(Path(args.before).resolve(), calls)
        after = run_tree(Path(args.after).resolve(), calls)

    differ = []
    for name, call, old, new in zip(names, calls, before, after):
        parts = [part for part, a, b in zip(("exit code", "stdout", "stderr"), old, new) if a != b]
        if parts:
            shown = " ".join(arg for arg in call if arg != "--model" and not arg.endswith(".json"))
            differ.append(f"  {name}: {shown}: {', '.join(parts)} differ"
                          + (f" (exit {old[0]!r} -> {new[0]!r})" if old[0] != new[0] else ""))
    print(f"{len(calls) - len(differ)} of {len(calls)} calls identical, {len(differ)} differ")
    for line in differ:
        print(line)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
