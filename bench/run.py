"""Benchmark of the fcfs-match CLI: time to answer per command, plus a traced per-layer run.

Run from the repository root:

    python3 bench/run.py --workload paper-3x3 --seed 1 --seconds 30 --trace 0

--trace 0 times real CLI calls, `python -m fcfs_match.cli ...` with
PYTHONPATH=src, in a closed loop with one client: the next call starts only
after the previous one has exited. Wall time comes from time.perf_counter and
peak memory from each child's os.wait4 rusage. Every output is checked. A call
that exits with a code not documented for its input, or whose output fails a
check, counts as failed.

--trace 1 runs the same commands and the library's layers in this process,
with spans around the calls into each module (see tracing.py), and reports the
per-layer metrics.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The full record (environment, every call,
spans) is written to .bench_run/ under the repository root.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks
from workloads import COMMANDS, THREADS_ENV, WORKLOADS, Step, Workload, max_stable_rho

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"

OK_CODES = {"verify": (0, 5)}  # 5: a well-formed table with some |z| above --z-max
TAIL_BEYOND = 10  # a tail is the highest percentile with this many samples beyond it
MAX_PRINTED_PROBLEMS = 10
RUN_LIMIT_S = 170.0  # every call is killed past this point, so a run ends within 180 s

END_TO_END = {  # metric -> (unit, command whose median wall time it is)
    "setup_s": ("s", "validate"),
    "rates_s": ("s", "rates"),
    "delays_s": ("s", "delays"),
    "sweep_s": ("s", "sweep"),
    "verify_s": ("s", "verify"),
}


@dataclass
class Call:
    command: str
    model: int
    seconds: float
    code: int
    rss_mb: float
    out: str
    err: str


class Cli:
    """Runs one CLI call at a time and reaps it with os.wait4 for its rusage."""

    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.env = child_env()

    def call(self, argv: list[str], threads: int | None = None) -> tuple[float, int, float, str, str]:
        env = self.env if threads is None else {**self.env, THREADS_ENV: str(threads)}
        out_path, err_path = self.workdir / "stdout", self.workdir / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "fcfs_match.cli", *argv],
                stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=env, cwd=ROOT,
                start_new_session=True,
            )
            timer = threading.Timer(max(0.0, self.deadline - time.monotonic()), _kill_group, (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                _kill_group(proc.pid)
                proc.wait()
                raise
            finally:
                timer.cancel()
                timer.join()
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        # ru_maxrss is in KiB on Linux
        return (seconds, proc.returncode, usage.ru_maxrss / 1024.0,
                out_path.read_text(encoding="utf-8", errors="replace"),
                err_path.read_text(encoding="utf-8", errors="replace"))


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    env.pop(THREADS_ENV, None)
    return env


def environment(workload: Workload) -> dict:
    def version(package: str) -> str | None:
        try:
            return importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            return None

    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            commit = done.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "numba": importlib.util.find_spec("numba") is not None,
        THREADS_ENV: {"sweep": workload.sweep_threads, "other commands": None},
        "loadavg_at_start": list(os.getloadavg()),
    }


class Models:
    """The workload's model files, written on first use."""

    def __init__(self, workload: Workload, seed: int, workdir: Path):
        self.workload, self.seed, self.workdir = workload, seed, workdir
        self.data: dict[int, dict] = {}

    def path(self, k: int) -> str:
        path = self.workdir / f"model{k}.json"
        if k not in self.data:
            self.data[k] = self.workload.model(self.seed, k)
            path.write_text(json.dumps(self.data[k]), encoding="utf-8")
        return str(path)

    def argv(self, step: Step) -> list[str]:
        argv = [step.command, "--model", self.path(step.model)]
        if step.command == "sweep":
            argv += self.workload.sweep_args(self.data[step.model])
        elif step.command == "verify":
            argv += ["--events", str(self.workload.verify_events), "--seed", str(self.seed)]
        return argv


def tail(samples: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with TAIL_BEYOND samples beyond it."""
    n = len(samples)
    if n <= TAIL_BEYOND:
        return None
    return 100.0 * (n - TAIL_BEYOND) / n, sorted(samples)[n - TAIL_BEYOND - 1]


class Checker:
    """Checks each distinct (command, model) output once; repeats must be identical."""

    def __init__(self, models: Models, cli: Cli, workload: Workload):
        self.models, self.cli, self.workload = models, cli, workload
        self.first: dict[tuple[str, int], str] = {}
        self.verdict: dict[tuple[str, int], list[str]] = {}
        self.bad_rows = [0, 0, 0]  # rows over z-max or non-finite, non-finite, all rows

    def problems(self, call: Call) -> list[str]:
        if call.code not in OK_CODES.get(call.command, (0,)):
            return [f"{call.command}: exit code {call.code}: {call.err.strip()[-300:]}"]
        key = (call.command, call.model)
        if key in self.verdict:
            same = self.first[key] == call.out
            return self.verdict[key] if same else [f"{call.command}: output differs between identical calls"]
        self.first[key] = call.out
        try:
            self.verdict[key] = self._check(call)
        except (ValueError, KeyError, TypeError) as exc:
            self.verdict[key] = [f"{call.command}: unreadable output ({type(exc).__name__}: {exc})"]
        return self.verdict[key]

    def _check(self, call: Call) -> list[str]:
        k = call.model
        model = self.models.data[k]
        if call.command == "validate":
            return checks.check_validate(json.loads(call.out), max_stable_rho(model))
        rates = json.loads(self.first[("rates", k)])
        if call.command == "rates":
            return checks.check_rates(rates, model)
        delays = json.loads(self.first[("delays", k)])
        if call.command == "delays":
            found = checks.check_delays(delays, rates)
            if self.workload.name == "paper-3x3":
                found += checks.check_paper(rates, delays)
            return found
        if call.command == "verify":
            rows = checks.parse_verify(call.out)
            bad, unestimable = checks.bad_rows(row[4] for row in rows)
            self.bad_rows = [bad, unestimable, len(rows)]
            return checks.check_verify(rows, rates, delays)
        args = self.workload.sweep_args(model)
        grid = checks.sweep_grid(float(args[1]), float(args[3]), int(args[5]))
        done = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("direct.py")), self.models.path(k),
             *map(repr, grid)],
            capture_output=True, text=True, env=self.cli.env, cwd=ROOT,
            timeout=max(1.0, self.cli.deadline - time.monotonic()),
        )
        if done.returncode != 0:
            return [f"sweep: reference rates failed: {done.stderr.strip()[-300:]}"]
        return checks.check_sweep(call.out, grid, json.loads(done.stdout))


def check_calls(checker: Checker, calls: list[Call]) -> tuple[int, list[str]]:
    """(calls that failed, problems found). Commands are checked in COMMANDS
    order, so each model's rates output is checked before it serves as a reference."""
    failed = 0
    problems: dict[str, None] = {}  # insertion-ordered set: repeated calls repeat their problems
    for c in sorted(calls, key=lambda c: COMMANDS.index(c.command)):
        found = checker.problems(c)
        failed += bool(found)
        problems.update(dict.fromkeys(found))
    return failed, list(problems)


def measure(workload: Workload, seed: int, seconds: int, cli: Cli, models: Models, record: dict) -> dict:
    cli.call(models.argv(Step("validate", 0)))  # untimed: compiles bytecode, fills the page cache

    calls: list[Call] = []

    def step(s: Step) -> None:
        threads = workload.sweep_threads if s.command == "sweep" else None
        calls.append(Call(s.command, s.model, *cli.call(models.argv(s), threads)))

    start = time.perf_counter()
    for s in workload.schedule():
        missing = set(COMMANDS) - {c.command for c in calls}
        if time.perf_counter() - start >= seconds and not missing:
            break
        step(s)
    loop_s = time.perf_counter() - start

    checker = Checker(models, cli, workload)
    failed, problems = check_calls(checker, calls)

    lines = [f"{workload.name} seed {seed}: {len(calls)} CLI calls in {loop_s:.1f} s, "
             "closed loop with one client"]
    metrics = {}
    for name, (unit, command) in END_TO_END.items():
        samples = [c.seconds for c in calls if c.command == command]
        metrics[name] = {"value": statistics.median(samples), "unit": unit}
        t = tail(samples)
        tail_text = f"p{t[0]:.0f} {t[1]:.4f} s" if t else f"n/a (needs more than {TAIL_BEYOND} samples)"
        lines.append(f"  {command:<8} n={len(samples):<3} median {statistics.median(samples):.4f} s  "
                     f"tail {tail_text}  min {min(samples):.4f}  max {max(samples):.4f}")
    metrics["peak_rss_mb"] = {"value": max(c.rss_mb for c in calls), "unit": "MB"}
    bad, unestimable, rows = checker.bad_rows
    lines.append(f"  failed_frac {failed}/{len(calls)} = {failed / len(calls):.4f} ratio")
    lines.append(f"  verify_bad_row_frac {bad}/{rows} = {bad / max(rows, 1):.6f} ratio "
                 f"({unestimable} rows with a non-finite z)")
    record["calls"] = [
        {"command": c.command, "model": c.model, "seconds": c.seconds, "code": c.code, "rss_mb": c.rss_mb}
        for c in calls
    ]
    record["verify_bad_row_frac"] = {"bad": bad, "unestimable": unestimable, "rows": rows}
    return {"lines": lines, "problems": problems, "attempted": len(calls), "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "fcfs_match" / "cli.py").is_file():
        print(f"error: no fcfs_match sources under {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    workdir = WORK / f"{stem}-{os.getpid()}"
    workdir.mkdir(parents=True)
    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(workload)}
    cli = Cli(workdir, time.monotonic() + RUN_LIMIT_S)
    models = Models(workload, args.seed, workdir)
    try:
        if args.trace:
            import tracing

            result = tracing.traced_run(workload, args.seed, args.seconds, models, SRC, cli.env,
                                        workdir, record)
            calls = [Call(command, 0, 0.0, code, 0.0, out, "") for command, code, out in result["outputs"]]
            result["failed"], result["problems"] = check_calls(Checker(models, cli, workload), calls)
        else:
            result = measure(workload, args.seed, args.seconds, cli, models, record)
    finally:
        for path in workdir.iterdir():
            path.unlink()
        workdir.rmdir()

    record.update(problems=result["problems"], metrics=result["metrics"])
    (WORK / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print("environment: " + json.dumps(record["environment"]))
    for line in result["lines"]:
        print(line)
    for problem in result["problems"][:MAX_PRINTED_PROBLEMS]:
        print(f"  CHECK FAILED: {problem}")
    if len(result["problems"]) > MAX_PRINTED_PROBLEMS:
        print(f"  ... {len(result['problems']) - MAX_PRINTED_PROBLEMS} more problems in {stem}.json")
    for name, m in result["metrics"].items():
        print(f"  {name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
