"""The traced run: spans around calls into each module, and the per-layer metrics.

Spans exist only in this file. Tracer.install replaces, in the namespaces of
the library modules and of the CLI, every public function of a library module
by a wrapper that records a span (name, start, end, parent, root). A call from
cli into analytic, or from simulator into delays, therefore shows up as a child
of the span that made it. uninstall puts the originals back; nothing under
src/ changes. A span's self time is its duration minus that of its children.

Every per-layer metric is measured on every workload, on the workload's first
model, so each layer's number is present wherever the traced run goes.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import io
import os
import statistics
import subprocess
import sys
import time

import checks
from workloads import COMMANDS, THREADS_ENV, Step

LIBRARY = ("model", "analytic", "delays", "limits", "simulator")
REPEATS = 5  # for the sub-millisecond probes and the import timing
# simulator.run's fixed and per-event cost: SPLIT_PAIRS pairs of runs at
# SPLIT_EVENTS and twice that, then SPLIT_PAIRS runs at FIXED_EVENTS; every one
# of them discards its first 1/BURN_IN_DIVISOR events as burn-in.
SPLIT_EVENTS = 40_000
SPLIT_PAIRS = 3
FIXED_EVENTS = 50  # the fewest that run's default 50 batches allow
BURN_IN_DIVISOR = 100
# Called once per subset inside the 2^I loops of model.py: a span there would
# cost about as much as the call it times.
UNTRACED = {"compatible_goods", "compatible_agents", "unique_users"}

PER_LAYER = {  # name -> unit
    "cli.import_s": "s",
    **{f"cli.main.{c}.self_s": "s" for c in COMMANDS},
    "model.load_model.s": "s",
    "model.stability_checks.s": "s",
    "analytic.matching_rates.cold_s": "s",
    "analytic.terms": "count",
    "delays.delay_moments.cold_s": "s",
    "delays.delay_pgf.point_s": "s",
    "delays.wait_mgf.point_s": "s",
    "limits.sweep.point_s": "s",
    "limits.sweep.pooled_point_s": "s",
    "limits.sweep.pool_speedup": "ratio",
    "simulator.run.events_per_s": "1/s",
    "simulator.run.fixed_s": "s",
    "simulator.run.per_event_us": "us",
    "simulator.run.occupancy_keys": "count",
    "simulator.run.post_burn_in_frac": "ratio",
    "simulator.analytic_pi_y.s": "s",
    "simulator.analytic_pi_y.entries": "count",
    "simulator.pi_y_rows_kept_frac": "ratio",
    "simulator.compare_with_analytic.self_s": "s",
    "simulator.verify_rows": "count",
    "simulator.unestimable_rows": "count",
    "simulator.verify_bad_row_frac": "ratio",
    "trace.overhead_frac": "ratio",  # traced minus untraced cli.main time, over untraced
    "trace.spans": "count",
    "trace.span_cost_us": "us",
}


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.patched: list[tuple] = []

    @contextlib.contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        record = {"id": sid, "name": name, "parent": self.stack[-1] if self.stack else None,
                  "root": self.stack[0] if self.stack else sid, "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self.stack.append(sid)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self.stack.pop()

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def install(self) -> None:
        modules = [importlib.import_module(f"fcfs_match.{m}") for m in (*LIBRARY, "cli")]
        library = {f"fcfs_match.{m}" for m in LIBRARY}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ in library and attr not in UNTRACED):
                    name = f"{obj.__module__.rsplit('.', 1)[1]}.{obj.__name__}"
                    self.patched.append((module, attr, obj))
                    setattr(module, attr, self._wrap(obj, name))

    def uninstall(self) -> None:
        for module, attr, obj in self.patched:
            setattr(module, attr, obj)
        self.patched = []

    def duration(self, record: dict) -> float:
        return record["end"] - record["start"]

    def self_times(self) -> list[float]:
        """Self time of every span, indexed by span id."""
        own = [self.duration(s) for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= self.duration(s)
        return own

    def timed(self, name: str, fn, *args):
        with self.span(name) as record:
            value = fn(*args)
        return value, record


def clear_caches() -> None:
    """Empty the library's memo caches, so a call pays what a fresh CLI process pays."""
    from fcfs_match import analytic, delays

    for cached in (getattr(analytic, "_cached_pass", None), getattr(delays, "min_stage_rate", None)):
        if hasattr(cached, "cache_clear"):
            cached.cache_clear()


@contextlib.contextmanager
def threads(count: int | None):
    saved = os.environ.pop(THREADS_ENV, None)
    if count is not None:
        os.environ[THREADS_ENV] = str(count)
    try:
        yield
    finally:
        os.environ.pop(THREADS_ENV, None)
        if saved is not None:
            os.environ[THREADS_ENV] = saved


def import_seconds(env: dict) -> float:
    """Median wall time of importing fcfs_match.cli minus that of a bare interpreter."""
    bare, full = [], []
    for _ in range(REPEATS):
        for code, samples in (("pass", bare), ("import fcfs_match.cli", full)):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
            samples.append(time.perf_counter() - start)
    return statistics.median(full) - statistics.median(bare)


def cli_pass(tracer: Tracer, workload, models, workdir) -> tuple[list, dict]:
    """Each command through cli.main in this process with cold caches, traced
    and then untraced right after, so both calls see the same host load.

    Returns (outputs as (command, exit code, text), {command: (span, traced_s, untraced_s)}).
    """
    from fcfs_match import cli

    outputs, timings = [], {}
    for command in COMMANDS:
        out_path = workdir / f"{command}.out"
        argv = models.argv(Step(command, 0)) + ["--out", str(out_path)]
        seconds, record = [], None
        for traced in (True, False):
            clear_caches()
            if traced:
                tracer.install()
            try:
                with threads(workload.sweep_threads if command == "sweep" else None), \
                        contextlib.redirect_stderr(io.StringIO()):
                    start = time.perf_counter()
                    if traced:
                        code, record = tracer.timed(f"cli.main {command}", cli.main, argv)
                    else:
                        code = cli.main(argv)
                    seconds.append(time.perf_counter() - start)
            finally:
                tracer.uninstall()
            outputs.append((command, code, out_path.read_text(encoding="utf-8")))
        timings[command] = (record, *seconds)
    return outputs, timings


def span_cost_us(tracer: Tracer) -> float:
    """Cost of one span: a traced no-op call minus a bare one, in microseconds."""
    calls = 20_000

    def noop():
        return None

    wrapped = tracer._wrap(noop, "calibration")
    costs = []
    for fn in (noop, wrapped):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        costs.append(time.perf_counter() - start)
    del tracer.spans[-calls:]
    return (costs[1] - costs[0]) / calls * 1e6


def layer_pass(tracer: Tracer, workload, models, seed: int) -> dict:
    """One round of per-layer probes on the workload's first model."""
    from fcfs_match import analytic, delays, limits, model as model_mod, simulator

    path = models.path(0)
    found: dict = {}

    loads = [tracer.timed("probe model.load_model", model_mod.load_model, path) for _ in range(REPEATS)]
    found["model.load_model.s"] = statistics.median(tracer.duration(r) for _, r in loads)
    stability = []
    for _ in range(REPEATS):
        m = model_mod.load_model(path)
        with tracer.span("probe model.stability_checks") as record:
            model_mod.check_stability(m)
            model_mod.check_crp(m)
            model_mod.max_stable_rho(m)
        stability.append(tracer.duration(record))
    found["model.stability_checks.s"] = statistics.median(stability)

    m = model_mod.load_model(path)
    args = workload.sweep_args(models.data[0])
    rho = m.rho
    grid = checks.sweep_grid(float(args[1]), float(args[3]), int(args[5]))
    if len(grid) < 2:  # the pool needs two points to start
        grid = checks.sweep_grid(rho / 2, rho, 2)
    sweep_s = {}
    for label, count in (("serial", None), ("pooled", 2)):
        clear_caches()
        with threads(count):
            _, record = tracer.timed(f"probe limits.sweep {label}", limits.sweep, m, grid)
        sweep_s[label] = tracer.duration(record)
    found["limits.sweep.point_s"] = sweep_s["serial"] / len(grid)
    found["limits.sweep.pooled_point_s"] = sweep_s["pooled"] / len(grid)
    found["limits.sweep.pool_speedup"] = sweep_s["serial"] / sweep_s["pooled"]

    clear_caches()
    m = model_mod.load_model(path)
    report, record = tracer.timed("probe analytic.matching_rates", analytic.matching_rates, m)
    found["analytic.matching_rates.cold_s"] = tracer.duration(record)
    _, record = tracer.timed("probe delays.delay_moments", delays.delay_moments, m)
    found["delays.delay_moments.cold_s"] = tracer.duration(record)
    found["analytic.terms"], _ = tracer.timed(
        "probe analytic.enumerate_terms", analytic.enumerate_terms, m, lambda term: None)

    pair = max(report.rates, key=report.rates.get)
    pgf = [tracer.timed("probe delays.delay_pgf", delays.delay_pgf, m, pair, z)[1] for z in (0.5, 0.9)]
    found["delays.delay_pgf.point_s"] = statistics.median(tracer.duration(r) for r in pgf)
    limit = delays.min_stage_rate(m)
    mgf = [tracer.timed("probe delays.wait_mgf", delays.wait_mgf, m, pair, f * limit)[1]
           for f in (0.25, 0.5)]
    found["delays.wait_mgf.point_s"] = statistics.median(tracer.duration(r) for r in mgf)

    # the run verify makes: its stats feed the compare probe below
    n = workload.verify_events
    stats, record = tracer.timed("probe simulator.run", simulator.run, m, n, seed)
    found["simulator.run.events_per_s"] = n / tracer.duration(record)
    found["simulator.run.occupancy_keys"] = len(stats.occupancy)
    found["simulator.run.post_burn_in_frac"] = stats.events_post_burn_in / n

    # time = fixed + events * per_event. The slope comes from pairs of runs at
    # N and 2N events with the same burn-in share, so both runs mix burn-in and
    # counted events alike; the intercept from short runs, less their events.
    def run_s(events: int) -> float:
        _, record = tracer.timed(f"probe simulator.run {events}", simulator.run,
                                 m, events, seed, events // BURN_IN_DIVISOR)  # burn_in
        return tracer.duration(record)

    slopes = []
    for _ in range(SPLIT_PAIRS):
        t1 = run_s(SPLIT_EVENTS)
        slopes.append((run_s(2 * SPLIT_EVENTS) - t1) / SPLIT_EVENTS)
    per_event = statistics.median(slopes)
    found["simulator.run.per_event_us"] = per_event * 1e6
    found["simulator.run.fixed_s"] = statistics.median(
        run_s(FIXED_EVENTS) for _ in range(SPLIT_PAIRS)) - FIXED_EVENTS * per_event

    table, record = tracer.timed("probe simulator.analytic_pi_y", simulator.analytic_pi_y, m)
    found["simulator.analytic_pi_y.s"] = tracer.duration(record)
    found["simulator.analytic_pi_y.entries"] = len(table)
    rows, record = tracer.timed("probe simulator.compare_with_analytic",
                                simulator.compare_with_analytic, m, stats)
    compare = next(s for s in tracer.spans[record["id"] + 1:] if s["parent"] == record["id"])
    found["simulator.compare_with_analytic.self_s"] = tracer.self_times()[compare["id"]]
    pi_rows = sum(1 for row in rows if row.quantity.startswith("pi_y["))
    found["simulator.pi_y_rows_kept_frac"] = pi_rows / len(table)
    bad, unestimable = checks.bad_rows(row.z for row in rows)
    found["simulator.verify_rows"] = len(rows)
    found["simulator.unestimable_rows"] = unestimable
    found["simulator.verify_bad_row_frac"] = bad / len(rows)
    return found


def traced_run(workload, seed: int, seconds: int, models, src, env: dict, workdir, record: dict) -> dict:
    """Per-layer metrics: medians over as many passes as fit in `seconds` (at least one)."""
    import_s = import_seconds(env)  # before this process imports the package
    sys.path.insert(0, str(src))

    tracer = Tracer()
    span_us = span_cost_us(tracer)
    passes: list[dict] = []
    outputs: list = []
    attempted = 0
    pass_s = 0.0
    begin = time.perf_counter()
    while not passes or time.perf_counter() - begin + pass_s <= seconds:
        pass_start = time.perf_counter()
        first_span = len(tracer.spans)
        tracer.install()
        try:  # the probes go first, so the CLI calls below find lazy imports done
            found = layer_pass(tracer, workload, models, seed)
        finally:
            tracer.uninstall()
        pass_outputs, timings = cli_pass(tracer, workload, models, workdir)
        attempted += 1 + len(pass_outputs)
        own = tracer.self_times()
        for command, (span, _, _) in timings.items():
            found[f"cli.main.{command}.self_s"] = own[span["id"]]
        traced_s = sum(t for _, t, _ in timings.values())
        plain_s = sum(t for _, _, t in timings.values())
        found["trace.overhead_frac"] = (traced_s - plain_s) / plain_s
        found["trace.spans"] = len(tracer.spans) - first_span
        passes.append(found)
        outputs += pass_outputs
        pass_s = time.perf_counter() - pass_start

    metrics = {"cli.import_s": {"value": import_s, "unit": PER_LAYER["cli.import_s"]},
               "trace.span_cost_us": {"value": span_us, "unit": PER_LAYER["trace.span_cost_us"]}}
    for name, unit in PER_LAYER.items():
        if name not in metrics:
            metrics[name] = {"value": statistics.median(p[name] for p in passes), "unit": unit}

    self_by_name: dict[str, float] = {}
    for span, own in zip(tracer.spans, tracer.self_times()):
        self_by_name[span["name"]] = self_by_name.get(span["name"], 0.0) + own
    lines = [f"{workload.name} seed {seed}: traced run, {len(passes)} pass(es) in "
             f"{time.perf_counter() - begin:.1f} s, {len(tracer.spans)} spans",
             "  self time by span name (s), all passes:"]
    for name, total in sorted(self_by_name.items(), key=lambda kv: -kv[1])[:20]:
        lines.append(f"    {name:<45} {total:.4f}")
    record["spans"] = tracer.spans
    record["passes"] = passes
    return {"lines": lines, "metrics": metrics, "outputs": outputs, "attempted": attempted}
