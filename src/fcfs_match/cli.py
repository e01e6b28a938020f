"""Command-line front end.

Exit codes: 0 success, 2 invalid or unreadable model, invalid arguments, an
unwritable --out path, or a good's arrival rate or an edge's matching rate
that underflows to zero (ZeroRate), 3 unstable model or grid point, 4 too
many agent types (the lists over the 2^I agent sets would not fit in
memory), 5 verification failure.

verify writes a 5-column CSV whose quantity field is not quoted: pair
quantities such as rate[s1,c1] hold a comma, so split each row from the right
(4 times) to read it.

Each command imports the modules it runs inside its function, so a call loads
only those: validate loads no analytic module, rates no delay module, and only
simulate and verify load numpy.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import __version__
from ._format import fmt12, round12
from .errors import (
    DomainError,
    FcfsMatchError,
    ModelValidationError,
    TooManyTypes,
    UnstableGridPoint,
    UnstableModel,
)
from .model import check_crp, check_stability, load_model, max_stable_rho

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_UNSTABLE = 3
EXIT_TOO_LARGE = 4
EXIT_VERIFY_FAILED = 5


def _write(args, text: str) -> None:
    if not args.out:
        sys.stdout.write(text)
        return
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise FcfsMatchError(f"cannot write output: {exc}") from exc


def _emit_json(args, payload: dict) -> None:
    _write(args, json.dumps(payload, indent=2) + "\n")


def _rate_table(model, report) -> str:
    lines = []
    agents = model.agent_names
    lines.append("rates" + "".join(f"{a:>9}" for a in agents) + f"{'lost':>9}")
    for g in model.good_names:
        row = [f"{report.rates.get((g, a), 0.0):9.3f}" for a in agents]
        lines.append(f"{g:<5}" + "".join(row) + f"{report.loss[g]:9.3f}")
    return "\n".join(lines) + "\n"


def _moment_table(model, report, label: str) -> str:
    pair_mean, pair_var = report.pair_mean, report.pair_var
    agent_mean, agent_var = report.agent_mean, report.agent_var
    agents = model.agent_names
    lines = [f"{label} mean" + "".join(f"{a:>9}" for a in agents)]
    for g in model.good_names:
        row = [f"{pair_mean[(g, a)]:9.2f}" if (g, a) in pair_mean else f"{'-':>9}" for a in agents]
        lines.append(f"{g:<10}" + "".join(row))
    lines.append(f"{label} sd  " + "".join(f"{a:>9}" for a in agents))
    for g in model.good_names:
        row = [
            f"{pair_var[(g, a)] ** 0.5:9.2f}" if (g, a) in pair_var else f"{'-':>9}"
            for a in agents
        ]
        lines.append(f"{g:<10}" + "".join(row))
    lines.append(
        "agents     "
        + "  ".join(f"{a}: {agent_mean[a]:.2f} (sd {agent_var[a] ** 0.5:.2f})" for a in agents)
    )
    return "\n".join(lines) + "\n"


def cmd_validate(args) -> int:
    try:
        model = load_model(args.model)
    except ModelValidationError as exc:
        _emit_json(args, {"valid": False, "errors": [str(i) for i in exc.issues]})
        return EXIT_INVALID
    stability = check_stability(model)
    rho = max_stable_rho(model)
    scan = model.subset_scan
    payload = {
        "valid": True,
        "errors": [],
        "agent_types": len(model.agent_types),
        "good_types": len(model.good_types),
        "rho": round12(model.rho),
        "stable": stability.stable,
        "witness": list(stability.witness.names) if stability.witness else None,
        "crp": check_crp(model),
        "max_stable_rho": round12(rho.value),
        "max_stable_rho_uncapped": None if rho.uncapped == float("inf") else round12(rho.uncapped),
        "min_drain_margin": round12(scan.theta[scan.worst] / model.total_rate),
        "min_drain_set": list(model.subset_from_mask("agent", scan.worst).names),
    }
    _emit_json(args, payload)
    return EXIT_OK


def _cmd_report(args, compute, table) -> int:
    """Write compute(model) as JSON, as CSV or, with --table, as table(model, report)."""
    model = load_model(args.model)
    report = compute(model)
    if args.table:
        _write(args, table(model, report))
    elif args.format == "csv":
        _write(args, report.to_csv())
    else:
        _emit_json(args, report.to_json_dict())
    return EXIT_OK


def cmd_rates(args) -> int:
    from .analytic import matching_rates

    return _cmd_report(args, matching_rates, _rate_table)


def cmd_delays(args) -> int:
    from .delays import delay_moments

    return _cmd_report(args, delay_moments, lambda m, r: _moment_table(m, r, "delay"))


def cmd_waits(args) -> int:
    from .delays import wait_moments

    return _cmd_report(args, wait_moments, lambda m, r: _moment_table(m, r, "wait"))


def _grid(args) -> list[float]:
    if args.steps < 1:
        raise DomainError("steps must be >= 1")
    if not 0.0 < args.rho_min <= args.rho_max < 1.0:
        raise DomainError("need 0 < rho-min <= rho-max < 1")
    if args.steps == 1:
        return [args.rho_min]
    step = (args.rho_max - args.rho_min) / (args.steps - 1)
    return [args.rho_min + k * step for k in range(args.steps)]


def cmd_sweep(args) -> int:
    from .limits import sweep

    model = load_model(args.model)
    series = sweep(model, _grid(args))
    _write(args, series.to_csv())
    return EXIT_OK


def cmd_simulate(args) -> int:
    from .simulator import run  # numpy loads only for the simulator commands

    model = load_model(args.model)
    stats = run(model, args.events, args.seed, burn_in=args.burn_in)
    _emit_json(args, stats.to_json_dict())
    return EXIT_OK


def cmd_verify(args) -> int:
    from .simulator import compare_with_analytic, run

    if not args.z_max > 0:  # NaN would pass every row
        raise DomainError(f"--z-max must be positive, got {args.z_max:g}")
    model = load_model(args.model)
    stats = run(model, args.events, args.seed, burn_in=args.burn_in)
    rows = compare_with_analytic(model, stats)
    lines = ["quantity,analytic,empirical,stderr,z_score"]
    for row in rows:
        lines.append(
            f"{row.quantity},{fmt12(row.analytic)},{fmt12(row.empirical)},"
            f"{fmt12(row.stderr)},{fmt12(row.z)}"
        )
    _write(args, "\n".join(lines) + "\n")
    # a row without a finite z could not be checked, so it fails too
    unestimable = [row.quantity for row in rows if not math.isfinite(row.z)]
    worst = max((abs(row.z) for row in rows if math.isfinite(row.z)), default=0.0)
    if unestimable:
        print(f"verification FAILED: no finite z-score for {', '.join(unestimable)}",
              file=sys.stderr)
    if worst > args.z_max:
        print(f"verification FAILED: max |z| = {worst:.2f} > {args.z_max:g}", file=sys.stderr)
    if unestimable or worst > args.z_max:
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fcfs-match",
        description="Exact metrics and Monte Carlo verification for directed FCFS matching",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_rng=False, formats=False):
        p.add_argument("--model", required=True, help="model JSON file")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        if formats:
            p.add_argument("--format", choices=("json", "csv"), default="json")
            p.add_argument("--table", action="store_true", help="print a readable table instead")
        if needs_rng:
            p.add_argument("--events", type=int, default=1_000_000)
            p.add_argument("--seed", type=int, default=1)
            p.add_argument("--burn-in", type=int, default=None,
                           help="events discarded before tallying (default: 1%% of run, min 1e4)")

    p = sub.add_parser("validate", help="check model invariants, stability, pooling")
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("rates", help="matching and loss rates")
    common(p, formats=True)
    p.set_defaults(func=cmd_rates)

    p = sub.add_parser("delays", help="delay means and variances")
    common(p, formats=True)
    p.set_defaults(func=cmd_delays)

    p = sub.add_parser("waits", help="waiting-time means and variances (Poisson arrivals)")
    common(p, formats=True)
    p.set_defaults(func=cmd_waits)

    p = sub.add_parser("sweep", help="rates and delays over a traffic-intensity grid")
    common(p)
    p.add_argument("--rho-min", type=float, default=0.1)
    p.add_argument("--rho-max", type=float, default=0.9)
    p.add_argument("--steps", type=int, default=9)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("simulate", help="Monte Carlo run; emits raw statistics as JSON")
    common(p, needs_rng=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="simulate and compare against the analytic results")
    common(p, needs_rng=True)
    p.add_argument("--z-max", type=float, default=4.0)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ModelValidationError as exc:
        for issue in exc.issues:
            print(f"invalid model: {issue}", file=sys.stderr)
        return EXIT_INVALID
    except (UnstableModel, UnstableGridPoint) as exc:
        print(f"unstable: {exc}", file=sys.stderr)
        return EXIT_UNSTABLE
    except TooManyTypes as exc:
        print(f"too many types: {exc}", file=sys.stderr)
        return EXIT_TOO_LARGE
    except FcfsMatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
