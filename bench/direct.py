"""Single-point matching rates straight from the library, the reference for the sweep check.

    PYTHONPATH=src python3 bench/direct.py MODEL.json RHO [RHO ...]

prints one JSON list with {"rates": {"good,agent": rate}, "loss": {good: rate}}
per rho, each from `matching_rates` on the model rescaled to that rho.
"""

from __future__ import annotations

import json
import sys

from fcfs_match import load_model, matching_rates


def direct_rates(path: str, grid: list[float]) -> list[dict]:
    model = load_model(path)
    out = []
    for rho in grid:
        report = matching_rates(model.with_lambda_bar(rho * model.mu_bar))
        out.append({
            "rates": {f"{g},{a}": v for (g, a), v in report.rates.items()},
            "loss": dict(report.loss),
        })
    return out


if __name__ == "__main__":
    print(json.dumps(direct_rates(sys.argv[1], [float(x) for x in sys.argv[2:]])))
