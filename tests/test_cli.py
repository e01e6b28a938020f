from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fcfs_match
from fcfs_match import (delay_moments, load_model, matching_rates, save_model, validate,
                        wait_moments, MatchingModel, ZeroRate)
from fcfs_match.cli import fmt12, main, round12
from fcfs_match.simulator import run

from conftest import (dense_row, make_disjoint_pairs, make_example3x3, make_single_pair,
                      random_multi_type_model, random_stable_model)
from oracles import min_drain


def _model_path(tmp_path, model, name="model.json"):
    path = tmp_path / name
    save_model(model, path)
    return str(path)


def test_validate_reports_structure(tmp_path, capsys, model_file):
    assert main(["validate", "--model", str(model_file)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["valid"] is True
    assert payload["stable"] is True
    assert payload["crp"] is True
    assert payload["max_stable_rho"] == pytest.approx(1.0)
    assert payload["max_stable_rho_uncapped"] == pytest.approx(1.25)


def test_validate_malformed_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops", encoding="utf-8")
    assert main(["validate", "--model", str(bad)]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["valid"] is False
    assert payload["errors"]


COMMANDS = ("validate", "rates", "delays", "waits", "sweep", "simulate", "verify")


@pytest.mark.parametrize("command", COMMANDS)
def test_unreadable_model_file_exits_2(tmp_path, capsys, command):
    latin = tmp_path / "latin.json"
    latin.write_bytes(b'{"agents": [{"name": "\xe9"}]}')
    for path, reason in ((tmp_path / "missing.json", "No such file"),
                         (latin, "can't decode byte 0xe9")):
        assert main([command, "--model", str(path)]) == 2
        captured = capsys.readouterr()
        if command == "validate":
            assert captured.err == ""
            payload = json.loads(captured.out)
            assert payload["valid"] is False
            [error] = payload["errors"]
        else:
            assert captured.out == ""
            assert captured.err.count("\n") == 1
            assert captured.err.startswith("invalid model: ")
            error = captured.err[len("invalid model: "):]
        assert error.startswith("cannot read model file: ") and reason in error


@pytest.mark.parametrize("command", COMMANDS)
def test_number_beyond_float_range_exits_2(tmp_path, capsys, model_file, command):
    # 10**400 is a JSON integer no float can hold, so the model lists it as
    # not a number; 10**5000 has more digits than Python converts
    text = json.dumps(json.loads(model_file.read_text()))
    path = tmp_path / "big.json"
    for field, key in (('"lambda_bar": 0.7', "lambda_bar"), ('"mu_bar": 1.0', "mu_bar"),
                       ('"alpha": 0.3', "'c1' has frequency"), ('"beta": 0.3', "'s1' has frequency")):
        name = field.split(":")[0]
        path.write_text(text.replace(field, f"{name}: {10**400}", 1))
        assert main([command, "--model", str(path)]) == 2
        captured = capsys.readouterr()
        errors = json.loads(captured.out)["errors"] if command == "validate" else [captured.err]
        assert any(key in e and "not a number" in e for e in errors), errors
        assert all(len(line) < 120 for e in errors for line in e.splitlines()), errors
    path.write_text(text.replace('"mu_bar": 1.0', '"mu_bar": 1' + "0" * 5000))
    assert main([command, "--model", str(path)]) == 2
    captured = capsys.readouterr()
    assert "integer string conversion" in captured.out + captured.err


@pytest.mark.parametrize("command", ["validate", "rates"])
def test_unwritable_out_path_exits_2(tmp_path, capsys, model_file, command):
    out = tmp_path / "no_such_dir" / "out.txt"
    assert main([command, "--model", str(model_file), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write output: ")
    assert "No such file or directory" in captured.err and captured.err.count("\n") == 1
    assert not out.parent.exists()


@pytest.mark.parametrize("field", ["lambda_bar", "mu_bar"])
def test_infinite_rate_exits_2(tmp_path, capsys, example3x3, field):
    data = example3x3.to_json_dict()
    data[field] = float("inf")  # json writes Infinity, which json.load reads back
    path = tmp_path / "inf.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["rates", "--model", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"invalid model: {field} = inf must be positive and finite" in captured.err
    assert main(["validate", "--model", str(path)]) == 2
    assert json.loads(capsys.readouterr().out)["valid"] is False


def _one_pair_data(alpha=1.0, lambda_bar=0.5) -> dict:
    return {"agents": [{"name": "c", "alpha": alpha}], "goods": [{"name": "s", "beta": 1.0}],
            "edges": [["s", "c"]], "lambda_bar": lambda_bar, "mu_bar": 2}


# model data with a value that is not a number, and its count of violations
NOT_NUMBERS = {
    "booleans": (_one_pair_data(alpha=True, lambda_bar=True), 2),
    "string-frequency": (_one_pair_data(alpha="1"), 1),
    "string-rate": (_one_pair_data(lambda_bar="0.5"), 1),
}


@pytest.mark.parametrize("case", list(NOT_NUMBERS))
def test_non_numbers_are_invalid(tmp_path, capsys, case):
    data, n_issues = NOT_NUMBERS[case]
    path = tmp_path / "model.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["validate", "--model", str(path)]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["valid"] is False
    assert len(payload["errors"]) == n_issues  # one issue per violation
    assert main(["rates", "--model", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid model" in captured.err
    assert "not a number" in captured.err


def _names_data(agents, goods, edges):
    return {"agents": [{"name": n, "alpha": a} for n, a in agents],
            "goods": [{"name": n, "beta": b} for n, b in goods],
            "edges": [list(e) for e in edges], "lambda_bar": 0.5, "mu_bar": 1.0}


# each model's names would print as one another's in some output: two edges
# as one "s,b,c" pair, the empty order and ("",) as one occupancy key, and an
# agent's match and the good's loss as one eta key
NAME_CLASHES = {
    "comma": (_names_data([("b,c", 0.5), ("c", 0.5)], [("s", 0.5), ("s,b", 0.5)],
                          [("s", "b,c"), ("s,b", "c")]),
              ["'b,c'", "'s,b'"], [["delays"], ["rates", "--format", "csv"]]),
    "empty": (_names_data([("", 0.5), ("c", 0.5)], [("s", 1.0)], [("s", ""), ("s", "c")]),
              ["''"], [["simulate", "--events", "20000", "--seed", "3"]]),
    "lost": (_names_data([("LOST", 1.0)], [("s", 1.0)], [("s", "LOST")]),
             ["'LOST'"], [["rates"]]),
}


@pytest.mark.parametrize("case", list(NAME_CLASHES))
def test_names_that_print_alike_are_invalid(tmp_path, capsys, case):
    data, named, commands = NAME_CLASHES[case]
    path = tmp_path / "model.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["validate", "--model", str(path)]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["valid"] is False
    assert len(payload["errors"]) == len(named)  # one issue per name
    for error, name in zip(payload["errors"], named):
        assert name in error
    for argv in commands:
        assert main([argv[0], "--model", str(path), *argv[1:]]) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("invalid model: ")


def test_output_options_only_where_they_change_output(model_file, capsys):
    for command in ("validate", "sweep"):
        for extra in (["--format", "csv"], ["--table"]):
            with pytest.raises(SystemExit) as exc:
                main([command, "--model", str(model_file), *extra])
            assert exc.value.code == 2
    capsys.readouterr()


def test_validate_shows_instability_witness(tmp_path, capsys):
    model = make_disjoint_pairs().with_lambda_bar(0.9)
    assert main(["validate", "--model", _model_path(tmp_path, model)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["stable"] is False
    assert payload["witness"] == ["c1"]
    assert payload["max_stable_rho"] == pytest.approx(0.8)


def test_validate_reports_min_drain_set(tmp_path, capsys):
    rng = np.random.default_rng(23)
    models = [make_example3x3(), make_disjoint_pairs().with_lambda_bar(0.9)]
    for _ in range(8):
        model = random_stable_model(rng, max_agents=7)
        models += [model, model.with_lambda_bar(model.lambda_bar * 4.0)]
    for model in models:
        assert main(["validate", "--model", _model_path(tmp_path, model)]) == 0
        payload = json.loads(capsys.readouterr().out)
        theta, names = min_drain(model)
        assert payload["min_drain_margin"] == round12(theta / model.total_rate)
        assert payload["min_drain_set"] == list(names)
        if not payload["stable"]:
            assert payload["witness"] == payload["min_drain_set"]


def test_rates_table_matches_published_values(capsys, model_file):
    assert main(["rates", "--model", str(model_file), "--table"]) == 0
    out = capsys.readouterr().out
    rows = {line.split()[0]: line.split()[1:] for line in out.strip().splitlines()[1:]}
    assert rows["s1"] == ["0.090", "0.139", "0.000", "0.071"]
    assert rows["s2"] == ["0.120", "0.000", "0.067", "0.113"]
    assert rows["s3"] == ["0.000", "0.211", "0.073", "0.116"]


def test_waits_table_shows_published_agent_row(capsys, model_file):
    assert main(["waits", "--model", str(model_file), "--table"]) == 0
    out = capsys.readouterr().out
    agent_line = [l for l in out.splitlines() if l.startswith("agents")][0]
    assert "c1: 4.33" in agent_line
    assert "c2: 4.41" in agent_line
    assert "c3: 3.75" in agent_line


def test_delays_table_shows_published_agent_row(capsys, model_file):
    assert main(["delays", "--model", str(model_file), "--table"]) == 0
    out = capsys.readouterr().out
    agent_line = [l for l in out.splitlines() if l.startswith("agents")][0]
    assert "c1: 7.35" in agent_line
    assert "c2: 7.50" in agent_line
    assert "c3: 6.38" in agent_line


def test_rates_csv_round_trips_within_1e12(tmp_path, model_file, example3x3):
    out = tmp_path / "rates.csv"
    assert main(["rates", "--model", str(model_file), "--format", "csv", "--out", str(out)]) == 0
    report = matching_rates(example3x3)
    parsed = {}
    for line in out.read_text().strip().splitlines()[1:]:
        g, a, v = line.split(",")
        parsed[(g, a)] = float(v)
    for pair, v in report.rates.items():
        assert abs(parsed[pair] - v) <= 1e-12 * max(1.0, abs(v))
    for g, v in report.loss.items():
        assert abs(parsed[(g, "LOST")] - v) <= 1e-12 * max(1.0, abs(v))


def test_rate_report_serialization_round_trip(capsys, model_file, example3x3):
    report = matching_rates(example3x3)
    assert main(["rates", "--model", str(model_file)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["b"] == pytest.approx(report.b, rel=1e-12)
    for (g, a), v in report.rates.items():
        assert payload["rates"][g][a] == pytest.approx(v, rel=1e-12)
    assert main(["rates", "--model", str(model_file), "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "good,agent,rate"
    parsed = {}
    for line in lines[1:]:
        g, a, v = line.split(",")
        parsed[(g, a)] = float(v)
    for (g, a), v in report.rates.items():
        assert parsed[(g, a)] == pytest.approx(v, rel=1e-12)
    for g, v in report.loss.items():
        assert parsed[(g, "LOST")] == pytest.approx(v, rel=1e-12)


def test_delay_report_serialization_round_trip(capsys, model_file, example3x3):
    for command, report in (("delays", delay_moments(example3x3)),
                            ("waits", wait_moments(example3x3))):
        pm, am = report.pair_mean, report.agent_mean
        assert main([command, "--model", str(model_file)]) == 0
        payload = json.loads(capsys.readouterr().out)
        for (g, a), v in pm.items():
            assert abs(payload["pairs"][f"{g},{a}"]["mean"] - v) <= 1e-12 * max(1.0, abs(v))
        assert main([command, "--model", str(model_file), "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "good,agent,mean,variance"
        split = lines.index("")
        for line in lines[1:split]:
            g, a, mean, var = line.split(",")
            assert abs(float(mean) - pm[(g, a)]) <= 1e-12 * max(1.0, abs(pm[(g, a)]))
        assert lines[split + 1] == "agent,mean,variance"
        for line in lines[split + 2:]:
            a, mean, var = line.split(",")
            assert abs(float(mean) - am[a]) <= 1e-12 * max(1.0, abs(am[a]))


def test_sweep_csv_shape(capsys, model_file):
    argv = ["sweep", "--model", str(model_file), "--rho-min", "0.3", "--rho-max", "0.7"]
    assert main([*argv, "--steps", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "rho,good,agent,rate,delay_mean,delay_var"
    assert len(lines) == 1 + 2 * (6 + 3)
    lost = [l for l in lines if ",LOST," in l]
    assert len(lost) == 6
    assert all(l.endswith(",,") for l in lost)


def test_sweep_last_point_is_rho_max(capsys, model_file):
    # rho_min + 19 * step rounds one ulp above rho-max, the largest rho that
    # check_stability calls stable on this model, to a point that is not
    rho_min, rho_max = 0.07317316427029831, 0.9999999999979998
    assert rho_min + 19 * ((rho_max - rho_min) / 19) > rho_max
    argv = ["sweep", "--model", str(model_file), "--rho-min", repr(rho_min)]
    assert main([*argv, "--rho-max", repr(rho_max), "--steps", "20"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1 + 20 * (6 + 3)
    assert lines[-1].split(",")[0] == fmt12(rho_max)
    above = repr(math.nextafter(rho_max, 1.0))
    assert main(["sweep", "--model", str(model_file), "--rho-min", above, "--rho-max", above,
                 "--steps", "1"]) == 3
    assert "is not stable" in capsys.readouterr().err


def test_sweep_row_count_and_consistency(tmp_path, capsys, model_file, example3x3):
    assert main([
        "sweep", "--model", str(model_file),
        "--rho-min", "0.05", "--rho-max", "0.94", "--steps", "17",
    ]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1 + 17 * (6 + 3)

    assert main([
        "sweep", "--model", str(model_file),
        "--rho-min", "0.7", "--rho-max", "0.7", "--steps", "1",
    ]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    report = matching_rates(example3x3)
    for line in lines[1:]:
        cells = line.split(",")
        expected = (
            report.loss[cells[1]] if cells[2] == "LOST" else report.rates[(cells[1], cells[2])]
        )
        assert abs(float(cells[3]) - expected) <= 1e-12 * max(1.0, abs(expected))


def test_sweep_unstable_grid_point_exits_3(tmp_path, capsys):
    model = make_disjoint_pairs()
    path = _model_path(tmp_path, model)
    code = main(["sweep", "--model", path, "--rho-min", "0.5", "--rho-max", "0.9", "--steps", "5"])
    assert code == 3
    err = capsys.readouterr().err
    assert "rho=0.8" in err  # the boundary point itself is already unstable


def test_sweep_margin_band_grid_point_exits_3(tmp_path, capsys):
    path = _model_path(tmp_path, make_single_pair(lam=0.5, mu=1.0))
    argv = ["sweep", "--model", path, "--rho-min", "0.5", "--rho-max", "0.9999999999999"]
    assert main([*argv, "--steps", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "grid point" in captured.err
    assert "rho=0.9999999999999 is not stable (max stable rho=1.0)" in captured.err


def test_sweep_bad_grid_arguments_exit_2(tmp_path, capsys, model_file):
    for extra, message in ((["--steps", "0"], "steps must be >= 1"),
                           (["--rho-min", "0.9", "--rho-max", "0.5"], "need 0 < rho-min")):
        assert main(["sweep", "--model", str(model_file), *extra]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}")
        assert "invalid model" not in err


def test_type_cap_exits_4(tmp_path, capsys):
    # 2^30 agent sets would not fit in memory
    agents = tuple((f"c{i}", 1.0 / 30) for i in range(30))
    edges = frozenset(("s", f"c{i}") for i in range(30))
    model = validate(MatchingModel(agents, (("s", 1.0),), edges, 0.1, 1.0))
    path = _model_path(tmp_path, model)
    for command in ("validate", "rates"):
        assert main([command, "--model", path]) == 4
        assert "GiB" in capsys.readouterr().err


def test_unstable_model_exits_3(tmp_path):
    model = make_example3x3(lambda_bar=1.1)
    path = _model_path(tmp_path, model)
    assert main(["rates", "--model", path]) == 3


def test_margin_band_is_unstable_everywhere(tmp_path, capsys):
    # positive drain rate, but a drain margin of 5e-14, below 1e-12
    path = _model_path(tmp_path, make_single_pair(lam=1.0 - 1e-13, mu=1.0))
    assert main(["validate", "--model", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["stable"] is False
    assert payload["witness"] == ["c"]
    short = ["--events", "20000"]
    for argv in (["rates"], ["delays"], ["simulate", *short], ["verify", *short]):
        assert main([*argv, "--model", path]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "drain margin below 1e-12" in captured.err


def test_simulate_is_deterministic(tmp_path, model_file, warm_kernel):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    args = ["simulate", "--model", str(model_file), "--events", "30000",
            "--seed", "7", "--burn-in", "1000"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_text() == out2.read_text()
    payload = json.loads(out1.read_text())
    assert payload["n_events"] == 30000


def test_simulate_json_shape(capsys, model_file, warm_kernel):
    assert main(["simulate", "--model", str(model_file), "--events", "30000", "--seed", "3",
                 "--burn-in", "1000"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n_events"] == 30_000
    assert set(payload["loss"]) == {"s1", "s2", "s3"}
    assert "s3,c2" in payload["rates"]


@pytest.mark.parametrize("which", ["example3x3", "random"])
def test_json_occupancy_is_the_nonzero_cells(tmp_path, capsys, example3x3, which, warm_kernel):
    # "occupancy" maps each order, joined by ">" and sorted, the empty one as
    # "", to {batch: events} over the batches with events in it; densified, it
    # is the per-batch counts of run's entries
    path = _model_path(tmp_path, example3x3 if which == "example3x3" else random_multi_type_model())
    assert main(["simulate", "--model", path, "--events", "30000", "--seed", "3",
                 "--burn-in", "1000"]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out)
    model = load_model(path)
    stats = run(model, 30_000, seed=3, burn_in=1_000)
    assert json.dumps(payload, indent=2) + "\n" == out  # every key printed once, as a string
    block = payload["occupancy"]
    assert "" in block
    assert list(block) == sorted(block, key=lambda k: k.split(">"))
    for cells in block.values():
        assert list(map(int, cells)) == sorted(map(int, cells))
        assert all(type(n) is int and n > 0 for n in cells.values())
    dense = np.zeros((len(stats.order_rows), stats.n_batches), dtype=np.int64)
    dense[stats.entry_rows, stats.entry_batches] = stats.entry_counts
    names = model.agent_names
    expected = {">".join(names[i] for i in key): row for key, row in zip(stats.order_rows, dense)}
    assert block.keys() == expected.keys()
    for order, cells in block.items():
        densified = dense_row({int(b): n for b, n in cells.items()}, stats.n_batches)
        assert np.array_equal(densified, expected[order]), order


def test_simulate_and_verify_report_the_same_estimates(tmp_path, capsys, warm_kernel):
    # one run read two ways: simulate's JSON and verify's CSV agree on B and
    # on every rate, loss, delay mean and delay variance, an infinite stderr
    # (delay_var[s2,c2]) included
    args = ["--model", _model_path(tmp_path, _rare_c2_model()), "--events", "20000", "--seed", "1"]
    assert main(["simulate", *args]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert main(["verify", *args, "--z-max", "inf"]) == 5  # delay_var[s2,c2] has no z
    rows = [line.rsplit(",", 4) for line in capsys.readouterr().out.splitlines()[1:]]
    verified = {q: (float(value), float(stderr)) for q, _, value, stderr, _ in rows}
    simulated = {"B": payload["empty_state"]}
    for name, field in (("rate", "rates"), ("loss", "loss")):
        simulated |= {f"{name}[{key}]": e for key, e in payload[field].items()}
    for key, moments in payload["delays"].items():
        simulated[f"delay_mean[{key}]"] = moments["mean"]
        simulated[f"delay_var[{key}]"] = moments["variance"]
    assert simulated.keys() == {q for q in verified if not q.startswith("pi_y[")}
    assert "delay_var[s2,c2]" in simulated
    for quantity, e in simulated.items():
        value, stderr = verified[quantity]
        assert (e["value"], e["stderr"]) == (value, stderr if math.isfinite(stderr) else None)

def test_verify_exit_codes(tmp_path, capsys, monkeypatch, model_file, warm_kernel):
    args = ["verify", "--model", str(model_file), "--events", "200000",
            "--seed", "1", "--burn-in", "10000"]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "quantity,analytic,empirical,stderr,z_score"

    # a shifted analytic rate enters before compare_with_analytic computes z
    def shifted(model):
        report = matching_rates(model)
        return report._replace(rates={k: v + 0.01 for k, v in report.rates.items()})

    monkeypatch.setattr("fcfs_match.simulator.matching_rates", shifted)
    assert main(args) == 5
    assert "max |z|" in capsys.readouterr().err


def _rare_c2_model():
    # c2 arrives once in a thousand agents: in 2e4 events too few batches see
    # two c2 matches to estimate the spread of delay_var[s2,c2]
    return validate(
        MatchingModel(
            agent_types=(("c1", 0.999), ("c2", 0.001)),
            good_types=(("s1", 0.5), ("s2", 0.5)),
            edges=frozenset({("s1", "c1"), ("s2", "c1"), ("s2", "c2")}),
            lambda_bar=0.7,
            mu_bar=1.0,
        )
    )


def _unreached_c2_model():
    # c2 arrives once in a million agents: in 2e4 events no s2 meets a c2
    return MatchingModel(
        agent_types=(("c1", 0.999999), ("c2", 1e-6)),
        good_types=(("s1", 0.5), ("s2", 0.5)),
        edges=frozenset({("s1", "c1"), ("s2", "c1"), ("s2", "c2")}),
        lambda_bar=0.7,
        mu_bar=1.0,
    )


def _reject_constant(token):
    raise ValueError(f"{token} is not JSON")


def test_verify_fails_on_unestimable_row(tmp_path, capsys, warm_kernel):
    args = ["verify", "--model", _model_path(tmp_path, _rare_c2_model()), "--events", "20000",
            "--seed", "1", "--z-max", "100"]
    assert main(args) == 5
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[0] == "quantity,analytic,empirical,stderr,z_score"
    assert all(len(line.rsplit(",", 4)) == 5 for line in lines)
    assert "delay_var[s2,c2],3.34" in captured.out
    assert "delay_var[s2,c2]" in captured.err

    # an edge that no match reaches: its rate reads 0 with stderr 0, and its
    # delay moments have no estimate at all
    path = _model_path(tmp_path, _unreached_c2_model(), "unreached.json")
    args = ["--model", path, "--events", "20000", "--seed", "1"]
    assert main(["verify", *args, "--z-max", "100"]) == 5
    captured = capsys.readouterr()
    assert ("no finite z-score for rate[s2,c2], delay_mean[s2,c2], delay_var[s2,c2]"
            in captured.err)
    assert "delay_mean[s2,c2],7.366670236672e+00,nan,inf,nan\n" in captured.out
    assert main(["simulate", *args]) == 0
    payload = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert "s2,c2" not in payload["rates"] and "s2,c2" not in payload["delays"]
    assert list(payload["rates"]) == ["s1,c1", "s2,c1"]


def test_edge_whose_rate_underflows_exits_2(tmp_path, capsys):
    # lambda_bar * alpha of c2 rounds to 0, so the rate of (s2, c2) is 0 and
    # its delay undefined: every command that needs the subset table refuses
    # the model with one line, and the others run
    model = MatchingModel(
        agent_types=(("c1", 0.9999999999999), ("c2", 5e-324)),
        good_types=(("s1", 0.5), ("s2", 0.5)),
        edges=frozenset({("s1", "c1"), ("s2", "c1"), ("s2", "c2")}),
        lambda_bar=0.4,
        mu_bar=1.0,
    )
    with pytest.raises(ZeroRate, match=r"\('s2', 'c2'\)"):
        matching_rates(model)
    _assert_only_table_commands_refuse(tmp_path, capsys, model, "('s2', 'c2')")


def _assert_only_table_commands_refuse(tmp_path, capsys, model, named):
    path = _model_path(tmp_path, model)
    assert main(["validate", "--model", path]) == 0
    assert main(["simulate", "--model", path, "--events", "20000"]) == 0
    capsys.readouterr()
    refused = [[command, *options] for command in ("rates", "delays", "waits")
               for options in ([], ["--format", "csv"], ["--table"])]
    refused += [["sweep"], ["verify", "--events", "20000"]]
    for argv in refused:
        assert main([argv[0], "--model", path, *argv[1:]]) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1, captured.err
        assert captured.err.startswith("error: ") and named in captured.err


def test_good_whose_rate_underflows_exits_2(tmp_path, capsys):
    # mu_bar * beta of s2 rounds to 0, so the loss rate of s2 is undefined:
    # every command that needs the subset table refuses the model with one
    # line naming the good, and the others run
    model = MatchingModel(
        agent_types=(("c1", 1.0),),
        good_types=(("s1", 1.0), ("s2", 5e-324)),
        edges=frozenset({("s1", "c1")}),
        lambda_bar=0.2,
        mu_bar=0.5,
    )
    with pytest.raises(ZeroRate, match="good 's2'"):
        matching_rates(model)
    _assert_only_table_commands_refuse(tmp_path, capsys, model, "good 's2'")


def test_total_rate_that_overflows_exits_2(tmp_path, capsys):
    # lambda_bar + mu_bar overflows to inf, so every drain margin would read 0
    # and a stable model unstable: the model is invalid under every command
    data = {"agents": [{"name": "c1", "alpha": 1.0}], "goods": [{"name": "s1", "beta": 1.0}],
            "edges": [["s1", "c1"]], "lambda_bar": 1e308, "mu_bar": 1.5e308}
    path = tmp_path / "model.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["validate", "--model", str(path)]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["valid"] is False
    assert payload["errors"] == ["lambda_bar + mu_bar = 1e+308 + 1.5e+308 overflows a float"]
    for command in COMMANDS[1:]:
        assert main([command, "--model", str(path)]) == 2, command
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "lambda_bar + mu_bar = 1e+308 + 1.5e+308 overflows a float" in captured.err
    # a tenth of each keeps the sum finite, and the model is stable
    data.update(lambda_bar=1e307, mu_bar=1.5e307)
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["validate", "--model", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["stable"] is True
    assert main(["rates", "--model", str(path)]) == 0


def test_verify_rejects_nan_or_nonpositive_z_max(tmp_path, capsys, model_file, warm_kernel):
    # a NaN bound would pass every row, wrong ones too
    args = ["verify", "--model", str(model_file), "--events", "20000", "--seed", "1"]
    for z_max in ("nan", "0", "-1"):
        assert main(args + ["--z-max", z_max]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: --z-max must be positive")
        assert captured.out == ""
    # an infinite bound checks only that every row could be estimated
    assert main(args + ["--z-max", "inf"]) == 0
    rare = ["verify", "--model", _model_path(tmp_path, _rare_c2_model()), "--events", "20000",
            "--seed", "1", "--z-max", "inf"]
    assert main(rare) == 5
    assert "no finite z-score for" in capsys.readouterr().err


def test_negative_seed_exits_2(capsys, model_file):
    for command in ("simulate", "verify"):
        args = [command, "--model", str(model_file), "--events", "2000", "--seed", "-1"]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: seed must be non-negative, got -1\n"
        assert captured.out == ""


def test_negative_burn_in_exits_2(capsys, model_file):
    for command in ("simulate", "verify"):
        args = [command, "--model", str(model_file), "--events", "2000", "--burn-in", "-1"]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: need 0 <= burn_in < n_events, got -1 / 2000\n"
        assert captured.out == ""


# modules the analytic commands must not load: numpy costs most of a cold
# start and serves only the simulator; the analytic side needs no process pool,
# scipy serves only the tests, and dataclasses pulls in inspect, about 12 ms of
# start-up
HEAVY_MODULES = ("numpy", "multiprocessing", "concurrent.futures",
                 "fcfs_match.simulator", "scipy", "dataclasses")
# and the package modules each command runs without
UNUSED_MODULES = {
    "validate": ("fcfs_match.analytic", "fcfs_match.delays", "fcfs_match.limits"),
    "rates": ("fcfs_match.delays", "fcfs_match.limits"),
    "delays": ("fcfs_match.limits",),
    "waits": ("fcfs_match.limits",),
    "sweep": (),
}


def _run_fresh(code: str, *args: str) -> str:
    """Run code in a new interpreter that imports this checkout's package."""
    src = str(Path(fcfs_match.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_analytic_commands_do_not_import_simulator_or_numpy(tmp_path, model_file):
    # each command in its own interpreter, so the check sees that command's imports only
    out = tmp_path / "out.txt"
    code = (
        "import sys\n"
        "import fcfs_match.cli as cli\n"
        "assert cli.main([sys.argv[1], '--model', sys.argv[2], '--out', sys.argv[3]]) == 0\n"
        "print(','.join(m for m in sys.argv[4:] if m in sys.modules))\n"
    )
    for command, unused in UNUSED_MODULES.items():
        loaded = _run_fresh(code, command, str(model_file), str(out), *HEAVY_MODULES, *unused)
        assert loaded.strip() == "", command
    assert out.read_text().startswith("rho,good,agent,")


def test_short_simulator_runs_do_not_import_numpy(tmp_path, model_file):
    # a run of at most NUMPY_EVENTS (2^17) events draws numpy's stream in pure
    # Python, so simulate and verify load numpy only for a longer run
    code = (
        "import sys\n"
        "import fcfs_match.cli as cli\n"
        "argv = [sys.argv[1], '--model', sys.argv[2], '--events', sys.argv[3], '--out', sys.argv[4]]\n"
        "assert cli.main(argv + ['--z-max', 'inf'] * (argv[0] == 'verify')) == 0\n"
        "print('numpy' in sys.modules, 'numpy.random' in sys.modules)\n"
    )
    out = str(tmp_path / "out.txt")
    for command, events, loaded in (("simulate", "20000", "False False"),
                                    ("verify", "20000", "False False"),
                                    ("verify", "131073", "True True")):
        assert _run_fresh(code, command, str(model_file), events, out).strip() == loaded, (
            command, events)


def test_simulator_commands_run_without_scipy(model_file):
    # scipy is a test dependency only; the package must run where it is absent
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import fcfs_match.cli as cli\n"
        "short = ['--model', sys.argv[1], '--events', '20000']\n"
        "assert cli.main(['simulate', *short, '--out', sys.argv[2]]) == 0\n"
        "assert cli.main(['verify', *short, '--z-max', 'inf', '--out', sys.argv[2]]) == 0\n"
        "print('ok')\n"
    )
    assert _run_fresh(code, str(model_file), os.devnull).strip() == "ok"


def test_package_names_resolve_lazily():
    code = (
        "import sys\n"
        "import fcfs_match\n"
        "loaded = [m for m in sys.modules if m.startswith('fcfs_match.')]\n"
        "assert not loaded, loaded\n"
        "listed = dir(fcfs_match)\n"
        "missing = [n for n in fcfs_match.__all__ if n not in listed]\n"
        "assert not missing, missing\n"
        "assert 'fcfs_match.simulator' not in sys.modules\n"
        "for name in fcfs_match.__all__:\n"
        "    assert getattr(fcfs_match, name) is not None, name\n"
        "import fcfs_match.simulator as sim\n"
        "assert fcfs_match.run is sim.run and fcfs_match.SimStats is sim.SimStats\n"
        "namespace = {}\n"
        "exec('from fcfs_match import *', namespace)\n"
        "unbound = [n for n in fcfs_match.__all__ if n not in namespace]\n"
        "assert not unbound, unbound\n"
        "print('ok')\n"
    )
    assert _run_fresh(code).strip() == "ok"


def test_unknown_package_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="^module 'fcfs_match' has no attribute 'no_such_name'$"):
        fcfs_match.no_such_name
    assert not hasattr(fcfs_match, "no_such_name")
