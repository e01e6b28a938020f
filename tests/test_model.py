from __future__ import annotations

import copy
import gc
import json
import math
import pickle
import weakref

import numpy as np
import pytest

from fcfs_match import (
    MatchingModel,
    ModelValidationError,
    UnknownIdentifier,
    UnstableModel,
    check_crp,
    check_stability,
    compatible_agents,
    compatible_goods,
    delay_moments,
    delay_pgf,
    geometric_stage,
    load_model,
    matching_rates,
    max_stable_rho,
    min_stage_rate,
    normalizing_constant,
    pi_y_perm,
    run,
    save_model,
    sweep,
    unique_users,
    validate,
    wait_mgf,
    wait_moments,
)
from fcfs_match import analytic
from fcfs_match import model as model_module
from fcfs_match.errors import (
    DuplicateType,
    FrequencySumError,
    IsolatedAgentType,
    NonPositiveFrequency,
    NonPositiveRate,
    ValidationIssue,
)

from conftest import make_example3x3, make_single_pair, make_disjoint_pairs, random_stable_model
from oracles import stability_checks


def test_example3x3_is_valid(example3x3):
    assert validate(example3x3) is example3x3


def test_frequency_sum_error():
    with pytest.raises(ModelValidationError) as exc:
        MatchingModel(
            agent_types=(("c1", 0.3), ("c2", 0.5), ("c3", 0.3)),
            good_types=(("s1", 0.5), ("s2", 0.5)),
            edges=frozenset({("s1", "c1"), ("s1", "c2"), ("s2", "c3")}),
            lambda_bar=0.5,
            mu_bar=1.0,
        )
    assert any(isinstance(i, FrequencySumError) for i in exc.value.issues)


def test_duplicate_identifier_is_one_validation_issue():
    assert issubclass(DuplicateType, ValidationIssue)
    with pytest.raises(ModelValidationError) as exc:
        MatchingModel(
            agent_types=(("c1", 0.5), ("c1", 0.5)),
            good_types=(("s1", 1.0),),
            edges=frozenset({("s1", "c1")}),
            lambda_bar=0.5,
            mu_bar=1.0,
        )
    assert [type(i) for i in exc.value.issues] == [DuplicateType]


def test_isolated_agent_type_rejected():
    with pytest.raises(ModelValidationError) as exc:
        MatchingModel(
            agent_types=(("c1", 0.5), ("c2", 0.3), ("c3", 0.2)),
            good_types=(("s1", 0.5), ("s2", 0.5)),
            edges=frozenset({("s1", "c1"), ("s2", "c2")}),
            lambda_bar=0.5,
            mu_bar=1.0,
        )
    assert any(isinstance(i, IsolatedAgentType) for i in exc.value.issues)


def test_all_violations_reported_together():
    with pytest.raises(ModelValidationError) as exc:
        MatchingModel(
            agent_types=(("c1", 0.7), ("c2", -0.1)),
            good_types=(("s1", 1.0),),
            edges=frozenset({("s1", "c1"), ("s9", "c1")}),
            lambda_bar=0.0,
            mu_bar=1.0,
        )
    kinds = {type(i) for i in exc.value.issues}
    assert FrequencySumError in kinds
    assert NonPositiveFrequency in kinds
    assert NonPositiveRate in kinds
    assert UnknownIdentifier in kinds
    assert IsolatedAgentType in kinds  # c2 has no edge


def _model_with(**changes):
    fields = {
        "agent_types": (("c1", 0.5), ("c2", 0.5)),
        "good_types": (("s1", 1.0),),
        "edges": frozenset({("s1", "c1"), ("s1", "c2")}),
        "lambda_bar": 0.5,
        "mu_bar": 1.0,
    }
    fields.update(changes)
    return MatchingModel(**fields)


@pytest.mark.parametrize(
    "build, kind",
    [
        (lambda: _model_with(edges=frozenset({("s1", "c1"), ("s1", "c2"), ("s9", "c1")})),
         UnknownIdentifier),
        (lambda: _model_with(lambda_bar=0.0), NonPositiveRate),
        (lambda: _model_with(lambda_bar=-0.5), NonPositiveRate),
        (lambda: _model_with(mu_bar=math.inf), NonPositiveRate),
        (lambda: _model_with(agent_types=(("c1", 0.5), ("c2", 0.6))), FrequencySumError),
        (lambda: _model_with(agent_types=(("c1", 0.5), ("c1", 0.5))), DuplicateType),
        (lambda: make_example3x3().with_lambda_bar(-1.0), NonPositiveRate),
        (lambda: _model_with(lambda_bar="0.5"), NonPositiveRate),
        (lambda: _model_with(mu_bar=True), NonPositiveRate),
        (lambda: _model_with(agent_types=(("c1", "0.5"), ("c2", 0.5))), NonPositiveFrequency),
    ],
    ids=["unknown-good", "lambda-zero", "lambda-negative", "mu-inf", "agent-sum",
         "duplicate-name", "with-lambda-bar", "lambda-string", "mu-bool", "alpha-string"],
)
def test_invalid_model_cannot_be_built(build, kind):
    with pytest.raises(ModelValidationError) as exc:
        build()
    assert any(isinstance(i, kind) for i in exc.value.issues)


@pytest.mark.parametrize("bad", ["", "a,b", "a>b", 'a"b', "a\rb", "a\nb"],
                         ids=["empty", "comma", "gt", "quote", "cr", "lf"])
def test_type_names_must_print_apart(bad):
    # the outputs join names with "," and ">" and write CSV cells unquoted:
    # one plain ValidationIssue per such name, on either side
    for agent, good in ((bad, "s1"), ("c1", bad)):
        with pytest.raises(ModelValidationError) as exc:
            MatchingModel(((agent, 1.0),), ((good, 1.0),), {(good, agent)}, 0.5, 1.0)
        [issue] = exc.value.issues
        assert type(issue) is ValidationIssue
        assert repr(bad) in str(issue)


def test_agent_type_named_lost_is_invalid():
    # CSV and JSON outputs print a good's loss as the agent LOST
    with pytest.raises(ModelValidationError) as exc:
        MatchingModel((("LOST", 1.0),), (("s1", 1.0),), {("s1", "LOST")}, 0.5, 1.0)
    [issue] = exc.value.issues
    assert type(issue) is ValidationIssue and "'LOST'" in str(issue)
    # a good of that name prints in the good column, apart from every loss
    assert MatchingModel((("c1", 1.0),), (("LOST", 1.0),), {("LOST", "c1")}, 0.5, 1.0)


def test_numpy_numbers_are_numbers():
    model = _model_with(agent_types=(("c1", np.float32(0.5)), ("c2", np.float64(0.5))),
                        lambda_bar=np.float64(0.5), mu_bar=np.int64(1))
    assert model.alpha == (0.5, 0.5)
    assert model.rho == 0.5


def test_compatible_goods_examples(example3x3):
    assert compatible_goods(example3x3, ["c2"]) == ("s1", "s3")
    assert compatible_goods(example3x3, []) == ()
    assert compatible_goods(example3x3, ["c1", "c3"]) == ("s1", "s2", "s3")


def test_compatible_agents_examples(example3x3):
    assert compatible_agents(example3x3, ["s1"]) == ("c1", "c2")
    assert compatible_agents(example3x3, []) == ()
    assert compatible_agents(example3x3, ["s2", "s3"]) == ("c1", "c2", "c3")


def test_unique_users_examples(example3x3):
    assert unique_users(example3x3, ["s1", "s2"]) == ("c1",)
    assert unique_users(example3x3, ["s1", "s2", "s3"]) == ("c1", "c2", "c3")
    assert unique_users(example3x3, ["s1"]) == ()


def test_unknown_identifier_raised(example3x3):
    with pytest.raises(UnknownIdentifier):
        compatible_goods(example3x3, ["nope"])


def test_neighborhood_monotonicity():
    rng = np.random.default_rng(7)
    for _ in range(20):
        model = random_stable_model(rng)
        names = model.agent_names
        small = list(names[: len(names) // 2])
        grown = list(names)
        s_small = compatible_goods(model, small)
        s_big = compatible_goods(model, grown)
        assert set(s_small) <= set(s_big)
        for g_sub in (s_small, s_big):
            assert set(unique_users(model, g_sub)) <= set(compatible_agents(model, g_sub))
        # each set function against its definition, read straight from the edges
        for agents in (small, grown):
            assert compatible_goods(model, agents) == tuple(
                g for g in model.good_names if any((g, a) in model.edges for a in agents))
        for goods in (s_small, model.good_names[:1], ()):
            assert compatible_agents(model, goods) == tuple(
                a for a in model.agent_names if any((g, a) in model.edges for g in goods))
            assert unique_users(model, goods) == tuple(
                a for a in model.agent_names
                if all(g in goods for g in model.good_names if (g, a) in model.edges))


def test_stability_examples(example3x3):
    assert check_stability(example3x3).stable
    hot = make_example3x3(lambda_bar=1.1)
    report = check_stability(hot)
    assert not report.stable
    assert report.witness == ("c1", "c2", "c3")
    assert check_stability(make_single_pair()).stable


def test_stability_boundary_counts_as_unstable():
    # lambda_C == mu_S(C) exactly: null-recurrent boundary is reported unstable
    model = make_single_pair(lam=1.0, mu=1.0)
    assert not check_stability(model).stable


def test_stability_needs_the_drain_margin():
    # theta = 1e-13 > 0, but the margin theta / (lambda_bar + mu_bar) is
    # 5e-14, below STABILITY_MARGIN: unstable for the check and for every
    # computation that needs a stable model
    model = make_single_pair(lam=1.0 - 1e-13, mu=1.0)
    assert 0.0 < model.subset_scan.theta[1] / model.total_rate < model_module.STABILITY_MARGIN
    report = check_stability(model)
    assert not report.stable
    assert report.witness == ("c",)
    for compute in (lambda: geometric_stage(model, ("c",)), lambda: min_stage_rate(model),
                    lambda: matching_rates(model), lambda: run(model, 1_000, seed=1, burn_in=0)):
        with pytest.raises(UnstableModel, match="drain margin below 1e-12") as caught:
            compute()
        assert caught.value.witness == ("c",)


def test_stability_monotone_in_lambda_bar():
    rng = np.random.default_rng(11)
    for _ in range(10):
        model = random_stable_model(rng)
        assert check_stability(model).stable
        assert check_stability(model.with_lambda_bar(model.lambda_bar * 0.5)).stable


def test_crp_examples(example3x3):
    assert check_crp(example3x3)
    assert not check_crp(make_disjoint_pairs())
    complete = MatchingModel(
        agent_types=(("c1", 0.6), ("c2", 0.4)),
        good_types=(("s1", 0.2), ("s2", 0.8)),
        edges=frozenset({("s1", "c1"), ("s1", "c2"), ("s2", "c1"), ("s2", "c2")}),
        lambda_bar=0.5,
        mu_bar=1.0,
    )
    assert check_crp(validate(complete))


def test_crp_implies_stable_below_one(example3x3):
    for rho in (0.5, 0.9, 0.99):
        assert check_stability(make_example3x3(lambda_bar=rho)).stable


def test_max_stable_rho_examples(example3x3):
    result = max_stable_rho(example3x3)
    assert result.value == pytest.approx(1.0, abs=1e-12)
    assert result.uncapped == pytest.approx(1.25, abs=1e-12)
    assert max_stable_rho(make_disjoint_pairs()).value == pytest.approx(0.8, abs=1e-12)
    single = max_stable_rho(make_single_pair())
    assert single.value == pytest.approx(1.0, abs=1e-12)
    assert single.uncapped == math.inf


def test_max_stable_rho_is_the_stability_threshold():
    rng = np.random.default_rng(3)
    for _ in range(10):
        model = random_stable_model(rng)
        limit = max_stable_rho(model).value * model.mu_bar
        assert check_stability(model.with_lambda_bar(limit * 0.999)).stable
        assert not check_stability(model.with_lambda_bar(limit * 1.001)).stable


def _stability_results(model):
    report = check_stability(model)
    rho = max_stable_rho(model)
    return report.stable, report.witness, check_crp(model), rho.value, rho.uncapped, rho.witness


def _tied_model(agents, goods, edges):
    return validate(MatchingModel(agents, goods, frozenset(edges), 1.0, 1.0))


def test_stability_checks_match_brute_force():
    rng = np.random.default_rng(17)
    for _ in range(25):
        model = random_stable_model(rng, max_agents=7, max_goods=5)
        for scale in (1.0, 1.5, 4.0):  # stable, and overloaded so a witness exists
            point = model.with_lambda_bar(model.lambda_bar * scale)
            assert _stability_results(point) == stability_checks(point)


def _tied_models():
    """Models whose checks tie, with the witness check order picks."""
    # dyadic rates, so the tied violation gaps (all 0, which counts as
    # unstable) and tied ratios are exact
    smaller_first = _tied_model(  # {c3} ties {c1,c2}: cardinality decides
        (("c1", 0.25), ("c2", 0.25), ("c3", 0.5)),
        (("s1", 0.5), ("s2", 0.5)),
        {("s1", "c1"), ("s1", "c2"), ("s2", "c3")},
    )
    lexicographic_first = _tied_model(  # {c1,c4} ties {c2,c3}: lowest type decides
        (("c1", 0.25), ("c2", 0.25), ("c3", 0.25), ("c4", 0.25)),
        (("s1", 0.5), ("s2", 0.5)),
        {("s1", "c1"), ("s1", "c4"), ("s2", "c2"), ("s2", "c3")},
    )
    return ((smaller_first, ("c3",)), (lexicographic_first, ("c1", "c4")))


def test_stability_witness_tie_breaks_match_brute_force():
    for model, expected in _tied_models():
        result = _stability_results(model)
        assert result == stability_checks(model)
        assert result[:2] == (False, expected)
        assert result[3:] == (1.0, 1.0, expected)


def test_table_names_the_stability_witness_on_ties():
    for model, expected in _tied_models():
        with pytest.raises(UnstableModel) as caught:
            matching_rates(model)
        assert caught.value.witness == check_stability(model).witness == expected
        assert max_stable_rho(model).witness == expected


def test_one_subset_scan_per_model(monkeypatch):
    builds = []
    build = model_module._scan_subsets

    def counting(model):
        builds.append(model)
        return build(model)

    monkeypatch.setattr(model_module, "_scan_subsets", counting)
    model = make_example3x3(lambda_bar=0.65)
    for compute in (check_stability, check_crp, max_stable_rho, matching_rates, min_stage_rate):
        compute(model)
    assert builds == [model]
    # a new instance, here one with another load, scans afresh
    check_stability(model.with_lambda_bar(0.6))
    assert len(builds) == 2


def test_one_subset_table_per_model(monkeypatch):
    builds = []
    build = analytic._subset_table

    def counting(model):
        builds.append(model)
        return build(model)

    monkeypatch.setattr(analytic, "_subset_table", counting)
    model = make_example3x3(lambda_bar=0.65)
    pair = ("s1", "c1")
    for compute in (matching_rates, delay_moments, wait_moments, normalizing_constant,
                    lambda m: pi_y_perm(m, ("c1", "c2")), lambda m: delay_pgf(m, pair, 0.5),
                    lambda m: wait_mgf(m, pair, 0.1)):
        compute(model)
    assert builds == [model]


def test_subset_table_lives_as_long_as_its_model():
    model = make_example3x3(lambda_bar=0.6125)  # a load no other test uses
    matching_rates(model)
    ref = weakref.ref(model)
    del model
    gc.collect()
    assert ref() is None


def test_model_json_round_trip(tmp_path, example3x3):
    path = tmp_path / "m.json"
    save_model(example3x3, path)
    again = load_model(path)
    assert again == example3x3
    assert validate(again) is again


def test_load_model_rejects_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ModelValidationError):
        load_model(path)


def test_load_model_rejects_missing_keys(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"agents": []}), encoding="utf-8")
    with pytest.raises(ModelValidationError):
        load_model(path)


def test_load_model_rejects_unreadable_files(tmp_path):
    latin = tmp_path / "latin.json"
    latin.write_bytes(b'{"agents": "\xe9"}')
    for path in (tmp_path / "missing.json", tmp_path, latin):
        with pytest.raises(ModelValidationError, match="^cannot read model file: "):
            load_model(path)


def _pair_text(**changes):
    """The JSON text of a one-pair model c-s, with some of its keys replaced."""
    return json.dumps({"agents": [{"name": "c", "alpha": 1.0}], "goods": [{"name": "s", "beta": 1.0}],
                       "edges": [["s", "c"]], "lambda_bar": 0.5, "mu_bar": 1.0, **changes})


@pytest.mark.parametrize("text, message", [
    (None, "cannot read model file: "),
    ("{not json", "invalid JSON: "),
    (json.dumps({"agents": []}), "malformed model data: "),
    # a name must be a JSON string and edges a list of two-name lists; the
    # constructor's str() and unpacking would read most of these as a model
    *(pytest.param(_pair_text(**changes), "malformed model data: ", id=case) for case, changes in (
        ("edges-string", {"edges": ["sc"]}),
        ("edges-object", {"edges": {"sc": 1}}),
        ("edge-of-three", {"edges": [["s", "c", "c"]]}),
        ("edge-number", {"edges": [["s", 7]]}),
        *((f"agent-{case}", {"agents": [{"name": name, "alpha": 1.0}], "edges": [["s", str(name)]]})
          for case, name in (("null", None), ("true", True), ("7", 7), ("list", ["c"]))),
        ("good-null", {"goods": [{"name": None, "beta": 1.0}]}),
    )),
])
def test_load_failures_are_plain_validation_issues(tmp_path, text, message):
    # no identifier is involved, so none of them is an UnknownIdentifier
    path = tmp_path / "m.json"
    if text is not None:
        path.write_text(text, encoding="utf-8")
    with pytest.raises(ModelValidationError) as caught:
        load_model(path)
    [issue] = caught.value.issues
    assert type(issue) is ValidationIssue
    assert str(issue).startswith(message)

FIELDS = dict(agent_types=(("c", 1.0),), good_types=(("s", 1.0),),
              edges=frozenset({("s", "c")}), lambda_bar=0.5, mu_bar=1.0)


def test_model_is_an_immutable_record():
    model = MatchingModel(**FIELDS)
    assert model.agent_types == (("c", 1.0),) and model.mu_bar == 1.0
    for field in FIELDS:
        with pytest.raises(AttributeError):
            setattr(model, field, None)
        with pytest.raises(AttributeError):
            delattr(model, field)
    with pytest.raises(AttributeError):
        model.other = 1
    assert model.lambda_bar == 0.5
    assert repr(model) == (
        "MatchingModel(agent_types=(('c', 1.0),), good_types=(('s', 1.0),), "
        "edges=frozenset({('s', 'c')}), lambda_bar=0.5, mu_bar=1.0)")


def test_model_equality_and_hash_go_by_the_five_fields():
    model = MatchingModel(**FIELDS)
    model.subset_scan  # a cached view is not a field
    twin = MatchingModel(*FIELDS.values())
    assert twin == model and hash(twin) == hash(model)
    assert model.with_lambda_bar(0.5) == model
    assert MatchingModel(**{**FIELDS, "agent_types": [("c", 1)]}) == model  # fields are normalised
    for field, other in (("lambda_bar", 0.25), ("mu_bar", 2.0)):
        assert MatchingModel(**{**FIELDS, field: other}) != model
    renamed = MatchingModel(**{**FIELDS, "good_types": (("t", 1.0),), "edges": {("t", "c")}})
    assert renamed != model
    assert model != FIELDS and model != tuple(FIELDS.values())
    assert len({model, twin, model.with_lambda_bar(0.25)}) == 2


def test_records_survive_pickle_and_copy(example3x3):
    records = [example3x3, matching_rates(example3x3),
               delay_moments(example3x3), sweep(example3x3, [0.3, 0.6])]
    for record in records:
        for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record)):
            assert type(twin) is type(record)
            assert twin == record
    twin = pickle.loads(pickle.dumps(example3x3))
    assert matching_rates(twin) == matching_rates(example3x3)
    with pytest.raises(AttributeError):
        twin.mu_bar = 2.0
