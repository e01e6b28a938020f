from __future__ import annotations

import math
import tracemalloc
from collections import Counter, defaultdict

import numpy as np
import pytest

from fcfs_match import (
    MatchingModel,
    UnstableModel,
    analytic_pi_y,
    compare_with_analytic,
    delay_moments,
    light_traffic_rates,
    matching_rates,
    normalizing_constant,
    pi_y_perm,
)
from fcfs_match import simulator
from fcfs_match.errors import DomainError, DuplicateType, UnknownIdentifier
from fcfs_match.simulator import _batch_means, _batch_variances, _z, run

from conftest import dense_row, make_example3x3, random_multi_type_model, random_stable_model
from oracles import ratio_estimate, variance_estimate
from reference_dynamics import (
    AGENT,
    GOOD,
    DetailedTracker,
    Lost,
    MatchWindow,
    OpenWindow,
    Queued,
    SequenceItem,
    UnmatchedList,
    detailed_state,
    exchange_transform,
    is_admissible,
    item_from_uniforms,
    rematch_reversed,
    simulate_window,
    step_fcfs,
    verify_reversibility,
    window_from_uniforms,
)


# --- item generation ---


def test_item_distribution(example3x3):
    rng = np.random.default_rng(101)
    n = 1_000_000
    kind_u = rng.random(n)
    type_u = rng.random(n)
    p_agent = 0.7 / 1.7
    agents = kind_u < p_agent
    se = math.sqrt(p_agent * (1 - p_agent) / n)
    assert abs(agents.mean() - p_agent) < 3 * se

    p_s3 = (1 / 1.7) * 0.4
    s3 = (~agents) & (type_u >= 0.6)  # beta cumulative: s3 occupies [0.6, 1)
    se3 = math.sqrt(p_s3 * (1 - p_s3) / n)
    assert abs(s3.mean() - p_s3) < 3 * se3


def test_item_from_uniforms_boundaries(example3x3):
    # types partition [0,1) by cumulative frequency; boundary draws go right
    item = item_from_uniforms(example3x3, 0, 0.0, 0.0)
    assert (item.kind, item.type_name) == (AGENT, "c1")
    item = item_from_uniforms(example3x3, 0, 0.99, 0.999999)
    assert (item.kind, item.type_name) == (GOOD, "s3")


# --- single-step matching ---


def test_step_fcfs_examples(example3x3):
    state = UnmatchedList([("c1", 1), ("c3", 2)])
    _, event = step_fcfs(example3x3, state, SequenceItem(3, GOOD, "s3"))
    assert (event.good_type, event.agent_type, event.delay) == ("s3", "c3", 1)

    state = UnmatchedList([("c1", 1), ("c3", 2)])
    _, event = step_fcfs(example3x3, state, SequenceItem(3, GOOD, "s1"))
    assert (event.good_type, event.agent_type, event.delay) == ("s1", "c1", 2)

    state = UnmatchedList()
    _, event = step_fcfs(example3x3, state, SequenceItem(0, GOOD, "s2"))
    assert event.good_type == "s2"
    assert not state.entries


def test_step_fcfs_queues_agents(example3x3):
    state = UnmatchedList()
    _, event = step_fcfs(example3x3, state, SequenceItem(0, AGENT, "c2"))
    assert event.agent_type == "c2"
    assert state.entries == [("c2", 0)]


# --- batch runs ---


def test_run_is_deterministic(example3x3, warm_kernel):
    a = run(example3x3, 50_000, seed=42, burn_in=1_000)
    b = run(example3x3, 50_000, seed=42, burn_in=1_000)
    assert np.array_equal(a.match_counts, b.match_counts)
    assert np.array_equal(a.loss_counts, b.loss_counts)
    assert np.array_equal(a.delay_sums, b.delay_sums)
    assert np.array_equal(a.delay_sqs, b.delay_sqs)
    assert a.occupancy == b.occupancy


def test_run_conservation(example3x3, warm_kernel):
    stats = run(example3x3, 80_000, seed=9, burn_in=0)
    matches, losses = int(stats.match_counts.sum()), int(stats.loss_counts.sum())
    assert matches + losses == stats.total_goods
    assert stats.total_agents - matches == stats.final_unmatched
    assert stats.events_post_burn_in == 80_000
    # every recorded delay is at least one position
    assert np.all(stats.delay_sums >= stats.match_counts)


def test_run_rejects_unstable(example3x3):
    with pytest.raises(UnstableModel):
        run(make_example3x3(lambda_bar=1.2), 1_000, seed=1, burn_in=0)


def test_run_parameter_validation(example3x3):
    with pytest.raises(DomainError):
        run(example3x3, 1_000, seed=1, burn_in=1_000)
    with pytest.raises(DomainError):
        run(example3x3, 1_000, seed=1, burn_in=990)  # fewer events than batches
    with pytest.raises(DomainError, match="seed must be non-negative"):
        run(example3x3, 1_000, seed=-1, burn_in=0)


def test_batch_count_has_no_upper_bound(example3x3, warm_kernel, monkeypatch):
    # batching only splits the tallies: more batches change no total
    monkeypatch.setattr(simulator, "BATCHES", 50)
    few = run(example3x3, 50_000, seed=3, burn_in=1_000)
    monkeypatch.setattr(simulator, "BATCHES", 200)
    many = run(example3x3, 50_000, seed=3, burn_in=1_000)
    assert many.n_batches == 200
    for field in ("match_counts", "loss_counts", "delay_sums", "delay_sqs",
                  "goods_counts", "events_counts"):
        assert np.array_equal(getattr(many, field).sum(axis=0), getattr(few, field).sum(axis=0))
    assert (many.total_agents, many.final_unmatched) == (few.total_agents, few.final_unmatched)


def test_kernel_agrees_with_reference_implementation(example3x3, warm_kernel):
    n = 100_000
    stats = run(example3x3, n, seed=17, burn_in=0)
    draws = np.random.default_rng(17).random((2, n))
    window = window_from_uniforms(example3x3, draws[0], draws[1])

    match_counts = Counter()
    delay_sums = Counter()
    for a, g in window.matches:
        pair = (window.items[g].type_name, window.items[a].type_name)
        match_counts[pair] += 1
        delay_sums[pair] += g - a
    loss_counts = Counter(window.items[i].type_name for i in window.lost)

    # the reference matches only along edges, so the edge columns hold every match
    assert set(match_counts) <= example3x3.edges
    for j, g in enumerate(example3x3.good_names):
        assert stats.loss_counts[:, j].sum() == loss_counts.get(g, 0)
    for e, edge in enumerate(example3x3.edge_list):
        assert stats.match_counts[:, e].sum() == match_counts.get(edge, 0)
        assert stats.delay_sums[:, e].sum() == delay_sums.get(edge, 0)
    assert stats.final_unmatched == len(window.open_agents)


def test_estimates_near_analytic(example3x3, warm_kernel):
    stats = run(example3x3, 400_000, seed=2, burn_in=20_000)
    report = matching_rates(example3x3)
    ests = stats.estimates()
    for (g, a), expected in report.rates.items():
        est = ests["rate"][g, a]
        assert abs(est.value - expected) < 4 * est.stderr
    b_est = ests["pi_y"][()]
    assert abs(b_est.value - report.b) < 4 * b_est.stderr


def test_pi_y_occupancy_tracks_stationary_law(example3x3, warm_kernel):
    stats = run(example3x3, 400_000, seed=6, burn_in=20_000)
    table = analytic_pi_y(example3x3)
    pi_y = stats.estimates(table)["pi_y"]
    checked = 0
    for order, prob in table.items():
        if prob < 1e-3:
            continue
        est = pi_y[order]
        assert abs(est.value - prob) < 4 * est.stderr
        checked += 1
    assert checked >= 10


_COUNTERS = ("match_counts", "loss_counts", "delay_sums", "delay_sqs", "goods_counts",
             "events_counts", "total_agents", "total_goods", "final_unmatched")


def test_slice_boundaries_preserve_results(example3x3, warm_kernel, monkeypatch):
    # a slice of 97 events ends inside batches, so the kernel reads each batch
    # across list ends of the chained stream, and the run-length tally of the
    # current order carries on within the batch
    models = (example3x3, random_multi_type_model())
    default = [run(model, 60_000, seed=11, burn_in=2_000) for model in models]
    monkeypatch.setattr(simulator, "SLICE", 97)
    for model, ref in zip(models, default):
        short = run(model, 60_000, seed=11, burn_in=2_000)
        for field in _COUNTERS:
            assert np.array_equal(getattr(short, field), getattr(ref, field)), field
        assert list(short.occupancy) == list(ref.occupancy)
        assert short.occupancy == ref.occupancy


def _reference_orders(model, n_events, seed, chunk=None):
    """Item-level FCFS on run()'s uniform stream, drawn as rng.random((2, m))
    per chunk of m = chunk items (default: one chunk). Returns the
    first-appearance order after every event, every event (Queued, Matched or
    Lost), and the number of agents left waiting."""
    rng = np.random.default_rng(seed)
    chunk = chunk or n_events
    state = UnmatchedList()
    orders = []
    events = []
    for start in range(0, n_events, chunk):
        draws = rng.random((2, min(chunk, n_events - start)))
        for k in range(draws.shape[1]):
            item = item_from_uniforms(model, start + k, draws[0, k], draws[1, k])
            _, event = step_fcfs(model, state, item)
            events.append(event)
            orders.append(state.first_appearance_order())
    return orders, events, len(state)


def _reference_counters(model, orders, events, burn_in, n_batches):
    """run()'s counters and per-batch occupancy, tallied item by item from
    _reference_orders; delays are squared as floats in event order. Match and
    delay counters are per edge, in model.edge_list order."""
    n = len(events)
    edges = (n_batches, len(model.edge_list))
    edge_index = {edge: e for e, edge in enumerate(model.edge_list)}
    c = {
        "match_counts": np.zeros(edges, dtype=np.int64),
        "loss_counts": np.zeros((n_batches, model.n_good_types), dtype=np.int64),
        "delay_sums": np.zeros(edges, dtype=np.int64),
        "delay_sqs": np.zeros(edges, dtype=np.float64),
        "goods_counts": np.zeros(n_batches, dtype=np.int64),
        "events_counts": np.zeros(n_batches, dtype=np.int64),
    }
    occupancy = defaultdict(lambda: np.zeros(n_batches, dtype=np.int64))
    for k in range(burn_in, n):
        b = (k - burn_in) * n_batches // (n - burn_in)
        event = events[k]
        c["events_counts"][b] += 1
        occupancy[orders[k]][b] += 1
        if isinstance(event, Queued):
            continue
        j = model.good_index[event.good_type]
        c["goods_counts"][b] += 1
        if isinstance(event, Lost):
            c["loss_counts"][b, j] += 1
            continue
        e = edge_index[event.good_type, event.agent_type]
        c["match_counts"][b, e] += 1
        c["delay_sums"][b, e] += event.delay
        c["delay_sqs"][b, e] += float(event.delay) * float(event.delay)
    c["total_agents"] = sum(isinstance(event, Queued) for event in events)
    c["total_goods"] = n - c["total_agents"]
    return c, dict(occupancy)


def _nonzero_cells(dense: dict) -> dict:
    """Order -> {batch: events} over the nonzero batches of each (batches,) row."""
    return {key: {b: int(row[b]) for b in np.flatnonzero(row).tolist()} for key, row in dense.items()}


@pytest.mark.parametrize("which", ["example3x3", "random"])
def test_occupancy_tally_matches_reference_orders(example3x3, which, monkeypatch):
    model = example3x3 if which == "example3x3" else random_multi_type_model()
    n, seed, n_batches = 20_000, 23, 50
    orders, events, _ = _reference_orders(model, n, seed)
    # a matched head whose queue still holds agents can move behind other types
    reorders = sum(
        len(a) == len(b) and a != b for a, b in zip(orders, orders[1:])
    )
    assert reorders > 0

    # one event per batch: the order after each of the last 63 events
    monkeypatch.setattr(simulator, "BATCHES", 63)
    tail = run(model, n, seed=seed, burn_in=n - 63)
    for b in range(63):
        seen = {key: cells[b] for key, cells in tail.occupancy.items() if b in cells}
        assert seen == {orders[n - 63 + b]: 1}

    # every event of a run from the empty state, tallied per batch, and the
    # squared delays, summed in event order per batch and pair
    monkeypatch.setattr(simulator, "BATCHES", n_batches)
    stats = run(model, n, seed=seed, burn_in=0)
    counters, occupancy = _reference_counters(model, orders, events, 0, n_batches)
    assert stats.occupancy.keys() == occupancy.keys()
    assert stats.occupancy == _nonzero_cells(occupancy)
    assert np.array_equal(stats.delay_sqs, counters["delay_sqs"])


@pytest.mark.parametrize("which", ["example3x3", "random"])
def test_stream_crosses_chunk_ends(example3x3, which, monkeypatch):
    # chunks of 1000 items put five chunk ends in the run, one inside the
    # burn-in: at each, both generators must skip the other's row
    model = example3x3 if which == "example3x3" else random_multi_type_model()
    n, burn_in, n_batches, seed = 5_500, 1_500, 50, 31
    orders, events, waiting = _reference_orders(model, n, seed, chunk=1_000)
    counters, occupancy = _reference_counters(model, orders, events, burn_in, n_batches)
    monkeypatch.setattr(simulator, "CHUNK", 1_000)
    monkeypatch.setattr(simulator, "SLICE", 97)
    monkeypatch.setattr(simulator, "BATCHES", n_batches)
    stats = run(model, n, seed=seed, burn_in=burn_in)
    for field, expected in counters.items():
        assert np.array_equal(getattr(stats, field), expected), field
    assert stats.final_unmatched == waiting
    assert list(stats.occupancy) == list(dict.fromkeys(orders[burn_in:]))
    assert stats.occupancy.keys() == occupancy.keys()
    assert stats.occupancy == _nonzero_cells(occupancy)


# tracemalloc peak of run(example3x3, 1e5 events): a whole (2, 1e5) chunk of
# uniforms and a dense occupancy table made it 1.83 MB; slices of uniforms and
# sparse occupancy entries keep it at 0.29 MB
RUN_PEAK_BOUND = 800_000


def test_run_memory_is_slices_and_entries(example3x3, warm_kernel):
    tracemalloc.start()
    try:
        stats = run(example3x3, 100_000, seed=1, burn_in=10_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stats.events_post_burn_in == 90_000
    assert peak < RUN_PEAK_BOUND


@pytest.mark.parametrize("n_batches", [2, 63])
def test_occupancy_entries_are_the_nonzero_cells(example3x3, warm_kernel, n_batches, monkeypatch):
    monkeypatch.setattr(simulator, "BATCHES", n_batches)
    for model in (example3x3, random_multi_type_model()):
        stats = run(model, 20_000, seed=5, burn_in=1_000)
        for field in ("entry_rows", "entry_batches", "entry_counts"):
            assert getattr(stats, field).dtype == np.int64
        # a dense orders x batches table summed from the entries: its nonzero
        # cells are the occupancy, batches ascending, and each is one entry
        dense = np.zeros((len(stats.order_rows), n_batches), dtype=np.int64)
        np.add.at(dense, (stats.entry_rows, stats.entry_batches), stats.entry_counts)
        names = model.agent_names
        rows = {tuple(names[i] for i in key): row for key, row in zip(stats.order_rows, dense)}
        assert list(stats.occupancy) == list(rows)
        assert stats.occupancy == _nonzero_cells(rows)
        assert all(list(cells) == sorted(cells) for cells in stats.occupancy.values())
        assert sum(map(len, stats.occupancy.values())) == len(stats.entry_counts)
        assert stats.entry_counts.min() > 0


def test_pi_y_rejects_unknown_and_repeated_types(warm_kernel):
    with pytest.raises(UnknownIdentifier):
        warm_kernel.estimates([("zz",)])
    with pytest.raises(DuplicateType):
        warm_kernel.estimates([("c1", "c1")])
    with pytest.raises(DuplicateType):
        warm_kernel.estimates([("c1", "c2", "c1")])
    order = ("c1", "c2")
    assert (warm_kernel.estimates([order])["pi_y"][order]
            == warm_kernel.estimates([list(order)])["pi_y"][order])


def test_repeated_orders_collapse_to_one_key(warm_kernel):
    # an order asked twice, once as a list, and the empty order asked again
    # give one key each, and every family equals the one-order call bit for bit
    order = ("c1", "c2")
    once = warm_kernel.estimates([order])
    repeated = warm_kernel.estimates([order, list(order), ()])
    assert list(repeated["pi_y"]) == [(), order]
    assert repeated == once
    assert repeated["pi_y"][order].value > 0.0


@pytest.mark.parametrize("n_batches", [2, 50, 63])
def test_pi_y_rows_equal_single_order_estimates(example3x3, warm_kernel, n_batches, monkeypatch):
    # compare_with_analytic estimates all pi_y rows as one array; each row must
    # equal, bit for bit, the one-order estimate and its z-score
    monkeypatch.setattr(simulator, "BATCHES", n_batches)
    monkeypatch.setattr(simulator, "PI_Y_THRESHOLD", 1e-7)
    never_seen = 0
    for model in (example3x3, random_multi_type_model()):
        stats = run(model, 20_000, seed=5, burn_in=1_000)
        rows = compare_with_analytic(model, stats)
        pi_rows = [r for r in rows if r.quantity.startswith("pi_y[")]
        assert len(pi_rows) > 10
        for row in pi_rows:
            order = tuple(row.quantity[len("pi_y["):-1].split(">"))
            est = stats.estimates([order])["pi_y"][order]
            assert (row.empirical, row.stderr) == (est.value, est.stderr)
            assert row.z == _z(row.analytic, est)
            if order not in stats.occupancy:
                assert (row.empirical, row.stderr, row.z) == (0.0, 0.0, math.inf)
                never_seen += 1
    assert never_seen > 0


def _fourteen_agent_types() -> MatchingModel:
    agents = tuple((f"c{i}", 1.0 / 14) for i in range(14))
    goods = (("s", 1.0),)
    edges = frozenset(("s", f"c{i}") for i in range(14))
    return MatchingModel(agents, goods, edges, 0.4, 1.0)


def test_occupancy_tallied_for_many_types():
    # occupancy is tallied at every agent-type count, 14 types included
    model = _fourteen_agent_types()
    stats = run(model, 5_000, seed=1, burn_in=100)
    ests = stats.estimates()
    b = ests["pi_y"][()]
    assert 0.0 < b.value <= 1.0 and math.isfinite(b.stderr)
    assert stats.occupancy
    est = ests["rate"]["s", "c0"]
    assert est.value > 0


def test_compare_with_analytic_for_many_types():
    # 14 agent types: B and pi_y rows beside the others, and every row but a
    # pi_y row gets a finite z (an order no batch saw has z = inf); the pi_y
    # values come from the pruned walk, as analytic_pi_y stops at 10 types
    model = _fourteen_agent_types()
    stats = run(model, 5_000, seed=1, burn_in=100)
    rows = compare_with_analytic(model, stats)
    kinds = Counter(r.quantity.split("[")[0] for r in rows)
    assert kinds.pop("pi_y") >= 1
    assert kinds == {"B": 1, "rate": 14, "loss": 1, "delay_mean": 14, "delay_var": 14}
    pi_rows = [r for r in rows if r.quantity.startswith("pi_y[")]
    assert all(math.isfinite(r.z) for r in rows if not r.quantity.startswith("pi_y["))
    for row in pi_rows:
        order = tuple(row.quantity[len("pi_y["):-1].split(">"))
        assert row.analytic == pytest.approx(pi_y_perm(model, order), rel=1e-12)


def test_compare_with_analytic_refuses_another_models_stats(example3x3, warm_kernel):
    # same type names, another lambda_bar: the run says nothing about it
    other = example3x3.with_lambda_bar(0.6)
    with pytest.raises(DomainError, match="different model"):
        compare_with_analytic(other, warm_kernel)
    assert warm_kernel.model == example3x3


def test_compare_with_analytic_rows(example3x3, warm_kernel):
    stats = run(example3x3, 100_000, seed=4, burn_in=10_000)
    rows = compare_with_analytic(example3x3, stats)
    names = [r.quantity for r in rows]
    assert "B" in names
    assert "rate[s3,c2]" in names
    assert "loss[s2]" in names
    assert "delay_mean[s1,c1]" in names
    assert "delay_var[s3,c3]" in names
    assert "pi_y[(empty)]" not in names  # the empty state is the B row
    assert "pi_y[c1>c2]" in names
    finite = [r for r in rows if math.isfinite(r.z)]
    assert len(finite) == len(rows)


@pytest.mark.parametrize("which", ["example3x3", "random"])
def test_every_edge_family_follows_the_model_edge_list(example3x3, which, warm_kernel):
    # one order of the edges, set by the model: goods in declared order, then
    # agents in declared order; every per-edge report and estimate keeps it
    model = example3x3 if which == "example3x3" else random_multi_type_model()
    edges = list(model.edge_list)
    if which == "example3x3":
        assert edges == [("s1", "c1"), ("s1", "c2"), ("s2", "c1"), ("s2", "c3"),
                         ("s3", "c2"), ("s3", "c3")]
    limit = light_traffic_rates(model)
    families = [matching_rates(model).rates, delay_moments(model).pair_mean, limit.rates,
                limit.theta]
    ests = run(model, 5_000, seed=2, burn_in=500).estimates()
    families += [ests[name] for name in ("rate", "delay_mean", "delay_var")]
    for family in families:
        assert list(family) == edges


def test_loss_estimates_are_the_model_goods(warm_kernel):
    # one loss estimate per good type and no other key, in declared order
    assert list(warm_kernel.estimates()["loss"]) == list(warm_kernel.model.good_names)


def _eight_agent_types_model():
    """The first draw with 8 agent types."""
    rng = np.random.default_rng(0)
    while True:
        model = random_stable_model(rng, max_agents=8, max_goods=8, rho_cap=0.95)
        if model.n_agent_types == 8:
            return model


def test_row_estimates_match_per_row_reference():
    # at 2e4 events most edges of an 8-type model have a batch with fewer than
    # 2 matches, so their delay rows are masked: a masked row's stderr may
    # differ from the per-row reference in the last bit, every other figure
    # must equal it
    model = _eight_agent_types_model()
    stats = run(model, 20_000, seed=1)
    orders = list(stats.occupancy)[:100]
    ests = stats.estimates(orders)
    masked = 0
    for e, (g, a) in enumerate(model.edge_list):
        m, sums, sqs = (c[:, e] for c in (stats.match_counts, stats.delay_sums, stats.delay_sqs))
        for est, ref, full in (
            (ests["rate"][g, a], ratio_estimate(m, stats.goods_counts), (stats.goods_counts > 0).all()),
            (ests["delay_mean"][g, a], ratio_estimate(sums.astype(np.float64), m), (m > 0).all()),
            (ests["delay_var"][g, a], variance_estimate(sums, sqs, m), (m > 1).all()),
        ):
            assert est.value == ref[0]
            if full:
                assert est.stderr == ref[1]
            else:
                assert est.stderr == pytest.approx(ref[1], rel=1e-15, abs=0)
                masked += 1
    assert masked > len(ests["rate"])
    for g, loss in ests["loss"].items():
        assert loss == ratio_estimate(stats.loss_counts[:, model.good_index[g]], stats.goods_counts)
    assert ests["pi_y"][()] == ratio_estimate(dense_row(stats.occupancy[()], stats.n_batches),
                                              stats.events_counts)
    for order in orders:
        counts = dense_row(stats.occupancy[order], stats.n_batches)
        assert ests["pi_y"][order] == ratio_estimate(counts, stats.events_counts)


@pytest.mark.parametrize("matches, mean, var", [(0, math.nan, math.nan), (2, 3.0, 1.0)])
def test_row_estimates_without_two_batches(matches, mean, var):
    # delays 2 and 4 in one batch of four give a value with an infinite
    # stderr, and no match at all gives (nan, inf), as in the per-row reference
    m = np.array([[0, matches, 0, 0]])
    sums, sqs = m * 3, m * 10.0
    got = [_batch_means(sums, m), _batch_variances(sums, sqs, m)]
    refs = [ratio_estimate(sums[0], m[0]), variance_estimate(sums[0], sqs[0], m[0])]
    for (values, stderrs), ref, value in zip(got, refs, (mean, var)):
        assert np.array_equal([values[0], stderrs[0]], [value, math.inf], equal_nan=True)
        assert np.array_equal(ref, [value, math.inf], equal_nan=True)


# --- exchange transform and reversed-time matching ---


def _window_from_items(model, specs):
    kinds = {"c1": AGENT, "c2": AGENT, "c3": AGENT, "c": AGENT}
    items = []
    state = UnmatchedList()
    matches = []
    lost = []
    empty = []
    for n, type_name in enumerate(specs):
        kind = AGENT if type_name.startswith("c") else GOOD
        item = SequenceItem(n, kind, type_name)
        items.append(item)
        _, event = step_fcfs(model, state, item)
        if hasattr(event, "agent_index"):
            items[event.agent_index].partner = event.good_index
            matches.append((event.agent_index, event.good_index))
        elif hasattr(event, "good_type") and event.good_type == type_name and item.lost:
            lost.append(n)
        if not state.entries:
            empty.append(n + 1)
    return MatchWindow(model, items, matches, lost, [i for _, i in state.entries], empty)


def test_exchange_hand_example(example3x3):
    window = _window_from_items(example3x3, ["c1", "c3", "s3", "s2", "s1"])
    assert window.matches == [(1, 2), (0, 3)]
    assert window.lost == [4]
    exchanged = exchange_transform(window)
    assert [t for _, t in exchanged.items] == ["s2", "s3", "c3", "c1", "s1"]
    assert exchanged.certified_start == 0  # no open agents


def test_exchange_goods_only_is_identity(example3x3):
    window = _window_from_items(example3x3, ["s1", "s2", "s3", "s2"])
    exchanged = exchange_transform(window)
    assert [t for _, t in exchanged.items] == ["s1", "s2", "s3", "s2"]


def test_double_exchange_is_identity(example3x3):
    window = simulate_window(example3x3, 5_000, seed=31)
    cut = window.empty_times[-1]
    certified = window.truncated(cut)
    once = exchange_transform(certified)
    # apply the same position swaps again: must restore the original sequence
    items = list(once.items)
    for a, g in certified.matches:
        items[a], items[g] = items[g], items[a]
    assert items == [(it.kind, it.type_name) for it in certified.items]


def test_open_window_certification(example3x3):
    window = _window_from_items(example3x3, ["c1", "c2", "s3"])  # s3 matches c2; c1 open
    exchanged = exchange_transform(window)
    assert exchanged.open_positions == (0,)
    assert exchanged.certified_start == 1
    assert exchanged.certify(1) == 1
    with pytest.raises(OpenWindow):
        exchanged.certify(0)


def test_reversed_matching_reproduces_hand_example(example3x3):
    window = _window_from_items(example3x3, ["c1", "c3", "s3", "s2", "s1"])
    exchanged = exchange_transform(window)
    matches, lost = rematch_reversed(example3x3, exchanged)
    assert set(matches) == {(1, 2), (0, 3)}
    assert lost == [4]


def test_verify_reversibility(example3x3, single_pair):
    report = verify_reversibility(example3x3, 100_000, seed=5)
    assert report.passed
    assert report.reproduced_matches == report.original_matches > 30_000
    assert report.certified_events > 90_000

    trivial = verify_reversibility(single_pair, 10_000, seed=8)
    assert trivial.passed


def test_reversibility_chi_square_across_seeds(example3x3):
    pvalues = [verify_reversibility(example3x3, 20_000, seed=s).chi2_pvalue for s in range(5)]
    assert sum(p < 0.01 for p in pvalues) <= 1


# --- detailed states ---


def test_detailed_state_examples(example3x3):
    items = [SequenceItem(0, AGENT, "c1"), SequenceItem(1, GOOD, "s3", lost=True)]
    assert detailed_state(example3x3, items) == (("c", "c1"), ("s~", "s3"))

    items = [
        SequenceItem(0, AGENT, "c1", partner=2),
        SequenceItem(1, AGENT, "c2"),
        SequenceItem(2, GOOD, "s1", partner=0),
    ]
    # the first unmatched agent advances to c2; the matched good shows as an
    # exchanged agent of the type it consumed
    assert detailed_state(example3x3, items) == (("c", "c2"), ("c~", "c1"))

    items = [SequenceItem(0, AGENT, "c1", partner=1), SequenceItem(1, GOOD, "s1", partner=0)]
    assert detailed_state(example3x3, items) == ()


def test_is_admissible_examples(example3x3):
    assert is_admissible(example3x3, ())
    assert not is_admissible(example3x3, (("c", "c1"), ("s~", "s1")))
    assert is_admissible(example3x3, (("c", "c1"), ("s~", "s3")))
    assert not is_admissible(example3x3, (("c~", "c1"),))  # must start unmatched
    assert not is_admissible(example3x3, (("c", "c1"), ("x", "s1")))


def test_planted_inadmissible_states_rejected(example3x3):
    rng = np.random.default_rng(13)
    edges = sorted(example3x3.edges)
    for _ in range(200):
        g, a = edges[rng.integers(0, len(edges))]
        filler_n = int(rng.integers(0, 4))
        filler = tuple(
            ("c~", example3x3.agent_names[rng.integers(0, 3)]) for _ in range(filler_n)
        )
        state = (("c", a),) + filler + (("s~", g),)
        assert not is_admissible(example3x3, state)


def test_tracker_matches_from_scratch_construction(example3x3):
    draws = np.random.default_rng(37).random((2, 10_000))
    items = []
    tracker = DetailedTracker(example3x3)
    state = UnmatchedList()
    for n in range(10_000):
        item = item_from_uniforms(example3x3, n, draws[0, n], draws[1, n])
        items.append(item)
        _, event = step_fcfs(example3x3, state, item)
        if hasattr(event, "agent_index"):
            items[event.agent_index].partner = event.good_index
        tracker.step(item.kind, item.type_name)
        if n % 500 == 0:
            assert tracker.state() == detailed_state(example3x3, items)
    assert tracker.state() == detailed_state(example3x3, items)


def test_every_simulated_state_is_admissible(example3x3):
    draws = np.random.default_rng(41).random((2, 50_000))
    tracker = DetailedTracker(example3x3)
    for n in range(50_000):
        item = item_from_uniforms(example3x3, n, draws[0, n], draws[1, n])
        tracker.step(item.kind, item.type_name)
        assert is_admissible(example3x3, tracker.state())


def _tracked_run(model, n_events, seed, n_batches=20):
    """Per-batch counts of detailed states and of waiting-order gap distances."""
    draws = np.random.default_rng(seed).random((2, n_events))
    tracker = DetailedTracker(model)
    state_counts = defaultdict(lambda: np.zeros(n_batches, dtype=np.int64))
    gap_samples = defaultdict(lambda: [[] for _ in range(n_batches)])
    for n in range(n_events):
        item = item_from_uniforms(model, n, draws[0, n], draws[1, n])
        tracker.step(item.kind, item.type_name)
        b = n * n_batches // n_events
        st = tracker.state()
        if len(st) <= 6:
            state_counts[st][b] += 1
        # first-appearance distances within the detailed state
        firsts = []
        seen = set()
        for pos, (mark, t) in enumerate(st):
            if mark == "c" and t not in seen:
                seen.add(t)
                firsts.append((t, pos))
        if firsts:
            order = tuple(t for t, _ in firsts)
            for l in range(len(firsts)):
                end = firsts[l + 1][1] if l + 1 < len(firsts) else len(st)
                gap_samples[(order, l)][b].append(end - firsts[l][1])
    return state_counts, gap_samples


def test_equal_multiset_states_equally_likely(example3x3):
    # states with the same item multiset have identical stationary probability
    state_counts, _ = _tracked_run(example3x3, 300_000, seed=53)
    groups = defaultdict(list)
    for st, counts in state_counts.items():
        if st and counts.sum() > 500:
            groups[tuple(sorted(st))].append((st, counts))
    comparable = [g for g in groups.values() if len(g) >= 2]
    assert comparable
    checked = 0
    for group in comparable:
        group.sort(key=lambda it: -it[1].sum())
        (_, ca), (_, cb) = group[0], group[1]
        n_b = len(ca)
        diff = (ca - cb) / (300_000 / n_b)
        se = diff.std(ddof=1) / math.sqrt(n_b)
        assert abs(diff.mean()) <= 4 * se + 1e-12
        checked += 1
        if checked >= 3:
            break
    assert checked >= 1


def test_detailed_state_frequency_matches_product_law(example3x3):
    # spot check: the state holding exactly one waiting agent of type c1
    state_counts, _ = _tracked_run(example3x3, 300_000, seed=59)
    b = normalizing_constant(example3x3)
    expected = b * (0.7 / 1.7) * 0.3
    counts = state_counts[(("c", "c1"),)]
    n_b = len(counts)
    per_batch = counts / (300_000 / n_b)
    se = per_batch.std(ddof=1) / math.sqrt(n_b)
    assert abs(per_batch.mean() - expected) < 4 * se


def test_gap_distances_are_geometric(example3x3):
    from fcfs_match import geometric_stage

    _, gap_samples = _tracked_run(example3x3, 300_000, seed=61)
    checked = 0
    for order in (("c2",), ("c1",), ("c1", "c2")):
        for l in range(len(order)):
            samples = gap_samples[(order, l)]
            means = np.array([np.mean(b) for b in samples if len(b) > 50])
            if len(means) < 10:
                continue
            p = geometric_stage(example3x3, order[: l + 1]).p
            se = means.std(ddof=1) / math.sqrt(len(means))
            assert abs(means.mean() - 1.0 / p) < 4 * se
            checked += 1
    assert checked >= 2
