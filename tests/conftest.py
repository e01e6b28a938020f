from __future__ import annotations

import numpy as np
import pytest

from fcfs_match import MatchingModel, validate


def make_example3x3(lambda_bar: float = 0.7, mu_bar: float = 1.0) -> MatchingModel:
    """The 3x3 system used throughout: alpha (.3,.5,.2), beta (.3,.3,.4), 6 edges."""
    return validate(
        MatchingModel(
            agent_types=(("c1", 0.3), ("c2", 0.5), ("c3", 0.2)),
            good_types=(("s1", 0.3), ("s2", 0.3), ("s3", 0.4)),
            edges=frozenset(
                {("s1", "c1"), ("s1", "c2"), ("s2", "c1"), ("s2", "c3"), ("s3", "c2"), ("s3", "c3")}
            ),
            lambda_bar=lambda_bar,
            mu_bar=mu_bar,
        )
    )


def make_single_pair(lam: float = 0.5, mu: float = 1.0) -> MatchingModel:
    return validate(
        MatchingModel(
            agent_types=(("c", 1.0),),
            good_types=(("s", 1.0),),
            edges=frozenset({("s", "c")}),
            lambda_bar=lam,
            mu_bar=mu,
        )
    )


def make_one_letter_names() -> MatchingModel:
    """Agents a, b and goods s, t, each named by one letter, so that a bare
    string such as "ab" spells a set of declared types: s serves a and b, t
    serves b."""
    return MatchingModel((("a", 0.5), ("b", 0.5)), (("s", 0.5), ("t", 0.5)),
                         {("s", "a"), ("s", "b"), ("t", "b")}, 0.5, 1.0)


def make_disjoint_pairs() -> MatchingModel:
    """Two isolated pairs with alpha (0.5, 0.5), beta (0.4, 0.6): CRP fails."""
    return validate(
        MatchingModel(
            agent_types=(("c1", 0.5), ("c2", 0.5)),
            good_types=(("s1", 0.4), ("s2", 0.6)),
            edges=frozenset({("s1", "c1"), ("s2", "c2")}),
            lambda_bar=0.3,
            mu_bar=1.0,
        )
    )


def random_stable_model(
    rng: np.random.Generator,
    max_agents: int = 6,
    max_goods: int = 6,
    rho_cap: float = 0.9,
) -> MatchingModel:
    """A random connected-enough stable model for property-style tests."""
    from fcfs_match import max_stable_rho

    n_a = int(rng.integers(1, max_agents + 1))
    n_g = int(rng.integers(1, max_goods + 1))
    alpha = rng.dirichlet(np.ones(n_a) * 2.0)
    beta = rng.dirichlet(np.ones(n_g) * 2.0)
    agents = tuple((f"c{i+1}", float(a)) for i, a in enumerate(alpha))
    goods = tuple((f"s{j+1}", float(b)) for j, b in enumerate(beta))
    edges = set()
    for i in range(n_a):
        # at least one edge per agent, then sprinkle extras
        j = int(rng.integers(0, n_g))
        edges.add((f"s{j+1}", f"c{i+1}"))
        for j in range(n_g):
            if rng.random() < 0.4:
                edges.add((f"s{j+1}", f"c{i+1}"))
    model = MatchingModel(agents, goods, frozenset(edges), 1.0, 1.0)
    validate(model)
    limit = max_stable_rho(model).value
    rho = float(rng.uniform(0.2, rho_cap)) * limit
    return model.with_lambda_bar(rho * model.mu_bar)


def random_multi_type_model() -> MatchingModel:
    """The first draw with at least 4 agent types and 2 good types."""
    rng = np.random.default_rng(3)
    while True:
        model = random_stable_model(rng, max_agents=6, max_goods=4, rho_cap=0.95)
        if model.n_agent_types >= 4 and model.n_good_types >= 2:
            return model


def dense_row(cells: dict[int, int], n_batches: int) -> np.ndarray:
    """The (batches,) int64 counts of one order's {batch: events} cells."""
    row = np.zeros(n_batches, dtype=np.int64)
    row[list(cells)] = list(cells.values())
    return row


@pytest.fixture(scope="session")
def example3x3() -> MatchingModel:
    return make_example3x3()


@pytest.fixture(scope="session")
def single_pair() -> MatchingModel:
    return make_single_pair()


@pytest.fixture(scope="session")
def disjoint_pairs() -> MatchingModel:
    return make_disjoint_pairs()


@pytest.fixture(scope="session")
def warm_kernel(example3x3):
    """One short simulation run before the simulator tests.

    The kernel is plain Python, so there is nothing to compile; this only
    keeps first-call costs (imports, first allocations) out of timed tests.
    """
    from fcfs_match.simulator import run

    return run(example3x3, 2_000, seed=0, burn_in=100)


@pytest.fixture()
def model_file(tmp_path, example3x3):
    from fcfs_match import save_model

    path = tmp_path / "example3x3.json"
    save_model(example3x3, path)
    return path
