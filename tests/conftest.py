"""Shared fixtures: the three reference networks and small random-graph helpers.

Agent numbering for the reference networks is fixed here once and reused by
every test module:

fig_a (7 agents): two hubs over a triangle, with one pendant each.
    0=x, 1=y, 2=a1, 3=a2, 4=a3, 5=x1, 6=y1
    Edges: x and y each adjacent to a1,a2,a3; a1a2a3 form a triangle;
    x-x1 and y-y1 pendants.

fig_b (10 agents): 5-path whose endpoints both attach to a 5-clique.
    0..4 = p1,p2,x,p4,p5 (x=2 is the path center), 5..9 = clique.

fig_c (10 agents): 5-path whose endpoints both attach to a 4-clique,
    plus a pendant y on the path center.
    0..4 = p1,p2,x,p4,p5, 5..8 = clique, 9 = y.
"""

import random

import pytest

from sdgsolve import dp, solver_twdp
from sdgsolve.core import Outcome, ScoringVector, SocialNetwork

# filled by tests/test_acceptance.py; echoed after the run so the
# per-criterion lines survive output capturing
ACCEPTANCE_LINES: list[str] = []


def record_budgets(monkeypatch) -> list:
    """List that collects every Budget ``solver_twdp.solve_nice``, the solve
    body of twdp and fptdp, makes from now on: one per DP solve, its
    ``seen`` the solve's table insertions."""
    budgets = []

    class RecordedBudget(dp.Budget):
        def __init__(self, *args):
            super().__init__(*args)
            budgets.append(self)

    monkeypatch.setattr(solver_twdp, "Budget", RecordedBudget)
    return budgets


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def _fig_a() -> SocialNetwork:
    x, y, a1, a2, a3, x1, y1 = range(7)
    edges = [
        (x, a1), (x, a2), (x, a3),
        (y, a1), (y, a2), (y, a3),
        (a1, a2), (a2, a3), (a3, a1),
        (x, x1), (y, y1),
    ]
    return SocialNetwork(7, edges)


def _fig_b() -> SocialNetwork:
    # path p1-p2-x-p4-p5 on 0..4, clique on 5..9, endpoints joined to the clique
    edges = [(0, 1), (1, 2), (2, 3), (3, 4)]
    clique = range(5, 10)
    edges += [(u, v) for u in clique for v in clique if u < v]
    edges += [(0, k) for k in clique]
    edges += [(4, k) for k in clique]
    return SocialNetwork(10, edges)


def _fig_c() -> SocialNetwork:
    edges = [(0, 1), (1, 2), (2, 3), (3, 4)]
    clique = range(5, 9)
    edges += [(u, v) for u in clique for v in clique if u < v]
    edges += [(0, k) for k in clique]
    edges += [(4, k) for k in clique]
    edges += [(2, 9)]  # pendant y on the path center x
    return SocialNetwork(10, edges)


@pytest.fixture(scope="session")
def fig_a():
    return _fig_a()


@pytest.fixture(scope="session")
def fig_b():
    return _fig_b()


@pytest.fixture(scope="session")
def fig_c():
    return _fig_c()


@pytest.fixture(scope="session")
def long_vec():
    return ScoringVector((1, 1, -1, -1, -1, -1))


# the five scoring vectors of the randomized oracle and evaluator tests
VECTORS = [
    ScoringVector((1,)),
    ScoringVector((1, -3)),
    ScoringVector((1, 0, -1)),
    ScoringVector((1, 1, -1, -1, -1, -1)),
    ScoringVector((2, 0, -1), tail="open"),
]


def random_connected_graph(n: int, rng: random.Random, extra_edge_prob: float = 0.3) -> SocialNetwork:
    """Random spanning tree plus a few extra edges."""
    edges = set()
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        j = rng.randrange(i)
        edges.add((min(order[i], order[j]), max(order[i], order[j])))
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in edges and rng.random() < extra_edge_prob / n:
                edges.add((u, v))
    return SocialNetwork(n, edges)


def path_graph(n: int) -> SocialNetwork:
    return SocialNetwork(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> SocialNetwork:
    return SocialNetwork(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> SocialNetwork:
    return SocialNetwork(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def star_graph(leaves: int) -> SocialNetwork:
    return SocialNetwork(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def with_singletons(n: int, coalitions) -> Outcome:
    """Outcome of ``n`` agents: the given coalitions, everyone else alone."""
    placed = {v for c in coalitions for v in c}
    return Outcome.from_blocks(list(coalitions) + [[v] for v in range(n) if v not in placed])


def plain_key(G: SocialNetwork, blocks) -> int:
    """The outcome key written plainly: edge (u, v) of rank r in the sorted
    edge list adds 2 ** (m - 1 - r) when u and v share a block."""
    m = len(G.edges)
    where = {a: i for i, block in enumerate(blocks) for a in block}
    return sum(
        1 << (m - 1 - r)
        for r, (u, v) in enumerate(G.edges)
        if u in where and v in where and where[u] == where[v]
    )
