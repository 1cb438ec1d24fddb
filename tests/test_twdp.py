"""Treewidth DP vs the brute-force oracle, plus the reference-network values."""

import random

import pytest

from sdgsolve import solver_twdp
from sdgsolve.core import Outcome, ScoringVector, SocialNetwork, UnsupportedInputError
from sdgsolve.dispatch import solve
from sdgsolve.generators import random_partial_ktree
from sdgsolve.oracle import brute_force_solve
from sdgsolve.solver_twdp import solve_tw_ir, solve_tw_ns, solve_tw_welfare
from sdgsolve.stability import is_individually_rational, is_nash_stable
from sdgsolve.treedecomp import nice_decomposition

from conftest import (
    cycle_graph,
    path_graph,
    random_connected_graph,
    record_budgets,
    star_graph,
    with_singletons,
)

SWEEP_VECTORS = [
    ScoringVector((1,)),
    ScoringVector((1, -3)),
    ScoringVector((1, 0, -1)),
    ScoringVector((1, 1, -1, -1, -1, -1)),
]


class TestWelfare:
    def test_fig_a(self, fig_a):
        assert solve_tw_welfare(ScoringVector((1, 0, -1)), fig_a).welfare == 18
        assert solve_tw_welfare(ScoringVector((1, -3)), fig_a).welfare == 14

    def test_single_edge(self):
        G = SocialNetwork(2, [(0, 1)])
        res = solve_tw_welfare(ScoringVector((1,)), G)
        assert res.welfare == 2
        assert res.outcome == Outcome.from_blocks([[0, 1]])

    def test_rejects_open_tail(self, fig_a):
        with pytest.raises(UnsupportedInputError):
            solve_tw_welfare(ScoringVector((1, 0), tail="open"), fig_a)

    def test_small_shapes(self):
        s = ScoringVector((1, 0, -1))
        for G in (path_graph(5), cycle_graph(6), star_graph(4)):
            expect = brute_force_solve(s, G, "welfare").welfare
            assert solve_tw_welfare(s, G).welfare == expect


class TestIr:
    def test_fig_b(self, fig_b, long_vec):
        res = solve_tw_ir(long_vec, fig_b)
        assert res.welfare == 60
        assert is_individually_rational(long_vec, fig_b, res.outcome)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("network", ["fig_b", "fig_c"])
    def test_relabelled_reference_networks(self, network, seed, long_vec, request):
        """fig_b's IR optimum (60) lies below its welfare optimum (62); under
        relabellings the decomposition, and so the joins that merge the
        tallies' worst utilities, changes."""
        base = request.getfixturevalue(network)
        perm = list(range(base.n))
        random.Random(seed).shuffle(perm)
        G = SocialNetwork(base.n, [(perm[u], perm[v]) for u, v in base.edges])
        assert solve_tw_welfare(long_vec, G).welfare == brute_force_solve(long_vec, G, "welfare").welfare
        res = solve_tw_ir(long_vec, G)
        assert res.welfare == brute_force_solve(long_vec, G, "ir").welfare
        assert is_individually_rational(long_vec, G, res.outcome)

    def test_welfare_mode_agrees_when_unconstrained(self):
        s = ScoringVector((2, 1))
        G = path_graph(5)
        assert solve_tw_ir(s, G).welfare == solve_tw_welfare(s, G).welfare


class TestNs:
    def test_fig_c(self, fig_c, long_vec):
        res = solve_tw_ns(long_vec, fig_c)
        assert res is not None
        assert res.welfare == 46
        assert res.outcome == Outcome.from_blocks([[2, 9], [0, 1, 3, 4, 5, 6, 7, 8]])

    def test_triangle(self):
        G = cycle_graph(3)
        res = solve_tw_ns(ScoringVector((1,)), G)
        assert res.welfare == 6
        assert res.outcome == Outcome.from_blocks([[0, 1, 2]])


@pytest.mark.parametrize("seed", range(24))
def test_oracle_equivalence_sweep(seed):
    rng = random.Random(1000 + seed)
    n = rng.randrange(3, 9)
    G = random_connected_graph(n, rng)
    ntd = nice_decomposition(G)
    s = SWEEP_VECTORS[seed % len(SWEEP_VECTORS)]

    expect = brute_force_solve(s, G, "welfare")
    got = solve_tw_welfare(s, G, ntd)
    assert got.welfare == expect.welfare, f"welfare seed={seed} G={G.edges}"

    expect_ir = brute_force_solve(s, G, "ir")
    got_ir = solve_tw_ir(s, G, ntd)
    assert got_ir.welfare == expect_ir.welfare, f"ir seed={seed} G={G.edges}"
    assert is_individually_rational(s, G, got_ir.outcome)

    expect_ns = brute_force_solve(s, G, "ns")
    got_ns = solve_tw_ns(s, G, ntd)
    if expect_ns is None:
        assert got_ns is None, f"ns seed={seed} G={G.edges}"
    else:
        assert got_ns is not None, f"ns seed={seed} G={G.edges}"
        assert got_ns.welfare == expect_ns.welfare, f"ns seed={seed} G={G.edges}"
        assert is_nash_stable(s, G, got_ns.outcome)


def test_canonical_outcome_on_a_tie():
    """Two welfare-6 optima: min-fill's decomposition would make twdp pick
    ((0,1,3,4),(2,),(5,)); the subset DP's decomposition keeps brute force's
    canonical outcome."""
    G = SocialNetwork(6, [(0, 2), (0, 4), (1, 4), (3, 4), (3, 5)])
    s = ScoringVector((1, 0, -1))
    result = solve(s, G, "welfare", algo="twdp")
    assert result.welfare == 6
    assert result.outcome == Outcome(((0, 1, 2, 4), (3, 5)))
    assert result.outcome == brute_force_solve(s, G, "welfare").outcome


# (agents, k) of random_partial_ktree(agents, k, 0) and the vector -> the
# welfare and IR optimum's welfare and coalitions of two or more agents, as
# twdp returned them when witnesses were frozensets; criterion 4 stops at 9
# agents, these pin the tie-break where the tables run deep
LARGE_OUTCOMES = {
    ((30, 1), (1, -3)): (18, [[0, 1], [3, 16], [4, 9], [5, 8], [6, 13], [11, 17], [12, 25], [19, 27], [23, 24]]),
    ((30, 1), (1, 0, -1)): (42, [[0, 1, 2, 7, 10, 12, 14, 22, 23, 28, 29], [3, 5, 16, 26], [4, 9, 18], [6, 13, 15, 20], [11, 17, 21], [19, 27]]),
    ((60, 1), (1, -3)): (34, [[0, 1], [2, 41], [3, 16], [4, 9], [5, 8], [6, 13], [7, 42], [11, 21], [12, 25], [17, 47], [18, 38], [22, 48], [23, 24], [27, 43], [30, 59], [32, 35], [36, 58]]),
    ((60, 1), (1, 0, -1)): (86, [[0, 1, 7, 10, 12, 14, 22, 23, 28, 29, 34, 36, 37, 40, 45, 46, 49, 52, 55, 56, 57], [2, 41, 44], [3, 16, 26, 50, 54], [4, 9, 11, 18, 19, 31], [5, 8, 39], [6, 13, 15, 20, 51, 53], [17, 47], [21, 32, 35], [27, 43], [30, 59]]),
    ((20, 2), (1, -3)): (20, [[0, 1], [2, 7], [3, 14, 15], [5, 6], [8, 11], [9, 17], [10, 16], [12, 19]]),
    ((20, 2), (1, 0, -1)): (28, [[0, 1, 5, 19], [2, 6, 7, 12], [3, 4, 9, 10, 17], [8, 11], [14, 15, 18]]),
}


@pytest.mark.parametrize("graph,vec", list(LARGE_OUTCOMES), ids=lambda v: ",".join(map(str, v)))
def test_large_network_outcomes_are_pinned(graph, vec):
    n, k = graph
    G = random_partial_ktree(n, k, 0)
    welfare, coalitions = LARGE_OUTCOMES[graph, vec]
    for mode in ("welfare", "ir"):
        result = solve(ScoringVector(vec), G, mode, algo="twdp")
        assert (result.welfare, result.outcome) == (welfare, with_singletons(n, coalitions)), mode


# LARGE_OUTCOMES' instances -> twdp's table insertions (Budget.seen) in
# welfare and IR mode; a change of state encoding that splits or merges
# states moves these even where the outcome stays
LARGE_ADDS = {
    ((30, 1), (1, -3)): (805, 767),
    ((30, 1), (1, 0, -1)): (2097, 1994),
    ((60, 1), (1, -3)): (2500, 2285),
    ((60, 1), (1, 0, -1)): (10831, 10129),
    ((20, 2), (1, -3)): (1215, 1187),
    ((20, 2), (1, 0, -1)): (5173, 7035),
}


@pytest.mark.parametrize("graph,vec", list(LARGE_ADDS), ids=lambda v: ",".join(map(str, v)))
def test_large_network_table_adds_are_pinned(graph, vec, monkeypatch):
    budgets = record_budgets(monkeypatch, solver_twdp)
    G = random_partial_ktree(*graph, 0)
    seen = []
    for mode in ("welfare", "ir"):
        budgets.clear()
        solve(ScoringVector(vec), G, mode, algo="twdp")
        seen.append(sum(b.seen for b in budgets))
    assert tuple(seen) == LARGE_ADDS[graph, vec]


def test_ns_on_a_24_agent_tree_is_capped_by_the_size_bound(monkeypatch):
    """(1,-3) certifies coalitions of at most 2 agents, and auto's NS route
    through twdp caps its coalitions by that bound."""
    budgets = record_budgets(monkeypatch, solver_twdp)
    s = ScoringVector((1, -3))
    G = random_partial_ktree(24, 1, 0)
    result = solve(s, G, "ns")
    assert (result.algorithm, result.welfare) == ("twdp", 12)
    assert is_nash_stable(s, G, result.outcome)
    assert sum(b.seen for b in budgets) == 6248


def test_long_path_solves_without_a_recursion_limit():
    """The nice decomposition of a 600-agent path is about 1800 nodes deep;
    building it must not recurse once per bag."""
    result = solve(ScoringVector((1, -3)), path_graph(600), "welfare")
    assert (result.algorithm, result.welfare) == ("twdp", 600)
