"""Treewidth DP vs the brute-force oracle, plus the reference-network values."""

import random

import pytest

from sdgsolve.core import Outcome, ScoringVector, SocialNetwork, UnsupportedInputError
from sdgsolve.dispatch import solve
from sdgsolve.oracle import brute_force_solve
from sdgsolve.solver_twdp import solve_tw_ir, solve_tw_ns, solve_tw_welfare
from sdgsolve.stability import is_individually_rational, is_nash_stable
from sdgsolve.treedecomp import nice_decomposition

from conftest import cycle_graph, path_graph, random_connected_graph, star_graph

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
