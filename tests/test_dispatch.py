"""Generators, automatic algorithm selection, component-wise solving."""

import random

import pytest

from sdgsolve import dispatch, treedecomp
from sdgsolve.core import Outcome, ResourceLimitError, ScoringVector, SocialNetwork
from sdgsolve.dispatch import choose_algorithm, solve
from sdgsolve.generators import (
    random_bounded_degree,
    random_partial_ktree,
    random_solver_corpus_instance,
)
from sdgsolve.oracle import brute_force_solve
from sdgsolve.solver_vc import compute_vertex_cover
from sdgsolve.treedecomp import exact_treewidth, nice_decomposition

from conftest import cycle_graph, path_graph


class TestGenerators:
    @pytest.mark.parametrize("seed", range(8))
    def test_partial_ktree_width(self, seed):
        rng = random.Random(seed)
        n, k = rng.randrange(4, 11), rng.randrange(1, 4)
        G = random_partial_ktree(n, k, seed)
        assert G.is_connected_within(G.full_mask)
        assert exact_treewidth(G) <= k

    def test_deterministic(self):
        a = random_partial_ktree(9, 2, 7)
        b = random_partial_ktree(9, 2, 7)
        assert a.edges == b.edges

    @pytest.mark.parametrize("seed", range(8))
    def test_bounded_degree(self, seed):
        G = random_bounded_degree(10, 3, seed)
        assert G.max_degree() <= 3
        assert G.is_connected_within(G.full_mask)

    def test_corpus_instance_limits(self):
        G = random_solver_corpus_instance(11)
        assert 4 <= G.n <= 9
        assert exact_treewidth(G) <= 3
        assert len(compute_vertex_cover(G)) <= 5


class TestChoose:
    def test_small_goes_brute(self, fig_a):
        assert choose_algorithm(ScoringVector((1,)), fig_a) == "brute"

    def test_medium_tw_goes_twdp(self):
        G = random_partial_ktree(14, 2, 3)
        assert choose_algorithm(ScoringVector((1, 0, -1)), G) == "twdp"

    def test_open_tail_skips_twdp(self):
        G = random_partial_ktree(14, 2, 3)
        algo = choose_algorithm(ScoringVector((1, -1), tail="open"), G)
        assert algo != "twdp"

    def test_cover_errors_other_than_the_limit_propagate(self, monkeypatch):
        def broken(G):
            raise RuntimeError("cover search broke")

        monkeypatch.setattr(dispatch, "compute_vertex_cover", broken)
        G = random_partial_ktree(14, 2, 3)
        # an open tail with score(2) >= 0 leaves only the cover step to try
        with pytest.raises(RuntimeError, match="cover search broke"):
            choose_algorithm(ScoringVector((1,), tail="open"), G)

    def test_oversized_cover_falls_back_to_raised_brute(self, monkeypatch):
        def oversized(G):
            raise ResourceLimitError("minimum vertex cover too large")

        monkeypatch.setattr(dispatch, "compute_vertex_cover", oversized)
        G = random_partial_ktree(14, 2, 3)
        assert choose_algorithm(ScoringVector((1,), tail="open"), G) == "brute-raised"


class TestRoutingByCap:
    # the base networks of the auto-mid benchmark workload
    AUTO_MID = (
        random_partial_ktree(11, 2, 0),
        random_partial_ktree(13, 2, 1),
        random_partial_ktree(11, 3, 1),
        random_bounded_degree(11, 3, 1),
    )

    @pytest.mark.parametrize("G", AUTO_MID)
    def test_auto_mid_networks_go_brute(self, G):
        for s in FUZZ_VECTORS:
            assert choose_algorithm(s, G) == "brute"

    def test_cap_sets_the_brute_range(self):
        G = random_partial_ktree(13, 2, 1)
        s = ScoringVector((1, 0, -1))
        assert choose_algorithm(s, G, brute_cap=13) == "brute"
        assert choose_algorithm(s, G, brute_cap=12) == "twdp"

    def test_cap_below_the_network_picks_a_dp(self):
        # the cap also bounds auto's brute-force range, so an 8-agent network
        # under cap 5 goes to a DP instead of raising ResourceLimitError
        s = ScoringVector((1, 0, -1))
        G = random_partial_ktree(8, 2, 0)
        got = solve(s, G, "welfare", brute_cap=5)
        expect = brute_force_solve(s, G, "welfare")
        assert got.algorithm == "twdp" and got.optimal
        assert got.welfare == expect.welfare

    @pytest.mark.parametrize("mode", ("welfare", "ir"))
    def test_relabelled_degree3_gets_the_canonical_optimum(self, mode):
        # a relabelling of random_bounded_degree(11, 3, 1); fptdp picks another
        # optimum of welfare 26 here, ((0,4,6,8),(1,9,10),(2,5),(3,7))
        G = SocialNetwork(11, [
            (0, 4), (0, 6), (1, 10), (2, 4), (2, 5), (2, 7), (3, 7),
            (3, 10), (4, 8), (5, 9), (6, 8), (6, 9), (7, 8), (9, 10),
        ])
        got = solve(ScoringVector((2, -1), tail="open"), G, mode)
        assert got.algorithm == "brute"
        assert got.welfare == 26
        assert got.outcome == Outcome(((0, 4, 6, 8), (1, 3, 10), (2, 7), (5, 9)))


class TestOneDecompositionPerGraph:
    """A graph object gets one elimination order, whatever number of width
    questions and DP runs read its decomposition."""

    @pytest.fixture
    def orders(self, monkeypatch):
        runs = []
        for name in ("_exact_elimination_order", "_min_fill_order"):
            def counted(G, order=getattr(treedecomp, name), name=name):
                runs.append(name)
                return order(G)

            monkeypatch.setattr(treedecomp, name, counted)
        return runs

    def test_auto_twdp_on_a_60_agent_tree(self, orders):
        G = random_partial_ktree(60, 1, 0)
        assert solve(ScoringVector((1, 0, -1)), G).algorithm == "twdp"
        assert orders == ["_min_fill_order"]

    def test_auto_fptdp_on_a_30_agent_tree(self, orders):
        G = random_partial_ktree(30, 1, 0)
        assert solve(ScoringVector((2, -1), tail="open"), G).algorithm == "fptdp"
        assert orders == ["_min_fill_order"]

    def test_27_queries_on_one_8_agent_graph(self, orders):
        G = random_solver_corpus_instance(8, (8, 8))
        orders.clear()  # the generator checks the width on its own
        queries = 0
        for scores, tail in (((1,), "closed"), ((1, -3), "closed"), ((1, 0, -1), "closed"),
                             ((1, 1, -1, -1, -1, -1), "closed"), ((2, -1), "open")):
            s = ScoringVector(scores, tail)
            for mode in ("welfare", "ir", "ns"):
                for algo in ("twdp", "fptdp") if s.is_closed else ("fptdp",):
                    solve(s, G, mode, algo=algo)
                    queries += 1
        assert queries == 27
        assert orders == ["_exact_elimination_order"]


class TestSolveFacade:
    def test_matches_brute_on_fig_a(self, fig_a):
        s = ScoringVector((1, 0, -1))
        for algo in ("auto", "brute", "twdp", "fptdp", "vc"):
            res = solve(s, fig_a, algo=algo)
            assert res.welfare == 18, algo

    def test_component_wise(self):
        s = ScoringVector((1, -3))
        # two separate triangles and an isolated agent
        edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
        G = SocialNetwork(7, edges)
        res = solve(s, G, algo="auto")
        expect = brute_force_solve(s, G, "welfare")
        assert res.welfare == expect.welfare
        assert res.outcome == expect.outcome

    def test_component_wise_all_algos(self):
        s = ScoringVector((1,))
        G = SocialNetwork(6, [(0, 1), (2, 3), (3, 4), (2, 4)])
        expect = brute_force_solve(s, G, "welfare").welfare
        for algo in ("brute", "twdp", "fptdp", "vc"):
            assert solve(s, G, algo=algo).welfare == expect

    def test_ns_modes_through_facade(self, fig_c, long_vec):
        for algo in ("auto", "brute", "twdp", "fptdp", "vc"):
            res = solve(long_vec, fig_c, mode="ns", algo=algo)
            assert res.welfare == 46, algo

    def test_rejects_unknown_algo(self, fig_a):
        with pytest.raises(ValueError):
            solve(ScoringVector((1,)), fig_a, algo="magic")

    @pytest.mark.parametrize("mode", ["welfare", "ir", "ns"])
    def test_rejects_a_decomposition_that_misses_an_agent(self, mode):
        # the 2-agent edge's decomposition would leave agent 2 out of the outcome
        ntd = nice_decomposition(SocialNetwork(2, [(0, 1)]))
        with pytest.raises(ValueError, match="vertex-coverage: agent 2"):
            solve(ScoringVector((1,)), path_graph(3), mode, decomposition=ntd)

    @pytest.mark.parametrize("mode", ["welfare", "ir", "ns"])
    def test_rejects_a_decomposition_that_misses_an_edge(self, mode):
        # the 4-path's decomposition never puts 0 and 3 in one bag, so on the
        # 4-cycle welfare mode would score the grand coalition 4 instead of 8
        ntd = nice_decomposition(path_graph(4))
        with pytest.raises(ValueError, match=r"edge-coverage: edge \(0,3\)"):
            solve(ScoringVector((1, 0)), cycle_graph(4), mode, decomposition=ntd)
        assert solve(ScoringVector((1, 0)), cycle_graph(4), mode).welfare == 8



def _fuzz_graph(kind, n, seed):
    if kind == "partial_2tree":
        return random_partial_ktree(n, 2, seed)
    return random_bounded_degree(n, 3, seed)


FUZZ_KINDS = ("partial_2tree", "degree3")
FUZZ_VECTORS = [
    ScoringVector((1, -3)),
    ScoringVector((1, 0, -1)),
    ScoringVector((2, -1), tail="open"),
    ScoringVector((1, -1), tail="open"),
]


# below these graphs' sizes, so auto routes them to the paper's DPs
FUZZ_BRUTE_CAP = 10


def _assert_auto_matches_brute(s, G, mode):
    assert G.n > FUZZ_BRUTE_CAP
    got = solve(s, G, mode=mode, brute_cap=FUZZ_BRUTE_CAP)
    expect = brute_force_solve(s, G, mode, cap=G.n)
    where = f"s={s} mode={mode} algorithm={got and got.algorithm} edges={G.edges}"
    assert (got is None) == (expect is None), where
    if expect is None:
        return
    assert got.welfare == expect.welfare, where
    # vc may return another optimum of equal welfare
    if got.algorithm in ("twdp", "fptdp"):
        assert got.outcome == expect.outcome, where


@pytest.mark.slow
@pytest.mark.parametrize("kind", FUZZ_KINDS)
@pytest.mark.parametrize("n", (11, 12))
@pytest.mark.parametrize("seed", (0, 1))
def test_auto_matches_brute_beyond_the_brute_range(kind, n, seed):
    G = _fuzz_graph(kind, n, seed)
    for s in FUZZ_VECTORS:
        for mode in ("welfare", "ir"):
            _assert_auto_matches_brute(s, G, mode)


@pytest.mark.slow
@pytest.mark.parametrize("kind", FUZZ_KINDS)
def test_auto_matches_brute_ns_beyond_the_brute_range(kind):
    _assert_auto_matches_brute(FUZZ_VECTORS[0], _fuzz_graph(kind, 11, 0), "ns")
