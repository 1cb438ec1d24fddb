"""Coalition-topology DP vs the oracle, including open-tail vectors."""

import random

import pytest

from sdgsolve import solver_fptdp
from sdgsolve.core import NEG_INF, Outcome, ScoringVector, social_welfare
from sdgsolve.dispatch import solve
from sdgsolve.generators import random_bounded_degree, random_partial_ktree
from sdgsolve.oracle import brute_force_solve, enumerate_partitions
from sdgsolve.solver_fptdp import select_sz, solve_fpt
from sdgsolve.stability import is_individually_rational, is_nash_stable

from conftest import cycle_graph, path_graph, random_connected_graph, star_graph, with_singletons


class TestSelectSz:
    def test_tw_bound_on_tree(self):
        # high-degree star keeps the degree bound (10) above the tw bound (5)
        G = star_graph(5)
        assert select_sz(ScoringVector((1, -3)), G) == 5

    def test_min_of_both_bounds(self):
        # on a path the degree bound (1+1)*2 = 4 undercuts the tw bound 5
        assert select_sz(ScoringVector((1, -3)), path_graph(9)) == 4

    def test_degree_bound(self):
        # cutoff 3: the degree bound does not hold (on C5 the grand coalition
        # is optimal), and score(2) = 0 rules out the treewidth bound
        G = cycle_graph(20)
        s = ScoringVector((1, 0, -1))
        assert select_sz(s, G) is None

    def test_absent_when_no_premise(self):
        s = ScoringVector((1, 0, 0))
        G = star_graph(6)
        assert select_sz(s, G) is None

    def test_clamped_to_n(self, fig_a):
        s = ScoringVector((1, -3))
        assert select_sz(s, fig_a) == 7  # raw bounds 13 and 8, clamped to n

    @pytest.mark.parametrize("scores", [(-1, -2), (-1,), (-2, -3)])
    def test_at_least_one(self, scores):
        # raw treewidth bounds 1, 1 and -3: a singleton is always allowed
        s = ScoringVector(scores)
        G = cycle_graph(5)
        assert select_sz(s, G) == 1
        for mode in ("welfare", "ir", "ns"):
            result = solve(s, G, mode, algo="fptdp")
            assert (result.welfare, result.outcome) == (0, Outcome.singletons(5))
            assert result.optimal


class TestWelfare:
    def test_fig_a_with_selected_sz(self, fig_a):
        s = ScoringVector((1, -3))
        res = solve_fpt(s, fig_a)
        assert res.welfare == 14
        assert res.optimal

    def test_fig_a_other_vector(self, fig_a):
        s = ScoringVector((1, 0, -1))
        res = solve_fpt(s, fig_a, sz=7)
        assert res.welfare == 18

    def test_sz_one_gives_singletons(self, fig_a):
        res = solve_fpt(ScoringVector((1,)), fig_a, sz=1)
        assert res.welfare == 0
        assert res.outcome == Outcome.singletons(7)

    def test_monotone_in_sz(self):
        G = cycle_graph(6)
        s = ScoringVector((2, 1))
        prev = None
        for sz in range(1, 7):
            w = solve_fpt(s, G, sz=sz).welfare
            if prev is not None:
                assert w >= prev
            prev = w

    def test_size_limited_flag(self, fig_a):
        res = solve_fpt(ScoringVector((1,)), fig_a, sz=2)
        assert res.size_limited and not res.optimal


class TestStar:
    def test_open_tail_star(self):
        G = star_graph(4)
        s = ScoringVector((1, 1))
        res = solve_fpt(s, G, sz=5)
        assert res.welfare == 20  # grand coalition: 4 spokes + 6 leaf pairs


OPEN_VECTORS = [
    ScoringVector((1, -1), tail="open"),
    ScoringVector((2, 0, -1), tail="open"),
]
CLOSED_VECTORS = [
    ScoringVector((1,)),
    ScoringVector((1, -3)),
    ScoringVector((1, 0, -1)),
    ScoringVector((1, 1, -1, -1, -1, -1)),
]


@pytest.mark.parametrize("seed", range(18))
def test_oracle_equivalence_closed(seed):
    rng = random.Random(3000 + seed)
    n = rng.randrange(3, 9)
    G = random_connected_graph(n, rng)
    s = CLOSED_VECTORS[seed % len(CLOSED_VECTORS)]
    for mode in ("welfare", "ir", "ns"):
        expect = brute_force_solve(s, G, mode)
        got = solve_fpt(s, G, sz=n, mode=mode)
        if expect is None:
            assert got is None
            continue
        assert got is not None, f"seed={seed} mode={mode} G={G.edges}"
        assert got.welfare == expect.welfare, f"seed={seed} mode={mode} G={G.edges}"
        assert got.outcome == expect.outcome, f"seed={seed} mode={mode} G={G.edges}"
        if mode == "ir":
            assert is_individually_rational(s, G, got.outcome)
        if mode == "ns":
            assert is_nash_stable(s, G, got.outcome)


@pytest.mark.parametrize("seed", range(10))
def test_oracle_equivalence_open(seed):
    rng = random.Random(4000 + seed)
    n = rng.randrange(3, 8)
    G = random_connected_graph(n, rng)
    s = OPEN_VECTORS[seed % len(OPEN_VECTORS)]
    for mode in ("welfare", "ir", "ns"):
        expect = brute_force_solve(s, G, mode)
        got = solve_fpt(s, G, sz=n, mode=mode)
        ew = None if expect is None else (expect.welfare, expect.outcome)
        gw = None if got is None else (got.welfare, got.outcome)
        assert ew == gw, f"seed={seed} mode={mode} G={G.edges}"


# (agents, max degree, seed) of random_bounded_degree; None for the cycles
CERTIFIED_GRAPHS = [(4 + seed % 7, 2 + seed // 7, seed) for seed in range(14)] + [(5, None, 0), (6, None, 0)]


@pytest.mark.parametrize("n,degree,seed", CERTIFIED_GRAPHS)
def test_certified_size_matches_brute(n, degree, seed):
    """fptdp with its own size bound (``sz=None``) against brute force, on
    bounded-degree graphs and the cycles where a degree bound without its
    premise cut the grand coalition."""
    G = cycle_graph(n) if degree is None else random_bounded_degree(n, degree, seed)
    for scores in ((1, -1), (1, 0, -1), (1, 1, -1), (2, -1), (2, 0, -1)):
        s = ScoringVector(scores)
        for mode in ("welfare", "ir", "ns"):
            got = solve(s, G, mode, algo="fptdp")
            expect = brute_force_solve(s, G, mode)
            where = f"{scores} {mode} G={G.edges}"
            assert (got is None) == (expect is None), where
            if got is not None:
                assert (got.welfare, got.outcome) == (expect.welfare, expect.outcome), where
                assert got.optimal, where


@pytest.mark.parametrize("mode", ["welfare", "ir"])
def test_large_tree_outcome_is_pinned(mode):
    """The 30-agent tree under open (2,-1), with the certified size bound; the
    outcome is the one fptdp returned when witnesses were frozensets."""
    G = random_partial_ktree(30, 1, 0)
    result = solve(ScoringVector((2, -1), tail="open"), G, mode, algo="fptdp")
    expect = with_singletons(30, [
        [0, 1, 2], [3, 16, 26], [4, 9, 18], [5, 8], [6, 13, 15],
        [11, 17, 21], [12, 25], [19, 27], [23, 24],
    ])
    assert (result.welfare, result.outcome) == (46, expect)
    assert result.optimal and not result.size_limited


# instance -> fptdp's table insertions (Budget.seen) per mode, with the
# certified size bound; a change that splits or merges states moves these
# even where the outcome stays
PINNED_ADDS = [
    ((30, 1), ScoringVector((2, -1), tail="open"), {"welfare": 1687, "ir": 1595}),
    ((20, 2), ScoringVector((1, -3)), {"welfare": 19321, "ir": 17952}),
    ((12, 2), ScoringVector((1, 0, -1)), {"welfare": 621, "ir": 602, "ns": 974}),
]


@pytest.mark.parametrize("graph,s,adds", PINNED_ADDS, ids=["tree30", "2tree20", "2tree12"])
def test_table_adds_are_pinned(graph, s, adds, monkeypatch):
    budgets = []

    class RecordedBudget(solver_fptdp.Budget):
        def __init__(self, *args):
            super().__init__(*args)
            budgets.append(self)

    monkeypatch.setattr(solver_fptdp, "Budget", RecordedBudget)
    G = random_partial_ktree(*graph, 0)
    seen = {}
    for mode in adds:
        budgets.clear()
        solve_fpt(s, G, mode=mode)
        seen[mode] = sum(b.seen for b in budgets)
    assert seen == adds


def _best_capped(s, G, mode, sz):
    """Best welfare over the partitions with no coalition above ``sz`` that
    are IR (ir mode) or Nash stable (ns mode); None when there is none."""
    best = None
    for blocks in enumerate_partitions(G.n):
        if max(map(len, blocks)) > sz:
            continue
        outcome = Outcome(blocks)
        if mode == "ir" and not is_individually_rational(s, G, outcome):
            continue
        if mode == "ns" and not is_nash_stable(s, G, outcome):
            continue
        welfare = social_welfare(s, G, outcome)
        if welfare != NEG_INF and (best is None or welfare > best):
            best = welfare
    return best


@pytest.mark.parametrize("seed", range(40))
def test_size_cap_reaches_the_best_capped_outcome(seed):
    """Below n agents the cap binds: fptdp must still find the best outcome
    among those whose coalitions fit it, in every mode."""
    rng = random.Random(5000 + seed)
    n = rng.randrange(3, 8)
    G = random_connected_graph(n, rng)
    s = (CLOSED_VECTORS + OPEN_VECTORS)[seed % 6]
    for sz in (2, 3):
        for mode in ("welfare", "ir", "ns"):
            got = solve_fpt(s, G, sz=sz, mode=mode)
            expect = _best_capped(s, G, mode, sz)
            where = f"seed={seed} sz={sz} mode={mode} G={G.edges}"
            if expect is None:
                assert got is None, where
                continue
            assert got is not None and got.welfare == expect, where
            assert max(map(len, got.outcome)) <= sz, where
            assert got.size_limited == (sz < n), where
            if mode == "ir":
                assert is_individually_rational(s, G, got.outcome), where
            if mode == "ns":
                assert is_nash_stable(s, G, got.outcome), where
