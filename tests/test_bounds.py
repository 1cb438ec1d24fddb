"""Coalition-size and diameter bounds, plus the certifier."""

import random

import pytest

from sdgsolve.core import (
    NEG_INF,
    Outcome,
    ScoringVector,
    SocialNetwork,
    UnsupportedInputError,
    coalition_welfare,
    utility_in_coalition,
)
from sdgsolve.bounds import (
    certify_outcome,
    compute_bound_report,
    degree_bound_applies,
    degree_coalition_bound,
    stable_diameter_limit,
    treewidth_coalition_bound,
)
from sdgsolve.oracle import brute_force_solve
from sdgsolve.stability import is_individually_rational
from sdgsolve.treedecomp import exact_treewidth

from conftest import complete_graph, path_graph, random_connected_graph


class TestDegreeBound:
    def test_direct_substitution(self):
        assert degree_coalition_bound(ScoringVector((1, -3)), 3) == 6
        assert degree_coalition_bound(ScoringVector((2, -2)), 2) == 6

    @pytest.mark.parametrize("scores", [(1, 0, -1), (2, 1), (1, -1), (0, -2), (1, 1, -1)])
    def test_rejects_vectors_outside_the_premise(self, scores):
        s = ScoringVector(scores)
        assert not degree_bound_applies(s, 3)
        with pytest.raises(UnsupportedInputError):
            degree_coalition_bound(s, 3)

    def test_degenerate_single_entry(self):
        assert degree_coalition_bound(ScoringVector((1,)), 5) == 10

    def test_rejects_open_tail(self):
        with pytest.raises(UnsupportedInputError):
            degree_coalition_bound(ScoringVector((1, 0), tail="open"), 3)

    def test_rejects_tiny_degree(self):
        with pytest.raises(ValueError):
            degree_coalition_bound(ScoringVector((1,)), 1)

    def test_k6_minus_edges_degenerate_case(self):
        # brute-check the single-entry bound: any coalition larger than pairwise
        # adjacency allows has an unreachable pair and all-negative members
        G = complete_graph(6)
        s = ScoringVector((1,))
        bound = degree_coalition_bound(s, 5)
        assert bound == 10  # vacuous here; property checked on sparser graphs below

    def test_property_on_bounded_degree_graphs(self):
        # vectors whose tails are strictly below -1 (or single-entry) make the
        # "every member negative" claim airtight; checked exhaustively
        rng = random.Random(7)
        vectors = [ScoringVector((1,)), ScoringVector((1, -3)), ScoringVector((2, -2))]
        for _ in range(60):
            n = rng.randrange(5, 10)
            G = random_connected_graph(n, rng)
            if G.max_degree() < 2 or G.max_degree() > 4:
                continue
            for s in vectors:
                bound = degree_coalition_bound(s, G.max_degree())
                if n <= bound:
                    continue
                for _ in range(40):
                    size = rng.randrange(bound + 1, n + 1)
                    block = rng.sample(range(n), size)
                    for i in block:
                        assert utility_in_coalition(s, G, block, i) < 0


class TestTreewidthBound:
    def test_direct_substitution(self):
        assert treewidth_coalition_bound(ScoringVector((1, -3)), 1) == 5
        assert treewidth_coalition_bound(ScoringVector((3, -1)), 2) == 17

    def test_single_entry_vector_qualifies(self):
        # distance 2 scores NEG_INF under a closed single-entry vector
        assert treewidth_coalition_bound(ScoringVector((1,)), 2) == 9

    def test_rejects_nonnegative_second_score(self):
        with pytest.raises(ValueError):
            treewidth_coalition_bound(ScoringVector((1, 0)), 1)

    def test_random_trees_respect_bound(self):
        # welfare optimum on trees never uses a coalition above the tw=1 bound
        rng = random.Random(3)
        s = ScoringVector((1, -3))
        bound = treewidth_coalition_bound(s, 1)
        for _ in range(25):
            n = rng.randrange(4, 10)
            edges = [(i, rng.randrange(i)) for i in range(1, n)]
            G = SocialNetwork(n, edges)
            res = brute_force_solve(s, G, "welfare")
            assert all(len(block) <= bound for block in res.outcome)

    def test_total_negative_beyond_bound(self):
        rng = random.Random(11)
        s = ScoringVector((1, -1))
        for _ in range(40):
            n = rng.randrange(4, 10)
            G = random_connected_graph(n, rng)
            tw = exact_treewidth(G)
            if tw < 1:
                continue
            bound = treewidth_coalition_bound(s, tw)
            if n <= bound:
                continue
            for _ in range(30):
                size = rng.randrange(bound + 1, n + 1)
                block = rng.sample(range(n), size)
                assert coalition_welfare(s, G, block) < 0


class TestStableDiameter:
    def test_values(self):
        assert stable_diameter_limit(ScoringVector((1, 0, -1), tail="open")) == 6
        assert stable_diameter_limit(ScoringVector((3, 1, 1, 1, -2), tail="open")) == 30

    def test_rejects_closed(self):
        with pytest.raises(UnsupportedInputError):
            stable_diameter_limit(ScoringVector((1, 0, -1)))

    def test_rejects_nonnegative_tail(self):
        with pytest.raises(UnsupportedInputError):
            stable_diameter_limit(ScoringVector((1, 0), tail="open"))

    def test_long_path_grand_coalition_not_ir(self):
        s = ScoringVector((1, 0, -1), tail="open")
        G = path_graph(9)  # diameter 8 > limit 6
        grand = Outcome.from_blocks([range(9)])
        assert not is_individually_rational(s, G, grand)

    def test_property_big_diameter_never_ir(self):
        rng = random.Random(19)
        vectors = [
            ScoringVector((1, -1), tail="open"),
            ScoringVector((1, 0, -1), tail="open"),
            ScoringVector((2, -1), tail="open"),
        ]
        for s in vectors:
            limit = stable_diameter_limit(s)
            for _ in range(30):
                n = rng.randrange(limit + 2, limit + 6)
                G = path_graph(n)  # diameter n-1 > limit
                grand = Outcome.from_blocks([range(n)])
                assert not is_individually_rational(s, G, grand)


class TestBoundReport:
    def test_report_fields(self, fig_a):
        s = ScoringVector((1, -3))
        report = compute_bound_report(s, fig_a, tw=3)
        assert report.welfare_diameter_limit == 2
        assert report.degree_size_bound == (1 + 1) * 4  # cutoff 2: (s1+1)*deg
        assert report.treewidth_size_bound == 2 * 2 * 3 + 1
        assert report.stable_diameter is None

    def test_no_degree_bound_without_its_premise(self):
        # Petersen graph under (1,0): every member of the grand coalition
        # has utility 3, so no size below 10 bounds the optimum
        petersen = SocialNetwork(10, [(i, (i + 1) % 5) for i in range(5)]
                                 + [(i, i + 5) for i in range(5)]
                                 + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])
        s = ScoringVector((1, 0))
        assert compute_bound_report(s, petersen).degree_size_bound is None
        best = brute_force_solve(s, petersen, "welfare")
        assert best.outcome == Outcome.from_blocks([range(10)]) and best.welfare == 30

    def test_open_vector_report(self, fig_a):
        s = ScoringVector((1, 0, -1), tail="open")
        report = compute_bound_report(s, fig_a)
        assert report.degree_size_bound is None
        assert report.stable_diameter == 6


class TestCertify:
    def test_fig_a_bold(self, fig_a):
        s = ScoringVector((1, 0, -1))
        outcome = Outcome.from_blocks([[0, 1, 2, 3, 4], [5], [6]])
        report = certify_outcome(s, fig_a, outcome, "welfare")
        assert report.welfare == 18
        assert all(d is not NEG_INF and d <= 3 for d in report.coalition_diameters)
        assert report.mode_satisfied
        assert not report.bound_violations

    def test_all_singletons(self, fig_a):
        s = ScoringVector((1, -3))
        report = certify_outcome(s, fig_a, Outcome.singletons(7), "ir")
        assert report.welfare == 0
        assert report.individually_rational
        assert set(report.coalition_diameters) == {0}

    def test_fig_b_grand_ir_violation(self, fig_b, long_vec):
        report = certify_outcome(long_vec, fig_b, Outcome.from_blocks([range(10)]), "ir")
        assert not report.mode_satisfied
        assert any("agent 2 utility -1" in v for v in report.bound_violations)
        assert report.deviation is not None and report.deviation.agent == 2

    def test_rejects_non_partition(self, fig_a):
        with pytest.raises(ValueError):
            certify_outcome(
                ScoringVector((1,)), fig_a, Outcome.from_blocks([[0, 1]]), "welfare"
            )
