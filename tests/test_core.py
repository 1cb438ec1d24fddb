"""Core types: scoring, distances, utilities, welfare."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdgsolve.core import (
    NEG_INF,
    Outcome,
    ScoringVector,
    SocialNetwork,
    agent_utility,
    coalition_diameter,
    coalition_distance,
    coalition_welfare,
    score_at,
    social_welfare,
)

from conftest import random_connected_graph


class TestNegInf:
    def test_is_float_minus_infinity(self):
        assert NEG_INF == float("-inf")

    def test_absorbing_addition(self):
        assert NEG_INF + 5 == NEG_INF
        assert 5 + NEG_INF == NEG_INF
        assert NEG_INF + NEG_INF == NEG_INF
        assert sum([1, NEG_INF, 2]) == NEG_INF

    def test_ordering(self):
        assert NEG_INF < -(10**12)
        assert not (NEG_INF < NEG_INF)
        assert NEG_INF <= NEG_INF
        assert max(NEG_INF, -3) == -3
        assert min(7, NEG_INF) is NEG_INF


class TestScoringVector:
    def test_validation(self):
        with pytest.raises(ValueError):
            ScoringVector(())
        with pytest.raises(ValueError):
            ScoringVector((1, 2))  # increasing
        with pytest.raises(ValueError):
            ScoringVector((1,), tail="half-open")

    def test_score_at_closed(self):
        s = ScoringVector((1, 0, -1))
        assert score_at(s, 2) == 0
        assert score_at(s, 4) is NEG_INF
        assert score_at(s, 1) == 1
        assert score_at(s, NEG_INF) is NEG_INF

    def test_score_at_open_clamps(self):
        s = ScoringVector((1, 0, -1), tail="open")
        assert score_at(s, 4) == -1
        assert score_at(s, 100) == -1
        assert score_at(s, NEG_INF) is NEG_INF

    def test_score_at_rejects_nonpositive(self):
        s = ScoringVector((1,))
        with pytest.raises(ValueError):
            score_at(s, 0)
        with pytest.raises(ValueError):
            score_at(s, -2)

    def test_parse(self):
        s = ScoringVector.parse("1,0,-1")
        assert s.scores == (1, 0, -1)
        assert s.cutoff == 3
        assert s.max_score == 1

    @given(st.lists(st.integers(-5, 5), min_size=1, max_size=6))
    def test_monotone_scoring(self, raw):
        scores = tuple(sorted(raw, reverse=True))
        for tail in ("closed", "open"):
            s = ScoringVector(scores, tail)
            for d in range(1, len(scores) + 3):
                for d2 in range(d, len(scores) + 3):
                    assert score_at(s, d) >= score_at(s, d2)


class TestSocialNetwork:
    def test_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            SocialNetwork(3, [(0, 3)])
        with pytest.raises(ValueError):
            SocialNetwork(3, [(1, 1)])

    def test_dedup(self):
        G = SocialNetwork(3, [(0, 1), (1, 0)])
        assert G.edges == ((0, 1),)

    def test_components(self):
        G = SocialNetwork(5, [(0, 1), (2, 3)])
        assert G.components() == [frozenset({0, 1}), frozenset({2, 3}), frozenset({4})]


class TestDistances:
    def test_fig_a_hub_pair(self, fig_a):
        # hubs share the triangle members but are not adjacent
        assert coalition_distance(fig_a, {0, 1, 2, 3, 4}, 0, 1) == 2

    def test_identity(self, fig_a):
        assert coalition_distance(fig_a, {0, 5}, 0, 0) == 0

    def test_disconnected_pair(self, fig_a):
        # the two pendants are not adjacent and share no member in {5, 6}
        assert coalition_distance(fig_a, {5, 6}, 5, 6) is NEG_INF

    def test_outside_coalition_rejected(self, fig_a):
        with pytest.raises(ValueError):
            coalition_distance(fig_a, {0, 5}, 0, 1)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 7), st.randoms(use_true_random=False))
    def test_symmetry(self, n, rng):
        G = random_connected_graph(n, rng)
        members = frozenset(range(n))
        for i in range(n):
            for j in range(n):
                assert coalition_distance(G, members, i, j) == coalition_distance(
                    G, members, j, i
                )


class TestUtility:
    def test_fig_b_center_in_grand(self, fig_b, long_vec):
        grand = Outcome.from_blocks([range(10)])
        assert agent_utility(long_vec, fig_b, grand, 2) == -1

    def test_fig_b_others_in_grand(self, fig_b, long_vec):
        grand = Outcome.from_blocks([range(10)])
        for i in range(10):
            if i != 2:
                assert agent_utility(long_vec, fig_b, grand, i) == 7

    def test_singleton_is_zero(self, fig_a):
        s = ScoringVector((1, 0, -1))
        outcome = Outcome.singletons(7)
        assert all(agent_utility(s, fig_a, outcome, i) == 0 for i in range(7))


class TestWelfare:
    def test_fig_a_bold_partition(self, fig_a):
        s = ScoringVector((1, 0, -1))
        outcome = Outcome.from_blocks([[0, 1, 2, 3, 4], [5], [6]])
        assert social_welfare(s, fig_a, outcome) == 18

    def test_fig_a_alt_vector(self, fig_a):
        s = ScoringVector((1, -3))
        dash = Outcome.from_blocks([[0, 5], [1, 2, 3, 4], [6]])
        bold = Outcome.from_blocks([[0, 1, 2, 3, 4], [5], [6]])
        assert social_welfare(s, fig_a, dash) == 14
        assert social_welfare(s, fig_a, bold) == 12

    def test_fig_b_grand(self, fig_b, long_vec):
        grand = Outcome.from_blocks([range(10)])
        assert social_welfare(long_vec, fig_b, grand) == 62

    def test_all_singletons_zero(self, fig_a, fig_b, fig_c):
        s = ScoringVector((2, -1))
        for G in (fig_a, fig_b, fig_c):
            assert social_welfare(s, G, Outcome.singletons(G.n)) == 0

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 6), st.randoms(use_true_random=False))
    def test_welfare_decomposes_over_coalitions(self, n, rng):
        G = random_connected_graph(n, rng)
        s = ScoringVector((1, -1))
        # split agents into two blocks
        blocks = [list(range(n // 2 + 1)), list(range(n // 2 + 1, n))]
        blocks = [b for b in blocks if b]
        outcome = Outcome.from_blocks(blocks)
        direct = social_welfare(s, G, outcome)
        per_block = sum(coalition_welfare(s, G, b) for b in blocks)
        per_agent = sum(agent_utility(s, G, outcome, i) for i in range(n))
        assert direct == per_block == per_agent

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 7), st.randoms(use_true_random=False))
    def test_utility_finite_iff_connected(self, n, rng):
        G = random_connected_graph(n, rng)
        s = ScoringVector((5, 4, 3, 2, 1, 0, 0), tail="open")
        grand = Outcome.from_blocks([range(n)])
        for i in range(n):
            u = agent_utility(s, G, grand, i)
            connected = G.is_connected_within(G.full_mask)
            assert (u is not NEG_INF) == (connected or n == 1)


class TestDiameter:
    def test_fig_a_core(self, fig_a):
        assert coalition_diameter(fig_a, {0, 1, 2, 3, 4}) == 2

    def test_singleton(self, fig_a):
        assert coalition_diameter(fig_a, {3}) == 0

    def test_disconnected(self, fig_a):
        assert coalition_diameter(fig_a, {5, 6}) is NEG_INF


class TestOutcome:
    def test_canonical_order(self):
        o = Outcome.from_blocks([[3, 1], [2, 0]])
        assert o.coalitions == ((0, 2), (1, 3))

    def test_rejects_overlap(self):
        with pytest.raises(ValueError):
            Outcome.from_blocks([[0, 1], [1, 2]])

    def test_coalition_of(self):
        o = Outcome.from_blocks([[0, 2], [1]])
        assert o.coalition_of(2) == (0, 2)
        assert o.coalition_index_of(1) == 1
