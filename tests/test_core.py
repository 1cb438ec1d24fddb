"""Core types: scoring, distances, utilities, welfare."""

import pickle
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdgsolve.core import (
    NEG_INF,
    Outcome,
    ScoringVector,
    SocialNetwork,
    agent_utility,
    bfs_layers,
    coalition_diameter,
    coalition_distance,
    coalition_welfare,
    cutoff_balls,
    flood,
    social_welfare,
)

from conftest import plain_key, random_connected_graph


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

    def test_keeps_a_tuple_of_ints_and_converts_the_rest(self):
        scores = (1, 0, -1)
        s = ScoringVector(scores)
        assert s.scores is scores
        for given in ([1, 0, -1], (True, 0.0, -1), iter(scores)):
            other = ScoringVector(given)
            assert type(other.scores) is tuple and all(type(v) is int for v in other.scores)
            assert other == s and hash(other) == hash(s)
        assert ScoringVector(scores, "open") != s
        for v in (s, ScoringVector(scores, "open")):
            assert pickle.loads(pickle.dumps(v)) == v
        assert not hasattr(s, "__dict__")  # slots: no per-vector dict

    def test_score_at_closed(self):
        s = ScoringVector((1, 0, -1))
        assert s.score(2) == 0
        assert s.score(4) is NEG_INF
        assert s.score(1) == 1
        assert s.score(NEG_INF) is NEG_INF

    def test_score_at_open_clamps(self):
        s = ScoringVector((1, 0, -1), tail="open")
        assert s.score(4) == -1
        assert s.score(100) == -1
        assert s.score(NEG_INF) is NEG_INF

    def test_score_at_rejects_nonpositive(self):
        s = ScoringVector((1,))
        with pytest.raises(ValueError):
            s.score(0)
        with pytest.raises(ValueError):
            s.score(-2)

    def test_parse(self):
        s = ScoringVector.parse("1,0,-1")
        assert s.scores == (1, 0, -1)
        assert s.cutoff == 3
        assert s.max_score == 1

    @pytest.mark.parametrize("text", ["1,,-1", ",1", "1,0,", "", " , "])
    def test_parse_rejects_an_empty_entry(self, text):
        with pytest.raises(ValueError, match="empty entry in scoring vector") as err:
            ScoringVector.parse(text)
        assert repr(text) in str(err.value)

    @given(st.lists(st.integers(-5, 5), min_size=1, max_size=6))
    def test_monotone_scoring(self, raw):
        scores = tuple(sorted(raw, reverse=True))
        for tail in ("closed", "open"):
            s = ScoringVector(scores, tail)
            for d in range(1, len(scores) + 3):
                for d2 in range(d, len(scores) + 3):
                    assert s.score(d) >= s.score(d2)


class TestSocialNetwork:
    def test_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            SocialNetwork(3, [(0, 3)])
        with pytest.raises(ValueError):
            SocialNetwork(3, [(1, 1)])

    def test_dedup(self):
        G = SocialNetwork(3, [(0, 1), (1, 0)])
        assert G.edges == ((0, 1),)

    def test_keeps_a_callers_sorted_edge_tuple(self):
        edge = (0, 1)
        G = SocialNetwork(3, [edge, [0, 2], (2, 1)])
        assert G.edges == ((0, 1), (0, 2), (1, 2))
        assert G.edges[0] is edge
        assert all(type(e) is tuple for e in G.edges)

    def test_components(self):
        G = SocialNetwork(5, [(0, 1), (2, 3)])
        assert G.components() == [frozenset({0, 1}), frozenset({2, 3}), frozenset({4})]

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 12), st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11))))
    def test_adjacency_reads_agree_with_the_edge_list(self, n, pairs):
        # adjacency is stored as bitmasks only; every read of it agrees
        # with the edges the graph was built from
        edges = {(min(u, v), max(u, v)) for u, v in pairs if u != v and max(u, v) < n}
        G = SocialNetwork(n, edges)
        nbrs = [{b for a, b in edges if a == v} | {a for a, b in edges if b == v} for v in range(n)]
        for u in range(n):
            assert G.adj[u] == nbrs[u]
            assert G.degree(u) == len(nbrs[u])
            for v in range(n):
                assert G.has_edge(u, v) is ((min(u, v), max(u, v)) in edges)
        assert G.max_degree() == max(len(a) for a in nbrs)


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


def _connected_partition(G, rng):
    """A random partition of G's agents into connected coalitions: each
    unplaced agent, in random order, grows a block through unplaced
    neighbours, taking each it meets with probability one half."""
    order = list(range(G.n))
    rng.shuffle(order)
    placed, blocks = set(), []
    for a in order:
        if a in placed:
            continue
        block, frontier = {a}, [a]
        placed.add(a)
        while frontier:
            for b in sorted(G.adj[frontier.pop()]):
                if b not in placed and rng.random() < 0.5:
                    block.add(b)
                    placed.add(b)
                    frontier.append(b)
        blocks.append(tuple(sorted(block)))
    return blocks


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10), st.floats(0, 3), st.randoms(use_true_random=False))
def test_outcome_key_round_trip(n, density, rng):
    # a partition into connected coalitions -> key -> the same partition,
    # and the key is the OR of the blocks' keys
    G = random_connected_graph(n, rng, density)
    blocks = _connected_partition(G, rng)
    key = 0
    for block in blocks:
        key |= G.edge_key(G.mask_of(block))
    assert key == plain_key(G, blocks)
    assert G.outcome_of_key(key) == Outcome.from_blocks(blocks)


def test_outcome_key_bits_follow_the_edge_rank():
    # edges (0,1), (0,2), (1,2), (2,3) own bits 3, 2, 1, 0
    G = SocialNetwork(4, [(2, 3), (1, 2), (0, 2), (0, 1)])
    assert [G.edge_key(G.mask_of(e)) for e in G.edges] == [0b1000, 0b0100, 0b0010, 0b0001]
    assert G.edge_key_to(2, G.mask_of((0, 1, 3))) == 0b0111
    assert G.outcome_of_key(0b1001) == Outcome(((0, 1), (2, 3)))
    assert G.outcome_of_key(0) == Outcome.singletons(4)


def test_cutoff_balls_hold_the_agents_within_the_cutoff():
    # the path 0-1-2-3-4 plus the isolated agent 5
    G = SocialNetwork(6, [(0, 1), (1, 2), (2, 3), (3, 4)])
    assert cutoff_balls(ScoringVector((1, -1), tail="open"), G) is None
    assert cutoff_balls(ScoringVector((1,)), G) == (0b11, 0b111, 0b1110, 0b11100, 0b11000, 0b100000)
    assert cutoff_balls(ScoringVector((1, 0, -1)), G)[0] == 0b1111


def _plain_distances(n, edges, sources, within):
    """Agent -> distance from the nearest source, by a queue-based BFS over
    the edge list, along paths whose agents after the source lie in
    ``within``."""
    nbrs = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    dist = dict.fromkeys(sources, 0)
    queue = deque(sources)
    while queue:
        u = queue.popleft()
        for v in nbrs[u]:
            if v in within and v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_graph_searches_match_a_plain_bfs(data):
    # the bitmask searches every solver reads, against a BFS written here;
    # graphs may be disconnected and sources may lie outside ``within``
    n = data.draw(st.integers(1, 12))
    agents = st.integers(0, n - 1)
    pairs = data.draw(st.lists(st.tuples(agents, agents), max_size=3 * n))
    edges = {(min(u, v), max(u, v)) for u, v in pairs if u != v}
    G = SocialNetwork(n, edges)
    sources = data.draw(st.sets(agents))
    within = data.draw(st.sets(agents))
    dist = _plain_distances(n, edges, sources, within)
    source_mask, within_mask = G.mask_of(sources), G.mask_of(within)
    for depth in (None, *range(n + 1)):
        last = max(dist.values(), default=0)
        if depth is not None:
            last = min(last, depth)
        layers = [G.mask_of(v for v, d in dist.items() if d == k) for k in range(last + 1)]
        assert bfs_layers(G.adj_mask, source_mask, within_mask, depth) == layers
    assert flood(G.adj_mask, source_mask, within_mask) == G.mask_of(dist)
    for a in within:
        assert G.distances_in(within_mask, a) == _plain_distances(n, edges, [a], within)
    connected = not within or len(_plain_distances(n, edges, [min(within)], within)) == len(within)
    assert G.is_connected_within(within_mask) is connected
    everyone = range(n)
    pieces = {frozenset(_plain_distances(n, edges, [a], everyone)) for a in everyone}
    assert G.components() == sorted(pieces, key=min)
