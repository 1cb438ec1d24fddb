"""Decomposition toolchain: parsing, validation, exact width, nice form."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdgsolve import treedecomp
from sdgsolve.core import SocialNetwork, iter_bits
from sdgsolve.generators import random_bounded_degree, random_partial_ktree
from sdgsolve.treedecomp import (
    TdParseError,
    TdViolation,
    TreeDecomposition,
    compute_decomposition,
    decomposition_from_order,
    exact_treewidth,
    make_nice,
    nice_decomposition,
    read_td,
    validate,
    validate_nice,
    write_td,
)

from conftest import complete_graph, path_graph, random_connected_graph


class TestReadTd:
    def test_pace_example_header(self):
        td = read_td("c comment\ns td 2 2 3\nb 1 1 2\nb 2 2 3\n1 2\n")
        assert len(td.bags) == 2
        assert td.n_vertices == 3
        assert td.bags[0] == frozenset({0, 1})
        assert td.bags[1] == frozenset({1, 2})
        assert td.tree_edges == ((0, 1),)

    def test_single_edge_width_one(self):
        td = read_td("s td 2 2 2\nb 1 1 2\nb 2 2\n1 2\n")
        G = SocialNetwork(2, [(0, 1)])
        assert validate(G, td) == 1

    def test_bag_out_of_range_caught_at_validation(self):
        td = read_td("s td 1 2 2\nb 1 1 3\n")
        G = SocialNetwork(2, [(0, 1)])
        result = validate(G, td)
        assert isinstance(result, TdViolation)
        assert result.kind == "bag-range"

    def test_parse_error_has_line_number(self):
        with pytest.raises(TdParseError) as err:
            read_td("s td x 2 3\n")
        assert "line 1" in str(err.value)

    def test_roundtrip(self):
        td = read_td("s td 2 2 3\nb 1 1 2\nb 2 2 3\n1 2\n")
        assert read_td(write_td(td)) == td

    def test_repeated_bag_id_reports_both_lines(self):
        # the second "b 1" would otherwise replace the first, leaving bag 2 empty
        with pytest.raises(TdParseError) as err:
            read_td("s td 2 2 3\nb 1 1 2\nc note\nb 1 2 3\n1 2\n")
        assert err.value.line_no == 4
        assert "line 2" in str(err.value)

    def test_second_solution_line_reports_both_lines(self):
        # the second header would otherwise shrink the bag count to 1
        with pytest.raises(TdParseError) as err:
            read_td("s td 2 2 3\nb 1 1 2\ns td 1 2 3\nb 2 2 3\n")
        assert err.value.line_no == 3
        assert "line 1" in str(err.value)

    def test_repeated_header_before_any_bag_is_caught_too(self):
        with pytest.raises(TdParseError) as err:
            read_td("s td 2 2 3\ns td 2 2 3\nb 1 1 2\nb 2 2 3\n1 2\n")
        assert err.value.line_no == 2


class TestValidate:
    def test_single_bag_all_agents(self, fig_a):
        td = TreeDecomposition((frozenset(range(7)),), (), 7)
        assert validate(fig_a, td) == 6

    def test_missing_edge_bag(self):
        G = SocialNetwork(3, [(0, 1), (1, 2), (0, 2)])
        td = TreeDecomposition((frozenset({0, 1}), frozenset({1, 2})), ((0, 1),), 3)
        result = validate(G, td)
        assert isinstance(result, TdViolation)
        assert result.kind == "edge-coverage"
        assert "(0,2)" in result.detail

    def test_p4_chain(self):
        G = path_graph(4)
        td = TreeDecomposition(
            (frozenset({0, 1}), frozenset({1, 2}), frozenset({2, 3})),
            ((0, 1), (1, 2)),
            4,
        )
        assert validate(G, td) == 1

    def test_disconnected_subtree_detected(self):
        G = path_graph(3)
        td = TreeDecomposition(
            (frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 2})),
            ((0, 1), (1, 2)),
            3,
        )
        result = validate(G, td)
        assert isinstance(result, TdViolation)
        assert result.kind == "connectivity"


class TestComputeDecomposition:
    def test_tree_width_one(self):
        G = SocialNetwork(6, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5)])
        assert compute_decomposition(G).width() == 1

    def test_clique(self):
        assert compute_decomposition(complete_graph(5)).width() == 4

    def test_fig_a_width_three(self, fig_a):
        assert compute_decomposition(fig_a).width() == 3

    def test_heuristic_also_valid(self):
        G = path_graph(20)
        td = decomposition_from_order(G, treedecomp._min_fill_order(G))
        assert validate(G, td) == td.width()

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 7), st.randoms(use_true_random=False))
    def test_random_graphs_validate(self, n, rng):
        G = random_connected_graph(n, rng)
        td = compute_decomposition(G)
        assert isinstance(validate(G, td), int)


def scan_validate(G: SocialNetwork, td: TreeDecomposition):
    """Reference validator: scans every bag for every agent and every edge."""
    k = len(td.bags)
    for i, bag in enumerate(td.bags):
        for v in bag:
            if not 0 <= v < G.n:
                return TdViolation("bag-range", f"bag {i} contains vertex {v} outside 0..{G.n - 1}")
    if k > 1:
        adj: list[set[int]] = [set() for _ in range(k)]
        for a, b in td.tree_edges:
            adj[a].add(b)
            adj[b].add(a)
        if len(set(map(lambda e: (min(e), max(e)), td.tree_edges))) != k - 1:
            return TdViolation("tree-shape", f"{len(td.tree_edges)} edges for {k} bags")
        seen = {0}
        stack = [0]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        if len(seen) != k:
            return TdViolation("tree-shape", "bag tree is disconnected")
    for v in range(G.n):
        if not any(v in bag for bag in td.bags):
            return TdViolation("vertex-coverage", f"agent {v} appears in no bag")
    for u, v in G.edges:
        if not any(u in bag and v in bag for bag in td.bags):
            return TdViolation("edge-coverage", f"edge ({u},{v}) not covered by any bag")
    tree_adj: list[set[int]] = [set() for _ in range(k)]
    for a, b in td.tree_edges:
        tree_adj[a].add(b)
        tree_adj[b].add(a)
    for v in range(G.n):
        holders = [i for i, bag in enumerate(td.bags) if v in bag]
        seen = {holders[0]}
        stack = [holders[0]]
        holder_set = set(holders)
        while stack:
            x = stack.pop()
            for y in tree_adj[x]:
                if y in holder_set and y not in seen:
                    seen.add(y)
                    stack.append(y)
        if len(seen) != len(holders):
            return TdViolation("connectivity", f"bags containing agent {v} are not connected")
    return td.width()


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 9),
    st.sampled_from(["none", "drop-vertex", "drop-edge", "out-of-range"]),
    st.randoms(use_true_random=False),
)
def test_validate_matches_the_bag_scan(n, corruption, rng):
    """validate reads holder lists; on valid decompositions and on ones with a
    vertex dropped from a bag, a tree edge removed or an out-of-range vertex
    added, it returns what the scan over every bag returns."""
    G = random_connected_graph(n, rng)
    if rng.random() < 0.5:
        td = compute_decomposition(G)
    else:
        order = list(range(n))
        rng.shuffle(order)
        td = decomposition_from_order(G, order)
    bags = list(td.bags)
    edges = list(td.tree_edges)
    i = rng.randrange(len(bags))
    if corruption == "drop-vertex" and bags[i]:
        bags[i] = bags[i] - {rng.choice(sorted(bags[i]))}
    elif corruption == "drop-edge" and edges:
        del edges[rng.randrange(len(edges))]
    elif corruption == "out-of-range":
        bags[i] = bags[i] | {G.n + rng.randrange(3)}
    td = TreeDecomposition(tuple(bags), tuple(edges), G.n)
    assert validate(G, td) == scan_validate(G, td)


def brute_force_treewidth(G: SocialNetwork) -> int:
    """Independent oracle: minimum elimination width over all vertex orders."""
    n = G.n
    best = n
    for order in itertools.permutations(range(n)):
        adj = [set(G.adj[v]) for v in range(n)]
        width = 0
        alive = set(range(n))
        for v in order:
            neigh = adj[v] & alive
            width = max(width, len(neigh))
            for u in neigh:
                adj[u] |= neigh - {u}
                adj[u].discard(v)
            alive.discard(v)
            if width >= best:
                break
        best = min(best, width)
    return best


@settings(max_examples=12, deadline=None)
@given(st.integers(3, 7), st.randoms(use_true_random=False))
def test_exact_width_matches_order_enumeration(n, rng):
    G = random_connected_graph(n, rng)
    assert exact_treewidth(G) == brute_force_treewidth(G)


def reference_elimination_order(G: SocialNetwork) -> list[int]:
    """The elimination-order subset DP written plainly over sets: the last
    vertex v of S costs the outside neighbours of its component in G[S], and
    ties go to the smallest v."""
    best = {frozenset(): (-1, None)}
    for size in range(1, G.n + 1):
        for members in itertools.combinations(range(G.n), size):
            S = frozenset(members)
            candidates = []
            for v in members:
                comp, stack = {v}, [v]
                while stack:
                    for y in G.adj[stack.pop()]:
                        if y in S and y not in comp:
                            comp.add(y)
                            stack.append(y)
                outside = {y for x in comp for y in G.adj[x]} - S
                candidates.append((max(best[S - {v}][0], len(outside)), v))
            best[S] = min(candidates)
    order = []
    S = frozenset(range(G.n))
    while S:
        v = best[S][1]
        order.append(v)
        S -= {v}
    return order[::-1]


class TestExactOrder:
    """The subset DP's order decides the decomposition up to 14 agents, and
    with it the outcome twdp and fptdp pick among equal-welfare optima, so
    its order is pinned, not only its width."""

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 9), st.floats(0, 4), st.randoms(use_true_random=False))
    def test_order_matches_the_plain_dp(self, n, density, rng):
        G = random_connected_graph(n, rng, density)
        assert treedecomp._exact_elimination_order(G) == reference_elimination_order(G)

    @pytest.mark.parametrize("G", [
        random_partial_ktree(11, 2, 0),
        random_partial_ktree(11, 3, 1),
        random_bounded_degree(11, 3, 1),
        random_partial_ktree(13, 2, 1),
    ], ids=["tw2-n11-s0", "tw3-n11-s1", "deg3-n11-s1", "tw2-n13-s1"])
    def test_order_matches_the_plain_dp_on_mid_graphs(self, G):
        assert treedecomp._exact_elimination_order(G) == reference_elimination_order(G)


def reference_min_fill_order(G: SocialNetwork) -> list[int]:
    """Min-fill by a full scan: at each step every remaining vertex is priced
    by (fill, remaining degree, id) and the smallest is eliminated."""
    adj = [set(G.adj[v]) for v in range(G.n)]
    remaining = set(range(G.n))
    order = []
    while remaining:
        best = None
        for v in sorted(remaining):
            neigh = adj[v] & remaining
            fill = sum(1 for u in neigh for w in neigh if u < w and w not in adj[u])
            key = (fill, len(neigh), v)
            if best is None or key < best:
                best = key
        v = best[2]
        neigh = adj[v] & remaining
        for u in neigh:
            adj[u] |= neigh - {u}
        remaining.discard(v)
        order.append(v)
    return order


class TestMinFillOrder:
    """Above 14 agents the min-fill order decides the decomposition, and with
    it the outcome twdp and fptdp pick among equal-welfare optima, so its
    order is pinned against the full scan."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 24), st.floats(0, 1), st.randoms(use_true_random=False))
    def test_order_matches_the_scan(self, n, p, rng):
        # any graph, disconnected ones included
        G = SocialNetwork(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
        assert treedecomp._min_fill_order(G) == reference_min_fill_order(G)

    @pytest.mark.parametrize("G", [
        random_partial_ktree(40, 1, 0),
        random_partial_ktree(30, 2, 0),
        random_partial_ktree(30, 3, 1),
        random_bounded_degree(30, 3, 1),
        path_graph(50),
    ], ids=["tw1-n40-s0", "tw2-n30-s0", "tw3-n30-s1", "deg3-n30-s1", "path-50"])
    def test_order_matches_the_scan_on_generated_graphs(self, G):
        assert treedecomp._min_fill_order(G) == reference_min_fill_order(G)


class TestDecompositionWidth:
    """The width of ``compute_decomposition``: exact up to 14 agents, from
    one subset DP run per graph object."""

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 10), st.floats(0, 4), st.randoms(use_true_random=False))
    def test_width_is_the_decompositions(self, n, density, rng):
        G = random_connected_graph(n, rng, density)
        assert compute_decomposition(G).width() == exact_treewidth(G)

    def test_uncertified_min_fill_runs_the_exact_dp(self, monkeypatch):
        G = random_bounded_degree(10, 3, 0)
        exact_order = treedecomp._exact_elimination_order
        calls = []

        def counted(graph):
            calls.append(graph)
            return exact_order(graph)

        monkeypatch.setattr(treedecomp, "_exact_elimination_order", counted)
        monkeypatch.setattr(treedecomp, "_min_fill_order", None)
        assert compute_decomposition(G).width() == 4
        assert validate_nice(G, nice_decomposition(G)) == 4
        assert calls == [G]

    def test_bad_heuristic_order_is_not_trusted(self, monkeypatch):
        grid = SocialNetwork(
            9, [(r * 3 + c, r * 3 + c + 1) for r in range(3) for c in range(2)]
            + [(r * 3 + c, r * 3 + c + 3) for r in range(2) for c in range(3)]
        )
        bad = [4, 0, 2, 6, 8, 1, 3, 5, 7]  # the centre first joins its four neighbours
        assert decomposition_from_order(grid, bad).width() > exact_treewidth(grid) == 3
        monkeypatch.setattr(treedecomp, "_min_fill_order", lambda G: bad)
        assert compute_decomposition(grid).width() == 3

    def test_kept_per_graph_object(self):
        G = random_partial_ktree(20, 2, 0)
        assert compute_decomposition(G) is compute_decomposition(G)
        assert nice_decomposition(G) is nice_decomposition(G)
        twin = SocialNetwork(G.n, G.edges)
        assert twin == G and hash(twin) == hash(G) and not twin.structure
        assert compute_decomposition(twin) == compute_decomposition(G)


class TestMakeNice:
    def test_single_empty_bag(self):
        td = TreeDecomposition((frozenset(),), (), 1)
        ntd = make_nice(td)
        assert len(ntd.nodes) == 1
        assert ntd.nodes[ntd.root].kind == "leaf"

    def test_one_bag_two_agents(self):
        G = SocialNetwork(2, [(0, 1)])
        td = TreeDecomposition((frozenset({0, 1}),), (), 2)
        ntd = make_nice(td)
        kinds = [n.kind for n in ntd.nodes]
        assert kinds == ["leaf", "introduce", "introduce", "forget", "forget"]
        assert ntd.nodes[ntd.root].bag == frozenset()
        assert validate_nice(G, ntd) == 1

    def test_p4_nice(self):
        G = path_graph(4)
        td = TreeDecomposition(
            (frozenset({0, 1}), frozenset({1, 2}), frozenset({2, 3})),
            ((0, 1), (1, 2)),
            4,
        )
        ntd = make_nice(td)
        assert validate_nice(G, ntd) == 1

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 8), st.randoms(use_true_random=False))
    def test_nice_preserves_width_and_validity(self, n, rng):
        G = random_connected_graph(n, rng)
        td = compute_decomposition(G)
        ntd = make_nice(td)
        result = validate_nice(G, ntd)
        assert result == td.width()

    @settings(max_examples=15, deadline=None)
    @given(st.integers(2, 7), st.randoms(use_true_random=False))
    def test_introduce_forget_bookkeeping(self, n, rng):
        G = random_connected_graph(n, rng)
        ntd = nice_decomposition(G)
        forgets = [node.agent for node in ntd.nodes if node.kind == "forget"]
        introduces = [node.agent for node in ntd.nodes if node.kind == "introduce"]
        for v in range(n):
            # one forget total (the agent's bag-subtree is connected, root empty);
            # one introduce per join branch whose bag carries the agent
            joins_with_v = sum(
                1 for node in ntd.nodes if node.kind == "join" and v in node.bag
            )
            assert forgets.count(v) == 1
            assert introduces.count(v) == 1 + joins_with_v
