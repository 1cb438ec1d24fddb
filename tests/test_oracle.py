"""Brute-force solver and partition enumeration."""

import functools
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdgsolve import oracle
from sdgsolve.core import (
    NEG_INF,
    CoalitionEvaluator,
    Outcome,
    ResourceLimitError,
    ScoringVector,
    SocialNetwork,
    coalition_welfare,
    cutoff_balls,
    iter_bits,
)
from sdgsolve.generators import random_bounded_degree, random_partial_ktree
from sdgsolve.oracle import (
    _admissible_blocks,
    _connected_blocks,
    bell_number,
    brute_force_solve,
    decide_welfare_at_least,
    enumerate_partitions,
)
from sdgsolve.stability import first_deviation, is_individually_rational, is_nash_stable

from conftest import VECTORS, _fig_b, _fig_c, path_graph, plain_key, random_connected_graph


class TestEnumeration:
    def test_single_agent(self):
        assert list(enumerate_partitions(1)) == [((0,),)]

    def test_bell_3(self):
        parts = list(enumerate_partitions(3))
        assert len(parts) == 5 == bell_number(3)

    def test_rgs_lexicographic_order(self):
        parts = list(enumerate_partitions(3))
        assert parts[0] == ((0, 1, 2),)
        assert parts[-1] == ((0,), (1,), (2,))

    def test_rgs_order_matches_independent_generation(self):
        # regenerate the restricted-growth strings directly and compare order
        def rgs_strings(n):
            def rec(prefix, used):
                if len(prefix) == n:
                    yield tuple(prefix)
                    return
                for b in range(used + 1):
                    yield from rec(prefix + [b], max(used, b + 1))

            return rec([0], 1)

        def to_blocks(code):
            blocks = [[] for _ in range(max(code) + 1)]
            for agent, b in enumerate(code):
                blocks[b].append(agent)
            return tuple(tuple(b) for b in blocks)

        expected = [to_blocks(code) for code in rgs_strings(5)]
        assert list(enumerate_partitions(5)) == expected

    def test_distinct(self):
        parts = list(enumerate_partitions(6))
        assert len(set(parts)) == len(parts) == bell_number(6)

    def test_bell_12_value(self):
        # frozen from the Bell-triangle recurrence
        assert bell_number(12) == 4213597

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            next(enumerate_partitions(0))


class TestBruteForce:
    def test_fig_a_sharp_vector(self, fig_a):
        from sdgsolve.core import social_welfare

        s = ScoringVector((1, -3))
        res = brute_force_solve(s, fig_a, "welfare")
        assert res.welfare == 14
        assert social_welfare(s, fig_a, res.outcome) == 14
        # the mirror-symmetric twin of the returned partition; both are optimal
        dash = Outcome.from_blocks([[0, 5], [1, 2, 3, 4], [6]])
        assert social_welfare(s, fig_a, dash) == 14

    def test_fig_a_mild_vector(self, fig_a):
        res = brute_force_solve(ScoringVector((1, 0, -1)), fig_a, "welfare")
        assert res.welfare == 18
        assert res.outcome == Outcome.from_blocks([[0, 1, 2, 3, 4], [5], [6]])

    def test_single_vertex(self):
        G = SocialNetwork(1, [])
        for mode in ("welfare", "ir", "ns"):
            res = brute_force_solve(ScoringVector((1,)), G, mode)
            assert res.welfare == 0
            assert res.outcome == Outcome.singletons(1)

    def test_path3_single_edge_plus_singleton(self):
        res = brute_force_solve(ScoringVector((1,)), path_graph(3), "welfare")
        assert res.welfare == 2
        assert len(res.outcome) == 2

    def test_cap(self):
        G = SocialNetwork(14, [(i, i + 1) for i in range(13)])
        with pytest.raises(ResourceLimitError):
            brute_force_solve(ScoringVector((1,)), G, "welfare")

    def test_fig_b_welfare_and_ir_gap(self, fig_b, long_vec):
        wf = brute_force_solve(long_vec, fig_b, "welfare")
        assert wf.welfare == 62
        assert wf.outcome == Outcome.from_blocks([range(10)])
        ir = brute_force_solve(long_vec, fig_b, "ir")
        assert ir.welfare == 60
        assert is_individually_rational(long_vec, fig_b, ir.outcome)

    def test_fig_c_ir_and_ns_gap(self, fig_c, long_vec):
        ir = brute_force_solve(long_vec, fig_c, "ir")
        assert ir.welfare == 48
        ns = brute_force_solve(long_vec, fig_c, "ns")
        assert ns.welfare == 46
        assert ns.outcome == Outcome.from_blocks([[2, 9], [0, 1, 3, 4, 5, 6, 7, 8]])
        assert is_nash_stable(long_vec, fig_c, ns.outcome)


class TestDecide:
    def test_fig_b_threshold(self, fig_b, long_vec):
        assert decide_welfare_at_least(long_vec, fig_b, 62, "welfare")
        assert not decide_welfare_at_least(long_vec, fig_b, 63, "welfare")

    def test_zero_always_reachable(self, fig_a):
        assert decide_welfare_at_least(ScoringVector((1, -3)), fig_a, 0, "welfare")


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 7), st.randoms(use_true_random=False), st.integers(0, 4))
def test_mode_ordering_and_certificates(n, rng, vi):
    s = VECTORS[vi]
    G = random_connected_graph(n, rng)
    wf = brute_force_solve(s, G, "welfare")
    ir = brute_force_solve(s, G, "ir")
    ns = brute_force_solve(s, G, "ns")
    assert ir is not None  # all-singletons is always IR
    assert wf.welfare >= ir.welfare
    assert is_individually_rational(s, G, ir.outcome)
    if ns is not None:
        assert ir.welfare >= ns.welfare
        assert is_nash_stable(s, G, ns.outcome)


def _bell_reference(s, G):
    """Per mode, the best partition over the plain Bell enumeration: highest
    welfare, then smallest outcome key (``plain_key``), among those passing
    the mode's predicate (None if none does).  Welfare is the sum of
    ``coalition_welfare`` over the blocks, as in ``social_welfare``, cached
    per block so that the 10-agent figures stay fast."""
    block_welfare = functools.cache(lambda block: coalition_welfare(s, G, block))
    # partitions of equal key differ only in disconnected blocks, of welfare
    # minus infinity; the blocks break that tie
    ranked = sorted(
        (-sum(map(block_welfare, blocks)), plain_key(G, blocks), blocks)
        for blocks in enumerate_partitions(G.n)
    )
    accept = {
        "welfare": lambda o: True,
        "ir": lambda o: is_individually_rational(s, G, o),
        "ns": lambda o: is_nash_stable(s, G, o),
    }
    best = dict.fromkeys(accept)
    for neg_welfare, _, blocks in ranked:
        outcome = Outcome.from_blocks(blocks)
        for mode, ok in accept.items():
            if best[mode] is None and ok(outcome):
                best[mode] = (-neg_welfare, outcome)
        if None not in best.values():
            break
    return best


def _assert_matches_bell_enumeration(s, G):
    for mode, expect in _bell_reference(s, G).items():
        got = brute_force_solve(s, G, mode)
        if expect is None:
            assert got is None, mode
        else:
            assert (got.welfare, got.outcome) == expect, mode


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 7), st.randoms(use_true_random=False), st.integers(0, 4))
def test_matches_bell_enumeration(n, rng, vi):
    _assert_matches_bell_enumeration(VECTORS[vi], random_connected_graph(n, rng))


def test_figures_match_bell_enumeration(fig_b, fig_c, long_vec):
    # on 7 agents or fewer these vectors leave no gap between the modes; the
    # figures have one, welfare > IR on fig_b and IR > NS on fig_c
    _assert_matches_bell_enumeration(long_vec, fig_b)
    _assert_matches_bell_enumeration(long_vec, fig_c)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8), st.randoms(use_true_random=False), st.data())
def test_connected_blocks_are_the_connected_submasks(n, rng, data):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
    G = SocialNetwork(n, edges)
    allowed = data.draw(st.integers(1, G.full_mask))
    low = data.draw(st.sampled_from(list(iter_bits(allowed))))
    got = list(_connected_blocks(G, low, allowed))
    expect = [
        m
        for m in range(1, G.full_mask + 1)
        if m & allowed == m and m >> low & 1 and G.is_connected_within(m)
    ]
    assert len(got) == len(set(got))
    assert sorted(got) == expect


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 9), st.randoms(use_true_random=False), st.integers(1, 4), st.data())
def test_connected_blocks_within_the_balls_are_the_close_connected_submasks(n, rng, cutoff, data):
    # with a closed tail's balls, exactly the connected submasks whose
    # members lie pairwise within the cutoff in G, each once
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
    G = SocialNetwork(n, edges)
    allowed = data.draw(st.integers(1, G.full_mask))
    low = data.draw(st.sampled_from(list(iter_bits(allowed))))
    balls = cutoff_balls(ScoringVector((1,) * cutoff), G)
    got = list(_connected_blocks(G, low, allowed, balls))
    dist = [G.distances_in(G.full_mask, u) for u in range(n)]
    expect = [
        m
        for m in range(1, G.full_mask + 1)
        if m & allowed == m
        and m >> low & 1
        and G.is_connected_within(m)
        and all(dist[u].get(v, n) <= cutoff for u, v in combinations(iter_bits(m), 2))
    ]
    assert len(got) == len(set(got))
    assert sorted(got) == expect


def test_brute_force_never_builds_the_frozenset_adjacency(monkeypatch):
    # brute force reads only adj_mask, so a graph it solves holds no
    # frozenset view of its neighbourhoods
    def refuse(self):
        raise AssertionError("SocialNetwork.adj was built")

    monkeypatch.setattr(SocialNetwork, "adj", property(refuse))
    for s in VECTORS:
        for mode in ("welfare", "ir", "ns"):
            brute_force_solve(s, _fig_c(), mode)


@settings(max_examples=15, deadline=None)
@given(st.integers(2, 6), st.randoms(use_true_random=False))
def test_welfare_dominates_every_partition(n, rng):
    from sdgsolve.core import social_welfare

    s = ScoringVector((1, 0, -1))
    G = random_connected_graph(n, rng)
    best = brute_force_solve(s, G, "welfare").welfare
    for blocks in enumerate_partitions(n):
        assert social_welfare(s, G, Outcome.from_blocks(blocks)) <= best


def _exhaustive_nash_stable(ev):
    """Brute force's NS search before its branch and bound, kept as the
    reference: every partition into IR-admissible blocks, with the deviation
    check on each one that would replace the incumbent."""
    G = ev.G
    best_welfare = NEG_INF
    best_key = None
    masks = []

    def rec(rem, welfare, key):
        nonlocal best_welfare, best_key
        if rem == 0:
            if welfare < best_welfare:
                return
            if welfare > best_welfare or key < best_key:
                if first_deviation(ev, masks, "ns") is None:
                    best_welfare, best_key = welfare, key
            return
        for block, w in _admissible_blocks(ev, rem, True):
            masks.append(block)
            rec(rem ^ block, welfare + w, key | G.edge_key(block))
            masks.pop()

    rec(G.full_mask, 0, 0)
    return None if best_key is None else (best_welfare, best_key)


def _gap_network(seed):
    """fig_b or fig_c bridged by one edge to a random tree of 1-3 agents, and
    relabelled: 11-13 agents whose modes' optima differ."""
    rng = random.Random(seed)
    base = (_fig_b, _fig_c)[seed % 2]()
    n = base.n + rng.randint(1, 3)
    edges = list(base.edges)
    edges += [(rng.randrange(base.n, v), v) for v in range(base.n + 1, n)]
    edges.append((rng.randrange(base.n), rng.randrange(base.n, n)))
    perm = list(range(n))
    rng.shuffle(perm)
    return SocialNetwork(n, [(perm[u], perm[v]) for u, v in edges])


GAP_VECTORS = [s for s in VECTORS if s.is_closed] + [ScoringVector((2, -1), tail="open")]
# seeds of _gap_network whose optima differ under the long vector: welfare
# above IR (2, 18), IR above NS (25, 41, 55, 59), or an IR and an NS optimum
# of equal welfare (1, 19).  And a 2-tree whose IR optimum is not Nash
# stable while two Nash-stable outcomes reach its welfare: of 420 random
# networks of 8-13 agents, the one where a bound that cut ties of welfare
# without comparing keys returned the larger key
NS_CASES = (1, 2, 18, 19, 25, 41, 55, 59, "ktree")


def _ns_network(case):
    return random_partial_ktree(10, 2, 1) if case == "ktree" else _gap_network(case)


@pytest.mark.slow
@pytest.mark.parametrize("case", NS_CASES)
def test_nash_stable_search_matches_the_exhaustive_search(case):
    G = _ns_network(case)
    for s in GAP_VECTORS:
        expect = _exhaustive_nash_stable(CoalitionEvaluator(s, G))
        got = brute_force_solve(s, G, "ns")
        if expect is None:
            assert got is None, s
        else:
            assert (got.welfare, got.outcome) == (expect[0], G.outcome_of_key(expect[1])), s


@pytest.mark.parametrize("case,checks", [("fig_b", 1), (25, 4)])
def test_nash_stable_search_starts_from_the_ir_optimum(case, checks, long_vec, monkeypatch):
    """The first partition reached is the IR optimum, and the bound cuts
    every branch that cannot beat the incumbent.  On fig_b the IR optimum is
    Nash stable, so one deviation check runs; on gap network 25 the NS
    optimum lies below it and four run.  The exhaustive search ran 4531 and
    2029."""
    G = _fig_b() if case == "fig_b" else _gap_network(case)
    calls = []

    def counted(*args):
        calls.append(args)
        return first_deviation(*args)

    monkeypatch.setattr(oracle, "first_deviation", counted)
    ns = brute_force_solve(long_vec, G, "ns")
    assert len(calls) == checks
    if case == "fig_b":
        ir = brute_force_solve(long_vec, G, "ir")
        assert (ns.welfare, ns.outcome) == (ir.welfare, ir.outcome)


# 11-13-agent graphs of the kinds auto answers with brute force, and three
# gap networks: (family, agents, seed), or ("gap", seed)
PRUNE_GRAPHS = [
    ("tw2", 11, 0), ("tw2", 13, 1), ("tw3", 12, 2), ("tw3", 13, 0),
    ("deg3", 12, 1), ("deg3", 13, 2), ("gap", 2), ("gap", 25), ("gap", 41),
]


def _prune_graph(case):
    if case[0] == "gap":
        return _gap_network(case[1])
    family, n, seed = case
    if family == "deg3":
        return random_bounded_degree(n, 3, seed)
    return random_partial_ktree(n, int(family[2]), seed)


@pytest.mark.parametrize("case", PRUNE_GRAPHS, ids=lambda c: "-".join(map(str, c)))
def test_cutoff_pruning_keeps_every_answer(case, monkeypatch):
    # brute force that skips the blocks with a pair past the cutoff answers
    # as brute force that measures them, in every mode and closed vector
    G = _prune_graph(case)
    for s in [s for s in VECTORS if s.is_closed]:
        for mode in ("welfare", "ir", "ns"):
            pruned = brute_force_solve(s, G, mode)
            with monkeypatch.context() as m:
                m.setattr(oracle, "cutoff_balls", lambda s, G: None)
                plain = brute_force_solve(s, G, mode)
            if plain is None:
                assert pruned is None, (s, mode)
            else:
                assert (pruned.welfare, pruned.outcome) == (plain.welfare, plain.outcome), (s, mode)


def test_cutoff_pruning_skips_the_far_blocks_unmeasured(monkeypatch):
    """On auto-mid's 13-agent partial 2-tree under (1,-3), brute force
    measures only the blocks whose members lie pairwise within distance 2,
    97 in welfare mode and in NS mode (whose IR bound measures them all);
    without the balls it measures every connected block it meets, 626."""
    G = random_partial_ktree(13, 2, 1)
    s = ScoringVector((1, -3))
    measured = []
    measure = CoalitionEvaluator._measure

    def counted(self, mask):
        measured.append(mask)
        return measure(self, mask)

    monkeypatch.setattr(CoalitionEvaluator, "_measure", counted)
    counts = {}
    for pruned in (True, False):
        with monkeypatch.context() as m:
            if not pruned:
                m.setattr(oracle, "cutoff_balls", lambda s, G: None)
            for mode in ("welfare", "ns"):
                measured.clear()
                brute_force_solve(s, G, mode)
                counts[pruned, mode] = len(measured)
    assert counts == {(True, "welfare"): 97, (True, "ns"): 97, (False, "welfare"): 626, (False, "ns"): 626}
