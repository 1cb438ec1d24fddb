"""Treewidth DP vs the brute-force oracle, plus the reference-network values."""

import random
from itertools import combinations, product

import pytest

from sdgsolve import solver_twdp
from sdgsolve.core import Outcome, ScoringVector, SocialNetwork, ball_distances, iter_bits
from sdgsolve.dispatch import solve
from sdgsolve.dp import Budget, WitnessTable
from sdgsolve.generators import random_bounded_degree, random_partial_ktree, random_solver_corpus_instance
from sdgsolve.oracle import brute_force_solve
from sdgsolve.solver_fptdp import solve_fpt
from sdgsolve.solver_twdp import solve_tw_ir, solve_tw_ns, solve_tw_welfare
from sdgsolve.stability import find_deviation, is_individually_rational, is_nash_stable
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
    """Two welfare-6 optima: ((0,1,2,4),(3,5)) holds edges (0,2), (0,4),
    (1,4) and (3,5), key 0b11101; ((0,1,4),(2,),(3,5)) leaves out (0,2),
    the first edge in rank order, key 0b01101.  Under the old tie rule the
    answer depended on the decomposition; both decompositions now give the
    smaller key."""
    G = SocialNetwork(6, [(0, 2), (0, 4), (1, 4), (3, 4), (3, 5)])
    s = ScoringVector((1, 0, -1))
    result = solve(s, G, "welfare", algo="twdp")
    assert result.welfare == 6
    assert result.outcome == Outcome(((0, 1, 4), (2,), (3, 5)))
    assert result.outcome == brute_force_solve(s, G, "welfare").outcome


# (agents, k) of random_partial_ktree(agents, k, 0) and the vector -> the
# welfare and IR optimum's welfare and coalitions of two or more agents, the
# smallest-key optimum (twdp gives it on three more decompositions, and
# fptdp agrees where it finishes); criterion 4 stops at 9 agents, these pin
# the tie-break where the tables run deep
LARGE_OUTCOMES = {
    ((30, 1), (1, -3)): (18, [[0, 29], [3, 26], [4, 18], [5, 8], [6, 20], [11, 21], [12, 25], [19, 27], [23, 24]]),
    ((30, 1), (1, 0, -1)): (42, [[0, 1, 2, 7, 10, 14, 22, 28, 29], [3, 16, 26], [4, 9, 18], [5, 8], [6, 13, 15, 20], [11, 17, 21], [12, 25], [19, 27], [23, 24]]),
    ((60, 1), (1, -3)): (34, [[0, 57], [2, 44], [3, 54], [4, 31], [5, 39], [6, 53], [7, 42], [11, 33], [12, 25], [17, 47], [18, 38], [22, 48], [23, 24], [27, 43], [30, 59], [32, 35], [36, 58]]),
    ((60, 1), (1, 0, -1)): (86, [[0, 1, 10, 14, 28, 29, 34, 37, 40, 45, 46, 49, 52, 55, 56, 57], [2, 41, 44], [3, 16, 26, 50, 54], [4, 9, 31], [5, 8, 39], [6, 13, 20, 51, 53], [7, 42], [11, 33], [12, 25], [15, 30, 59], [17, 47], [18, 38], [19, 27, 43], [21, 32, 35], [22, 48], [23, 24], [36, 58]]),
    ((20, 2), (1, -3)): (20, [[0, 1], [2, 7], [3, 14, 15], [5, 6], [8, 11], [9, 17], [10, 16], [12, 19]]),
    ((20, 2), (1, 0, -1)): (28, [[0, 1, 5, 19], [2, 6, 7, 12], [3, 14, 15, 18], [4, 9, 17], [8, 11], [10, 16]]),
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
# welfare and IR mode, with coalitions capped by the certified size bound
# (2 on both trees under (1,-3), none under (1,0,-1)); a change of state
# encoding that splits or merges states moves these even where the outcome
# stays
LARGE_ADDS = {
    ((30, 1), (1, -3)): (417, 397),
    ((30, 1), (1, 0, -1)): (1265, 1162),
    ((60, 1), (1, -3)): (847, 812),
    ((60, 1), (1, 0, -1)): (5244, 4777),
    ((20, 2), (1, -3)): (940, 909),
    ((20, 2), (1, 0, -1)): (4977, 6500),
}


@pytest.mark.parametrize("graph,vec", list(LARGE_ADDS), ids=lambda v: ",".join(map(str, v)))
def test_large_network_table_adds_are_pinned(graph, vec, monkeypatch):
    budgets = record_budgets(monkeypatch)
    G = random_partial_ktree(*graph, 0)
    seen = []
    for mode in ("welfare", "ir"):
        budgets.clear()
        solve(ScoringVector(vec), G, mode, algo="twdp")
        seen.append(sum(b.seen for b in budgets))
    assert tuple(seen) == LARGE_ADDS[graph, vec]


def test_table_adds_barely_depend_on_the_labels(monkeypatch):
    """Six relabellings of one 11-agent graph: with one decomposition rule
    and one integer witness per state, twdp's table adds stay within 3x of
    each other (9252 to 19355); when the tie rule pinned the exact subset
    DP's decomposition they ranged from 19057 to 243651."""
    budgets = record_budgets(monkeypatch)
    base = random_bounded_degree(11, 3, 1)
    s = ScoringVector((1, 1, -1, -1, -1, -1))
    adds = []
    for seed in range(6):
        perm = list(range(base.n))
        random.Random(seed).shuffle(perm)
        G = SocialNetwork(base.n, [(perm[u], perm[v]) for u, v in base.edges])
        budgets.clear()
        assert solve(s, G, "welfare", algo="twdp").welfare == 38
        adds.append(sum(b.seen for b in budgets))
    assert max(adds) <= 3 * min(adds), adds


def test_ns_on_a_24_agent_tree_is_capped_by_the_size_bound(monkeypatch):
    """(1,-3) certifies coalitions of at most 2 agents, and auto's NS route
    through twdp caps its coalitions by that bound.  Its cutoff keeps every
    open coalition's members within distance 2 of each other in G: 6248
    adds without that rule, on the nice form that joined on the full parent
    bag."""
    budgets = record_budgets(monkeypatch)
    s = ScoringVector((1, -3))
    G = random_partial_ktree(24, 1, 0)
    result = solve(s, G, "ns")
    assert (result.algorithm, result.welfare) == ("twdp", 12)
    assert is_nash_stable(s, G, result.outcome)
    assert sum(b.seen for b in budgets) == 2125


@pytest.mark.slow
def test_ns_on_a_30_agent_2_tree_stays_small():
    """Under (1,-3) the welfare optimum of this 2-tree, 26, is Nash stable,
    so auto's NS answer through twdp is 26.  With the nice form that joined
    on the full parent bag, rooted above bag 0, this query ran out of
    memory under a 2.5 GB address-space limit; it now takes seconds."""
    s = ScoringVector((1, -3))
    G = random_partial_ktree(30, 2, 0)
    best = solve(s, G, "welfare")
    assert best.welfare == 26 and find_deviation(s, G, best.outcome, "ns") is None
    result = solve(s, G, "ns")
    assert (result.algorithm, result.welfare) == ("twdp", 26)
    assert is_nash_stable(s, G, result.outcome)


def test_long_path_solves_without_a_recursion_limit():
    """The nice decomposition of a 600-agent path is about 1800 nodes deep;
    building it must not recurse once per bag."""
    result = solve(ScoringVector((1, -3)), path_graph(600), "welfare")
    assert (result.algorithm, result.welfare) == ("twdp", 600)


def _folding(s, cap):
    """The record's reach and its folded distance: a closed tail's cutoff,
    at most cap - 1, and none; cap - 1 and none under an open tail whose cap
    stops within its cutoff; otherwise cutoff + 1 for both, the one value of
    every distance past the cutoff."""
    if s.is_closed or cap - 1 <= s.cutoff:
        return min(s.cutoff, cap - 1), None
    return s.cutoff + 1, s.cutoff + 1


def _united(*partitions):
    """The connected groups of the union of partitions of one agent set,
    as sorted member bitmasks."""
    groups = [set(iter_bits(g)) for partition in partitions for g in partition]
    merged = True
    while merged:
        merged = False
        for x, y in combinations(range(len(groups)), 2):
            if groups[x] & groups[y]:
                groups[x] |= groups.pop(y)
                merged = True
                break
    return tuple(sorted(sum(1 << v for v in g) for g in groups))


def _pairwise_join(s, G, ir, cap):
    """twdp's welfare/IR join as it was before the per-part fusion, kept as
    the reference: every matched record pair crosses all of both sides'
    cells, then tallies and sorts their union; a pair is dead when a part's
    members and both sides' tallied members outnumber ``cap``, or a cross
    pair lies beyond the reach and does not fold; folded, both sides' links
    unite."""
    score = s.score
    reach, far = _folding(s, cap)
    budget = Budget(10**9, "unused")

    def join(node, left, right):
        table = WitnessTable(budget)
        grouped: dict = {}
        for (parts, prom, cells, links), (w, key) in right.data.items():
            grouped.setdefault((parts, prom), []).append((cells, links, w, key))
        for (parts, prom, cells_y, links_y), (w_y, key_y) in left.data.items():
            matches = grouped.get((parts, prom))
            if not matches:
                continue
            over = 2 * sum(score(d) for _, d in prom)
            for cells_z, links_z, w_z, key_z in matches:
                delta = 0
                cross_y = [0] * len(cells_y)
                cross_z = [0] * len(cells_z)
                dead = any(
                    p.bit_count() + sum(c[2] for c in cells_y + cells_z if c[0] == p) > cap for p in parts
                )
                for i, cy in enumerate(cells_y):
                    for j, cz in enumerate(cells_z):
                        if cy[0] != cz[0]:
                            continue
                        best = min(ey + ez for ey, ez in zip(cy[1], cz[1]))
                        if best > reach:
                            if far is None:
                                dead = True
                                break
                            best = far
                        v = score(best)
                        delta += 2 * cy[2] * cz[2] * v
                        cross_y[i] += cz[2] * v
                        cross_z[j] += cy[2] * v
                    if dead:
                        break
                if dead:
                    continue
                both = cells_y + cells_z
                if ir:
                    both = [c[:3] + (c[3] + inc,) for inc, c in zip(cross_y + cross_z, both)]
                cells = tuple(sorted(solver_twdp._tally(both, ir)))
                links = _united(links_y, links_z) if far else ()
                table.add((parts, prom, cells, links), w_y + w_z + delta - over, key_y | key_z)
        return table

    return join


def _per_record_steps(s, G, ir, cap):
    """twdp's welfare/IR introduce and forget as they were before the steps
    grouped records by (parts, promises), kept as the reference: each record
    rebuilds its promises, options, triangle checks and commitment routes on
    its own.  An introduce drops a record whose grown part's members and
    tallied members outnumber ``cap``, and distances stop at the reach or
    fold into it.  Folded, the links group each part's members by the edges
    among the coalition's members so far: a forget drops a record whose
    forgotten agent leaves its group without a bag member while its part
    keeps one, and a folded commitment needs no route."""
    score = s.score
    reach, far = _folding(s, cap)
    budget = Budget(10**9, "unused")
    pkey, INF = solver_twdp._pkey, solver_twdp._INF

    def realized(w, b, part, promises, cells):
        d = promises[pkey(w, b)]
        if d in (1, far):
            return True
        i = (part & ((1 << w) - 1)).bit_count()
        j = (part & ((1 << b) - 1)).bit_count()
        if any(c[0] == part and c[1][i] + c[1][j] == d for c in cells):
            return True
        return any(
            promises[pkey(w, t)] + promises[pkey(t, b)] == d
            for t in iter_bits(part & ~(1 << w | 1 << b))
        )

    def sig(parts, promises, cells, links):
        return tuple(sorted(parts)), tuple(sorted(promises.items())), tuple(sorted(cells)), links

    def introduce(node, child):
        table = WitnessTable(budget)
        a = node.agent
        bit = 1 << a
        near = ball_distances(G, a, reach)
        for (parts_c, prom_c, cells_c, links_c), (w_c, key_c) in child.data.items():
            links = _united(links_c, [bit]) if far else ()
            table.add((tuple(sorted(parts_c + (bit,))), prom_c, cells_c, links), w_c, key_c)
            promises_c = dict(prom_c)
            for L in parts_c:
                mates = list(iter_bits(L))
                if len(mates) + 1 + sum(c[2] for c in cells_c if c[0] == L) > cap:
                    continue
                key = key_c | G.edge_key_to(a, L)
                options = []
                for b in mates:
                    if G.has_edge(a, b):
                        options.append((1,))
                        continue
                    lo = max(2, near.get(b, INF))
                    if lo > reach:
                        if far is None:
                            break
                        lo = far
                    options.append(range(lo, reach + 1))
                else:
                    # a and its neighbours in L share a group
                    ties = [bit | 1 << b for b in mates if G.has_edge(a, b)]
                    links = _united(links_c, [bit], ties) if far else ()
                    part = L | bit
                    parts = [part if p == L else p for p in parts_c]
                    pos = (L & (bit - 1)).bit_count()
                    for choice in product(*options):
                        pairs = list(zip(mates, choice))
                        if not all(
                            abs(d - e) <= promises_c[b, c] <= d + e
                            for (b, d), (c, e) in combinations(pairs, 2)
                        ):
                            continue
                        promises = dict(promises_c)
                        delta = 0
                        for b, d in pairs:
                            promises[pkey(a, b)] = d
                            delta += 2 * score(d)
                        cells = []
                        for cell in cells_c:
                            if cell[0] != L:
                                cells.append(cell)
                                continue
                            vec = cell[1]
                            entry = min(e + d for e, d in zip(vec, choice))
                            if entry > reach:
                                if far is None:
                                    break
                                entry = far
                            v = score(entry)
                            delta += 2 * cell[2] * v
                            vec = vec[:pos] + (entry,) + vec[pos:]
                            cells.append((part, vec) + ((cell[2], cell[3] + v) if ir else cell[2:]))
                        else:
                            table.add(sig(parts, promises, cells, links), w_c + delta, key)
        return table

    def forget(node, child):
        table = WitnessTable(budget)
        w = node.agent
        bit = 1 << w
        for (parts_c, prom_c, cells_c, links_c), (w_c, key_c) in child.data.items():
            L = next(p for p in parts_c if p & bit)
            rest = L ^ bit
            links = ()
            if far:
                if rest and bit in links_c:
                    continue
                links = tuple(sorted(g & ~bit for g in links_c if g != bit))
            promises_c = dict(prom_c)
            pos = (L & (bit - 1)).bit_count()
            if not all(realized(w, b, L, promises_c, cells_c) for b in iter_bits(rest)):
                continue
            if ir:
                util = sum(score(promises_c[pkey(w, b)]) for b in iter_bits(rest))
                util += sum(c[2] * score(c[1][pos]) for c in cells_c if c[0] == L)
            if rest:
                parts = [rest if p == L else p for p in parts_c]
                cells = [(rest, c[1][:pos] + c[1][pos + 1 :]) + c[2:] if c[0] == L else c for c in cells_c]
                vec_w = tuple(promises_c[pkey(w, b)] for b in iter_bits(rest))
                cells.append((rest, vec_w, 1, util) if ir else (rest, vec_w, 1))
                promises = {p: d for p, d in promises_c.items() if w not in p}
                table.add(sig(parts, promises, solver_twdp._tally(cells, ir), links), w_c, key_c)
            else:
                if ir and (util < 0 or any(c[0] == L and c[3] < 0 for c in cells_c)):
                    continue
                parts = tuple(p for p in parts_c if p != L)
                table.add((parts, prom_c, tuple(c for c in cells_c if c[0] != L), links), w_c, key_c)
        return table

    return introduce, forget


def _entries(table):
    return [(state, w, key) for state, (w, key) in table.data.items()]


# criterion-4 seeds whose nice decompositions have join nodes, and a partial
# 2-tree whose joins pair thousands of records
FUSION_GRAPHS = [0, 5, 9, 10, 12, 19, 20, 24, 26, 27, "ktree"]
FUSION_VECTORS = [(1, -3), (1, 0, -1), (1, 1, -1, -1, -1, -1)]


def _fusion_graph(case):
    if case == "ktree":
        return random_partial_ktree(20, 2, 0)
    if case == "tree":
        return random_partial_ktree(30, 1, 0)
    return random_solver_corpus_instance(case)


def _solve_with_steps(G, wrap, monkeypatch):
    """Welfare and IR solves of G with the compressed DP's steps replaced by
    ``wrap(s, ir, cap, steps)``: twdp's under FUSION_VECTORS, and fptdp's
    under open (2,-1) with the size caps 3 and 4, whose reaches 2 and 3
    stop distances at and past the cutoff."""
    compressed = solver_twdp._compressed_steps

    def wrapped(s, G, budget, ir, cap):
        return wrap(s, ir, cap, compressed(s, G, budget, ir, cap))

    monkeypatch.setattr(solver_twdp, "_compressed_steps", wrapped)
    for vec in FUSION_VECTORS:
        s = ScoringVector(vec)
        solve_tw_welfare(s, G)
        solve_tw_ir(s, G)
    for sz in (3, 4):
        for mode in ("welfare", "ir"):
            solve_fpt(ScoringVector((2, -1), tail="open"), G, sz=sz, mode=mode)


@pytest.mark.parametrize("case", FUSION_GRAPHS)
def test_fused_join_equals_the_pairwise_join(case, monkeypatch):
    # at every join the per-part fusion builds the reference's table: the
    # same states in the same order, welfare and outcome keys
    G = _fusion_graph(case)
    joins = []

    def wrap(s, ir, cap, steps):
        leaf, introduce, forget, join = steps
        reference = _pairwise_join(s, G, ir, cap)

        def checked(node, left, right):
            table = join(node, left, right)
            assert _entries(table) == _entries(reference(node, left, right))
            joins.append(len(table.data))
            return table

        return leaf, introduce, forget, checked

    _solve_with_steps(G, wrap, monkeypatch)
    assert any(joins)


@pytest.mark.parametrize("case", FUSION_GRAPHS + ["tree"])
def test_grouped_steps_equal_the_per_record_steps(case, monkeypatch):
    # at every introduce and forget the steps that work once per (parts,
    # promises) group build the reference's table: the same states, welfare
    # and outcome keys, in any order
    G = _fusion_graph(case)
    steps_seen = []

    def wrap(s, ir, cap, steps):
        leaf, introduce, forget, join = steps
        ref_introduce, ref_forget = _per_record_steps(s, G, ir, cap)

        def checked(step, reference):
            def run(node, child):
                table = step(node, child)
                assert table.data == reference(node, child).data
                steps_seen.append(len(table.data))
                return table

            return run

        return leaf, checked(introduce, ref_introduce), checked(forget, ref_forget), join

    _solve_with_steps(G, wrap, monkeypatch)
    assert any(steps_seen)


@pytest.mark.parametrize("case", FUSION_GRAPHS)
def test_record_cells_are_sorted_runs_of_the_parts(case, monkeypatch):
    # the fusion relies on it: a record's cells are sorted, unique per
    # (part, vec) and each in a part of the record, so they are one run per
    # part in ascending part order
    G = _fusion_graph(case)
    records = []

    def check(table):
        for parts, _, cells, _ in table.data:
            assert list(cells) == sorted(cells)
            assert len({c[:2] for c in cells}) == len(cells)
            assert {c[0] for c in cells} <= set(parts)
            records.append(cells)
        return table

    def wrap(s, ir, cap, steps):
        return [lambda *args, step=step: check(step(*args)) for step in steps]

    _solve_with_steps(G, wrap, monkeypatch)
    assert any(records)
