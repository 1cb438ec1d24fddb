"""Vertex-cover solver vs the oracle."""

import itertools
import random

import pytest

from sdgsolve import solver_vc
from sdgsolve.core import CoalitionEvaluator, Outcome, ResourceLimitError, ScoringVector, SocialNetwork
from sdgsolve.generators import random_solver_corpus_instance
from sdgsolve.oracle import brute_force_solve
from sdgsolve.solver_vc import (
    compute_vertex_cover,
    enumerate_structures,
    neighborhood_classes,
    solve_qp,
    solve_vc,
)
from sdgsolve.stability import is_individually_rational, is_nash_stable

from conftest import complete_graph, cycle_graph, plain_key, random_connected_graph, star_graph


def brute_min_cover_size(G):
    for k in range(G.n + 1):
        for cand in itertools.combinations(range(G.n), k):
            chosen = set(cand)
            if all(u in chosen or v in chosen for u, v in G.edges):
                return k
    return G.n


class TestCover:
    def test_star(self):
        assert compute_vertex_cover(star_graph(5)) == frozenset({0})

    def test_cycle5(self):
        assert len(compute_vertex_cover(cycle_graph(5))) == 3

    def test_fig_a_size(self, fig_a):
        cover = compute_vertex_cover(fig_a)
        assert len(cover) == 4
        assert all(u in cover or v in cover for u, v in fig_a.edges)

    def test_searched_once_and_the_limit_raises_every_time(self, monkeypatch):
        G = cycle_graph(7)
        runs = []
        search = solver_vc._minimum_cover

        def counted(graph):
            runs.append(graph)
            return search(graph)

        monkeypatch.setattr(solver_vc, "_minimum_cover", counted)
        assert compute_vertex_cover(G) is compute_vertex_cover(G)
        monkeypatch.setattr(solver_vc, "DEFAULT_COVER_LIMIT", 3)  # the cover has 4
        for _ in range(2):
            with pytest.raises(ResourceLimitError):
                compute_vertex_cover(G)
        assert runs == [G]

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_exhaustive(self, seed):
        rng = random.Random(600 + seed)
        G = random_connected_graph(rng.randrange(3, 9), rng)
        assert len(compute_vertex_cover(G)) == brute_min_cover_size(G)


class TestStructures:
    def test_single_cover_vertex_two_options(self):
        G = star_graph(3)
        structures = list(enumerate_structures(G, frozenset({0})))
        assert len(structures) == 2  # cover alone, or with its leaf class

    def test_k4_count_matches_direct_enumeration(self):
        G = complete_graph(4)
        cover = compute_vertex_cover(G)
        assert len(cover) == 3
        structures = list(enumerate_structures(G, cover))
        # independent recount: for each partition of the cover, each part may
        # declare any subset of classes with a neighbor inside, no class used
        # more often than its size, and parts must be connected quotients
        class_map = neighborhood_classes(G, cover)
        count = 0
        from sdgsolve.solver_vc import _quotient_distances, _set_partitions

        for raw in _set_partitions(sorted(cover)):
            parts = sorted(tuple(sorted(p)) for p in raw)
            options = []
            for p in parts:
                eligible = [w for w in class_map if w & set(p)]
                opts = []
                for r in range(len(eligible) + 1):
                    for combo in itertools.combinations(eligible, r):
                        dist = _quotient_distances(G, p, combo)
                        if not any(None in row for row in dist):
                            opts.append(combo)
                options.append(opts)
            for chosen in itertools.product(*options):
                usage: dict = {}
                ok = True
                for decl in chosen:
                    for w in decl:
                        usage[w] = usage.get(w, 0) + 1
                for w, c in usage.items():
                    if c > len(class_map[w]):
                        ok = False
                if ok:
                    count += 1
        assert len(structures) == count


class TestSolve:
    def test_fig_a_both_vectors(self, fig_a):
        assert solve_vc(ScoringVector((1, 0, -1)), fig_a, "welfare").welfare == 18
        assert solve_vc(ScoringVector((1, -3)), fig_a, "welfare").welfare == 14

    def test_fig_c_ns(self, fig_c, long_vec):
        res = solve_vc(long_vec, fig_c, "ns")
        assert res is not None
        assert res.welfare == 46

    def test_star_open_style(self):
        G = star_graph(4)
        res = solve_vc(ScoringVector((1, 1)), G, "welfare")
        assert res.welfare == 20
        assert res.outcome == Outcome.from_blocks([range(5)])

    def test_edgeless(self):
        G = SocialNetwork(3, [])
        res = solve_vc(ScoringVector((1,)), G, "welfare")
        assert res.welfare == 0

    def test_split_class_optimum(self):
        # a class whose neighborhood straddles cover parts: the optimum
        # places its member with just one neighbor
        G = SocialNetwork(4, [(0, 1), (0, 2), (2, 3)])
        s = ScoringVector((1,))
        assert solve_vc(s, G, "welfare").welfare == brute_force_solve(s, G, "welfare").welfare


class TestCanonicalOutcome:
    @pytest.mark.parametrize("mode", ["welfare", "ir", "ns"])
    def test_star_tie_goes_to_the_smallest_outcome(self, mode):
        # a centre-leaf pair ties with any other; (3,4) is the last edge in
        # rank order, so its key is the smallest
        G = SocialNetwork(5, [(3, 0), (3, 1), (3, 2), (3, 4)])
        res = solve_vc(ScoringVector((1, -3)), G, mode)
        assert res.outcome == Outcome(((0,), (1,), (2,), (3, 4)))

    def test_corpus_seed_52(self):
        G = random_solver_corpus_instance(52)
        res = solve_vc(ScoringVector((1,)), G, "welfare")
        # eight welfare-8 optima of two cliques; this one holds edges
        # (1,4), (1,5), (2,3) and (4,5), key 0b0000011101
        assert res.outcome == Outcome(((0,), (1, 4, 5), (2, 3)))

    def test_optimum_as_incumbent_is_never_improved(self, fig_a):
        s = ScoringVector((1, -3))
        expect = brute_force_solve(s, fig_a, "welfare")
        cover = compute_vertex_cover(fig_a)
        classes = neighborhood_classes(fig_a, cover)
        ev = CoalitionEvaluator(s, fig_a)
        incumbent = (expect.welfare, plain_key(fig_a, expect.outcome))
        for structure in enumerate_structures(fig_a, cover):
            assert solve_qp(s, fig_a, "welfare", structure, classes, ev, incumbent) is None


class TestWorkDoneOnce:
    def test_each_quotient_table_built_once(self, monkeypatch, fig_c, long_vec):
        seen = []
        original = solver_vc._quotient_distances

        def counting(G, part, declared):
            seen.append((part, declared))
            return original(G, part, declared)

        monkeypatch.setattr(solver_vc, "_quotient_distances", counting)
        solve_vc(long_vec, fig_c, "ns")
        assert seen and len(seen) == len(set(seen))

    @pytest.mark.parametrize("mode", ["welfare", "ir", "ns"])
    def test_one_evaluator_per_solve(self, monkeypatch, fig_a, mode):
        built = []

        class Counting(CoalitionEvaluator):
            def __init__(self, s, G):
                built.append(G)
                super().__init__(s, G)

        monkeypatch.setattr(solver_vc, "CoalitionEvaluator", Counting)
        solve_vc(ScoringVector((1, 0, -1)), fig_a, mode)
        assert len(built) == 1


VECTORS = [
    ScoringVector((1,)),
    ScoringVector((1, -3)),
    ScoringVector((1, 0, -1)),
    ScoringVector((1, 1, -1, -1, -1, -1)),
    ScoringVector((2, 0, -1), tail="open"),
]


@pytest.mark.parametrize("seed", range(20))
def test_oracle_equivalence(seed):
    rng = random.Random(7000 + seed)
    n = rng.randrange(3, 9)
    G = random_connected_graph(n, rng)
    s = VECTORS[seed % len(VECTORS)]
    for mode in ("welfare", "ir", "ns"):
        expect = brute_force_solve(s, G, mode)
        got = solve_vc(s, G, mode)
        ew = None if expect is None else (expect.welfare, expect.outcome)
        gw = None if got is None else (got.welfare, got.outcome)
        assert ew == gw, f"seed={seed} mode={mode} s={s} G={G.edges}"
        if got is not None and mode == "ir":
            assert is_individually_rational(s, G, got.outcome)
        if got is not None and mode == "ns":
            assert is_nash_stable(s, G, got.outcome)


def _complete_bipartite(a, b):
    return SocialNetwork(a + b, [(u, a + v) for u in range(a) for v in range(b)])


# false-twin-heavy graphs: stars and K(2,b), K(3,b), each under its own
# labels and two relabellings, so the twins' placement meets every edge order
TWIN_GRAPHS = {
    **{f"star{b}": star_graph(b) for b in (2, 3, 5)},
    **{f"k2-{b}": _complete_bipartite(2, b) for b in (2, 3, 5)},
    **{f"k3-{b}": _complete_bipartite(3, b) for b in (2, 3, 4)},
}


@pytest.mark.parametrize("relabel", range(3))
@pytest.mark.parametrize("name", list(TWIN_GRAPHS))
def test_false_twins_match_brute(name, relabel):
    base = TWIN_GRAPHS[name]
    perm = list(range(base.n))
    if relabel:
        random.Random(relabel).shuffle(perm)
    G = SocialNetwork(base.n, [(perm[u], perm[v]) for u, v in base.edges])
    for s in VECTORS + [ScoringVector((1, 1)), ScoringVector((2, -1), tail="open")]:
        for mode in ("welfare", "ir", "ns"):
            expect = brute_force_solve(s, G, mode)
            got = solve_vc(s, G, mode)
            ew = None if expect is None else (expect.welfare, expect.outcome)
            gw = None if got is None else (got.welfare, got.outcome)
            assert ew == gw, f"s={s} mode={mode} G={G.edges}"
