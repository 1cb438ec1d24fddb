"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines live; the
whole suite stays within its time budget on a desk machine (the big item is
criterion 4's 200-instance cross-solver sweep).
"""

import itertools
import random
import time

import pytest

from sdgsolve.core import (
    NEG_INF,
    Outcome,
    ScoringVector,
    SocialNetwork,
    agent_utility,
    coalition_welfare,
    social_welfare,
    utility_in_coalition,
    validate_outcome,
)
from sdgsolve.generators import (
    random_bounded_degree,
    random_nae_formula,
    random_partial_ktree,
    random_solver_corpus_instance,
)
from sdgsolve.oracle import brute_force_solve, enumerate_partitions
from sdgsolve.reductions import ctcg_to_sdg, is_three_colorable, nae_to_3ctcg
from sdgsolve.solver_fptdp import solve_fpt
from sdgsolve.solver_twdp import solve_tw_ir, solve_tw_ns, solve_tw_welfare
from sdgsolve.solver_vc import compute_vertex_cover, solve_vc
from sdgsolve.stability import find_deviation, is_individually_rational, is_nash_stable
from sdgsolve.treedecomp import (
    exact_treewidth,
    make_nice,
    compute_decomposition,
    nice_decomposition,
    validate_nice,
)

from conftest import ACCEPTANCE_LINES, _fig_a, _fig_b, _fig_c

SWEEP_VECTORS = (
    ScoringVector((1,)),
    ScoringVector((1, -3)),
    ScoringVector((1, 0, -1)),
    ScoringVector((1, 1, -1, -1, -1, -1)),
)
MODES = ("welfare", "ir", "ns")

# criterion 4 caches its oracle results for criterion 7
ORACLE_CACHE: dict = {}
CORPUS: list = []


def _pass(num: int, message: str):
    line = f"ACCEPTANCE {num}: PASS - {message}"
    print(line)
    ACCEPTANCE_LINES.append(line)


def test_criterion_1_figure_reproduction():
    G = _fig_a()
    mild, sharp = ScoringVector((1, 0, -1)), ScoringVector((1, -3))
    ntd = nice_decomposition(G)
    solvers = {
        "brute": lambda s: brute_force_solve(s, G, "welfare"),
        "twdp": lambda s: solve_tw_welfare(s, G, ntd),
        "fptdp": lambda s: solve_fpt(s, G, sz=7, mode="welfare"),
        "vc": lambda s: solve_vc(s, G, "welfare"),
    }
    for name, fn in solvers.items():
        for s, expect in ((mild, 18), (sharp, 14)):
            start = time.perf_counter()
            result = fn(s)
            elapsed = time.perf_counter() - start
            assert result.welfare == expect, f"criterion 1: {name} s={s} -> {result.welfare}"
            assert elapsed < 1.0, f"criterion 1: {name} took {elapsed:.2f}s"
    bold = Outcome.from_blocks([[0, 1, 2, 3, 4], [5], [6]])
    assert social_welfare(sharp, G, bold) == 12
    _pass(1, "7-agent network: welfare 18 and 14 on all four solvers (<1s each), "
             "hub partition scores 12 under (1,-3)")


def test_criterion_2_irrational_optimum():
    G = _fig_b()
    s = ScoringVector((1, 1, -1, -1, -1, -1))
    grand = Outcome.from_blocks([range(10)])
    wf = brute_force_solve(s, G, "welfare")
    assert wf.welfare == 62
    assert wf.outcome == grand
    # uniqueness of the welfare optimum
    cache: dict = {}
    ties = 0
    for blocks in enumerate_partitions(10):
        total = 0
        for block in blocks:
            v = cache.get(block)
            if v is None:
                v = coalition_welfare(s, G, block)
                cache[block] = v
            if v is NEG_INF:
                total = NEG_INF
                break
            total += v
        if total is not NEG_INF and total == 62:
            ties += 1
    assert ties == 1, f"criterion 2: {ties} optima"
    assert agent_utility(s, G, grand, 2) == -1
    ir = brute_force_solve(s, G, "ir")
    assert ir.welfare == 60
    assert is_individually_rational(s, G, ir.outcome)
    _pass(2, "welfare optimum 62 is the unique grand coalition, its center sits at -1, "
             "IR optimum is 60")


def test_criterion_3_unstable_ir_optimum():
    G = _fig_c()
    s = ScoringVector((1, 1, -1, -1, -1, -1))
    y_apart = Outcome.from_blocks([[9], list(range(9))])
    pair = Outcome.from_blocks([[2, 9], [0, 1, 3, 4, 5, 6, 7, 8]])
    ir = brute_force_solve(s, G, "ir")
    assert ir.welfare == 48
    assert ir.outcome == y_apart
    ns = brute_force_solve(s, G, "ns")
    assert ns.welfare == 46
    assert ns.outcome == pair
    assert is_nash_stable(s, G, pair)
    dev = find_deviation(s, G, y_apart, "ns")
    assert dev is not None and dev.agent == 2
    assert dev.kind == "to-coalition"
    assert y_apart.coalitions[dev.target] == (9,)
    assert dev.new_utility == 1
    _pass(3, "IR optimum 48 isolates the pendant, NS optimum 46 pairs it with the "
             "path center, and the center deviating to the pendant breaks the former")


@pytest.mark.slow
def test_criterion_4_oracle_equivalence():
    start = time.time()
    rng_check = 0
    for seed in range(200):
        G = random_solver_corpus_instance(seed)
        CORPUS.append((seed, G))
        ntd = nice_decomposition(G)
        tw_fns = {"welfare": solve_tw_welfare, "ir": solve_tw_ir, "ns": solve_tw_ns}
        for vi, s in enumerate(SWEEP_VECTORS):
            for mode in MODES:
                expect = brute_force_solve(s, G, mode)
                ORACLE_CACHE[(seed, vi, mode)] = None if expect is None else expect.welfare
                results = {
                    "twdp": tw_fns[mode](s, G, ntd),
                    "fptdp": solve_fpt(s, G, decomposition=ntd, sz=G.n, mode=mode),
                    "vc": solve_vc(s, G, mode),
                }
                for name, got in results.items():
                    ew = None if expect is None else expect.welfare
                    gw = None if got is None else got.welfare
                    assert ew == gw, (
                        f"criterion 4: {name} seed={seed} s={s} mode={mode} "
                        f"expected {ew} got {gw} edges={G.edges}"
                    )
                    if name != "vc" and got is not None:
                        # the DPs also keep the oracle's canonical tie-break
                        assert got.outcome == expect.outcome, (
                            f"criterion 4: {name} seed={seed} s={s} mode={mode} "
                            f"expected {expect.outcome} got {got.outcome}"
                        )
                    if got is not None:
                        validate_outcome(G, got.outcome)
                        assert social_welfare(s, G, got.outcome) == got.welfare
                        if mode == "ir":
                            assert is_individually_rational(s, G, got.outcome)
                        if mode == "ns":
                            assert is_nash_stable(s, G, got.outcome)
                        rng_check += 1
    elapsed = time.time() - start
    assert elapsed < 600, f"criterion 4: suite took {elapsed:.0f}s (budget 600s)"
    _pass(4, f"200 instances x 4 vectors x 3 modes: twdp, fptdp, vc all match the "
             f"oracle and certify ({rng_check} certified outcomes, {elapsed:.0f}s)")


def _optimal_partitions(s, G, target):
    """All partitions achieving the target welfare, via admissible-block search."""
    n = G.n
    cache: dict = {}

    def block_value(mask):
        v = cache.get(mask)
        if v is None:
            members = [i for i in range(n) if (mask >> i) & 1]
            v = coalition_welfare(s, G, members)
            cache[mask] = v
        return v

    out = []
    chosen: list = []

    def rec(remaining, total):
        if remaining == 0:
            if total == target:
                out.append(
                    Outcome.from_blocks(
                        [[i for i in range(n) if (m >> i) & 1] for m in chosen]
                    )
                )
            return
        vbit = remaining & -remaining
        rest = remaining ^ vbit
        sub = rest
        while True:
            block = sub | vbit
            v = block_value(block)
            if v is not NEG_INF:
                chosen.append(block)
                rec(remaining ^ block, total + v)
                chosen.pop()
            if sub == 0:
                break
            sub = (sub - 1) & rest
    rec(G.full_mask, 0)
    return out


def test_criterion_5_reduction_round_trip():
    s = ScoringVector((1,))
    colorable_count = 0
    for seed in range(20):
        rng = random.Random(900 + seed)
        n_vars = rng.randrange(1, 4)
        n_clauses = max(1, min(rng.randrange(1, 4), 4 - n_vars))
        formula = random_nae_formula(n_vars, n_clauses, seed)
        H = nae_to_3ctcg(formula)
        G, b = ctcg_to_sdg(H, s)
        opt = brute_force_solve(s, G, "welfare")
        colorable = is_three_colorable(H.graph)
        assert (opt.welfare >= b) == colorable, f"criterion 5: seed={seed}"
        if colorable:
            colorable_count += 1
            witnesses = _optimal_partitions(s, G, b)
            assert witnesses, f"criterion 5: no witness found at seed={seed}"
            for outcome in witnesses:
                assert is_individually_rational(s, G, outcome)
                assert is_nash_stable(s, G, outcome)
    _pass(5, f"20 formulas: 3-colorability matches target-welfare reachability, "
             f"all witnesses IR and Nash stable ({colorable_count} colorable)")


def test_criterion_6_bound_properties():
    from sdgsolve.bounds import (
        degree_coalition_bound,
        stable_diameter_limit,
        treewidth_coalition_bound,
    )

    # (a) degree bound: all members strictly negative beyond it
    rng = random.Random(60)
    degree_vectors = (ScoringVector((1,)), ScoringVector((1, -3)), ScoringVector((2, -2)))
    checked_a = 0
    graphs = 0
    while graphs < 100:
        n = rng.randrange(6, 12)
        G = random_bounded_degree(n, rng.choice((2, 3, 4)), rng.randrange(1 << 30))
        graphs += 1
        for s in degree_vectors:
            bound = degree_coalition_bound(s, G.max_degree())
            if bound >= n:
                continue
            for size in range(bound + 1, n + 1):
                for block in itertools.combinations(range(n), size):
                    for i in block:
                        assert utility_in_coalition(s, G, block, i) < 0, (
                            f"criterion 6a: {s} block={block} edges={G.edges}"
                        )
                    checked_a += 1
    assert checked_a > 0

    # (b) treewidth bound: negative total beyond it
    tw_vectors = (ScoringVector((1, -1)), ScoringVector((1, -3)), ScoringVector((2, -1)))
    checked_b = 0
    for trial in range(60):
        n = rng.randrange(6, 12)
        G = random_partial_ktree(n, rng.choice((1, 2)), rng.randrange(1 << 30))
        tw = exact_treewidth(G)
        for s in tw_vectors:
            bound = treewidth_coalition_bound(s, max(tw, 1))
            if bound >= n:
                continue
            for size in range(bound + 1, n + 1):
                for block in itertools.combinations(range(n), size):
                    assert coalition_welfare(s, G, block) < 0, (
                        f"criterion 6b: {s} block={block} edges={G.edges}"
                    )
                    checked_b += 1
    assert checked_b > 0

    # (c) stable diameter: any outcome with an over-wide coalition fails IR
    open_vectors = (
        ScoringVector((1, -1), tail="open"),
        ScoringVector((1, 0, -1), tail="open"),
        ScoringVector((2, -1), tail="open"),
    )
    from sdgsolve.core import coalition_diameter

    checked_c = 0
    for s in open_vectors:
        limit = stable_diameter_limit(s)
        for trial in range(30):
            n = limit + 2 + rng.randrange(5)
            if trial % 3 == 0:
                # a bare path always exceeds the limit
                G = SocialNetwork(n, [(i, i + 1) for i in range(n - 1)])
            else:
                G = random_bounded_degree(n, rng.choice((2, 3)), rng.randrange(1 << 30))
            candidates = [tuple(range(n))]
            dist = G.distances_in(G.full_mask, 0)
            far = max(dist, key=lambda v: dist[v])
            dist2 = G.distances_in(G.full_mask, far)
            far2 = max(dist2, key=lambda v: dist2[v])
            # walk a shortest path between the two most distant agents
            path = [far2]
            while path[-1] != far:
                for u in G.adj[path[-1]]:
                    if dist2.get(u, -1) == dist2[path[-1]] - 1:
                        path.append(u)
                        break
            candidates.append(tuple(path))
            # grow the extremal path into wider over-limit coalitions
            if len(path) > limit + 1:
                extra = set(path)
                for v in sorted(G.adj[path[len(path) // 2]]):
                    extra.add(v)
                candidates.append(tuple(extra))
            for block in candidates:
                diam = coalition_diameter(G, block)
                if diam is NEG_INF or diam <= limit:
                    continue
                worst = min(utility_in_coalition(s, G, block, i) for i in block)
                assert worst < 0, f"criterion 6c: {s} block={block} edges={G.edges}"
                checked_c += 1
    assert checked_c >= 30
    _pass(6, f"bound properties hold with zero violations "
             f"({checked_a} degree, {checked_b} treewidth, {checked_c} diameter checks)")


def test_criterion_7_stability_logic():
    if not ORACLE_CACHE:
        pytest.skip("criterion 4 must run first in the same session")
    gaps = 0
    for (seed, vi, mode), welfare in sorted(ORACLE_CACHE.items()):
        if mode != "welfare":
            continue
        ir = ORACLE_CACHE[(seed, vi, "ir")]
        ns = ORACLE_CACHE[(seed, vi, "ns")]
        assert ir is not None
        assert welfare >= ir, f"criterion 7: seed={seed} welfare<{ir}"
        if ns is not None:
            assert ir >= ns, f"criterion 7: seed={seed} ir<{ns}"
            if welfare > ir or ir > ns:
                gaps += 1
    # NS implies IR on random outcomes of the corpus
    rng = random.Random(7)
    for seed, G in CORPUS[:50]:
        s = SWEEP_VECTORS[seed % len(SWEEP_VECTORS)]
        blocks: dict = {}
        for i in range(G.n):
            blocks.setdefault(rng.randrange(1 + G.n // 2), []).append(i)
        outcome = Outcome.from_blocks(blocks.values())
        if is_nash_stable(s, G, outcome):
            assert is_individually_rational(s, G, outcome)
    # strict gaps from the two reference networks
    s6 = ScoringVector((1, 1, -1, -1, -1, -1))
    assert brute_force_solve(s6, _fig_b(), "welfare").welfare == 62
    assert brute_force_solve(s6, _fig_b(), "ir").welfare == 60
    assert brute_force_solve(s6, _fig_c(), "ir").welfare == 48
    assert brute_force_solve(s6, _fig_c(), "ns").welfare == 46
    _pass(7, f"mode ordering and NS=>IR hold across the corpus ({gaps} instances "
             f"with strict gaps), reference gaps 62>60 and 48>46 reproduced")


def _brute_force_treewidth(G: SocialNetwork) -> int:
    n = G.n
    best = n
    for order in itertools.permutations(range(n)):
        adj = [set(G.adj[v]) for v in range(n)]
        width = 0
        alive = set(range(n))
        for v in order:
            neigh = adj[v] & alive
            width = max(width, len(neigh))
            if width >= best:
                break
            for u in neigh:
                adj[u] |= neigh - {u}
                adj[u].discard(v)
            alive.discard(v)
        best = min(best, width)
    return best


def test_criterion_8_decomposition_toolchain():
    rng = random.Random(88)
    graphs = [_fig_a()]
    for _ in range(10):
        n = rng.randrange(4, 8)
        graphs.append(random_partial_ktree(n, rng.choice((1, 2, 3)), rng.randrange(1 << 30)))
    graphs.append(random_bounded_degree(8, 3, 5))
    graphs.append(random_partial_ktree(8, 2, 17))
    exact_checked = 0
    for G in graphs:
        if G.n <= 8:
            assert exact_treewidth(G) == _brute_force_treewidth(G), f"criterion 8: {G.edges}"
            exact_checked += 1
        td = compute_decomposition(G)
        ntd = make_nice(td)
        result = validate_nice(G, ntd)
        assert result == td.width(), f"criterion 8: nice form invalid for {G.edges}"
    _pass(8, f"exact widths verified against order enumeration on {exact_checked} graphs; "
             f"all nice decompositions pass validity and shape checks")
