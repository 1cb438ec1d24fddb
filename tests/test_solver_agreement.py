"""Cross-solver agreement beyond the oracle, and search budgets."""

import random

import pytest

from sdgsolve import solver_twdp
from sdgsolve.core import ResourceLimitError, ScoringVector
from sdgsolve.generators import random_solver_corpus_instance
from sdgsolve.solver_fptdp import solve_fpt
from sdgsolve.solver_twdp import solve_tw_ir, solve_tw_ns, solve_tw_welfare
from sdgsolve.treedecomp import nice_decomposition

from conftest import random_connected_graph, record_budgets


@pytest.mark.parametrize("seed", range(8))
def test_fpt_with_full_size_equals_twdp(seed):
    rng = random.Random(500 + seed)
    n = rng.randrange(3, 8)
    G = random_connected_graph(n, rng)
    ntd = nice_decomposition(G)
    s = [ScoringVector((1, -3)), ScoringVector((1, 0, -1))][seed % 2]
    for mode, tw_fn in (
        ("welfare", solve_tw_welfare),
        ("ir", solve_tw_ir),
        ("ns", solve_tw_ns),
    ):
        a = tw_fn(s, G, ntd)
        b = solve_fpt(s, G, decomposition=ntd, sz=n, mode=mode)
        aw = None if a is None else a.welfare
        bw = None if b is None else b.welfare
        assert aw == bw
        if a is not None:
            assert a.outcome == b.outcome


@pytest.mark.parametrize("seed", range(30))
def test_twdp_and_fptdp_run_one_ns_dp(seed, monkeypatch):
    """twdp and fptdp are one DP in every mode, under closed tails and an
    open one: the same cap, the same keys, so the same outcome and the same
    table insertions."""
    budgets = record_budgets(monkeypatch)
    G = random_solver_corpus_instance(seed)
    for scores, tail in (((1,), "closed"), ((1, -3), "closed"), ((1, 0, -1), "closed"),
                         ((1, 1, -1, -1, -1, -1), "closed"), ((2, -1), "open")):
        s = ScoringVector(scores, tail)
        for mode, solve_tw in (("welfare", solve_tw_welfare), ("ir", solve_tw_ir), ("ns", solve_tw_ns)):
            budgets.clear()
            tw = solve_tw(s, G)
            fpt = solve_fpt(s, G, mode=mode)
            where = f"seed={seed} {s} {mode}"
            assert (tw is None) == (fpt is None), where
            if tw is not None:
                assert (tw.welfare, tw.outcome) == (fpt.welfare, fpt.outcome), where
            assert len(budgets) == 2 and budgets[0].seen == budgets[1].seen, where


def test_record_budget_respected_on_small_instances(monkeypatch):
    # the treewidth DP's record count stays modest on width-bounded inputs
    monkeypatch.setattr(solver_twdp, "DEFAULT_RECORD_BUDGET", 200_000)
    rng = random.Random(1)
    for _ in range(6):
        G = random_connected_graph(rng.randrange(4, 8), rng)
        solve_tw_welfare(ScoringVector((1, 0, -1)), G)


def test_budget_exhaustion_raises(monkeypatch):
    monkeypatch.setattr(solver_twdp, "DEFAULT_RECORD_BUDGET", 10)
    rng = random.Random(2)
    G = random_connected_graph(7, rng, extra_edge_prob=2.0)
    with pytest.raises(ResourceLimitError):
        solve_tw_welfare(ScoringVector((1, 1, -1, -1, -1, -1)), G)
