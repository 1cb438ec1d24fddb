#!/usr/bin/env python3
"""Print one SHA-256 per solver over the answers of ``solve`` on a fixed sweep.

The sweep is the acceptance suite's criterion-4 corpus (the 200 instances of
``random_solver_corpus_instance``) x its four closed vectors x the three
modes, plus larger networks where the tables run deep: partial 1-trees of 30
and 60 agents and a partial 2-tree of 20 agents under ``(1,-3)`` and
``(1,0,-1)`` for ``auto`` and ``twdp``, and the 30-agent tree under the open
vector ``(2,-1)`` for ``auto``, ``twdp`` and ``fptdp``, in welfare and IR
modes.

Per algorithm the script hashes ``(welfare, outcome, algorithm, optimal,
size_limited)`` of every answer (``None`` for an NS instance with no stable
outcome, the exception's type and text for a resource or input error) into
``outcomes``, the same without the outcome into ``welfare``, and each
solve's DP table insertions (``Budget.seen``, empty for brute and vc) into
``adds``; ``total_adds`` sums those insertions, and one line per algorithm
and mode sums them per mode, so a change that alters the adds hash can state
how far the tables grew, and in which mode.  The same line sums the
coalitions that ``CoalitionEvaluator`` measures (up to one BFS per
member each), so brute force's and vc's work shows as the DPs' adds do, and
the blocks that brute force's enumeration (``oracle._connected_blocks``)
hands out, so its enumeration work shows next to what it measures, and
the BFS runs (``CoalitionEvaluator.bfs_runs``, summed over every evaluator
a solve makes), so the evaluator's own work shows too.
Two checkouts give the same outcomes hash exactly when every answer is the
same, and the same welfare hash when they differ at most in which optimum
breaks a tie.

    PYTHONPATH=src python3 scripts/outcome_digest.py
    PYTHONPATH=src python3 scripts/outcome_digest.py --expect scripts/outcome_digest.expected

With ``--expect`` the script exits 1 unless every algorithm's outcomes and
welfare hashes equal those of the file, which holds one
``<algo> outcomes=<hash> welfare=<hash>`` line per algorithm.
"""

import argparse
import hashlib
import sys
import time

from sdgsolve import core, dp, oracle
from sdgsolve.core import ResourceLimitError, ScoringVector, UnsupportedInputError
from sdgsolve.dispatch import solve
from sdgsolve.generators import random_partial_ktree, random_solver_corpus_instance

SEEDS = 200
ALGOS = ("auto", "brute", "twdp", "fptdp", "vc")
SWEEP_VECTORS = ((1,), (1, -3), (1, 0, -1), (1, 1, -1, -1, -1, -1))
MODES = ("welfare", "ir", "ns")


def track_budgets():
    """List that collects every Budget made from now on: one per DP solve."""
    budgets = []
    init = dp.Budget.__init__

    def tracked_init(self, *args):
        init(self, *args)
        budgets.append(self)

    dp.Budget.__init__ = tracked_init
    return budgets


def track_measures():
    """One-entry list that counts every coalition a CoalitionEvaluator
    measures from now on."""
    measured = [0]
    measure = core.CoalitionEvaluator._measure

    def counted(self, mask):
        measured[0] += 1
        return measure(self, mask)

    core.CoalitionEvaluator._measure = counted
    return measured


def track_evaluators():
    """List that collects every CoalitionEvaluator made from now on; the BFS
    runs made are the sum of their ``bfs_runs``."""
    made = []
    init = core.CoalitionEvaluator.__init__

    def tracked_init(self, *args):
        init(self, *args)
        made.append(self)

    core.CoalitionEvaluator.__init__ = tracked_init
    return made


def track_blocks():
    """One-entry list that counts every block oracle._connected_blocks
    hands out from now on."""
    handed = [0]
    connected_blocks = oracle._connected_blocks

    def counted(*args):
        blocks = connected_blocks(*args)
        handed[0] += len(blocks)
        return blocks

    oracle._connected_blocks = counted
    return handed


def cases():
    for seed in range(SEEDS):
        G = random_solver_corpus_instance(seed)
        for vec in SWEEP_VECTORS:
            for mode in MODES:
                yield f"seed={seed}", G, ScoringVector(vec), mode, ALGOS
    for n, k in ((30, 1), (60, 1), (20, 2)):
        G = random_partial_ktree(n, k, 0)
        for vec in ((1, -3), (1, 0, -1)):
            for mode in ("welfare", "ir"):
                yield f"ktree({n},{k})", G, ScoringVector(vec), mode, ("auto", "twdp")
    G = random_partial_ktree(30, 1, 0)
    for mode in ("welfare", "ir"):
        yield "ktree(30,1)", G, ScoringVector((2, -1), tail="open"), mode, ("auto", "twdp", "fptdp")


def answer(s, G, mode, algo):
    try:
        result = solve(s, G, mode, algo=algo)
    except (ResourceLimitError, UnsupportedInputError) as exc:
        return ("error", type(exc).__name__, str(exc))
    if result is None:
        return None
    return (result.welfare, result.outcome.coalitions, result.algorithm,
            result.optimal, result.size_limited)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--expect", help="file of expected outcomes and welfare hashes")
    expect = parser.parse_args().expect
    budgets = track_budgets()
    measured = track_measures()
    handed = track_blocks()
    evaluators = track_evaluators()
    outcomes = {algo: hashlib.sha256() for algo in ALGOS}
    welfares = {algo: hashlib.sha256() for algo in ALGOS}
    adds = {algo: hashlib.sha256() for algo in ALGOS}
    count = dict.fromkeys(ALGOS, 0)
    mode_adds = {(algo, mode): 0 for algo in ALGOS for mode in MODES}
    mode_measured = {(algo, mode): 0 for algo in ALGOS for mode in MODES}
    mode_blocks = {(algo, mode): 0 for algo in ALGOS for mode in MODES}
    mode_bfs = {(algo, mode): 0 for algo in ALGOS for mode in MODES}
    start = time.perf_counter()
    for label, G, s, mode, algos in cases():
        for algo in algos:
            budgets.clear()
            evaluators.clear()
            before, blocks_before = measured[0], handed[0]
            got = answer(s, G, mode, algo)
            mode_measured[algo, mode] += measured[0] - before
            mode_blocks[algo, mode] += handed[0] - blocks_before
            mode_bfs[algo, mode] += sum(ev.bfs_runs for ev in evaluators)
            item = (label, s.scores, s.tail, mode)
            outcomes[algo].update(repr(item + (got,)).encode())
            if got is not None and got[0] != "error":
                got = got[:1] + got[2:]
            welfares[algo].update(repr(item + (got,)).encode())
            adds[algo].update(repr(item + (tuple(b.seen for b in budgets),)).encode())
            count[algo] += 1
            mode_adds[algo, mode] += sum(b.seen for b in budgets)
    for algo in ALGOS:
        total = sum(mode_adds[algo, mode] for mode in MODES)
        print(f"{algo:6} solves={count[algo]} outcomes={outcomes[algo].hexdigest()} "
              f"welfare={welfares[algo].hexdigest()} adds={adds[algo].hexdigest()} total_adds={total}")
    for algo in ALGOS:
        print(f"{algo:6} " + " ".join(f"{mode}_adds={mode_adds[algo, mode]}" for mode in MODES)
              + " " + " ".join(f"{mode}_measured={mode_measured[algo, mode]}" for mode in MODES)
              + " " + " ".join(f"{mode}_blocks={mode_blocks[algo, mode]}" for mode in MODES)
              + " " + " ".join(f"{mode}_bfs={mode_bfs[algo, mode]}" for mode in MODES))
    print(f"elapsed {time.perf_counter() - start:.1f} s")
    if expect:
        got = {algo: (outcomes[algo].hexdigest(), welfares[algo].hexdigest()) for algo in ALGOS}
        wanted = {}
        with open(expect) as f:
            for line in f:
                algo, out, wel = line.split()
                wanted[algo] = (out.removeprefix("outcomes="), wel.removeprefix("welfare="))
        wrong = [algo for algo in ALGOS if got[algo] != wanted.get(algo)]
        if wrong:
            print(f"outcomes or welfare hash differs from {expect}: {', '.join(wrong)}", file=sys.stderr)
            sys.exit(1)


if __name__ == "__main__":
    main()
