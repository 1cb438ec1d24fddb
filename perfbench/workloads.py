"""The benchmark's three workloads: inputs, queries and output checks.

Each workload has a fixed set of base networks.  The run seed relabels the
agents of a base network afresh for every vector in every round (for
cli-tree, for every query), so the program never sees the same labelled
graph twice in a run, while the work a round holds stays comparable from
seed to seed (the cost of two random graphs of one size differs up to
six-fold, far more than a run could average out).

A round is the whole query list of a workload; runs measure whole rounds.
Program functions are looked up on their modules at call time, so the
tracing wrappers see every call.
"""

import contextlib
import io
import json
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import sdgsolve
import sdgsolve.cli
import sdgsolve.generators

from checker import EXHAUSTIVE_LIMIT, Game, exhaustive_optima, outcome_errors

MODES = ("welfare", "ir", "ns")
CLOSED = ((1,), (1, -3), (1, 0, -1), (1, 1, -1, -1, -1, -1))
OPEN = (2, -1)
LONG = (1, 1, -1, -1, -1, -1)


class QueryFailed(Exception):
    pass


@dataclass
class Network:
    """A labelled network as the benchmark keeps it, apart from the program."""

    name: str
    n: int
    edges: tuple

    def relabelled(self, rng):
        perm = list(range(self.n))
        rng.shuffle(perm)
        return Network(self.name, self.n, tuple(sorted(
            (min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in self.edges
        )))

    def program_graph(self):
        return sdgsolve.SocialNetwork(self.n, self.edges)

    def gr_text(self):
        lines = [f"p tw {self.n} {len(self.edges)}"]
        lines += [f"{u + 1} {v + 1}" for u, v in self.edges]
        return "\n".join(lines) + "\n"


def network_of(name, G):
    return Network(name, G.n, tuple(G.edges))


def read_gr(path, name):
    n, edges = None, []
    for line in Path(path).read_text().splitlines():
        parts = line.split()
        if not parts or parts[0] == "c":
            continue
        if parts[0] == "p":
            n = int(parts[2])
        else:
            edges.append((int(parts[0]) - 1, int(parts[1]) - 1))
    return Network(name, n, tuple(sorted(edges)))


@dataclass
class Query:
    base: int
    scores: tuple
    tail: str
    mode: str
    algo: str
    network: Network  # what the program was given, for the checks
    call: Callable
    decode: Callable  # raw return value -> Answer, outside the timed region


@dataclass
class Answer:
    welfare: Optional[int]  # None: no Nash-stable outcome exists
    blocks: list = field(default_factory=list)
    algorithm: str = ""
    report: Optional[dict] = None


def decode_result(result):
    if result is None:
        return Answer(None)
    return Answer(result.welfare, [list(b) for b in result.outcome], result.algorithm)


def solve_query(base, net, G, scores, tail, mode, algo):
    s = sdgsolve.ScoringVector(scores, tail)
    return Query(base, scores, tail, mode, algo, net,
                 lambda: sdgsolve.solve(s, G, mode, algo=algo), decode_result)


class Workload:
    name = ""

    def __init__(self, seed, root):
        self.seed = seed
        self.root = root
        self.bases = []
        self.games = {}

    def rng(self, *key):
        return random.Random("/".join(str(k) for k in (self.name, self.seed) + key))

    def setup(self):
        """Build the base networks and the first round (set-up time)."""
        raise NotImplementedError

    def round(self, r):
        raise NotImplementedError

    # Untimed rounds on the largest network after the timed ones, so that the
    # peak memory is that of the worst labelling, not of the few labellings
    # the timed rounds drew.
    memory_passes = 0

    def memory_queries(self, r):
        largest = max(b.n for b in self.bases)
        return [q for q in self.round(r) if self.bases[q.base].n == largest]

    def game(self, net, scores, tail):
        key = (net.edges, scores, tail)
        if key not in self.games:
            self.games[key] = Game(net.n, net.edges, scores, tail)
        return self.games[key]

    def check(self, done):
        """Errors over the (round, query, answer) triples of a run."""
        raise NotImplementedError

    # shared checks -----------------------------------------------------

    def outcome_checks(self, done):
        errors = []
        for r, q, a in done:
            if a.welfare is None:
                if q.mode != "ns":
                    errors.append(f"{self.label(r, q)}: no outcome outside ns mode")
                continue
            game = self.game(q.network, q.scores, q.tail)
            errors += [f"{self.label(r, q)}: {e}" for e in outcome_errors(game, a.blocks, a.welfare, q.mode)]
        return errors

    def order_checks(self, done):
        """welfare >= IR >= NS optimum for each network and vector."""
        by_key = {}
        for r, q, a in done:
            by_key.setdefault((r, q.base, q.scores, q.tail, q.algo), {})[q.mode] = a.welfare
        errors = []
        for key, values in by_key.items():
            chain = [values[m] for m in MODES if m in values and values[m] is not None]
            if chain != sorted(chain, reverse=True):
                errors.append(f"round {key[0]} base {key[1]} {key[2]}: modes out of order {values}")
        return errors

    def second_algorithm_checks(self, done):
        """A second algorithm of the program confirms each optimum, once per
        (base network, vector, mode), wherever one applies."""
        confirmed = {}
        errors = []
        for r, q, a in done:
            key = (q.base, q.scores, q.tail, q.mode)
            if key not in confirmed:
                confirmed[key] = self.confirm(q, a)
            value = confirmed[key]
            if value is not False and value != a.welfare:
                errors.append(f"{self.label(r, q)}: welfare {a.welfare}, second algorithm gives {value}")
        return errors

    def confirm(self, q, a):
        """Welfare by another algorithm than the one that answered, or False."""
        base = self.bases[q.base]
        G = base.program_graph()
        s = sdgsolve.ScoringVector(q.scores, q.tail)
        first = a.algorithm
        # a minimum cover is searched by branching: only on small networks
        if first != "vc" and base.n <= 16 and len(sdgsolve.compute_vertex_cover(G)) <= 5:
            algo = "vc"
        elif first != "twdp" and q.tail == "closed" and base.n <= 10:
            algo = "twdp"
        elif first != "brute" and base.n <= 10:
            algo = "brute"
        elif first != "fptdp" and q.mode != "ns" and (sdgsolve.select_sz(s, G) or base.n + 1) <= 5:
            algo = "fptdp"
        elif first not in ("brute", "brute-raised") and q.mode == "welfare" and q.tail == "closed" and base.n <= 14:
            result = sdgsolve.brute_force_solve(s, G, "welfare", cap=base.n)
            return result.welfare
        else:
            return False
        result = sdgsolve.solve(s, G, q.mode, algo=algo)
        return None if result is None else result.welfare

    def label(self, r, q):
        return f"round {r} {self.bases[q.base].name} {q.scores}/{q.tail} {q.mode} {q.algo}"


class SweepSmall(Workload):
    """4-8-agent corpus graphs; every (vector, mode) query from every solver."""

    name = "sweep-small"
    SIZES = (4, 5, 6, 7, 8)  # generator seed = agent count
    ALGOS = ("brute", "twdp", "fptdp", "vc")

    def setup(self):
        self.bases = [
            network_of(f"corpus-n{n}", sdgsolve.generators.random_solver_corpus_instance(n, (n, n)))
            for n in self.SIZES
        ]
        return self.round(0)

    def round(self, r):
        queries = []
        for b, base in enumerate(self.bases):
            for v, scores in enumerate(CLOSED + (OPEN,)):
                tail = "open" if scores == OPEN else "closed"
                net = base.relabelled(self.rng(r, b, v))
                G = net.program_graph()  # one object for all of this graph's queries
                for mode in MODES:
                    for algo in self.ALGOS:
                        if algo == "twdp" and tail == "open":
                            continue
                        queries.append(solve_query(b, net, G, scores, tail, mode, algo))
        return queries

    def check(self, done):
        optima = {}
        errors = self.outcome_checks(done) + self.order_checks(done)
        for r, q, a in done:
            key = (q.base, q.scores, q.tail)
            if key not in optima:
                base = self.bases[q.base]
                optima[key] = exhaustive_optima(Game(base.n, base.edges, q.scores, q.tail))
            if a.welfare != optima[key][q.mode]:
                errors.append(f"{self.label(r, q)}: welfare {a.welfare}, exhaustive search gives {optima[key][q.mode]}")
        return errors


class AutoMid(Workload):
    """11-13-agent partial k-trees and bounded-degree graphs under auto dispatch."""

    name = "auto-mid"
    # (family, agents, generator seed).  Nash stability is asked only on the
    # partial 2-trees of at most 12 agents, where every vector finishes
    # within a second; elsewhere one NS query can take minutes.  The long
    # vector runs on partial 2-trees only: on the other two graphs its twdp
    # time swings up to 13-fold with the agent labels alone.
    BASES = (("tw2", 11, 0), ("tw2", 13, 1), ("tw3", 11, 1), ("deg3", 11, 1))
    VECTORS = (((1, -3), "closed"), ((1, 0, -1), "closed"), (LONG, "closed"), (OPEN, "open"))

    def setup(self):
        self.bases = []
        for family, n, seed in self.BASES:
            if family == "deg3":
                G = sdgsolve.generators.random_bounded_degree(n, 3, seed)
            else:
                G = sdgsolve.generators.random_partial_ktree(n, int(family[2]), seed)
            self.bases.append(network_of(f"{family}-n{n}-s{seed}", G))
        return self.round(0)

    def round(self, r):
        queries = []
        for b, (family, n, _) in enumerate(self.BASES):
            modes = MODES if family == "tw2" and n <= 12 else MODES[:2]
            for v, (scores, tail) in enumerate(self.VECTORS):
                if scores == LONG and family != "tw2":
                    continue
                net = self.bases[b].relabelled(self.rng(r, b, v))
                G = net.program_graph()
                for mode in modes:
                    queries.append(solve_query(b, net, G, scores, tail, mode, "auto"))
        return queries

    def check(self, done):
        return self.outcome_checks(done) + self.order_checks(done) + self.second_algorithm_checks(done)


class CliTree(Workload):
    """CLI `solve` on width-1 and width-2 networks and the reference networks,
    one unseen .gr file per query."""

    name = "cli-tree"
    TREES = ((30, 0), (45, 0), (60, 0))  # (agents, generator seed), width 1
    TWO_TREES = ((20, 0), (25, 0), (30, 0))  # width 2
    # one welfare query on the 60-agent tree peaks at 5 to 31 MB of Python
    # heap depending on the labels alone (twdp's tables)
    memory_passes = 4
    OPEN_TREE_LIMIT = 30  # (2,-1) runs on trees up to this size: fptdp, not twdp, answers it
    # the paper's values: fig_a welfare under two vectors, fig_b welfare and
    # IR, fig_c IR and NS
    FIGURES = {
        "fig_a": {(1, 0, -1): {"welfare": 18}, (1, -3): {"welfare": 14}},
        "fig_b": {LONG: {"welfare": 62, "ir": 60}},
        "fig_c": {LONG: {"ir": 48, "ns": 46}},
    }

    def setup(self):
        self.dir = self.root / "perfbench" / "out" / f"{self.name}-inputs"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.bases, self.plan = [], []
        for n, seed in self.TREES:
            self.bases.append(network_of(f"tree-n{n}-s{seed}", sdgsolve.generators.random_partial_ktree(n, 1, seed)))
            vectors = [(v, "closed") for v in CLOSED[:3]]
            if n <= self.OPEN_TREE_LIMIT:
                vectors.append((OPEN, "open"))
            self.plan.append((vectors, MODES[:2]))
        for n, seed in self.TWO_TREES:
            self.bases.append(network_of(f"2tree-n{n}-s{seed}", sdgsolve.generators.random_partial_ktree(n, 2, seed)))
            self.plan.append(([(v, "closed") for v in CLOSED[:2]], MODES[:2]))
        for fig, values in self.FIGURES.items():
            self.bases.append(read_gr(self.root / "tests" / "data" / f"{fig}.gr", fig))
            self.plan.append(([(v, "closed") for v in values], MODES))
        return self.round(0)

    def round(self, r):
        queries = []
        for b, (vectors, modes) in enumerate(self.plan):
            for scores, tail in vectors:
                for mode in modes:
                    k = len(queries)
                    net = self.bases[b].relabelled(self.rng(r, k))
                    path = self.dir / f"r{r}-q{k}.gr"
                    path.write_text(net.gr_text())
                    argv = ["solve", "--graph", str(path), "--scores", ",".join(map(str, scores)),
                            "--tail", tail, "--mode", mode, "--format", "json"]
                    queries.append(Query(b, scores, tail, mode, "auto", net,
                                         lambda argv=argv: run_cli(argv), decode_report))
        return queries

    def check(self, done):
        errors = self.outcome_checks(done) + self.order_checks(done) + self.second_algorithm_checks(done)
        optima = {}
        for r, q, a in done:
            base = self.bases[q.base]
            expected = self.FIGURES.get(base.name, {}).get(q.scores, {}).get(q.mode)
            if expected is not None and a.welfare != expected:
                errors.append(f"{self.label(r, q)}: welfare {a.welfare}, the paper gives {expected}")
            if base.n <= EXHAUSTIVE_LIMIT:
                key = (q.base, q.scores, q.tail)
                if key not in optima:
                    optima[key] = exhaustive_optima(Game(base.n, base.edges, q.scores, q.tail))
                if a.welfare != optima[key][q.mode]:
                    errors.append(f"{self.label(r, q)}: welfare {a.welfare}, exhaustive search gives {optima[key][q.mode]}")
            if a.report is not None:
                errors += [f"{self.label(r, q)}: {e}" for e in self.report_errors(q, a)]
        return errors

    def report_errors(self, q, a):
        game = self.game(q.network, q.scores, q.tail)
        report = a.report
        errors = []
        utilities = [None if u == float("-inf") else u for u in game.agent_utilities(a.blocks)]
        if report["utilities"] != utilities:
            errors.append("reported utilities differ from the evaluator's")
        if report["individually_rational"] != (game.ir_violation(a.blocks) is None):
            errors.append("wrong individually_rational flag")
        if report["nash_stable"] != (game.ns_violation(a.blocks) is None):
            errors.append("wrong nash_stable flag")
        if (report["n"], report["m"]) != (q.network.n, len(q.network.edges)):
            errors.append("wrong network size")
        return errors


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = sdgsolve.cli.main(argv)
    return code, out.getvalue()


def decode_report(raw):
    code, text = raw
    if code == 2:
        return Answer(None)
    if code != 0:
        raise QueryFailed(f"sdgsolve solve exited {code}")
    report = json.loads(text)
    blocks = [[v - 1 for v in block] for block in report["outcome"]]
    return Answer(report["welfare"], blocks, report["algorithm"], report)


WORKLOADS = {w.name: w for w in (SweepSmall, AutoMid, CliTree)}
