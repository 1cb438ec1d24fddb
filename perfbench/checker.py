"""Independent outcome checker for the benchmark.

Nothing here imports the program: utilities come from a breadth-first
search written for this file, and the stability checks and the exhaustive
set-partition search follow the definitions directly.  Minus infinity is the
float ``NEG``; every finite value is a Python int.

An agent's utility in coalition C is the sum over the other members j of
score(d_C(i, j)), where d_C is the shortest-path distance inside the
subgraph induced by C.  Distances past the vector's end score minus infinity
for a closed tail and repeat the last entry for an open one; an unreachable
member always scores minus infinity.
"""

from collections import deque

NEG = float("-inf")
EXHAUSTIVE_LIMIT = 9


class Game:
    """One network (agents 0..n-1) with one scoring vector."""

    def __init__(self, n, edges, scores, tail):
        self.n = n
        self.neighbours = [set() for _ in range(n)]
        for u, v in edges:
            self.neighbours[u].add(v)
            self.neighbours[v].add(u)
        self.scores = tuple(scores)
        self.closed = tail == "closed"
        self._utilities = {}

    def score(self, d):
        if d <= len(self.scores):
            return self.scores[d - 1]
        return NEG if self.closed else self.scores[-1]

    def _bfs(self, members, source):
        dist = {source: 0}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for w in self.neighbours[u]:
                if w in members and w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return dist

    def utilities(self, members):
        """Per-member utility inside the coalition ``members`` (a frozenset)."""
        cached = self._utilities.get(members)
        if cached is None:
            cached = {}
            for i in members:
                dist = self._bfs(members, i)
                if len(dist) < len(members):
                    cached[i] = NEG
                else:
                    cached[i] = sum(self.score(d) for j, d in dist.items() if j != i)
            self._utilities[members] = cached
        return cached

    def welfare(self, blocks):
        return sum(sum(self.utilities(frozenset(b)).values()) for b in blocks)

    def agent_utilities(self, blocks):
        out = [None] * self.n
        for b in blocks:
            for i, u in self.utilities(frozenset(b)).items():
                out[i] = u
        return out

    def ir_violation(self, blocks):
        """An agent with negative utility, or None."""
        for b in blocks:
            for i, u in self.utilities(frozenset(b)).items():
                if u < 0:
                    return i
        return None

    def ns_violation(self, blocks):
        """(agent, target) for a profitable move, or None.  The target is the
        index of the coalition joined, or -1 for leaving to stand alone."""
        sets = [frozenset(b) for b in blocks]
        for own in sets:
            for i, current in self.utilities(own).items():
                if current < 0:
                    return i, -1
                for t, other in enumerate(sets):
                    if other is own or not (self.neighbours[i] & other):
                        continue
                    if self.utilities(other | {i})[i] > current:
                        return i, t
        return None


def partition_error(n, blocks):
    """Why ``blocks`` is not a partition of 0..n-1, or None."""
    seen = set()
    for b in blocks:
        if not b:
            return "empty coalition"
        for a in b:
            if not (isinstance(a, int) and 0 <= a < n):
                return f"agent {a!r} outside 0..{n - 1}"
            if a in seen:
                return f"agent {a} in two coalitions"
            seen.add(a)
    if len(seen) != n:
        return f"agent {min(set(range(n)) - seen)} missing"
    return None


def outcome_errors(game, blocks, welfare, mode):
    """Everything wrong with a claimed (outcome, welfare) in a mode."""
    why = partition_error(game.n, blocks)
    if why is not None:
        return [f"not a partition: {why}"]
    errors = []
    actual = game.welfare(blocks)
    if actual != welfare:
        errors.append(f"claimed welfare {welfare}, evaluator gives {actual}")
    if mode in ("ir", "ns"):
        agent = game.ir_violation(blocks)
        if agent is not None:
            errors.append(f"agent {agent} has negative utility")
    if mode == "ns":
        move = game.ns_violation(blocks)
        if move is not None:
            errors.append(f"agent {move[0]} gains by moving to coalition {move[1]}")
    return errors


def _partitions(n):
    """All set partitions of 0..n-1 as lists of frozensets."""
    blocks = []

    def rec(i):
        if i == n:
            yield [frozenset(b) for b in blocks]
            return
        for b in blocks:
            b.append(i)
            yield from rec(i + 1)
            b.pop()
        blocks.append([i])
        yield from rec(i + 1)
        blocks.pop()

    yield from rec(0)


def exhaustive_optima(game):
    """Best welfare per mode over every partition: {"welfare", "ir", "ns"};
    "ns" is None when no Nash-stable outcome exists."""
    if game.n > EXHAUSTIVE_LIMIT:
        raise ValueError(f"exhaustive search is limited to {EXHAUSTIVE_LIMIT} agents")
    best = {"welfare": None, "ir": None, "ns": None}
    for blocks in _partitions(game.n):
        w = sum(sum(game.utilities(b).values()) for b in blocks)
        if w == NEG:
            continue
        if best["welfare"] is None or w > best["welfare"]:
            best["welfare"] = w
        better_ir = best["ir"] is None or w > best["ir"]
        better_ns = best["ns"] is None or w > best["ns"]
        # a Nash-stable outcome is individually rational, so one IR test serves both
        if not (better_ir or better_ns) or game.ir_violation(blocks) is not None:
            continue
        if better_ir:
            best["ir"] = w
        if better_ns and game.ns_violation(blocks) is None:
            best["ns"] = w
    return best
