"""Vertex-cover-parameterized solver: branch over coalition structures on a
minimum cover, group the remaining agents by neighborhood, and solve a small
integer program per structure.

Agents outside a vertex cover form an independent set, so they split into
classes by their (cover-subset) neighborhood, and members of one class are
interchangeable.  A structure fixes a partition of the cover and, per part,
which classes place at least one member there; that already determines every
intra-coalition distance.  The per-structure program chooses how many members
of each class go to each declaring part (at least one each, leftovers stay
singletons) to maximize welfare subject to the mode's stability constraints,
by exhaustive search over the tiny variable space.

A class may be declared in any part containing at least one of its
neighbors.  Requiring the whole neighborhood inside the part would lose
optima whenever a minimum cover splits a class's neighborhood across parts.
"""

from dataclasses import dataclass
from typing import Iterator, Optional

from .core import (
    NEG_INF,
    Outcome,
    ResourceLimitError,
    ScoringVector,
    SocialNetwork,
    SolveResult,
    check_mode,
)
from .dp import self_check
from .stability import is_individually_rational, is_nash_stable

DEFAULT_COVER_LIMIT = 25


def compute_vertex_cover(G: SocialNetwork) -> frozenset:
    """A minimum vertex cover by branching on the endpoints of an uncovered
    edge, preferring the lexicographically smallest optimum encountered."""
    edges = G.edges
    best: list = [None]

    def search(chosen: set):
        if best[0] is not None and len(chosen) >= len(best[0]):
            return
        edge = None
        for u, v in edges:
            if u not in chosen and v not in chosen:
                edge = (u, v)
                break
        if edge is None:
            cand = tuple(sorted(chosen))
            if (
                best[0] is None
                or len(cand) < len(best[0])
                or (len(cand) == len(best[0]) and cand < best[0])
            ):
                best[0] = cand
            return
        u, v = edge
        search(chosen | {u})
        search(chosen | {v})

    search(set())
    cover = best[0] if best[0] is not None else ()
    if len(cover) > DEFAULT_COVER_LIMIT:
        raise ResourceLimitError(
            f"minimum vertex cover has {len(cover)} agents, above the {DEFAULT_COVER_LIMIT} limit"
        )
    return frozenset(cover)


@dataclass(frozen=True)
class CoverStructure:
    """A partition of the cover plus, per part, the declared classes."""

    parts: tuple[tuple[int, ...], ...]
    declared: tuple[tuple[frozenset, ...], ...]

    def cover(self) -> frozenset:
        return frozenset(u for p in self.parts for u in p)


def neighborhood_classes(G: SocialNetwork, cover: frozenset) -> dict[frozenset, list[int]]:
    """Non-cover agents grouped by neighborhood; the empty class is excluded
    (agents without neighbors can only ever be singletons)."""
    out: dict[frozenset, list[int]] = {}
    for v in range(G.n):
        if v in cover:
            continue
        w = frozenset(G.adj[v])
        if w:
            out.setdefault(w, []).append(v)
    return out


def _set_partitions(items: list) -> Iterator[list[list]]:
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in _set_partitions(rest):
        for i in range(len(partition)):
            yield partition[:i] + [[first] + partition[i]] + partition[i + 1 :]
        yield [[first]] + partition


def _quotient_distances(G, part, declared):
    """Distance matrix over the part's cover agents (first) and one
    representative per declared class (after); None marks unreachable."""
    verts = list(part) + [("rep", i) for i in range(len(declared))]
    index = {v: i for i, v in enumerate(verts)}
    adj = [set() for _ in verts]
    for i, u in enumerate(part):
        for v in part[i + 1 :]:
            if G.has_edge(u, v):
                adj[index[u]].add(index[v])
                adj[index[v]].add(index[u])
    for i, w in enumerate(declared):
        r = index[("rep", i)]
        for u in w:
            if u in index:
                adj[r].add(index[u])
                adj[index[u]].add(r)
    m = len(verts)
    dist = [[None] * m for _ in range(m)]
    for src in range(m):
        dist[src][src] = 0
        frontier = [src]
        d = 0
        while frontier:
            d += 1
            nxt = []
            for v in frontier:
                for u in adj[v]:
                    if dist[src][u] is None:
                        dist[src][u] = d
                        nxt.append(u)
            frontier = nxt
    return dist


def enumerate_structures(G: SocialNetwork, cover: frozenset) -> Iterator[CoverStructure]:
    """All admissible structures: every declared class has a neighbor inside
    its part, the part's quotient is connected, and no class is declared in
    more parts than it has members."""
    class_map = neighborhood_classes(G, cover)
    class_list = sorted(class_map, key=sorted)
    for raw in _set_partitions(sorted(cover)):
        parts = sorted(tuple(sorted(p)) for p in raw)
        eligible = [[w for w in class_list if w & set(p)] for p in parts]

        def rec(i: int, chosen: list, used: dict):
            if i == len(parts):
                yield CoverStructure(tuple(parts), tuple(chosen))
                return
            for bits in range(1 << len(eligible[i])):
                decl = tuple(w for j, w in enumerate(eligible[i]) if (bits >> j) & 1)
                if any(used.get(w, 0) + 1 > len(class_map[w]) for w in decl):
                    continue
                dist = _quotient_distances(G, parts[i], decl)
                if any(None in row for row in dist):
                    continue  # disconnected coalition
                for w in decl:
                    used[w] = used.get(w, 0) + 1
                yield from rec(i + 1, chosen + [decl], used)
                for w in decl:
                    used[w] -= 1

        yield from rec(0, [], {})


@dataclass(frozen=True)
class QuadraticProgram:
    """Welfare objective and stability constraints for one cover structure.

    Variables x[(part, class)] >= 1 count the class members assigned to that
    part; per class, the assignments plus a singleton slack sum to the class
    size.  The objective is quadratic in x (same-class members contribute
    score(2) per ordered pair), the stability constraints linear; both are
    evaluated exactly during the search."""

    structure: CoverStructure
    class_sizes: tuple[tuple[frozenset, int], ...]
    scoring: ScoringVector
    mode: str


def _objective(s, structure, tables, assignment):
    """Welfare under the assignment, or NEG_INF when a scored pair lies
    beyond a closed tail's cutoff (enumerated structures are connected)."""
    score = s.score
    total = 0
    s2 = score(2)
    for pi, (part, decl) in enumerate(zip(structure.parts, structure.declared)):
        dist = tables[pi]
        np_ = len(part)
        counts = [assignment[(pi, w)] for w in decl]
        for i in range(np_):
            for j in range(i + 1, np_):
                sc = score(dist[i][j])
                if sc is NEG_INF:
                    return NEG_INF
                total += 2 * sc
            for a, x in enumerate(counts):
                sc = score(dist[i][np_ + a])
                if sc is NEG_INF:
                    return NEG_INF
                total += 2 * sc * x
        for a, x in enumerate(counts):
            if x >= 2:
                if s2 is NEG_INF:
                    return NEG_INF
                total += s2 * x * (x - 1)
            for b in range(a + 1, len(counts)):
                sc = score(dist[np_ + a][np_ + b])
                if sc is NEG_INF:
                    return NEG_INF
                total += 2 * sc * x * counts[b]
    return total


def _materialize(G, structure, assignment) -> Outcome:
    """Concrete outcome: class members (ascending) fill their part quotas in
    part order; leftovers and isolated agents become singletons."""
    blocks = [list(part) for part in structure.parts]
    class_members = neighborhood_classes(G, structure.cover())
    singles = []
    for w, members in sorted(class_members.items(), key=lambda kv: sorted(kv[0])):
        cursor = 0
        for pi, decl in enumerate(structure.declared):
            if w in decl:
                x = assignment[(pi, w)]
                blocks[pi].extend(members[cursor : cursor + x])
                cursor += x
        singles.extend(members[cursor:])
    used = set(u for b in blocks for u in b) | set(singles)
    isolated = [v for v in range(G.n) if v not in used]
    return Outcome.from_blocks(
        blocks + [[v] for v in singles] + [[v] for v in isolated]
    )


def solve_qp(qp: QuadraticProgram, G: SocialNetwork) -> Optional[tuple[int, dict, Outcome]]:
    """Best feasible assignment for one structure: exhaustive search over
    per-class compositions; stability is checked on the materialized outcome
    only when the candidate improves on the best so far."""
    s, mode, structure = qp.scoring, qp.mode, qp.structure
    sizes = dict(qp.class_sizes)
    tables = [
        _quotient_distances(G, part, decl)
        for part, decl in zip(structure.parts, structure.declared)
    ]
    slots: dict[frozenset, list[int]] = {}
    for pi, decl in enumerate(structure.declared):
        for w in decl:
            slots.setdefault(w, []).append(pi)
    slot_list = sorted(slots, key=sorted)

    best: Optional[tuple[int, dict, Outcome]] = None

    def compositions(total: int, k: int):
        if k == 0:
            yield ()
            return
        for first in range(1, total - k + 2):
            for rest in compositions(total - first, k - 1):
                yield (first,) + rest

    def rec(i: int, assignment: dict):
        nonlocal best
        if i == len(slot_list):
            value = _objective(s, structure, tables, assignment)
            if value == NEG_INF:
                return
            if best is not None and value <= best[0]:
                return
            outcome = _materialize(G, structure, assignment)
            if mode == "ir" and not is_individually_rational(s, G, outcome):
                return
            if mode == "ns" and not is_nash_stable(s, G, outcome):
                return
            best = (value, dict(assignment), outcome)
            return
        w = slot_list[i]
        for combo in compositions(sizes[w], len(slots[w])):
            for pi, x in zip(slots[w], combo):
                assignment[(pi, w)] = x
            rec(i + 1, assignment)
        for pi in slots[w]:
            assignment.pop((pi, w), None)

    rec(0, {})
    return best


def solve_vc(
    s: ScoringVector,
    G: SocialNetwork,
    mode: str = "welfare",
) -> Optional[SolveResult]:
    """Optimum over all structures on a minimum vertex cover.  Closed and
    open tails both work: coalition distances never exceed twice the cover
    size, so the tail only changes score values."""
    check_mode(mode)
    cover = compute_vertex_cover(G)
    if not cover:
        return SolveResult(Outcome.singletons(G.n), 0, mode, True, "vc")
    class_map = neighborhood_classes(G, cover)
    class_sizes = tuple(
        sorted(((w, len(m)) for w, m in class_map.items()), key=lambda kv: sorted(kv[0]))
    )
    best: Optional[tuple[int, Outcome, tuple]] = None
    for structure in enumerate_structures(G, cover):
        qp = QuadraticProgram(structure, class_sizes, s, mode)
        solved = solve_qp(qp, G)
        if solved is None:
            continue
        value, _, outcome = solved
        key = outcome.sort_key()
        if best is None or value > best[0] or (value == best[0] and key < best[2]):
            best = (value, outcome, key)
    if best is None:
        return None
    welfare, outcome, _ = best
    self_check(s, G, mode, welfare, outcome, "vc")
    return SolveResult(outcome, welfare, mode, True, "vc")
