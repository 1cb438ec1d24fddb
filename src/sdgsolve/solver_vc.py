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

One ``solve_vc`` call builds the classes, one ``CoalitionEvaluator`` and each
cover part's connected declarations with their quotient distance tables once;
the structures carry their tables.  Every program works against one incumbent
(welfare, outcome key) for the whole solve: a candidate below it is never
materialized, and a tie goes to the smaller key (``SocialNetwork.edge_key``).
``_materialize`` gives the smallest-key outcome of a (structure, assignment),
and that is exact because the members of a class are false twins: any
permutation of them is an automorphism of the network, so which members fill
a part changes neither welfare nor stability, only which edges are inside a
coalition.  Every coalition of a structure is connected, so the best key
decodes to the outcome, the smallest-key optimum that brute force returns.
"""

from dataclasses import dataclass
from itertools import product
from typing import Iterator, Optional

from .core import (
    NEG_INF,
    CoalitionEvaluator,
    Outcome,
    ResourceLimitError,
    ScoringVector,
    SocialNetwork,
    SolveResult,
    check_mode,
    iter_bits,
)
from .dp import self_check
from .stability import first_deviation

DEFAULT_COVER_LIMIT = 25


def compute_vertex_cover(G: SocialNetwork) -> frozenset:
    """A minimum vertex cover by branching on the endpoints of an uncovered
    edge, preferring the lexicographically smallest optimum encountered;
    searched once per graph object.  Raises ResourceLimitError on every call
    when the cover is above ``DEFAULT_COVER_LIMIT``."""
    cover = G.structure.get("cover")
    if cover is None:
        cover = G.structure["cover"] = _minimum_cover(G)
    if len(cover) > DEFAULT_COVER_LIMIT:
        raise ResourceLimitError(
            f"minimum vertex cover has {len(cover)} agents, above the {DEFAULT_COVER_LIMIT} limit"
        )
    return cover


def _minimum_cover(G: SocialNetwork) -> frozenset:
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
    return frozenset(best[0] or ())


@dataclass(frozen=True)
class CoverStructure:
    """A partition of the cover plus, per part, the declared classes and the
    part's ``_quotient_distances`` table."""

    parts: tuple[tuple[int, ...], ...]
    declared: tuple[tuple[frozenset, ...], ...]
    tables: tuple[list[list[int]], ...]


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
    more parts than it has members.  Each part's connected declarations and
    their tables are built once, the first time the part comes up."""
    class_map = neighborhood_classes(G, cover)
    class_list = sorted(class_map, key=sorted)
    options: dict[tuple[int, ...], list] = {}

    def part_options(part):
        if part not in options:
            eligible = [w for w in class_list if w & set(part)]
            options[part] = []
            for bits in range(1 << len(eligible)):
                decl = tuple(w for j, w in enumerate(eligible) if (bits >> j) & 1)
                dist = _quotient_distances(G, part, decl)
                if not any(None in row for row in dist):  # else a disconnected coalition
                    options[part].append((decl, dist))
        return options[part]

    for raw in _set_partitions(sorted(cover)):
        parts = sorted(tuple(sorted(p)) for p in raw)

        def rec(i: int, chosen: list, used: dict):
            if i == len(parts):
                decls = tuple(decl for decl, _ in chosen)
                yield CoverStructure(tuple(parts), decls, tuple(dist for _, dist in chosen))
                return
            for decl, dist in part_options(parts[i]):
                if any(used.get(w, 0) + 1 > len(class_map[w]) for w in decl):
                    continue
                for w in decl:
                    used[w] = used.get(w, 0) + 1
                yield from rec(i + 1, chosen + [(decl, dist)], used)
                for w in decl:
                    used[w] -= 1

        yield from rec(0, [], {})


def _materialize(G, structure, classes, assignment) -> list[int]:
    """Member bitmasks of every coalition of the structure under the
    assignment, singletons included, with each class's members placed to
    give the smallest outcome key.  A class's members differ only in their
    edges' key bits, and for each cover agent a smaller member's edge is the
    more significant, so the smallest members stay spare and the rest are
    placed by ``_place``."""
    blocks = [G.mask_of(part) for part in structure.parts]
    for w, members in classes.items():
        where = [pi for pi, decl in enumerate(structure.declared) if w in decl]
        if not where:
            continue
        need = [assignment[pi, w] for pi in where]
        placed = members[len(members) - sum(need):]
        for m, i in zip(placed, _place(G, placed, [structure.parts[pi] for pi in where], need)):
            blocks[where[i]] |= 1 << m
    covered = sum(blocks)
    return blocks + [1 << a for a in range(G.n) if not covered >> a & 1]


def _place(G, members, parts, need) -> list[int]:
    """For each of a class's ``members``, the index of its part in ``parts``,
    part i taking ``need[i]`` of them, with the smallest key.  A greedy over
    the members' edges into the parts, most significant first, forbids
    ``member -> part`` whenever a full placement remains (Hall's condition:
    the members confined to any set of parts fit its quota), so the earliest
    edge that can stay out of the key does."""
    full = (1 << len(parts)) - 1
    allowed = dict.fromkeys(members, full)
    part_of = {u: i for i, part in enumerate(parts) for u in part}

    def placeable():
        return all(
            sum(1 for a in allowed.values() if not a & ~T) <= sum(need[i] for i in iter_bits(T))
            for T in range(1, full)
        )

    # (edge, member, part index), in the edges' rank order
    edges = sorted(((min(m, u), max(m, u)), m, part_of[u]) for m in members for u in G.adj[m] if u in part_of)
    for _, m, i in edges:
        bit = 1 << i
        if allowed[m] & bit and allowed[m] != bit:
            allowed[m] ^= bit
            if not placeable():
                allowed[m] |= bit
    return [allowed[m].bit_length() - 1 for m in members]


def _compositions(total: int, k: int):
    """Tuples of k positive counts summing to at most ``total``."""
    if k == 0:
        yield ()
        return
    for first in range(1, total - k + 2):
        for rest in _compositions(total - first, k - 1):
            yield (first,) + rest


def solve_qp(s, G, mode, structure, classes, ev, best):
    """Search one structure's assignments against the incumbent ``best``, a
    (welfare, outcome key) pair or None.  Welfare is a constant plus linear terms
    per (part, class) count, a same-class term score(2) per ordered pair and
    cross terms per pair of counts in one part, all read from the tables.
    Returns the new incumbent, or None when the structure does not improve
    on ``best``; stability is checked only on a candidate that would."""
    score, s2 = s.score, s.score(2)
    const, lin, cross = 0, {}, []
    for pi, (part, decl, dist) in enumerate(zip(structure.parts, structure.declared, structure.tables)):
        np_ = len(part)
        const += sum(2 * score(dist[i][j]) for i in range(np_) for j in range(i + 1, np_))
        for a, w in enumerate(decl):
            lin[(pi, w)] = sum(2 * score(dist[i][np_ + a]) for i in range(np_))
            for b in range(a + 1, len(decl)):
                cross.append(((pi, w), (pi, decl[b]), 2 * score(dist[np_ + a][np_ + b])))
    if NEG_INF in (const, *lin.values(), *(c for *_, c in cross)):
        return None  # a pair beyond a closed tail's cutoff in every assignment
    slots: dict[frozenset, list[int]] = {}
    for pi, decl in enumerate(structure.declared):
        for w in decl:
            slots.setdefault(w, []).append(pi)
    slot_list = sorted(slots, key=sorted)
    # with score(2) = NEG_INF, two members of a class never share a part
    counts = [
        list(_compositions(len(slots[w]) if s2 == NEG_INF else len(classes[w]), len(slots[w])))
        for w in slot_list
    ]
    incumbent = best
    for combo in product(*counts):
        assignment = {(pi, w): x for w, xs in zip(slot_list, combo) for pi, x in zip(slots[w], xs)}
        value = const
        for key, c in lin.items():
            x = assignment[key]
            value += c * x + (s2 * x * (x - 1) if x > 1 else 0)
        for k1, k2, c in cross:
            value += c * assignment[k1] * assignment[k2]
        if best is not None and value < best[0]:
            continue
        masks = _materialize(G, structure, classes, assignment)
        key = sum(map(G.edge_key, masks))  # disjoint coalitions' keys share no bit
        if best is not None and value == best[0] and key >= best[1]:
            continue
        if mode != "welfare" and first_deviation(ev, masks, mode) is not None:
            continue
        best = (value, key)
    return None if best is incumbent else best


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
    classes = neighborhood_classes(G, cover)
    ev = CoalitionEvaluator(s, G)
    best: Optional[tuple[int, int]] = None
    for structure in enumerate_structures(G, cover):
        best = solve_qp(s, G, mode, structure, classes, ev, best) or best
    if best is None:
        return None
    welfare, key = best
    outcome = G.outcome_of_key(key)
    self_check(s, G, mode, welfare, outcome, "vc")
    return SolveResult(outcome, welfare, mode, True, "vc")
