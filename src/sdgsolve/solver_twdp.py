"""Treewidth dynamic programs over a nice tree decomposition (closed tails).

Welfare and IR modes run a compressed leaf-to-root DP.  A record's state is
``(parts, promises, cells)``:

* ``parts`` is the sorted tuple of bag parts: each is the member bitmask of
  one coalition's agents in the bag;
* ``promises`` commits, for every pair of agents in the same part, the pair's
  final intra-coalition distance the moment both are in the bag.  A committed
  distance may be guessed below what current structure realizes (the missing
  link will be built by agents introduced later, possibly in a sibling
  branch), but no known structure may undercut it, and when an agent is
  forgotten each of its commitments must be realized exactly by known
  structure - at that point all of its potential shortcuts have been seen;
* each cell ``(part, vec, count)`` tallies the ``count`` forgotten members
  of the coalition whose bag part is ``part`` and whose final distances to
  that part's members, in ascending agent id, are ``vec``.  IR mode adds a
  fourth entry: the worst utility over those members ("critical agents"),
  checked when their coalition completes.

Committed distances and cell entries never exceed the vector's cutoff, so
each member pair's welfare contribution is finite, added exactly once (when
the later of the two is introduced, or at a join for pairs split across
branches) and never revised.

Every record is consistent: on each part the commitments satisfy the
triangle inequality (a real edge is a commitment of 1), and no cell's route
``vec[i] + vec[j]`` through a forgotten member undercuts a commitment.  So
each step checks only what it changes.  Introducing agent a into a part
keeps it consistent exactly when every triangle through a holds,
``|d_b - d_c| <= P(b, c) <= d_b + d_c`` for a's commitments d to members b
and c; a's cell entries, each a minimum of ``vec[b] + d_b``, then undercut
nothing.  Forgetting an agent keeps it too, since its new cell holds its own
commitments.  A join unites two consistent records with the same parts and
commitments, which is consistent again.

A record's cells are sorted and unique per ``(part, vec)``, and each lies in
one of the record's parts, so its cells tuple is one run per part,
concatenated in ascending part order.  A join adds the welfare of every
cross pair of forgotten members, one from each side, and pairs of different
parts never meet; so whether a cross pair lies beyond the cutoff (the pair
of records is dead), the welfare added, the IR worst-utility increments and
the tallied union of one part depend on that part's two runs alone.  The
join splits each record into its runs once, copies a run whose counterpart
is empty, fuses every other pair of runs once per solve (the results are
memoized for the solve's later joins) and concatenates the fused runs: the
record that crossing and tallying all of both sides' cells gives, exactly.

Records that share their parts and promises share every step's work on the
bag, so each step groups its child table by ``(parts, promises)`` first.
Introduce works out once per group each part's candidate distances, the
choices that keep every triangle, their promises and those pairs' welfare,
and per record only updates the cells.  Forget works out once per group the
forgotten agent's part, the new parts and promises, its own cell's vector
and promise utility, and settles each commitment that an edge or a third
member realizes; per record it checks the commitments left against the
cells' routes, trims and tallies the cells and screens IR.  The join matches
the left records against the right table's groups.

A record's witness is its outcome key (``dp``): an introduce into part L adds
the new agent's edges into L, and a join ORs both sides' keys.

NS mode keeps coalitions explicit instead: it runs ``dp.coalition_steps``
keyed by the state itself, as fptdp's NS mode does, so records hold the
member bitmasks of open coalitions and every utility and deviation check runs
on the real induced subgraph when a coalition completes.  Coalitions are
capped by ``select_sz``'s certified size bound (n without one): its premise
rules every larger coalition out of an IR outcome, so a capped state could
never complete Nash stable and the root entry is the one cap n gives.
"""

from itertools import combinations, groupby, product
from operator import itemgetter
from typing import Optional

from .core import (
    CoalitionEvaluator,
    ScoringVector,
    SocialNetwork,
    SolveResult,
    UnsupportedInputError,
    iter_bits,
)
from .dp import (
    Budget,
    WitnessTable,
    best_outcome,
    coalition_steps,
    run_postorder,
    self_check,
)
from .solver_fptdp import select_sz
from .treedecomp import NiceTreeDecomposition, nice_decomposition

_INF = 10**9
DEFAULT_RECORD_BUDGET = 5_000_000


def _pkey(u, v):
    return (u, v) if u < v else (v, u)


def _ball(G, source, radius):
    """Distances in G from ``source`` to the agents at most ``radius`` away."""
    adj = G.adj_mask
    dist = {source: 0}
    seen = frontier = 1 << source
    for d in range(1, radius + 1):
        nxt = 0
        for v in iter_bits(frontier):
            nxt |= adj[v]
        frontier = nxt & ~seen
        if not frontier:
            break
        seen |= frontier
        for v in iter_bits(frontier):
            dist[v] = d
    return dist


def _tally(cells, ir):
    """Tally cells merged per (part, distance vector): counts add up and, in
    IR mode, the worst utility is the minimum of the merged ones."""
    merged: dict = {}
    for cell in cells:
        key = cell[:2]
        if ir:
            count, worst = merged.get(key, (0, _INF))
            merged[key] = (count + cell[2], min(worst, cell[3]))
        else:
            merged[key] = merged.get(key, 0) + cell[2]
    if ir:
        return [k + v for k, v in merged.items()]
    return [k + (v,) for k, v in merged.items()]


def _grouped(table):
    """A table's records grouped by ``(parts, promises)``: the group's
    ``(cells, welfare, key)`` per record.  Every step's work on the bag
    depends on the parts and promises alone, so it runs once per group."""
    groups: dict = {}
    for (parts, prom, cells), (w, key, _) in table.data.items():
        groups.setdefault((parts, prom), []).append((cells, w, key))
    return groups


def _runs(parts, cells):
    """A record's cells split per part: one run for each part of ``parts``,
    in order, empty for a part without cells.  Cells are sorted, so the runs
    concatenate back to ``cells``."""
    by = {p: tuple(run) for p, run in groupby(cells, itemgetter(0))}
    return tuple(by.get(p, ()) for p in parts)


def _compressed_steps(s, G, budget, ir):
    """(leaf, introduce, forget, join) of the welfare DP, or of the IR DP
    when ``ir`` is set, for ``run_postorder``."""
    score = s.score
    cutoff = s.cutoff
    balls: dict[int, dict[int, int]] = {}

    def leaf(node):
        table = WitnessTable(budget)
        table.add(((), (), ()), 0, 0)
        return table

    def introduce(node, child):
        table = WitnessTable(budget)
        a = node.agent
        bit = 1 << a
        # distances in the full network lower-bound every coalition distance
        near = balls.get(a)
        if near is None:
            near = balls[a] = _ball(G, a, cutoff)
        for (parts_c, prom_c), group in _grouped(child).items():
            alone = tuple(sorted(parts_c + (bit,)))
            for cells_c, w_c, key_c in group:
                table.add((alone, prom_c, cells_c), w_c, key_c)
            promises_c = dict(prom_c)
            for L in parts_c:
                mates = list(iter_bits(L))
                # candidate committed distances per new pair
                options = []
                for b in mates:
                    if G.has_edge(a, b):
                        options.append((1,))
                        continue
                    lo = max(2, near.get(b, _INF))
                    if lo > cutoff:
                        break
                    options.append(range(lo, cutoff + 1))
                else:
                    # the grown part stays consistent exactly when every
                    # triangle through a holds; (choice, promises, welfare of
                    # the new pairs) of each choice that keeps them all
                    moves = []
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
                            promises[_pkey(a, b)] = d
                            delta += 2 * score(d)
                        moves.append((choice, tuple(sorted(promises.items())), delta))
                    part = L | bit
                    parts = tuple(sorted(part if p == L else p for p in parts_c))
                    pos = (L & (bit - 1)).bit_count()
                    edges_a = G.edge_key_to(a, L)
                    for cells_c, w_c, key_c in group:
                        key = key_c | edges_a
                        for choice, promises, delta in moves:
                            cells = []
                            for cell in cells_c:
                                if cell[0] != L:
                                    cells.append(cell)
                                    continue
                                vec = cell[1]
                                entry = _INF
                                for e, d in zip(vec, choice):
                                    if e + d < entry:
                                        entry = e + d
                                if entry > cutoff:
                                    break
                                v = score(entry)
                                delta += 2 * cell[2] * v
                                vec = vec[:pos] + (entry,) + vec[pos:]
                                cells.append((part, vec) + ((cell[2], cell[3] + v) if ir else cell[2:]))
                            else:
                                table.add((parts, promises, tuple(sorted(cells))), w_c + delta, key)
        return table

    def forget(node, child):
        table = WitnessTable(budget)
        w = node.agent
        bit = 1 << w
        for (parts_c, prom_c), group in _grouped(child).items():
            L = next(p for p in parts_c if p & bit)
            rest = L ^ bit
            pos = (L & (bit - 1)).bit_count()
            promises_c = dict(prom_c)
            mates = list(iter_bits(rest))
            vec_w = tuple(promises_c[_pkey(w, b)] for b in mates)
            # every commitment of the forgotten agent must be realized by known
            # structure at this point: a real edge or a route through a third
            # member settles it for the whole group, and a route through a
            # tallied forgotten member is left to each record's cells.  In a
            # consistent record no route is shorter, and a route of more hops
            # is no shorter than the two-hop route through its first member.
            unsettled = [
                ((L & ((1 << b) - 1)).bit_count(), d)
                for b, d in zip(mates, vec_w)
                if d > 1
                and not any(promises_c[_pkey(w, t)] + promises_c[_pkey(t, b)] == d for t in mates if t != b)
            ]
            if ir:
                util_w = sum(score(d) for d in vec_w)
            if rest:
                parts = tuple(sorted(rest if p == L else p for p in parts_c))
                promises = tuple(item for item in prom_c if w not in item[0])
            else:
                parts = tuple(p for p in parts_c if p != L)
            for cells_c, w_c, key_c in group:
                run = [c for c in cells_c if c[0] == L]
                if not all(any(c[1][pos] + c[1][j] == d for c in run) for j, d in unsettled):
                    continue
                if ir:
                    util = util_w + sum(c[2] * score(c[1][pos]) for c in run)
                if rest:
                    # only the forgotten agent's part changes; its cells drop
                    # the agent's entry and tally with its own new cell
                    grown = [(rest, c[1][:pos] + c[1][pos + 1 :]) + c[2:] for c in run]
                    grown.append((rest, vec_w, 1, util) if ir else (rest, vec_w, 1))
                    cells = [c for c in cells_c if c[0] != L] + _tally(grown, ir)
                    table.add((parts, promises, tuple(sorted(cells))), w_c, key_c)
                else:
                    # the coalition completes; only the IR screen remains
                    if ir and (util < 0 or any(c[3] < 0 for c in run)):
                        continue
                    table.add((parts, prom_c, tuple(c for c in cells_c if c[0] != L)), w_c, key_c)
        return table

    # (run_y, run_z) -> (delta, fused run), or None when a cross pair of the
    # two runs lies beyond the cutoff; shared by every join of the solve
    fused: dict = {}

    def fuse(run_y, run_z):
        """Cross contributions between two runs of one part, and their
        union tallied and sorted, or None when the pair is dead."""
        delta = 0
        cross_y = [0] * len(run_y)
        cross_z = [0] * len(run_z)
        for i, cy in enumerate(run_y):
            for j, cz in enumerate(run_z):
                best = _INF
                for ey, ez in zip(cy[1], cz[1]):
                    if ey + ez < best:
                        best = ey + ez
                if best > cutoff:
                    return None
                v = score(best)
                delta += 2 * cy[2] * cz[2] * v
                cross_y[i] += cz[2] * v
                cross_z[j] += cy[2] * v
        both = run_y + run_z
        if ir:
            both = [c[:3] + (c[3] + inc,) for inc, c in zip(cross_y + cross_z, both)]
        return delta, tuple(sorted(_tally(both, ir)))

    def join(node, left, right):
        table = WitnessTable(budget)
        grouped = {
            (parts, prom): [(_runs(parts, cells), w, key) for cells, w, key in group]
            for (parts, prom), group in _grouped(right).items()
        }
        for (parts, prom, cells_y), (w_y, key_y, _) in left.data.items():
            matches = grouped.get((parts, prom))
            if not matches:
                continue
            runs_y = _runs(parts, cells_y)
            # the bag pairs are counted by both sides
            over = 2 * sum(score(d) for _, d in prom)
            for runs_z, w_z, key_z in matches:
                # cross contributions pair only cells of one part, so each
                # part's two runs fuse on their own
                delta = 0
                cells = ()
                for run_y, run_z in zip(runs_y, runs_z):
                    if not run_z:
                        cells += run_y
                    elif not run_y:
                        cells += run_z
                    else:
                        try:
                            hit = fused[run_y, run_z]
                        except KeyError:
                            hit = fused[run_y, run_z] = fuse(run_y, run_z)
                        if hit is None:
                            break
                        delta += hit[0]
                        cells += hit[1]
                else:
                    # both sides' records are consistent, and so is their union
                    table.add((parts, prom, cells), w_y + w_z + delta - over, key_y | key_z)
        return table

    return leaf, introduce, forget, join


def _solve_tw(s, G, decomposition, mode) -> Optional[SolveResult]:
    if not s.is_closed:
        raise UnsupportedInputError(
            "the treewidth DP supports closed tails only; use fptdp, vc, or brute"
        )
    if decomposition is None:
        decomposition = nice_decomposition(G)
    records = Budget(
        DEFAULT_RECORD_BUDGET,
        f"treewidth DP exceeded its record budget ({DEFAULT_RECORD_BUDGET})",
    )
    if mode == "ns":
        steps = coalition_steps(CoalitionEvaluator(s, G), records, select_sz(s, G) or G.n, "ns")
    else:
        steps = _compressed_steps(s, G, records, mode == "ir")
    solved = best_outcome(G, run_postorder(decomposition, *steps))
    if solved is None:
        # all-singletons is an IR lineage, so only NS mode can come back empty
        assert mode == "ns"
        return None
    welfare, outcome = solved
    self_check(s, G, mode, welfare, outcome, "twdp")
    return SolveResult(outcome, welfare, mode, True, "twdp")


def solve_tw_welfare(
    s: ScoringVector,
    G: SocialNetwork,
    decomposition: Optional[NiceTreeDecomposition] = None,
) -> SolveResult:
    """Welfare-optimal outcome by dynamic programming over a nice decomposition."""
    return _solve_tw(s, G, decomposition, "welfare")


def solve_tw_ir(
    s: ScoringVector,
    G: SocialNetwork,
    decomposition: Optional[NiceTreeDecomposition] = None,
) -> SolveResult:
    """Maximum-welfare individually rational outcome; tallies carry the worst
    utility over the forgotten agents sharing a distance vector, and records
    whose completed coalition holds a negative-utility agent are dropped."""
    return _solve_tw(s, G, decomposition, "ir")


def solve_tw_ns(
    s: ScoringVector,
    G: SocialNetwork,
    decomposition: Optional[NiceTreeDecomposition] = None,
) -> Optional[SolveResult]:
    """Maximum-welfare Nash-stable outcome, or None when no stable outcome
    exists.  Deviation checks run when a coalition completes: members are
    tested against their best earlier options, and every agent that could
    join the completed coalition is either re-checked (if settled) or has its
    pending best-deviation value raised (if its own coalition is still open)."""
    return _solve_tw(s, G, decomposition, "ns")
