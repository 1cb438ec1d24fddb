"""Treewidth dynamic programs over a nice tree decomposition (closed tails).

Welfare and IR modes run a compressed leaf-to-root DP.  A record's state is
``(parts, promises, cells)``:

* ``parts`` is the sorted tuple of bag parts: each is the member bitmask of
  one coalition's agents in the bag (``b & bag`` of a witness block ``b``);
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
    grow_block,
    merge_blocks,
    part_index,
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


def _realized(w, b, part, promises, cells) -> bool:
    """Whether known structure realizes the commitment between members w and
    b of ``part`` without their own virtual edge: a real edge, a route through
    a tallied forgotten member, or one through a third member.  In a
    consistent record no route is shorter, and a route of more hops is no
    shorter than the two-hop route through its first member."""
    d = promises[_pkey(w, b)]
    if d == 1:
        return True
    i = (part & ((1 << w) - 1)).bit_count()
    j = (part & ((1 << b) - 1)).bit_count()
    if any(c[0] == part and c[1][i] + c[1][j] == d for c in cells):
        return True
    return any(
        promises[_pkey(w, t)] + promises[_pkey(t, b)] == d
        for t in iter_bits(part & ~(1 << w | 1 << b))
    )


def _sig(parts, promises, cells):
    return tuple(sorted(parts)), tuple(sorted(promises.items())), tuple(sorted(cells))


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
        table.add(((), (), ()), 0, ())
        return table

    def introduce(node, child):
        table = WitnessTable(budget)
        a = node.agent
        bit = 1 << a
        # distances in the full network lower-bound every coalition distance
        near = balls.get(a)
        if near is None:
            near = balls[a] = _ball(G, a, cutoff)
        for (parts_c, prom_c, cells_c), (w_c, blocks_c, _, _) in child.data.items():
            table.add((tuple(sorted(parts_c + (bit,))), prom_c, cells_c), w_c, blocks_c + (bit,))
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
                    part = L | bit
                    parts = [part if p == L else p for p in parts_c]
                    pos = (L & (bit - 1)).bit_count()
                    for choice in product(*options):
                        # the grown part stays consistent exactly when every
                        # triangle through a holds
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
                            table.add(_sig(parts, promises, cells), w_c + delta, grow_block(blocks_c, L, a))
        return table

    def forget(node, child):
        table = WitnessTable(budget)
        w = node.agent
        bit = 1 << w
        for (parts_c, prom_c, cells_c), (w_c, blocks_c, _, _) in child.data.items():
            L = next(p for p in parts_c if p & bit)
            rest = L ^ bit
            promises_c = dict(prom_c)
            pos = (L & (bit - 1)).bit_count()
            # every commitment of the forgotten agent must be realized by known
            # structure at this point
            if not all(_realized(w, b, L, promises_c, cells_c) for b in iter_bits(rest)):
                continue
            if ir:
                util = sum(score(promises_c[_pkey(w, b)]) for b in iter_bits(rest))
                util += sum(c[2] * score(c[1][pos]) for c in cells_c if c[0] == L)
            if rest:
                parts = [rest if p == L else p for p in parts_c]
                cells = [(rest, c[1][:pos] + c[1][pos + 1 :]) + c[2:] if c[0] == L else c for c in cells_c]
                vec_w = tuple(promises_c[_pkey(w, b)] for b in iter_bits(rest))
                cells.append((rest, vec_w, 1, util) if ir else (rest, vec_w, 1))
                promises = {p: d for p, d in promises_c.items() if w not in p}
                table.add(_sig(parts, promises, _tally(cells, ir)), w_c, blocks_c)
            else:
                # the coalition completes; only the IR screen remains
                if ir and (util < 0 or any(c[0] == L and c[3] < 0 for c in cells_c)):
                    continue
                parts = tuple(p for p in parts_c if p != L)
                table.add((parts, prom_c, tuple(c for c in cells_c if c[0] != L)), w_c, blocks_c)
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
        bag = G.mask_of(node.bag)
        grouped: dict = {}
        for (parts, prom, cells), (w, blocks, _, _) in right.data.items():
            grouped.setdefault((parts, prom), []).append((_runs(parts, cells), w, blocks))
        for (parts, prom, cells_y), (w_y, blocks_y, _, _) in left.data.items():
            matches = grouped.get((parts, prom))
            if not matches:
                continue
            runs_y = _runs(parts, cells_y)
            # the bag pairs are counted by both sides
            over = 2 * sum(score(d) for _, d in prom)
            at = part_index(blocks_y, bag)
            for runs_z, w_z, blocks_z in matches:
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
                    table.add((parts, prom, cells), w_y + w_z + delta - over, merge_blocks(blocks_y, blocks_z, bag, at))
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
    solved = best_outcome(run_postorder(decomposition, *steps))
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
