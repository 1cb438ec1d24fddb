"""Treewidth dynamic programs over a nice tree decomposition.

``solve_nice`` is the solve body of twdp and of fptdp, under either tail:
the best outcome whose coalitions have at most ``cap`` members, within one
record budget of ``DEFAULT_RECORD_BUDGET`` table adds.
Welfare and IR modes run a compressed leaf-to-root DP, the record.  A
record's state is ``(parts, promises, cells, links)``:

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
  checked when their coalition completes;
* ``links``, empty unless distances fold (below), splits each part's bag
  members into groups joined by their coalition's edges so far.

Committed distances and cell entries never exceed the reach, so each member
pair's welfare contribution is finite, added exactly once (when the later
of the two is introduced, or at a join for pairs split across branches) and
never revised.  The reach is ``min(cutoff, cap - 1)`` for a closed tail, and
for an open one with ``cap - 1 <= cutoff``; a pair past it (a candidate
distance, a cell entry, a cross pair at a join) kills its record.  No
outcome within the cap is lost: a coalition of finite welfare is connected,
and a connected coalition of at most ``cap`` members has diameter at most
``cap - 1``.

Otherwise distances fold: an open tail scores every distance past its
cutoff alike, so they all become the reach ``cutoff + 1``.  Sums and minima
stay exact below it (``fold(x + y) = fold(fold(x) + fold(y))``), and so do
every check and the welfare.  But an exact commitment is grounded in
strictly shorter ones and a folded one is not: two could realize each other
between agents that no path joins.  So a folded commitment needs no route
at forget, and ``links`` keeps coalitions connected instead.  An introduce
unites the new agent with the groups its edges into its part reach, a join
unites both sides' groups, and a forget drops a record whose agent leaves
its group without another bag member (it gains no edges later, so the
group is cut off).  Every completed coalition is then connected.

A part's size is its bag members plus its cells' counts: every member its
coalition has in the subtree.  Introduce skips a part that already has
``cap`` bag members and drops a record whose grown part exceeds ``cap``,
forget keeps sizes, and a join's fuse kills a pair of runs whose part and
counts exceed ``cap``.  So every record stays within the cap.

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
parts never meet; so whether the pair of records is dead, the welfare
added, the IR worst-utility increments and the tallied union of one part
depend on that part's two runs alone.  The join splits each record into its
runs once, copies a run whose counterpart
is empty, fuses every other pair of runs once per solve (the results are
memoized for the solve's later joins) and concatenates the fused runs: the
record that crossing and tallying all of both sides' cells gives, exactly.

Records that share their parts, promises and links share every step's work
on the bag, so introduce and forget group the child table by them first.
Introduce works out once per group each part's candidate distances, the
choices that keep every triangle, their promises and those pairs' welfare,
and per record only updates the cells.  Forget works out once per group the
forgotten agent's part, the new parts and promises, its own cell's vector
and promise utility, and settles each commitment that an edge or a third
member realizes; per record it checks the commitments left against the
cells' routes, trims and tallies the cells and screens IR.  The join groups
the right side by parts and promises, with the bag pairs' welfare once per
group, and matches each left record against its group.

A record's witness is its outcome key (``dp``): an introduce into part L adds
the new agent's edges into L, and a join ORs both sides' keys.

NS mode keeps coalitions explicit instead: it runs ``dp.coalition_steps``,
so records hold the member bitmasks of open coalitions and every utility and
deviation check runs on the real induced subgraph when a coalition
completes.

twdp caps coalitions by ``select_sz``'s certified bound (n without one),
under a closed tail or an open one; fptdp is the same body under a caller's
cap.  The bound's premise gives every larger coalition negative welfare, so
no such coalition is in a welfare optimum, an IR outcome or an NS one (which
is IR), and the capped answer is the one cap n gives.
"""

from itertools import combinations, groupby, product
from operator import itemgetter
from typing import Optional

from .bounds import select_sz
from .core import (
    CoalitionEvaluator,
    ScoringVector,
    SocialNetwork,
    SolveResult,
    ball_distances,
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
from .treedecomp import NiceTreeDecomposition, nice_decomposition

_INF = 10**9
DEFAULT_RECORD_BUDGET = 5_000_000


def _pkey(u, v):
    return (u, v) if u < v else (v, u)


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
    """A table's records grouped by ``(parts, promises, links)``: the group's
    ``(cells, welfare, key)`` per record.  Every step's work on the bag
    depends on these alone, so it runs once per group."""
    groups: dict = {}
    for (parts, prom, cells, links), (w, key) in table.data.items():
        groups.setdefault((parts, prom, links), []).append((cells, w, key))
    return groups


def _unite(links, more):
    """``links`` with each group of ``more`` added, united with the groups
    it meets; for two partitions of one bag, the groups both sides join."""
    merged = list(links)
    for g in more:
        # the groups g meets are disjoint, so their sum is their union
        merged = [m for m in merged if not m & g] + [g | sum(m for m in merged if m & g)]
    return tuple(sorted(merged))


def _runs(parts, cells):
    """A record's cells split per part: one run for each part of ``parts``,
    in order, empty for a part without cells.  Cells are sorted, so the runs
    concatenate back to ``cells``."""
    by = {p: tuple(run) for p, run in groupby(cells, itemgetter(0))}
    return tuple(by.get(p, ()) for p in parts)


def _compressed_steps(s, G, budget, ir, cap):
    """(leaf, introduce, forget, join) of the welfare DP, or of the IR DP
    when ``ir`` is set, over coalitions of at most ``cap`` members, for
    ``run_postorder``."""
    score = s.score
    fold = not s.is_closed and cap - 1 > s.cutoff
    reach = s.cutoff + 1 if fold else min(s.cutoff, cap - 1)
    # what a distance past the reach becomes: the reach, or dead
    top = reach if fold else _INF
    adj = G.adj_mask
    balls: dict[int, dict[int, int]] = {}

    def leaf(node):
        table = WitnessTable(budget)
        table.add(((), (), (), ()), 0, 0)
        return table

    def introduce(node, child):
        table = WitnessTable(budget)
        a = node.agent
        bit = 1 << a
        # distances in the full network lower-bound every coalition distance
        near = balls.get(a)
        if near is None:
            near = balls[a] = ball_distances(G, a, reach)
        for (parts_c, prom_c, links_c), group in _grouped(child).items():
            alone = tuple(sorted(parts_c + (bit,)))
            links_alone = _unite(links_c, (bit,)) if fold else ()
            for cells_c, w_c, key_c in group:
                table.add((alone, prom_c, cells_c, links_alone), w_c, key_c)
            promises_c = dict(prom_c)
            for L in parts_c:
                if L.bit_count() >= cap:
                    continue
                mates = list(iter_bits(L))
                # candidate committed distances per new pair
                options = []
                for b in mates:
                    if G.has_edge(a, b):
                        options.append((1,))
                        continue
                    lo = max(2, near.get(b, top))
                    if lo > reach:
                        break
                    options.append(range(lo, reach + 1))
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
                    # a's edges into L unite it with the groups they reach
                    links = _unite(links_c, (bit | adj[a] & L,)) if fold else ()
                    for cells_c, w_c, key_c in group:
                        # the grown part's bag members and tallied members
                        if len(mates) + 1 + sum(c[2] for c in cells_c if c[0] == L) > cap:
                            continue
                        key = key_c | edges_a
                        for choice, promises, delta in moves:
                            cells = []
                            for cell in cells_c:
                                if cell[0] != L:
                                    cells.append(cell)
                                    continue
                                vec = cell[1]
                                entry = top
                                for e, d in zip(vec, choice):
                                    if e + d < entry:
                                        entry = e + d
                                if entry > reach:
                                    break
                                v = score(entry)
                                delta += 2 * cell[2] * v
                                vec = vec[:pos] + (entry,) + vec[pos:]
                                cells.append((part, vec) + ((cell[2], cell[3] + v) if ir else cell[2:]))
                            else:
                                table.add((parts, promises, tuple(sorted(cells)), links), w_c + delta, key)
        return table

    def forget(node, child):
        table = WitnessTable(budget)
        w = node.agent
        bit = 1 << w
        for (parts_c, prom_c, links_c), group in _grouped(child).items():
            L = next(p for p in parts_c if p & bit)
            rest = L ^ bit
            links = ()
            if fold:
                # a forgotten agent gains no edges: a group it leaves without
                # another bag member of its part is cut off for good
                g = next(g for g in links_c if g & bit)
                if g == bit and rest:
                    continue
                links = tuple(sorted(h & ~bit for h in links_c if h != bit))
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
            # A folded commitment only needs some route, which the links
            # guarantee.
            unsettled = [
                ((L & ((1 << b) - 1)).bit_count(), d)
                for b, d in zip(mates, vec_w)
                if 1 < d != top
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
                    table.add((parts, promises, tuple(sorted(cells)), links), w_c, key_c)
                else:
                    # the coalition completes; only the IR screen remains
                    if ir and (util < 0 or any(c[3] < 0 for c in run)):
                        continue
                    table.add((parts, prom_c, tuple(c for c in cells_c if c[0] != L), links), w_c, key_c)
        return table

    # (run_y, run_z) -> (delta, fused run), or None when the pair is dead;
    # shared by every join of the solve
    fused: dict = {}

    def fuse(run_y, run_z):
        """Cross contributions between two runs of one part, and their
        union tallied and sorted, or None when the pair is dead: a cross
        pair lies past the reach without folding, or the united coalition
        outgrows the cap."""
        if run_y[0][0].bit_count() + sum(c[2] for c in run_y + run_z) > cap:
            return None
        delta = 0
        cross_y = [0] * len(run_y)
        cross_z = [0] * len(run_z)
        for i, cy in enumerate(run_y):
            for j, cz in enumerate(run_z):
                best = top
                for ey, ez in zip(cy[1], cz[1]):
                    if ey + ez < best:
                        best = ey + ez
                if best > reach:
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
        # (parts, promises) -> (welfare of the bag pairs, which both sides
        # count, and the right records)
        grouped: dict = {}
        for (parts, prom, cells, links), (w, key) in right.data.items():
            group = grouped.get((parts, prom))
            if group is None:
                group = grouped[parts, prom] = (2 * sum(score(d) for _, d in prom), [])
            group[1].append((links, _runs(parts, cells), w, key))
        # the left side keeps its order; its records of one group mostly come
        # in runs that share the parts and promises objects (one step built
        # them), so a run looks its group up once
        seen = None
        for (parts, prom, cells_y, links_y), (w_y, key_y) in left.data.items():
            if seen is None or parts is not seen[0] or prom is not seen[1]:
                seen = parts, prom
                group = grouped.get(seen)
            if group is None:
                continue
            over, matches = group
            runs_y = _runs(parts, cells_y)
            for links_z, runs_z, w_z, key_z in matches:
                links = _unite(links_y, links_z) if fold else ()
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
                    table.add((parts, prom, cells, links), w_y + w_z + delta - over, key_y | key_z)
        return table

    return leaf, introduce, forget, join


def solve_nice(s, G, decomposition, mode, cap, algorithm, optimal=True) -> Optional[SolveResult]:
    """The best outcome under the mode whose coalitions have at most ``cap``
    members, self-checked and labelled ``algorithm``; None only in NS mode
    (all-singletons is IR under every cap).  One run adds at most
    ``DEFAULT_RECORD_BUDGET`` table entries."""
    if decomposition is None:
        decomposition = nice_decomposition(G)
    budget = Budget(
        DEFAULT_RECORD_BUDGET,
        f"{algorithm} exceeded its record budget ({DEFAULT_RECORD_BUDGET} table adds)",
    )
    if mode == "ns":
        steps = coalition_steps(CoalitionEvaluator(s, G), budget, cap)
    else:
        steps = _compressed_steps(s, G, budget, mode == "ir", cap)
    solved = best_outcome(G, run_postorder(decomposition, *steps))
    if solved is None:
        return None
    welfare, outcome = solved
    self_check(s, G, mode, welfare, outcome, algorithm)
    return SolveResult(outcome, welfare, mode, optimal, algorithm, size_limited=not optimal)


def _solve_tw(s, G, decomposition, mode) -> Optional[SolveResult]:
    return solve_nice(s, G, decomposition, mode, select_sz(s, G) or G.n, "twdp")


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
