"""Treewidth dynamic programs over a nice tree decomposition (closed tails).

Welfare and IR modes run a compressed leaf-to-root DP whose record signature
per node is (bag partition, committed distances, distance-vector tallies):

* the bag partition assigns bag agents to coalition labels;
* for every pair of same-coalition bag agents the record commits the pair's
  final intra-coalition distance the moment both are in the bag.  A committed
  distance may be guessed below what current structure realizes (the missing
  link will be built by agents introduced later, possibly in a sibling
  branch); every transition validates that no known structure undercuts a
  commitment, and when an agent is forgotten each of its commitments must be
  realized exactly by already-introduced structure plus the other pairs'
  commitments - at that point all of its potential shortcuts have been seen;
* tallies count forgotten coalition members per vector of final distances to
  the bag.  IR mode additionally keeps, per tally cell, the worst utility
  over the forgotten agents sharing that vector ("critical agents"), checked
  when their coalition completes.

Because committed distances are final, each member pair's welfare
contribution is added exactly once (when the later of the two is introduced,
or at a join for pairs split across branches) and never revised.

NS mode keeps coalitions explicit instead: it runs ``dp.ns_steps`` with no
size cap, keyed by the state itself, so records hold the member bitmasks of
open coalitions and every utility and deviation check runs on the real
induced subgraph when a coalition completes.
"""

from functools import partial
from itertools import product
from typing import Optional

from .core import (
    NEG_INF,
    CoalitionEvaluator,
    ScoringVector,
    SocialNetwork,
    SolveResult,
    UnsupportedInputError,
)
from .dp import (
    Budget,
    WitnessTable,
    best_outcome,
    grow_block,
    merge_blocks,
    ns_steps,
    run_postorder,
    self_check,
)
from .treedecomp import NiceTreeDecomposition, nice_decomposition

_INF = 10**9
DEFAULT_RECORD_BUDGET = 5_000_000


class _Ctx:
    def __init__(self, s, G, ntd, mode, budget):
        self.s = s
        self.G = G
        self.ntd = ntd
        self.mode = mode
        self.budget = budget
        self.cutoff = s.cutoff
        # distances in the full network lower-bound every coalition distance
        self.gdist: list[dict[int, int]] = [
            G.distances_in(G.full_mask, v) for v in range(G.n)
        ]

    def child_bag(self, node):
        return tuple(sorted(self.ntd.nodes[node.children[0]].bag))


def _canon_part(part: tuple[int, ...]) -> tuple[tuple[int, ...], dict[int, int]]:
    mapping: dict[int, int] = {}
    out = []
    for label in part:
        if label not in mapping:
            mapping[label] = len(mapping)
        out.append(mapping[label])
    return tuple(out), mapping


def _pkey(u, v):
    return (u, v) if u < v else (v, u)


def _closure(bag, part, promises, cells, G, skip=None):
    """All-pairs shortest routes per label over: real bag edges, committed
    distances as virtual edges (optionally skipping one), and routes through
    forgotten agents from the tallies.  Returns {pair: distance}."""
    pos_of = {agent: i for i, agent in enumerate(bag)}
    groups: dict[int, list[int]] = {}
    for pos in range(len(bag)):
        groups.setdefault(part[pos], []).append(pos)
    dist: dict[tuple[int, int], int] = {}
    for label, positions in groups.items():
        k = len(positions)
        if k <= 1:
            continue
        agents = [bag[p] for p in positions]
        m = [[_INF] * k for _ in range(k)]
        for i in range(k):
            m[i][i] = 0
            for j in range(i + 1, k):
                if G.has_edge(agents[i], agents[j]):
                    m[i][j] = m[j][i] = 1
        for (u, v), d in promises.items():
            if u not in pos_of or v not in pos_of or part[pos_of[u]] != label:
                continue
            if skip is not None and (u, v) == skip:
                continue
            i, j = agents.index(u), agents.index(v)
            if d < m[i][j]:
                m[i][j] = m[j][i] = d
        for cell in cells:
            if cell[0] != label:
                continue
            vec = cell[1]
            ent = [vec[p] for p in positions]
            for i in range(k):
                if ent[i] is None:
                    continue
                for j in range(i + 1, k):
                    if ent[j] is not None and ent[i] + ent[j] < m[i][j]:
                        m[i][j] = m[j][i] = ent[i] + ent[j]
        for t in range(k):
            mt = m[t]
            for i in range(k):
                mit = m[i][t]
                if mit >= _INF:
                    continue
                row = m[i]
                for j in range(k):
                    alt = mit + mt[j]
                    if alt < row[j]:
                        row[j] = alt
        for i in range(k):
            for j in range(i + 1, k):
                dist[_pkey(agents[i], agents[j])] = m[i][j]
    return dist


def _consistent(bag, part, promises, cells, G) -> bool:
    """No known structure may undercut a committed distance."""
    closure = _closure(bag, part, promises, cells, G)
    return all(closure[p] == d for p, d in promises.items())


def _insert(tup, pos, value):
    return tup[:pos] + (value,) + tup[pos:]


def _remove(tup, pos):
    return tup[:pos] + tup[pos + 1 :]


def _replace(tup, pos, value):
    return tup[:pos] + (value,) + tup[pos + 1 :]


def _sig(part, promises, cells):
    """Record signature, coalition labels renumbered by first appearance."""
    part, relabel = _canon_part(part)
    cells = tuple(sorted((relabel[c[0]],) + c[1:] for c in cells))
    return part, tuple(sorted(promises.items())), cells


def _compressed_leaf(ctx, node):
    table = WitnessTable(ctx.budget)
    table.add(((), (), ()), 0, ())
    return table


def _compressed_introduce(ctx, node, child_table):
    mode = ctx.mode
    G = ctx.G
    score = ctx.s.score
    table = WitnessTable(ctx.budget)
    bag = tuple(sorted(node.bag))
    child_bag = ctx.child_bag(node)
    a = node.agent
    pos_a = bag.index(a)
    NEW = -1
    for sig, (w_c, blocks_c, _, _) in child_table.data.items():
        part_c, prom_c, cells_c = sig
        promises_c = dict(prom_c)
        cells_shift = [(c[0], _insert(c[1], pos_a, None)) + c[2:] for c in cells_c]
        for L in sorted(set(part_c)) + [NEW]:
            if L == NEW:
                part = _insert(part_c, pos_a, max(part_c, default=-1) + 1)
                table.add(_sig(part, promises_c, cells_shift), w_c, blocks_c + (1 << a,))
                continue
            mates = [child_bag[p] for p in range(len(child_bag)) if part_c[p] == L]
            part = _insert(part_c, pos_a, L)
            # candidate committed distances per new pair
            options = []
            feasible = True
            for b in mates:
                if G.has_edge(a, b):
                    options.append([1])
                    continue
                lo = max(2, ctx.gdist[a].get(b, _INF))
                if lo > ctx.cutoff:
                    feasible = False
                    break
                options.append(list(range(lo, ctx.cutoff + 1)))
            if not feasible:
                continue
            for choice in product(*options):
                promises = dict(promises_c)
                for b, d in zip(mates, choice):
                    promises[_pkey(a, b)] = d
                if not _consistent(bag, part, promises, cells_shift, G):
                    continue
                delta = 0
                dead = False
                for b, d in zip(mates, choice):
                    v = score(d)
                    if v is NEG_INF:
                        dead = True
                        break
                    delta += 2 * v
                if dead:
                    continue
                cells_new = []
                for cell in cells_shift:
                    if cell[0] != L:
                        cells_new.append(cell)
                        continue
                    vec = cell[1]
                    entry = min(
                        vec[bag.index(b)] + promises[_pkey(a, b)] for b in mates
                        if vec[bag.index(b)] is not None
                    )
                    v = score(entry)
                    if v is NEG_INF:
                        dead = True
                        break
                    delta += 2 * cell[2] * v
                    vec2 = _replace(vec, pos_a, entry)
                    if mode == "ir":
                        cells_new.append((cell[0], vec2, cell[2], cell[3] + v))
                    else:
                        cells_new.append((cell[0], vec2, cell[2]))
                if dead:
                    continue
                table.add(
                    _sig(part, promises, cells_new),
                    w_c + delta,
                    grow_block(blocks_c, G.mask_of(mates), a),
                )
    return table


def _bag_utilities(bag, part, promises, cells, s):
    score = s.score
    utils = {}
    for pos, agent in enumerate(bag):
        label = part[pos]
        total = 0
        for pos2, other in enumerate(bag):
            if pos2 == pos or part[pos2] != label:
                continue
            v = score(promises[_pkey(agent, other)])
            if v is NEG_INF:
                return None
            total += v
        for cell in cells:
            if cell[0] != label:
                continue
            ent = cell[1][pos]
            if ent is None:
                return None
            v = score(ent)
            if v is NEG_INF:
                return None
            total += cell[2] * v
        utils[agent] = total
    return utils


def _tally(cells, ir):
    """Tally cells merged per (label, distance vector): counts add up and, in
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
        return tuple(sorted(k + v for k, v in merged.items()))
    return tuple(sorted(k + (v,) for k, v in merged.items()))


def _compressed_forget(ctx, node, child_table):
    mode = ctx.mode
    G = ctx.G
    table = WitnessTable(ctx.budget)
    child_bag = ctx.child_bag(node)
    w = node.agent
    pos_w = child_bag.index(w)
    for sig, (w_c, blocks_c, _, _) in child_table.data.items():
        part_c, prom_c, cells_c = sig
        promises_c = dict(prom_c)
        L = part_c[pos_w]
        mates = [
            child_bag[p]
            for p in range(len(child_bag))
            if part_c[p] == L and p != pos_w
        ]
        # every commitment of the forgotten agent must be realized by known
        # structure (plus the other commitments) at this point
        realized = True
        for b in mates:
            pair = _pkey(w, b)
            closure = _closure(child_bag, part_c, promises_c, cells_c, G, skip=pair)
            if closure[pair] != promises_c[pair]:
                realized = False
                break
        if not realized:
            continue
        if mode == "ir":
            utils = _bag_utilities(child_bag, part_c, promises_c, cells_c, ctx.s)
            if utils is None:
                continue
            w_util = utils[w]
        if mates:
            vec_w = tuple(
                promises_c[_pkey(w, child_bag[p])]
                if part_c[p] == L and p != pos_w
                else None
                for p in range(len(child_bag))
            )
            vec_w = _remove(vec_w, pos_w)
            shifted = [(c[0], _remove(c[1], pos_w)) + c[2:] for c in cells_c]
            shifted.append((L, vec_w, 1, w_util) if mode == "ir" else (L, vec_w, 1))
            cells = _tally(shifted, mode == "ir")
            promises = {
                p: d for p, d in promises_c.items() if w not in p
            }
            table.add(_sig(_remove(part_c, pos_w), promises, cells), w_c, blocks_c)
        else:
            # the coalition completes; only the IR screen remains
            if mode == "ir":
                if w_util < 0:
                    continue
                if any(c[0] == L and c[3] < 0 for c in cells_c):
                    continue
            remaining = [
                (c[0], _remove(c[1], pos_w)) + c[2:] for c in cells_c if c[0] != L
            ]
            table.add(_sig(_remove(part_c, pos_w), promises_c, remaining), w_c, blocks_c)
    return table


def _vdist(vec_y, vec_z):
    best = _INF
    for ey, ez in zip(vec_y, vec_z):
        if ey is not None and ez is not None and ey + ez < best:
            best = ey + ez
    return best


def _compressed_join(ctx, node, left_table, right_table):
    mode = ctx.mode
    score = ctx.s.score
    table = WitnessTable(ctx.budget)
    bag = tuple(sorted(node.bag))
    grouped: dict = {}
    for sig, val in right_table.data.items():
        grouped.setdefault((sig[0], sig[1]), []).append((sig[2], val))
    for sig_y, (w_y, blocks_y, _, _) in left_table.data.items():
        part, prom, cells_y = sig_y
        matches = grouped.get((part, prom))
        if not matches:
            continue
        promises = dict(prom)
        for cells_z, (w_z, blocks_z, _, _) in matches:
            # cross contributions between the two sides' forgotten agents
            delta = 0
            dead = False
            cross_y: list[int] = [0] * len(cells_y)
            cross_z: list[int] = [0] * len(cells_z)
            for i, cy in enumerate(cells_y):
                for j, cz in enumerate(cells_z):
                    if cy[0] != cz[0]:
                        continue
                    v = score(_vdist(cy[1], cz[1]))
                    if v is NEG_INF:
                        dead = True
                        break
                    delta += 2 * cy[2] * cz[2] * v
                    cross_y[i] += cz[2] * v
                    cross_z[j] += cy[2] * v
                if dead:
                    break
            if dead:
                continue
            if mode == "ir":
                both = [c[:3] + (c[3] + inc,) for inc, c in zip(cross_y + cross_z, cells_y + cells_z)]
            else:
                both = cells_y + cells_z
            cells = _tally(both, mode == "ir")
            # the united structure must not undercut any commitment
            if not _consistent(bag, part, promises, cells, ctx.G):
                continue
            # subtract the bag pairs counted by both sides
            over = 0
            for (u, v), d in promises.items():
                sc = score(d)
                if sc is NEG_INF:
                    dead = True
                    break
                over += 2 * sc
            if dead:
                continue
            table.add(
                (part, prom, cells),
                w_y + w_z + delta - over,
                merge_blocks(blocks_y, blocks_z),
            )
    return table


_COMPRESSED = (_compressed_leaf, _compressed_introduce, _compressed_forget, _compressed_join)


def _solve_tw(s, G, decomposition, budget, mode) -> Optional[SolveResult]:
    if not s.is_closed:
        raise UnsupportedInputError("the treewidth DP handles closed-tail vectors only")
    if decomposition is None:
        decomposition = nice_decomposition(G)
    records = Budget(budget, f"treewidth DP exceeded its record budget ({budget})")
    if mode == "ns":
        steps = ns_steps(CoalitionEvaluator(s, G), records, G.n)
    else:
        ctx = _Ctx(s, G, decomposition, mode, records)
        steps = (partial(step, ctx) for step in _COMPRESSED)
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
    budget: int = DEFAULT_RECORD_BUDGET,
) -> SolveResult:
    """Welfare-optimal outcome by dynamic programming over a nice decomposition."""
    return _solve_tw(s, G, decomposition, budget, "welfare")


def solve_tw_ir(
    s: ScoringVector,
    G: SocialNetwork,
    decomposition: Optional[NiceTreeDecomposition] = None,
    budget: int = DEFAULT_RECORD_BUDGET,
) -> SolveResult:
    """Maximum-welfare individually rational outcome; tallies carry the worst
    utility over the forgotten agents sharing a distance vector, and records
    whose completed coalition holds a negative-utility agent are dropped."""
    return _solve_tw(s, G, decomposition, budget, "ir")


def solve_tw_ns(
    s: ScoringVector,
    G: SocialNetwork,
    decomposition: Optional[NiceTreeDecomposition] = None,
    budget: int = DEFAULT_RECORD_BUDGET,
) -> Optional[SolveResult]:
    """Maximum-welfare Nash-stable outcome, or None when no stable outcome
    exists.  Deviation checks run when a coalition completes: members are
    tested against their best earlier options, and every agent that could
    join the completed coalition is either re-checked (if settled) or has its
    pending best-deviation value raised (if its own coalition is still open)."""
    return _solve_tw(s, G, decomposition, budget, "ns")
