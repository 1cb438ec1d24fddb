"""Coalition-topology dynamic program: treewidth plus maximum coalition size.

A state is its open coalitions: the witness blocks that meet the bag, held as
member bitmasks.  Tables key a state by the sorted topologies of its open
coalitions, so isomorphic states share one entry.  A topology is the explicit
graph on a coalition's bag members ("named") plus one anonymous vertex per
forgotten member.  New agents can only attach to named vertices (a forgotten
agent's neighbours are all introduced), so entries that share a key complete
to isomorphic coalitions and their open parts add the same welfare:

* introduce: the agent joins an open coalition below ``sz`` members, or opens
  one of its own;
* forget: a coalition with bag members left stays open while every member
  reaches one of them inside it; otherwise it completes and adds its welfare,
  read from one ``CoalitionEvaluator``, unless that is NEG_INF (disconnected,
  or a pair beyond a closed tail) or, in IR mode, a member scores below 0;
* join: coalitions glue at their shared bag members.

NS mode runs ``dp.ns_steps`` with the size cap ``sz``, keyed by the same
naming of bag members and anonymous forgotten ones (see ``_ns_key``).

Works for closed and open tails alike.
"""

from functools import partial
from typing import Optional

from .canon import canonical_order
from .core import (
    NEG_INF,
    CoalitionEvaluator,
    ScoringVector,
    SocialNetwork,
    SolveResult,
    check_mode,
    iter_bits,
)
from .bounds import degree_coalition_bound, treewidth_coalition_bound
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
from .treedecomp import NiceTreeDecomposition, decomposition_width, nice_decomposition

DEFAULT_STATE_BUDGET = 3_000_000


class _Ctx:
    def __init__(self, G, ev, sz, mode, budget):
        self.G = G
        self.ev = ev
        self.sz = sz
        self.ir = mode == "ir"
        self.budget = budget
        self.topologies: dict = {}

    def topology(self, mask, named):
        """Key of the coalition ``mask`` whose bag members are ``named``:
        (named agents, anonymous count, anonymous-named edges, anonymous-
        anonymous edges), anonymous vertices indexed in ``canonical_order``
        with ties in ascending agent id.  Equal keys mean isomorphic
        coalitions over the named agents.  None when some forgotten member
        reaches no named one inside the coalition."""
        key = (mask, named)
        topo = self.topologies.get(key, key)
        if topo is not key:
            return topo
        adj = self.G.adj_mask
        anon = mask & ~named
        reached = named
        frontier = named
        while frontier:
            nxt = 0
            for v in iter_bits(frontier):
                nxt |= adj[v]
            frontier = nxt & anon & ~reached
            reached |= frontier
        if reached != mask:
            topo = None
        else:
            tokens = list(iter_bits(anon))
            nedges = {t: tuple(iter_bits(adj[t] & named)) for t in tokens}
            adjacency = {t: tuple(iter_bits(adj[t] & anon)) for t in tokens}
            order = canonical_order(tokens, dict.fromkeys(tokens, 0), nedges, adjacency)
            index = {t: i for i, t in enumerate(order)}
            an = sorted((index[t], u) for t in order for u in nedges[t])
            aa = sorted(
                (index[t], index[u]) for t in order for u in adjacency[t] if index[t] < index[u]
            )
            topo = (tuple(iter_bits(named)), len(order), tuple(an), tuple(aa))
        self.topologies[key] = topo
        return topo

    def table(self, bag):
        topology = self.topology
        return WitnessTable(
            self.budget, lambda opens: tuple(sorted(topology(b, b & bag) for b in opens))
        )


def _leaf(ctx, node):
    table = ctx.table(0)
    table.add((), 0, ())
    return table


def _introduce(ctx, node, child):
    table = ctx.table(ctx.G.mask_of(node.bag))
    a = node.agent
    bit = 1 << a
    for wf, blocks, _, opens in child.data.values():
        table.add(opens + (bit,), wf, blocks + (bit,))
        for i, block in enumerate(opens):
            if block.bit_count() < ctx.sz:
                grown = opens[:i] + (block | bit,) + opens[i + 1 :]
                table.add(grown, wf, grow_block(blocks, block, a))
    return table


def _forget(ctx, node, child):
    bag = ctx.G.mask_of(node.bag)
    table = ctx.table(bag)
    w = node.agent
    for wf, blocks, _, opens in child.data.values():
        block = next(b for b in opens if b >> w & 1)
        if block & bag:
            if ctx.topology(block, block & bag) is not None:
                table.add(opens, wf, blocks)
            continue
        welfare, worst, _ = ctx.ev.stats(block)
        if welfare == NEG_INF or (ctx.ir and worst < 0):
            continue
        table.add(tuple(b for b in opens if b != block), wf + welfare, blocks)
    return table


def _join(ctx, node, left, right):
    bag = ctx.G.mask_of(node.bag)
    table = ctx.table(bag)
    grouped: dict = {}
    for wf, blocks, _, opens in right.data.values():
        parts = {b & bag: b for b in opens}
        grouped.setdefault(tuple(sorted(parts)), []).append((wf, blocks, parts))
    for wf_y, blocks_y, _, opens_y in left.data.values():
        sig = tuple(sorted(b & bag for b in opens_y))
        for wf_z, blocks_z, parts in grouped.get(sig, ()):
            merged = tuple(b | parts[b & bag] for b in opens_y)
            if any(b.bit_count() > ctx.sz for b in merged):
                continue
            table.add(merged, wf_y + wf_z, merge_blocks(blocks_y, blocks_z))
    return table


def _ns_key(G, bag, state):
    """Key of an NS state up to renaming forgotten agents: the open
    coalitions by their bag members, the bag members' deviation values, and
    one row per forgotten open member (its coalition's index and deviation
    value) or pending settled agent (its utility), each with its bag
    neighbours and its neighbours among the rows, rows in ``canonical_order``
    with ties in ascending agent id."""
    opens, pending, devs = state
    devmap = dict(devs)
    colors = {}
    parts = sorted(b & bag for b in opens)
    for b in opens:
        part = parts.index(b & bag)
        for a in iter_bits(b & ~bag):
            colors[a] = ("a", part, devmap[a])
    for t, u in pending:
        colors[t] = ("g", u)
    adj = G.adj_mask
    rows = G.mask_of(colors)
    nedges = {v: tuple(iter_bits(adj[v] & bag)) for v in colors}
    adjacency = {v: tuple(iter_bits(adj[v] & rows)) for v in colors}
    order = canonical_order(sorted(colors), colors, nedges, adjacency)
    index = {v: i for i, v in enumerate(order)}
    return (
        tuple(parts),
        tuple(d for d in devs if bag >> d[0] & 1),
        tuple((colors[v], nedges[v], tuple(sorted(index[u] for u in adjacency[v]))) for v in order),
    )


def select_sz(s: ScoringVector, G: SocialNetwork) -> Optional[int]:
    """Smallest applicable coalition-size bound, clamped to the agent count.

    The treewidth bound applies whenever distance 2 scores negatively; the
    degree bound needs a closed tail whose last entry is negative (otherwise
    arbitrarily large all-positive coalitions exist and no bound holds).
    """
    candidates = []
    if s.score(2) < 0:
        width = max(1, decomposition_width(G))
        candidates.append(treewidth_coalition_bound(s, width))
    if (
        s.is_closed
        and G.max_degree() >= 2
        and (s.cutoff == 1 or s.scores[-1] < 0)
    ):
        candidates.append(degree_coalition_bound(s, G.max_degree()))
    if not candidates:
        return None
    return min(min(candidates), G.n)


def solve_fpt(
    s: ScoringVector,
    G: SocialNetwork,
    decomposition: Optional[NiceTreeDecomposition] = None,
    sz: Optional[int] = None,
    mode: str = "welfare",
) -> Optional[SolveResult]:
    """Best outcome under the mode among outcomes whose coalitions have at
    most ``sz`` members.  The result is globally optimal when sz >= n or sz
    is None, which takes ``select_sz``'s certified bound (n without one)."""
    check_mode(mode)
    optimal = sz is None or sz >= G.n
    if sz is None:
        sz = select_sz(s, G)
        if sz is None:
            sz = G.n
    if sz < 1:
        raise ValueError("sz must be at least 1")
    if decomposition is None:
        decomposition = nice_decomposition(G)
    budget = Budget(
        DEFAULT_STATE_BUDGET,
        f"topology DP exceeded its state budget ({DEFAULT_STATE_BUDGET})",
    )
    ev = CoalitionEvaluator(s, G)
    if mode == "ns":
        steps = ns_steps(ev, budget, sz, partial(_ns_key, G))
    else:
        ctx = _Ctx(G, ev, sz, mode, budget)
        steps = (partial(step, ctx) for step in (_leaf, _introduce, _forget, _join))
    solved = best_outcome(run_postorder(decomposition, *steps))
    if solved is None:
        return None
    welfare, outcome = solved
    self_check(s, G, mode, welfare, outcome, "fptdp")
    return SolveResult(outcome, welfare, mode, optimal, "fptdp", size_limited=not optimal)
