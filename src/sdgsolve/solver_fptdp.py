"""Coalition-topology dynamic program: treewidth plus maximum coalition size.

States map each bag coalition to its topology: the explicit graph on its bag
members ("named") plus one anonymous vertex per already-forgotten member.
New agents can only attach to named vertices (a forgotten agent's neighbors
are all introduced), so transitions never guess edges:

* introduce: place the agent into a coalition (or alone); its edges to the
  coalition's named members come straight from the network;
* forget: the agent's vertex goes anonymous, or the coalition completes when
  it was the last named member;
* join: topologies glue at their shared named members, anonymous sides stay
  edge-disjoint.

Welfare is accumulated as a clamped pair sum (disconnected pairs and, for
closed tails, pairs beyond the scoring cutoff contribute nothing yet); a
coalition may only complete if no clamped pair remains, which makes the sum
exact.  IR mode additionally recomputes every member's utility on the final
topology at completion.  NS mode widens the state to one boundary structure
holding all coalitions, cross-coalition edges, per-vertex best-deviation
values, and settled agents that still neighbor an open coalition; every
deviation check runs on explicit structure when a coalition completes.

Works for closed and open tails alike.
"""

from dataclasses import dataclass, replace
from functools import partial
from typing import Optional

from .canon import canonical_order
from .core import (
    NEG_INF,
    ScoringVector,
    SocialNetwork,
    SolveResult,
    check_mode,
    utility_from_distances,
)
from .bounds import degree_coalition_bound, treewidth_coalition_bound
from .dp import (
    Budget,
    WitnessTable,
    best_outcome,
    grow_block,
    merge_blocks,
    run_postorder,
    self_check,
)
from .treedecomp import NiceTreeDecomposition, compute_decomposition, nice_decomposition

DEFAULT_STATE_BUDGET = 3_000_000


class _Ctx:
    def __init__(self, s, G, sz, mode):
        self.s = s
        self.G = G
        self.sz = sz
        self.mode = mode
        self.budget = Budget(
            DEFAULT_STATE_BUDGET,
            f"topology DP exceeded its state budget ({DEFAULT_STATE_BUDGET})",
        )
        self.cutoff = s.cutoff
        self.sw_cache: dict = {}
        self.tokens = 0

    def fresh(self):
        # tokens must never collide with agent ids: they share membership
        # tests and adjacency maps with named agents
        self.tokens += 1
        return ("t", self.tokens)


# ---------------------------------------------------------------- topologies

# A topology is (named: sorted agent tuple, k: anon count, an: frozenset of
# (anon_index, named_agent) edges, aa: frozenset of (i, j) anon-anon edges).
# Named-named edges are implied by the network.  Anonymous indices follow the
# refinement order, and the key encodes the structure exactly relative to it:
# equal keys mean isomorphic-over-named structures, though isomorphic ones may
# still get different keys.


def _make_topo(named, tokens, nedges, adjacency):
    order = canonical_order(
        list(tokens), {t: 0 for t in tokens}, nedges, adjacency
    )
    index = {t: i for i, t in enumerate(order)}
    an = tuple(sorted((index[t], u) for t in order for u in nedges[t]))
    aa = tuple(
        sorted(
            set(
                (min(index[t], index[u]), max(index[t], index[u]))
                for t in order
                for u in adjacency[t]
            )
        )
    )
    return (tuple(named), len(order), an, aa)


def _singleton_topo(a):
    return ((a,), 0, (), ())


def _topo_size(topo):
    return len(topo[0]) + topo[1]


def _add_named(topo, a):
    named, k, an, aa = topo
    return (tuple(sorted(named + (a,))), k, an, aa)


def _forget_named(topo, w, G):
    named, k, an, aa = topo
    rest = tuple(u for u in named if u != w)
    tokens = list(range(k)) + ["w"]
    nedges = {
        i: frozenset(u for (j, u) in an if j == i and u != w) for i in range(k)
    }
    nedges["w"] = frozenset(u for u in rest if G.has_edge(w, u))
    adjacency = {t: set() for t in tokens}
    for (i, j) in aa:
        adjacency[i].add(j)
        adjacency[j].add(i)
    for (i, u) in an:
        if u == w:
            adjacency[i].add("w")
            adjacency["w"].add(i)
    return _make_topo(rest, tokens, nedges, adjacency)


def _merge_topos(topo_y, topo_z):
    named, ky, an_y, aa_y = topo_y
    _, kz, an_z, aa_z = topo_z
    tokens = [("y", i) for i in range(ky)] + [("z", i) for i in range(kz)]
    nedges = {("y", i): frozenset(u for (j, u) in an_y if j == i) for i in range(ky)}
    nedges.update(
        {("z", i): frozenset(u for (j, u) in an_z if j == i) for i in range(kz)}
    )
    adjacency = {t: set() for t in tokens}
    for (i, j) in aa_y:
        adjacency[("y", i)].add(("y", j))
        adjacency[("y", j)].add(("y", i))
    for (i, j) in aa_z:
        adjacency[("z", i)].add(("z", j))
        adjacency[("z", j)].add(("z", i))
    return _make_topo(named, tokens, nedges, adjacency)


def _topo_adjacency(topo, G):
    named, k, an, aa = topo
    n = len(named)
    adj = [set() for _ in range(n + k)]
    for x in range(n):
        for y in range(x + 1, n):
            if G.has_edge(named[x], named[y]):
                adj[x].add(y)
                adj[y].add(x)
    for (i, u) in an:
        x = named.index(u)
        adj[n + i].add(x)
        adj[x].add(n + i)
    for (i, j) in aa:
        adj[n + i].add(n + j)
        adj[n + j].add(n + i)
    return adj


def _distances(adj, source):
    dist = {source: 0}
    frontier = [source]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for v in frontier:
            for u in adj[v]:
                if u not in dist:
                    dist[u] = d
                    nxt.append(u)
        frontier = nxt
    return dist


def _sw_clamped(ctx, topo):
    """(clamped pair-sum welfare, pending?) where pending marks disconnected
    pairs and, for closed tails, pairs beyond the cutoff."""
    cached = ctx.sw_cache.get(topo)
    if cached is not None:
        return cached
    adj = _topo_adjacency(topo, ctx.G)
    total = 0
    pending = False
    m = len(adj)
    closed = ctx.s.is_closed
    cutoff = ctx.cutoff
    scores = ctx.s.scores
    for v in range(m):
        dist = _distances(adj, v)
        if len(dist) < m:
            pending = True
        for u, d in dist.items():
            if u == v:
                continue
            if d > cutoff:
                if closed:
                    pending = True
                else:
                    total += scores[-1]
            else:
                total += scores[d - 1]
    result = (total, pending)
    ctx.sw_cache[topo] = result
    return result


def _vertex_utility(s, adj, v):
    """True utility of vertex v in the coalition with adjacency lists ``adj``
    (NEG_INF when some vertex is unreachable or scores NEG_INF)."""
    return utility_from_distances(s, _distances(adj, v), len(adj))


def _anons_touch_named(topo, G):
    named, k, _, _ = topo
    if k == 0:
        return True
    adj = _topo_adjacency(topo, G)
    seen = set(range(len(named)))
    stack = list(seen)
    while stack:
        v = stack.pop()
        for u in adj[v]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == len(named) + k


# ------------------------------------------------------- welfare / IR engine


def _plain_leaf(ctx, node):
    table = WitnessTable(ctx.budget)
    table.add((), 0, ())
    return table


def _plain_introduce(ctx, node, child):
    table = WitnessTable(ctx.budget)
    a = node.agent
    for state, (wf, blocks, _, _) in child.data.items():
        table.add(
            tuple(sorted(state + (_singleton_topo(a),))),
            wf,
            blocks + (frozenset({a}),),
        )
        for i, topo in enumerate(state):
            if _topo_size(topo) >= ctx.sz:
                continue
            new = _add_named(topo, a)
            delta = _sw_clamped(ctx, new)[0] - _sw_clamped(ctx, topo)[0]
            rest = state[:i] + state[i + 1 :]
            table.add(
                tuple(sorted(rest + (new,))),
                wf + delta,
                grow_block(blocks, topo[0], a),
            )
    return table


def _plain_forget(ctx, node, child):
    table = WitnessTable(ctx.budget)
    w = node.agent
    for state, (wf, blocks, _, _) in child.data.items():
        i, topo = next(
            (i, t) for i, t in enumerate(state) if w in t[0]
        )
        rest = state[:i] + state[i + 1 :]
        if len(topo[0]) > 1:
            new = _forget_named(topo, w, ctx.G)
            if not _anons_touch_named(new, ctx.G):
                continue
            table.add(tuple(sorted(rest + (new,))), wf, blocks)
        else:
            # the coalition completes: its clamped sum must be exact
            if _sw_clamped(ctx, topo)[1]:
                continue
            if ctx.mode == "ir":
                adj = _topo_adjacency(topo, ctx.G)
                if any(_vertex_utility(ctx.s, adj, v) < 0 for v in range(len(adj))):
                    continue
            table.add(rest, wf, blocks)
    return table


def _plain_join(ctx, node, left, right):
    table = WitnessTable(ctx.budget)
    grouped: dict = {}
    for state, val in right.data.items():
        grouped.setdefault(tuple(t[0] for t in state), []).append((state, val))
    for state_y, (wf_y, blocks_y, _, _) in left.data.items():
        sig = tuple(t[0] for t in state_y)
        for state_z, (wf_z, blocks_z, _, _) in grouped.get(sig, ()):
            merged = []
            delta = 0
            ok = True
            for topo_y, topo_z in zip(state_y, state_z):
                if _topo_size(topo_y) + topo_z[1] > ctx.sz:
                    ok = False
                    break
                m = _merge_topos(topo_y, topo_z)
                delta += (
                    _sw_clamped(ctx, m)[0]
                    - _sw_clamped(ctx, topo_y)[0]
                    - _sw_clamped(ctx, topo_z)[0]
                )
                merged.append(m)
            if not ok:
                continue
            table.add(
                tuple(sorted(merged)),
                wf_y + wf_z + delta,
                merge_blocks(blocks_y, blocks_z),
            )
    return table


# ------------------------------------------------------------------ NS engine

# The NS state is one boundary structure: every open coalition's topology,
# all cross-coalition edges, per-vertex best-deviation values, and settled
# ("ghost") agents whose completed coalitions they might still leave.


@dataclass(frozen=True)
class _Anon:
    token: int
    part: int  # part token
    dev: int
    nset: frozenset  # named neighbors
    tset: frozenset  # anon/ghost neighbor tokens


@dataclass(frozen=True)
class _Ghost:
    token: int
    util: int
    nset: frozenset
    tset: frozenset


@dataclass(frozen=True)
class _NsState:
    parts: tuple  # (part_token, frozenset named), sorted by min named
    anons: tuple  # _Anon records
    ghosts: tuple  # _Ghost records
    devs: tuple  # (agent, dev) for named agents


def _ns_state(parts, anons, ghosts, devmap) -> _NsState:
    """State in its sorted layout: parts by smallest named member, anons and
    ghosts by token, deviation values by agent."""
    return _NsState(
        tuple(sorted(parts, key=lambda p: min(p[1]))),
        tuple(sorted(anons, key=lambda x: x.token)),
        tuple(sorted(ghosts, key=lambda x: x.token)),
        tuple(sorted(devmap.items())),
    )


def _ns_canonical(state: _NsState):
    part_index = {ptok: i for i, (ptok, _) in enumerate(state.parts)}
    colors = {}
    nsets = {}
    adjacency: dict = {}
    for a in state.anons:
        colors[a.token] = ("a", part_index[a.part], a.dev)
        nsets[a.token] = a.nset
        adjacency[a.token] = set(a.tset)
    for g in state.ghosts:
        colors[g.token] = ("g", g.util)
        nsets[g.token] = g.nset
        adjacency[g.token] = set(g.tset)
    order = canonical_order(list(colors), colors, nsets, adjacency)
    index = {t: i for i, t in enumerate(order)}
    rows = tuple(
        (
            colors[t],
            tuple(sorted(nsets[t])),
            tuple(sorted(index[u] for u in adjacency[t])),
        )
        for t in order
    )
    return (
        tuple(named for (_, named) in state.parts),
        state.devs,
        rows,
    )


def _ns_table(ctx):
    return WitnessTable(ctx.budget, canon=_ns_canonical)


def _part_members(state: _NsState, ptok):
    return [a for a in state.anons if a.part == ptok]


def _coalition_utilities(ctx, w, members):
    """True utilities inside a coalition completed by forgetting its last
    named agent ``w``; its other members are the anonymous ``members``."""
    vi = {v: i for i, v in enumerate([w] + [a.token for a in members])}
    adj = [set() for _ in vi]
    for a in members:
        i = vi[a.token]
        for u in a.nset | a.tset:
            if u in vi:
                adj[i].add(vi[u])
                adj[vi[u]].add(i)
    utils = {v: _vertex_utility(ctx.s, adj, i) for v, i in vi.items()}
    return utils, vi, adj


def _join_utility(ctx, adj, attach):
    """Utility of an outside vertex joining the completed coalition, given
    the indices of its neighbors inside (empty attach means unreachable)."""
    if not attach:
        return NEG_INF
    m = len(adj)
    adj2 = [set(x) for x in adj] + [set()]
    for i in attach:
        adj2[i].add(m)
        adj2[m].add(i)
    return _vertex_utility(ctx.s, adj2, m)


def _ns_leaf(ctx, node):
    table = _ns_table(ctx)
    table.add(_NsState((), (), (), ()), 0, ())
    return table


def _ns_introduce(ctx, node, child):
    table = _ns_table(ctx)
    a = node.agent
    for wf, blocks, _, st in child.data.values():
        devmap = dict(st.devs)
        devmap[a] = 0
        parts = st.parts + ((ctx.fresh(), frozenset({a})),)
        table.add(
            _ns_state(parts, st.anons, st.ghosts, devmap),
            wf,
            blocks + (frozenset({a}),),
        )
        for (pt, named) in st.parts:
            if len(named) + len(_part_members(st, pt)) >= ctx.sz:
                continue
            parts = [(q, nm | {a}) if q == pt else (q, nm) for (q, nm) in st.parts]
            table.add(
                _ns_state(parts, st.anons, st.ghosts, devmap),
                wf,
                grow_block(blocks, named, a),
            )
    return table


def _ns_forget(ctx, node, child):
    G = ctx.G
    table = _ns_table(ctx)
    w = node.agent
    for wf, blocks, _, st in child.data.values():
        pt, named = next(p for p in st.parts if w in p[1])
        devmap = dict(st.devs)
        w_dev = devmap.pop(w)
        if len(named) > 1:
            # named -> anonymous; record its edges explicitly
            tok = ctx.fresh()
            other_named = [
                u
                for (_, nm) in st.parts
                for u in nm
                if u != w
            ]
            nset = frozenset(u for u in other_named if G.has_edge(w, u))
            tset = set()
            anons = []
            for x in st.anons:
                if w in x.nset:
                    tset.add(x.token)
                    anons.append(
                        replace(x, nset=x.nset - {w}, tset=x.tset | {tok})
                    )
                else:
                    anons.append(x)
            ghosts = []
            for g in st.ghosts:
                if w in g.nset:
                    tset.add(g.token)
                    ghosts.append(
                        replace(g, nset=g.nset - {w}, tset=g.tset | {tok})
                    )
                else:
                    ghosts.append(g)
            anons.append(_Anon(tok, pt, w_dev, nset, frozenset(tset)))
            parts = [(q, nm - {w}) if q == pt else (q, nm) for (q, nm) in st.parts]
            table.add(_ns_state(parts, anons, ghosts, devmap), wf, blocks)
            continue
        # the coalition completes
        members = _part_members(st, pt)
        utils, vi, adj = _coalition_utilities(ctx, w, members)
        if utils[w] < 0 or utils[w] < w_dev:
            continue
        if any(utils[a.token] < 0 or utils[a.token] < a.dev for a in members):
            continue
        member_tokens = set(vi) - {w}
        alive = True
        new_ghosts = []
        # trackers: named agents, other parts' anons, settled ghosts
        for t in list(devmap):
            attach = [vi[w]] if G.has_edge(t, w) else []
            attach += [
                vi[x.token] for x in members if t in x.nset
            ]
            jut = _join_utility(ctx, adj, attach)
            if jut > devmap[t]:
                devmap[t] = jut
        others = [x for x in st.anons if x.part != pt]
        open_tokens = {x.token for x in others}
        remaining_named = set(
            u for (q, nm) in st.parts if q != pt for u in nm
        )
        for g in st.ghosts:
            attach = [vi[w]] if w in g.nset else []
            attach += [vi[t] for t in g.tset if t in member_tokens]
            jut = _join_utility(ctx, adj, attach)
            if jut > g.util:
                alive = False
                break
            # settled agents only keep edges into still-open coalitions
            kept_n = g.nset - {w}
            kept_t = g.tset & open_tokens
            if kept_n or kept_t:
                new_ghosts.append(replace(g, nset=kept_n, tset=kept_t))
        if not alive:
            continue
        # completed members settle while still attached to open parts
        for x in members:
            kept_n = x.nset & frozenset(remaining_named)
            kept_t = x.tset & open_tokens
            if kept_n or kept_t:
                new_ghosts.append(_Ghost(x.token, utils[x.token], kept_n, kept_t))
        w_n = frozenset(u for u in remaining_named if G.has_edge(w, u))
        w_t = frozenset(x.token for x in others if w in x.nset)
        if w_n or w_t:
            new_ghosts.append(_Ghost(ctx.fresh(), utils[w], w_n, w_t))
        live = open_tokens | {g.token for g in new_ghosts}
        new_anons = []
        for x in others:
            attach = [vi[w]] if w in x.nset else []
            attach += [vi[t] for t in x.tset if t in member_tokens]
            jut = _join_utility(ctx, adj, attach)
            new_anons.append(
                replace(
                    x,
                    dev=max(x.dev, jut),
                    nset=x.nset - {w},
                    tset=x.tset & live,
                )
            )
        parts = [p for p in st.parts if p[0] != pt]
        table.add(
            _ns_state(parts, new_anons, new_ghosts, devmap),
            wf + sum(utils.values()),
            blocks,
        )
    return table


def _ns_join(ctx, node, left, right):
    table = _ns_table(ctx)
    grouped: dict = {}
    for wf, blocks, _, st in right.data.values():
        sig = tuple(named for (_, named) in st.parts)
        grouped.setdefault(sig, []).append((wf, st, blocks))
    for wf_y, blocks_y, _, st_y in left.data.values():
        sig = tuple(named for (_, named) in st_y.parts)
        for wf_z, st_z, blocks_z in grouped.get(sig, ()):
            token_map = {
                pt_z: pt_y
                for (pt_y, _), (pt_z, _) in zip(st_y.parts, st_z.parts)
            }
            sizes = {}
            for (pt, named) in st_y.parts:
                sizes[pt] = len(named)
            for x in st_y.anons:
                sizes[x.part] = sizes.get(x.part, 0) + 1
            for x in st_z.anons:
                sizes[token_map[x.part]] = sizes.get(token_map[x.part], 0) + 1
            if any(v > ctx.sz for v in sizes.values()):
                continue
            devmap = dict(st_y.devs)
            for t, d in st_z.devs:
                devmap[t] = max(devmap[t], d)
            anons = st_y.anons + tuple(replace(x, part=token_map[x.part]) for x in st_z.anons)
            table.add(
                _ns_state(st_y.parts, anons, st_y.ghosts + st_z.ghosts, devmap),
                wf_y + wf_z,
                merge_blocks(blocks_y, blocks_z),
            )
    return table


_PLAIN = (_plain_leaf, _plain_introduce, _plain_forget, _plain_join)
_STEPS = {"welfare": _PLAIN, "ir": _PLAIN, "ns": (_ns_leaf, _ns_introduce, _ns_forget, _ns_join)}


# ------------------------------------------------------------------ frontend


def select_sz(s: ScoringVector, G: SocialNetwork) -> Optional[int]:
    """Smallest applicable coalition-size bound, clamped to the agent count.

    The treewidth bound applies whenever distance 2 scores negatively; the
    degree bound needs a closed tail whose last entry is negative (otherwise
    arbitrarily large all-positive coalitions exist and no bound holds).
    """
    candidates = []
    if s.score(2) < 0:
        width = max(1, compute_decomposition(G).width())
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
    sz_certified: bool = False,
) -> Optional[SolveResult]:
    """Best outcome under the mode among outcomes whose coalitions have at
    most ``sz`` members.  The result is globally optimal when sz >= n or the
    caller certifies sz as a valid bound (e.g. from ``select_sz``)."""
    check_mode(mode)
    if sz is None:
        sz = select_sz(s, G)
        sz_certified = sz is not None
        if sz is None:
            sz = G.n
    if sz < 1:
        raise ValueError("sz must be at least 1")
    if decomposition is None:
        decomposition = nice_decomposition(G)
    ctx = _Ctx(s, G, sz, mode)
    steps = (partial(step, ctx) for step in _STEPS[mode])
    solved = best_outcome(run_postorder(decomposition, *steps))
    if solved is None:
        return None
    welfare, outcome = solved
    self_check(s, G, mode, welfare, outcome, "fptdp")
    optimal = sz >= G.n or sz_certified
    return SolveResult(outcome, welfare, mode, optimal, "fptdp", size_limited=not optimal)
