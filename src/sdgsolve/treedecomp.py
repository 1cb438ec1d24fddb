"""Tree decompositions: PACE-format ingestion, validation, exact/heuristic
construction, and conversion to nice form (leaf/introduce/forget/join nodes
with empty root and leaf bags).

Every decomposition the solvers use comes from the min-fill elimination
order, at every size: the solvers' tie-break, the smallest outcome key, does
not depend on the decomposition, so nothing pins one.  A graph object keeps
its decomposition and its nice form once built, so every width question and
every DP on it reads the same one.  The exact subset DP over vertex sets
stays behind ``exact_treewidth`` only.

The nice form is free in the same way, so it is shaped for the DPs' cost.
``make_nice`` roots it above a start bag and joins a bag's children on the
bag they share, introducing the rest of the parent bag once, after the
joins.  ``nice_decomposition`` roots it above bag 0 or above the last bag,
the elimination order's own root, whichever ``join_cost`` prices lower: an
estimate of the joins' work from the graph and the decomposition alone, in
the spirit of Abseher, Musliu and Woltran (JAIR 2017) and Bodlaender,
Bonsma and Lokshtanov (IPEC 2013).
"""

import heapq
from dataclasses import dataclass
from typing import Optional, Union

from .core import SocialNetwork, bfs_layers, flood, iter_bits


@dataclass(frozen=True)
class TreeDecomposition:
    """Unrooted decomposition: bags plus tree edges between bag indices."""

    bags: tuple[frozenset[int], ...]
    tree_edges: tuple[tuple[int, int], ...]
    n_vertices: int

    def width(self) -> int:
        return max(len(b) for b in self.bags) - 1


@dataclass(frozen=True)
class TdViolation:
    kind: str  # "vertex-count" | "bag-range" | "tree-shape" | "vertex-coverage" | "edge-coverage" | "connectivity"
    detail: str


class TdParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def read_td(text: str) -> TreeDecomposition:
    """Parse PACE-style .td content (1-indexed vertices, converted to 0-indexed).

    Raises TdParseError, with the offending line's number, for a malformed
    or second solution line (naming the first), a malformed bag or tree edge
    line or one before the solution line, a bag id outside the declared bag
    count, a bag larger than the declared maximum bag size and a repeated bag
    id (naming the first line).  The vertex count, vertex ranges and the
    tree's shape are left to ``validate``."""
    n_bags = None
    max_bag = None
    n_vertices = None
    header_line = None
    bags: dict[int, frozenset[int]] = {}
    bag_lines: dict[int, int] = {}
    edges: list[tuple[int, int]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "s":
            if header_line is not None:
                raise TdParseError(line_no, f"second solution line {line!r} (the first is line {header_line})")
            if len(parts) != 5 or parts[1] != "td":
                raise TdParseError(line_no, f"malformed solution line: {line!r}")
            try:
                n_bags, max_bag, n_vertices = int(parts[2]), int(parts[3]), int(parts[4])
            except ValueError:
                raise TdParseError(line_no, f"non-integer header fields: {line!r}")
            header_line = line_no
        elif parts[0] == "b":
            if n_bags is None:
                raise TdParseError(line_no, "bag line before solution line")
            try:
                bag_id = int(parts[1])
                members = [int(p) - 1 for p in parts[2:]]
            except (ValueError, IndexError):
                raise TdParseError(line_no, f"malformed bag line: {line!r}")
            if not 1 <= bag_id <= n_bags:
                raise TdParseError(line_no, f"bag id {bag_id} outside 1..{n_bags}")
            if any(v < 0 for v in members):
                raise TdParseError(line_no, "vertex ids must be positive")
            bag = frozenset(members)
            if len(bag) > max_bag:
                raise TdParseError(line_no, f"bag {bag_id} has {len(bag)} vertices, above the declared maximum {max_bag}")
            first = bag_lines.setdefault(bag_id, line_no)
            if first != line_no:
                raise TdParseError(line_no, f"bag {bag_id} repeats the bag of line {first}")
            bags[bag_id] = bag
        else:
            if n_bags is None:
                raise TdParseError(line_no, "edge line before solution line")
            if len(parts) != 2:
                raise TdParseError(line_no, f"malformed tree edge line: {line!r}")
            try:
                a, b = int(parts[0]), int(parts[1])
            except ValueError:
                raise TdParseError(line_no, f"non-integer tree edge: {line!r}")
            if not (1 <= a <= n_bags and 1 <= b <= n_bags):
                raise TdParseError(line_no, f"tree edge ({a},{b}) outside 1..{n_bags}")
            edges.append((a - 1, b - 1))
    if n_bags is None or n_vertices is None:
        raise TdParseError(0, "missing solution line 's td ...'")
    bag_tuple = tuple(bags.get(i, frozenset()) for i in range(1, n_bags + 1))
    return TreeDecomposition(bag_tuple, tuple(edges), n_vertices)


def write_td(td: TreeDecomposition) -> str:
    lines = [f"s td {len(td.bags)} {max(len(b) for b in td.bags)} {td.n_vertices}"]
    for i, bag in enumerate(td.bags, start=1):
        body = " ".join(str(v + 1) for v in sorted(bag))
        lines.append(f"b {i} {body}".rstrip())
    for a, b in td.tree_edges:
        lines.append(f"{a + 1} {b + 1}")
    return "\n".join(lines) + "\n"


def validate(G: SocialNetwork, td: TreeDecomposition) -> Union[int, TdViolation]:
    """Width on success, otherwise the first violated condition with a witness.

    One pass over the bags lists each agent's holders (the bags containing
    it); coverage, edges and subtree connectivity are read from those lists."""
    if td.n_vertices != G.n:
        return TdViolation("vertex-count", f"decomposition declares {td.n_vertices} vertices, the network has {G.n}")
    k = len(td.bags)
    holders = [0] * G.n  # per agent, the bitmask of the bags holding it
    for i, bag in enumerate(td.bags):
        for v in bag:
            if not 0 <= v < G.n:
                return TdViolation("bag-range", f"bag {i} contains vertex {v} outside 0..{G.n - 1}")
            holders[v] |= 1 << i
    tree_adj = _bag_tree(td)
    # the tree must actually be a tree over the bags
    if k > 1:
        if len(set(map(lambda e: (min(e), max(e)), td.tree_edges))) != k - 1:
            return TdViolation("tree-shape", f"{len(td.tree_edges)} edges for {k} bags")
        if flood(tree_adj, 1, (1 << k) - 1) != (1 << k) - 1:
            return TdViolation("tree-shape", "bag tree is disconnected")
    for v in range(G.n):
        if not holders[v]:
            return TdViolation("vertex-coverage", f"agent {v} appears in no bag")
    bags = td.bags
    for u, v in G.edges:
        if not any(v in bags[i] for i in iter_bits(holders[u])):
            return TdViolation("edge-coverage", f"edge ({u},{v}) not covered by any bag")
    # connected-subtree condition per vertex
    for v in range(G.n):
        held = holders[v]
        if flood(tree_adj, held & -held, held) != held:
            return TdViolation("connectivity", f"bags containing agent {v} are not connected")
    return td.width()


def _bag_tree(td: TreeDecomposition) -> list[int]:
    """Each bag's neighbours in the decomposition's tree, as a bitmask."""
    adj = [0] * len(td.bags)
    for a, b in td.tree_edges:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    return adj


def ensure_valid(G: SocialNetwork, td: TreeDecomposition) -> int:
    result = validate(G, td)
    if isinstance(result, TdViolation):
        raise ValueError(f"invalid tree decomposition: {result.kind}: {result.detail}")
    return result


def _exact_elimination_order(G: SocialNetwork) -> list[int]:
    """Optimal elimination order by dynamic programming over vertex subsets.

    width[mask] is the best width of eliminating ``mask`` first; the last of
    them, v, costs the number of outside neighbours of v's component in
    G[mask], so one component search per mask prices every v in it.  Ties go
    to the smallest v.
    """
    n = G.n
    adj = G.adj_mask
    full = G.full_mask
    shift = n.bit_length()
    low_bits = (1 << shift) - 1
    reach = [0] * (full + 1)  # union of the neighbourhoods of mask's members
    for mask in range(1, full + 1):
        low = mask & -mask
        reach[mask] = reach[mask ^ low] | adj[low.bit_length() - 1]
    width = [-1] * (full + 1)
    choice = [0] * (full + 1)
    for mask in range(1, full + 1):
        best = (n + 1) << shift  # (width << shift) | v
        rest = mask
        while rest:
            comp = rest & -rest
            while True:
                grown = comp | (reach[comp] & mask)
                if grown == comp:
                    break
                comp = grown
            rest ^= comp
            q = (reach[comp] & ~mask).bit_count()
            bits = comp
            while bits:
                low = bits & -bits
                bits ^= low
                w = width[mask ^ low]
                key = ((w if w > q else q) << shift) | (low.bit_length() - 1)
                if key < best:
                    best = key
        width[mask] = best >> shift
        choice[mask] = best & low_bits
    order_rev = []
    mask = full
    while mask:
        v = choice[mask]
        order_rev.append(v)
        mask ^= 1 << v
    return list(reversed(order_rev))


def _min_fill_order(G: SocialNetwork) -> list[int]:
    """Min-fill elimination order: repeatedly eliminate the vertex whose
    remaining neighbours miss the fewest edges among themselves, ties to the
    lower remaining degree, then the lower id.  Eliminating v joins its
    neighbours into a clique, which changes the keys of its neighbours and of
    their neighbours only; those are recomputed, and the next vertex comes
    off a heap that skips stale keys."""
    adj = [set(G.adj[v]) for v in range(G.n)]

    def key(v):
        neigh = adj[v]
        fill = sum(1 for u in neigh for w in neigh if u < w and w not in adj[u])
        return (fill, len(neigh), v)

    keys: list = [key(v) for v in range(G.n)]
    heap = list(keys)
    heapq.heapify(heap)
    order = []
    while heap:
        top = heapq.heappop(heap)
        v = top[2]
        if keys[v] != top:
            continue
        keys[v] = None
        order.append(v)
        neigh = adj[v]
        for u in neigh:
            adj[u].discard(v)
            adj[u] |= neigh
            adj[u].discard(u)
        near = set(neigh)
        for u in neigh:
            near |= adj[u]
        for x in near:
            new = key(x)
            if new != keys[x]:
                keys[x] = new
                heapq.heappush(heap, new)
    return order


def decomposition_from_order(G: SocialNetwork, order: list[int]) -> TreeDecomposition:
    """Bags from an elimination order, connected into a tree in the standard way."""
    n = G.n
    position = {v: i for i, v in enumerate(order)}
    adj = [set(G.adj[v]) for v in range(n)]
    bags: list[frozenset[int]] = [frozenset()] * n
    later_neighbors: list[set[int]] = [set()] * n
    for v in order:
        neigh = {u for u in adj[v] if position[u] > position[v]}
        bags[position[v]] = frozenset({v} | neigh)
        later_neighbors[position[v]] = neigh
        for u in neigh:
            adj[u].discard(v)
            for w in neigh:
                if u != w:
                    adj[u].add(w)
    edges = []
    for i in range(n - 1):
        neigh = later_neighbors[i]
        if neigh:
            parent = min(neigh, key=lambda u: position[u])
            edges.append((i, position[parent]))
        else:
            # last vertex of its component: attach as a leaf anywhere later
            edges.append((i, i + 1))
    return TreeDecomposition(tuple(bags), tuple(edges), n)


def compute_decomposition(G: SocialNetwork) -> TreeDecomposition:
    """A valid decomposition from the min-fill elimination order, built once
    per graph object."""
    td = G.structure.get("decomposition")
    if td is None:
        td = decomposition_from_order(G, _min_fill_order(G))
        ensure_valid(G, td)
        G.structure["decomposition"] = td
    return td


def exact_treewidth(G: SocialNetwork) -> int:
    """Treewidth by the exact subset DP, once per graph object.  It never
    reads the kept decomposition, whose min-fill width may be larger."""
    tw = G.structure.get("treewidth")
    if tw is None:
        tw = G.structure["treewidth"] = decomposition_from_order(G, _exact_elimination_order(G)).width()
    return tw


@dataclass(frozen=True)
class NiceNode:
    kind: str  # "leaf" | "introduce" | "forget" | "join"
    bag: frozenset[int]
    children: tuple[int, ...]
    agent: Optional[int] = None


@dataclass(frozen=True)
class NiceTreeDecomposition:
    nodes: tuple[NiceNode, ...]
    root: int

    def width(self) -> int:
        return max(len(node.bag) for node in self.nodes) - 1

    def postorder(self) -> list[int]:
        out: list[int] = []
        stack: list[tuple[int, bool]] = [(self.root, False)]
        while stack:
            idx, expanded = stack.pop()
            if expanded:
                out.append(idx)
            else:
                stack.append((idx, True))
                for c in self.nodes[idx].children:
                    stack.append((c, False))
        return out


class _NiceBuilder:
    def __init__(self):
        self.nodes: list[NiceNode] = []

    def add(self, kind, bag, children=(), agent=None) -> int:
        self.nodes.append(NiceNode(kind, frozenset(bag), tuple(children), agent))
        return len(self.nodes) - 1

    def morph(self, top: int, target: frozenset[int]) -> int:
        """Chain forgets then introduces so the top bag becomes ``target``."""
        current = self.nodes[top].bag
        for v in sorted(current - target):
            current = current - {v}
            top = self.add("forget", current, (top,), v)
        for v in sorted(target - current):
            current = current | {v}
            top = self.add("introduce", current, (top,), v)
        return top

    def chain_from_empty(self, target: frozenset[int]) -> int:
        top = self.add("leaf", frozenset())
        return self.morph(top, target)


def make_nice(td: TreeDecomposition, start: int = 0) -> NiceTreeDecomposition:
    """Nice decomposition of the same width, rooted above bag ``start``:
    empty root/leaf bags, unary introduce/forget steps, binary joins.

    A bag with several children joins them on the bag they share: the union
    of each child's bag cut to the parent bag.  Each child is morphed to that
    shared bag, the joins run there, and the rest of the parent bag is
    introduced once, after the last join."""
    adj = _bag_tree(td)
    builder = _NiceBuilder()

    def frame(node, parent):
        bag = td.bags[node]
        children = [c for c in iter_bits(adj[node]) if c != parent]
        shared = frozenset().union(*(td.bags[c] & bag for c in children))
        return node, children, shared, []

    # Depth first from ``start`` on an explicit stack, so that a long path
    # stays clear of Python's recursion limit.  A leaf bag grows from an empty
    # leaf; an inner bag joins its children's tops (children ascending), each
    # morphed to the shared bag once that child's subtree is built.  A frame
    # is (bag, its children, their shared bag, their morphed tops so far);
    # ``top`` carries a finished subtree's top up to its parent's frame.
    stack = [frame(start, None)]
    top = None
    while stack:
        node, children, shared, tops = stack[-1]
        if top is not None:
            tops.append(builder.morph(top, shared))
            top = None
        if len(tops) < len(children):
            stack.append(frame(children[len(tops)], node))
            continue
        stack.pop()
        if not children:
            top = builder.chain_from_empty(td.bags[node])
            continue
        top = tops[0]
        for other in tops[1:]:
            top = builder.add("join", shared, (top, other))
        top = builder.morph(top, td.bags[node])
    root = builder.morph(top, frozenset())
    if builder.nodes[root].bag:
        raise AssertionError("root bag not empty after morph")
    if len(builder.nodes) == 1:
        # decomposition was a single empty bag: the leaf is the root
        root = 0
    return NiceTreeDecomposition(tuple(builder.nodes), root)


def validate_nice(G: SocialNetwork, ntd: NiceTreeDecomposition) -> Union[int, TdViolation]:
    """Validity of the underlying decomposition plus the niceness shape rules."""
    nodes = ntd.nodes
    if nodes[ntd.root].bag:
        return TdViolation("tree-shape", "root bag not empty")
    for idx, node in enumerate(nodes):
        if node.kind == "leaf":
            if node.children or node.bag:
                return TdViolation("tree-shape", f"leaf node {idx} malformed")
        elif node.kind == "introduce":
            if len(node.children) != 1 or node.agent is None:
                return TdViolation("tree-shape", f"introduce node {idx} malformed")
            child = nodes[node.children[0]]
            if node.bag != child.bag | {node.agent} or node.agent in child.bag:
                return TdViolation("tree-shape", f"introduce node {idx} bag mismatch")
        elif node.kind == "forget":
            if len(node.children) != 1 or node.agent is None:
                return TdViolation("tree-shape", f"forget node {idx} malformed")
            child = nodes[node.children[0]]
            if node.bag != child.bag - {node.agent} or node.agent not in child.bag:
                return TdViolation("tree-shape", f"forget node {idx} bag mismatch")
        elif node.kind == "join":
            if len(node.children) != 2:
                return TdViolation("tree-shape", f"join node {idx} needs two children")
            if any(nodes[c].bag != node.bag for c in node.children):
                return TdViolation("tree-shape", f"join node {idx} children bags differ")
        else:
            return TdViolation("tree-shape", f"unknown node kind {node.kind!r}")
    # convert to a plain decomposition and reuse the three-condition validator
    reachable = set(ntd.postorder())
    bags = tuple(nodes[i].bag for i in sorted(reachable))
    index = {old: new for new, old in enumerate(sorted(reachable))}
    edges = tuple(
        (index[i], index[c])
        for i in sorted(reachable)
        for c in nodes[i].children
    )
    return validate(G, TreeDecomposition(bags, edges, G.n))


def join_cost(G: SocialNetwork, td: TreeDecomposition, start: int) -> int:
    """Estimated cost of the DP's joins on ``make_nice(td, start)``: the sum
    over its join nodes of (a_L + |B|)(a_R + |B|), where B is the join's bag
    and a_X counts the agents forgotten below child X that have a neighbour
    in B.  Those agents are what a record's cells can still tally against
    the bag, so the two factors stand for the sizes of the tables the join
    crosses.  It reads ``td`` itself, without building the nice form: a
    join's branch has forgotten exactly its subtree's agents outside the
    shared bag."""
    tree = _bag_tree(td)
    masks = [sum(1 << v for v in bag) for bag in td.bags]
    layers = bfs_layers(tree, 1 << start, (1 << len(tree)) - 1) + [0]
    # rooted at start, a bag's children are its tree neighbours in the next
    # layer; deepest bags first, so children come before their parent
    outer = {x: layers[d + 1] for d in range(len(layers) - 1) for x in iter_bits(layers[d])}
    below = list(masks)  # bag -> mask of the agents in its subtree's bags
    cost = 0
    for x in reversed(outer):
        children = list(iter_bits(tree[x] & outer[x]))
        for c in children:
            below[x] |= below[c]
        if len(children) < 2:
            continue
        # the children join in ascending order on their shared bag, as in
        # make_nice: the left side is every child joined so far
        shared = 0
        for c in children:
            shared |= masks[c] & masks[x]
        near = 0  # the forgotten agents that count: neighbours of the bag
        for v in iter_bits(shared):
            near |= G.adj_mask[v]
        near &= ~shared
        size = shared.bit_count()
        left = below[children[0]]
        for c in children[1:]:
            cost += ((left & near).bit_count() + size) * ((below[c] & near).bit_count() + size)
            left |= below[c]
    return cost


def nice_decomposition(G: SocialNetwork) -> NiceTreeDecomposition:
    """The nice form of ``compute_decomposition(G)`` rooted above bag 0 or
    above the last bag, the elimination order's own root, whichever has the
    lower ``join_cost`` (bag 0 on a tie); built once per graph object.  The
    choice reads the graph and the decomposition only, never a vector."""
    ntd = G.structure.get("nice")
    if ntd is None:
        td = compute_decomposition(G)
        last = len(td.bags) - 1
        start = last if join_cost(G, td, last) < join_cost(G, td, 0) else 0
        ntd = G.structure["nice"] = make_nice(td, start)
    return ntd
