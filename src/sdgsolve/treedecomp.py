"""Tree decompositions: PACE-format ingestion, validation, exact/heuristic
construction, and conversion to nice form (leaf/introduce/forget/join nodes
with empty root and leaf bags).

Up to 14 agents a decomposition comes from the exact subset DP, so its width
is optimal and the solvers' tie-breaks see the same decomposition for the
same labelled graph; above 14 it comes from the min-fill elimination order.
A graph object keeps its decomposition and its nice form once built, so
every width question and every DP on it reads the same one.
"""

import heapq
from dataclasses import dataclass
from typing import Optional, Union

from .core import SocialNetwork


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
    kind: str  # "bag-range" | "tree-shape" | "vertex-coverage" | "edge-coverage" | "connectivity"
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
    count and a repeated bag id (naming the first line).  Vertex ranges and
    the tree's shape are left to ``validate``."""
    n_bags = None
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
                n_bags, _max_bag, n_vertices = int(parts[2]), int(parts[3]), int(parts[4])
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
            first = bag_lines.setdefault(bag_id, line_no)
            if first != line_no:
                raise TdParseError(line_no, f"bag {bag_id} repeats the bag of line {first}")
            bags[bag_id] = frozenset(members)
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
    k = len(td.bags)
    holders: list[list[int]] = [[] for _ in range(G.n)]
    for i, bag in enumerate(td.bags):
        for v in bag:
            if not 0 <= v < G.n:
                return TdViolation("bag-range", f"bag {i} contains vertex {v} outside 0..{G.n - 1}")
            holders[v].append(i)
    tree_adj: list[set[int]] = [set() for _ in range(k)]
    for a, b in td.tree_edges:
        tree_adj[a].add(b)
        tree_adj[b].add(a)
    # the tree must actually be a tree over the bags
    if k > 1:
        if len(set(map(lambda e: (min(e), max(e)), td.tree_edges))) != k - 1:
            return TdViolation("tree-shape", f"{len(td.tree_edges)} edges for {k} bags")
        if len(_reach(tree_adj, [0], None)) != k:
            return TdViolation("tree-shape", "bag tree is disconnected")
    for v in range(G.n):
        if not holders[v]:
            return TdViolation("vertex-coverage", f"agent {v} appears in no bag")
    bags = td.bags
    for u, v in G.edges:
        if not any(v in bags[i] for i in holders[u]):
            return TdViolation("edge-coverage", f"edge ({u},{v}) not covered by any bag")
    # connected-subtree condition per vertex
    for v in range(G.n):
        held = holders[v]
        if len(_reach(tree_adj, held[:1], set(held))) != len(held):
            return TdViolation("connectivity", f"bags containing agent {v} are not connected")
    return td.width()


def _reach(tree_adj, start, within):
    """Bags reachable from ``start`` over the tree, through bags in
    ``within`` only (all bags when it is None)."""
    seen = set(start)
    stack = list(start)
    while stack:
        x = stack.pop()
        for y in tree_adj[x]:
            if y not in seen and (within is None or y in within):
                seen.add(y)
                stack.append(y)
    return seen


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


EXACT_LIMIT = 14


def compute_decomposition(G: SocialNetwork) -> TreeDecomposition:
    """A valid decomposition, width-optimal up to ``EXACT_LIMIT`` agents and
    from min-fill beyond; built once per graph object."""
    td = G.structure.get("decomposition")
    if td is None:
        order = _exact_elimination_order(G) if G.n <= EXACT_LIMIT else _min_fill_order(G)
        td = decomposition_from_order(G, order)
        ensure_valid(G, td)
        G.structure["decomposition"] = td
    return td


def exact_treewidth(G: SocialNetwork) -> int:
    """Treewidth by the exact subset DP; up to ``EXACT_LIMIT`` agents that is
    the kept decomposition's width."""
    if G.n <= EXACT_LIMIT:
        return compute_decomposition(G).width()
    return decomposition_from_order(G, _exact_elimination_order(G)).width()


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


def make_nice(td: TreeDecomposition) -> NiceTreeDecomposition:
    """Nice decomposition of the same width: empty root/leaf bags, unary
    introduce/forget steps, binary joins."""
    k = len(td.bags)
    adj: list[set[int]] = [set() for _ in range(k)]
    for a, b in td.tree_edges:
        adj[a].add(b)
        adj[b].add(a)
    builder = _NiceBuilder()
    # Depth first from bag 0 on an explicit stack, so that a long path stays
    # clear of Python's recursion limit.  A leaf bag grows from an empty leaf;
    # an inner bag joins its children's tops (children ascending), each
    # morphed to the inner bag once that child's subtree is built.  A frame is
    # (bag, its children, their morphed tops so far); ``top`` carries a
    # finished subtree's top up to its parent's frame.
    stack = [(0, sorted(adj[0]), [])]
    top = None
    while stack:
        node, children, tops = stack[-1]
        if top is not None:
            tops.append(builder.morph(top, td.bags[node]))
            top = None
        if len(tops) < len(children):
            child = children[len(tops)]
            stack.append((child, sorted(c for c in adj[child] if c != node), []))
            continue
        stack.pop()
        if not children:
            top = builder.chain_from_empty(td.bags[node])
            continue
        top = tops[0]
        for other in tops[1:]:
            top = builder.add("join", td.bags[node], (top, other))
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


def nice_decomposition(G: SocialNetwork) -> NiceTreeDecomposition:
    """``make_nice(compute_decomposition(G))``, built once per graph object."""
    ntd = G.structure.get("nice")
    if ntd is None:
        ntd = G.structure["nice"] = make_nice(compute_decomposition(G))
    return ntd
