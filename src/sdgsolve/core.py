"""Core types for score-based social distance games.

A game is a simple undirected network over agents 0..n-1 together with a
non-increasing integer scoring vector.  An agent's utility in a coalition is
the sum of scores of its shortest-path distances (inside the coalition's
induced subgraph) to every other member.  Distances beyond the vector's reach
score minus infinity for closed-tail vectors and clamp to the last entry for
open-tail ones; unreachable members always score minus infinity.
"""

from dataclasses import dataclass
from operator import mul
from typing import Iterable, Iterator, Optional, Union


class ResourceLimitError(RuntimeError):
    """A solver exceeded its configured search budget."""


class UnsupportedInputError(ValueError):
    """The requested operation does not support this input combination."""


# Minus infinity is IEEE -inf: absorbing under + and below every int.  Sums
# make new -inf objects, so compare it by value; an identity test is safe only
# on what ScoringVector.score returns.
NEG_INF = float("-inf")

# an int, or NEG_INF: the only float a utility, score or distance takes
ExtInt = Union[int, float]


@dataclass(frozen=True)
class ScoringVector:
    """Non-increasing integer scores for distances 1..len(scores).

    ``tail`` decides what happens beyond the last scored distance: a closed
    tail makes larger distances inadmissible (score NEG_INF), an open tail
    repeats the last entry.
    """

    scores: tuple[int, ...]
    tail: str = "closed"

    def __post_init__(self):
        scores = tuple(int(v) for v in self.scores)
        object.__setattr__(self, "scores", scores)
        if len(scores) < 1:
            raise ValueError("scoring vector needs at least one entry")
        if any(scores[i + 1] > scores[i] for i in range(len(scores) - 1)):
            raise ValueError(f"scores must be non-increasing: {scores}")
        if self.tail not in ("closed", "open"):
            raise ValueError(f"tail must be 'closed' or 'open', got {self.tail!r}")

    @property
    def cutoff(self) -> int:
        """Largest explicitly scored distance."""
        return len(self.scores)

    @property
    def max_score(self) -> int:
        """Score of distance 1, the best any single member can contribute."""
        return self.scores[0]

    @property
    def is_closed(self) -> bool:
        return self.tail == "closed"

    def score(self, d: ExtInt) -> ExtInt:
        """Score of coalition distance ``d``: NEG_INF beyond a closed tail and
        for the distance NEG_INF of an unreachable member."""
        scores = self.scores
        if d <= len(scores):
            if d >= 1:
                return scores[d - 1]
            if d == NEG_INF:
                return NEG_INF
            raise ValueError(f"distance must be a positive integer or NEG_INF, got {d!r}")
        # the field, not the is_closed property: the DPs call this per pair
        return NEG_INF if self.tail == "closed" else scores[-1]

    @classmethod
    def parse(cls, text: str, tail: str = "closed") -> "ScoringVector":
        """Scores from comma-separated integers; spaces are ignored, and an
        empty entry (``"1,,-1"``, ``",1"``, ``"1,0,"``) is an error."""
        tokens = text.replace(" ", "").split(",")
        if "" in tokens:
            raise ValueError(f"empty entry in scoring vector {text!r}")
        try:
            scores = tuple(int(tok) for tok in tokens)
        except ValueError as exc:
            raise ValueError(f"cannot parse scoring vector {text!r}") from exc
        return cls(scores, tail)

    def __str__(self):
        body = ",".join(str(v) for v in self.scores)
        return f"({body}){'' if self.is_closed else ' open'}"


def iter_bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class SocialNetwork:
    """Immutable simple undirected graph over agents 0..n-1.

    Adjacency is kept both as frozensets and as bitmasks; the bitmask form
    drives all BFS work in the solvers.  ``structure`` holds what is computed
    from the graph alone, on first use, by the function that computes it (the
    tree decompositions, the minimum vertex cover, the components'
    subgraphs), so every query on one graph object reuses it; it takes no
    part in equality or hashing.

    Edge (u, v), u < v, of rank r in the sorted ``edges`` owns bit
    ``m - 1 - r`` of an outcome's key, the OR of the bits of every edge
    inside a coalition: the solvers' tie-break is the smallest key among the
    maximum-welfare outcomes.
    """

    __slots__ = ("n", "edges", "adj", "adj_mask", "_full_mask", "_key_top", "structure")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 1:
            raise ValueError("network needs at least one agent")
        seen: set[tuple[int, int]] = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for {n} agents")
            if u == v:
                raise ValueError(f"self-loop at agent {u}")
            seen.add((min(u, v), max(u, v)))
        self.n = n
        self.edges = tuple(sorted(seen))
        adj: list[set[int]] = [set() for _ in range(n)]
        masks = [0] * n
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        self.adj = tuple(frozenset(a) for a in adj)
        self.adj_mask = tuple(masks)
        self._full_mask = (1 << n) - 1
        self._key_top = None
        self.structure: dict = {}

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def max_degree(self) -> int:
        return max(len(a) for a in self.adj)

    @property
    def full_mask(self) -> int:
        return self._full_mask

    def mask_of(self, agents: Iterable[int]) -> int:
        m = 0
        for a in agents:
            m |= 1 << a
        return m

    def edge_key_to(self, a: int, mask: int) -> int:
        """Key bits of agent a's edges into the agents of ``mask``."""
        adj, top = self.adj_mask, self._key_top
        if top is None:
            # edge (u, v), u < v, owns key bit top[u] less the number of u's
            # neighbours below v, that is m - 1 less its rank in the sorted
            # edges; built on first use, as generators make many throwaway graphs
            tops, rank = [], 0
            for u, nbrs in enumerate(adj):
                tops.append(len(self.edges) - 1 - rank + (nbrs & ((1 << u) - 1)).bit_count())
                rank += (nbrs >> (u + 1)).bit_count()
            top = self._key_top = tuple(tops)
        key = 0
        for b in iter_bits(adj[a] & mask):
            u, v = (a, b) if a < b else (b, a)
            key |= 1 << (top[u] - (adj[u] & ((1 << v) - 1)).bit_count())
        return key

    def edge_key(self, mask: int) -> int:
        """Key bits of the edges inside the agents of ``mask``."""
        key = 0
        for a in iter_bits(mask):
            key |= self.edge_key_to(a, mask & ((1 << a) - 1))
        return key

    def outcome_of_key(self, key: int) -> "Outcome":
        """The outcome whose coalitions are the components of the edges that
        ``key`` sets.  A coalition of finite welfare is connected, so this
        inverts the key of every such outcome."""
        m = len(self.edges)
        inside = SocialNetwork(self.n, [self.edges[m - 1 - bit] for bit in iter_bits(key)])
        return Outcome.from_blocks(inside.components())

    def distances_in(self, members_mask: int, source: int) -> dict[int, int]:
        """BFS distances from ``source`` inside the induced subgraph on ``members_mask``.

        Only reachable members appear in the result; the source maps to 0.
        """
        if not (members_mask >> source) & 1:
            raise ValueError(f"source {source} not in the member set")
        seen = 1 << source
        frontier = seen
        dist = {source: 0}
        d = 0
        adj = self.adj_mask
        while frontier:
            nxt = 0
            for v in iter_bits(frontier):
                nxt |= adj[v]
            nxt &= members_mask & ~seen
            if not nxt:
                break
            d += 1
            for v in iter_bits(nxt):
                dist[v] = d
            seen |= nxt
            frontier = nxt
        return dist

    def layer_sizes(self, members_mask: int, source: int) -> list[int]:
        """BFS layer sizes from ``source`` inside the induced subgraph on
        ``members_mask``: entry d is the number of members at distance d, so
        entry 0 is 1, the list has one entry past the source's eccentricity
        among reachable members, and the entries sum to the reachable count."""
        if not (members_mask >> source) & 1:
            raise ValueError(f"source {source} not in the member set")
        adj = self.adj_mask
        frontier = 1 << source
        unseen = members_mask ^ frontier
        sizes = [1]
        while True:
            nxt = 0
            while frontier:
                low = frontier & -frontier
                nxt |= adj[low.bit_length() - 1]
                frontier ^= low
            frontier = nxt & unseen
            if not frontier:
                return sizes
            unseen ^= frontier
            sizes.append(frontier.bit_count())

    def is_connected_within(self, members_mask: int) -> bool:
        if members_mask == 0:
            return True
        source = (members_mask & -members_mask).bit_length() - 1
        return len(self.distances_in(members_mask, source)) == members_mask.bit_count()

    def components(self) -> list[frozenset[int]]:
        remaining = self._full_mask
        out = []
        while remaining:
            source = (remaining & -remaining).bit_length() - 1
            reached = self.distances_in(remaining, source)
            comp = frozenset(reached)
            out.append(comp)
            remaining &= ~self.mask_of(comp)
        return [c for c in sorted(out, key=min)]

    def induced(self, agents: Iterable[int]) -> tuple["SocialNetwork", dict[int, int]]:
        """Induced subgraph on ``agents`` relabeled to 0..k-1; returns (graph, old->new)."""
        keep = sorted(set(agents))
        relabel = {old: new for new, old in enumerate(keep)}
        edges = [
            (relabel[u], relabel[v])
            for u, v in self.edges
            if u in relabel and v in relabel
        ]
        return SocialNetwork(len(keep), edges), relabel

    def __eq__(self, other):
        return (
            isinstance(other, SocialNetwork)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"SocialNetwork(n={self.n}, m={len(self.edges)})"


@dataclass(frozen=True)
class Outcome:
    """A partition of the agents into coalitions, kept in canonical order.

    Coalitions are sorted by their smallest member and each coalition's
    members are ascending, so equal partitions compare equal and sort keys
    are stable across solvers.
    """

    coalitions: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        blocks = tuple(sorted(tuple(sorted(set(c))) for c in self.coalitions))
        if any(len(b) == 0 for b in blocks):
            raise ValueError("empty coalition")
        seen: set[int] = set()
        for b in blocks:
            for a in b:
                if a in seen:
                    raise ValueError(f"agent {a} appears in two coalitions")
                seen.add(a)
        object.__setattr__(self, "coalitions", blocks)

    @classmethod
    def from_blocks(cls, blocks: Iterable[Iterable[int]]) -> "Outcome":
        return cls(tuple(tuple(b) for b in blocks))

    @classmethod
    def singletons(cls, n: int) -> "Outcome":
        return cls(tuple((i,) for i in range(n)))

    def agents(self) -> frozenset[int]:
        return frozenset(a for b in self.coalitions for a in b)

    def coalition_of(self, agent: int) -> tuple[int, ...]:
        for b in self.coalitions:
            if agent in b:
                return b
        raise KeyError(f"agent {agent} not in outcome")

    def coalition_index_of(self, agent: int) -> int:
        for i, b in enumerate(self.coalitions):
            if agent in b:
                return i
        raise KeyError(f"agent {agent} not in outcome")

    def __iter__(self):
        return iter(self.coalitions)

    def __len__(self):
        return len(self.coalitions)


def validate_outcome(G: SocialNetwork, outcome: Outcome) -> None:
    """Raise ValueError naming the offending agent if not a partition of G's agents."""
    seen = outcome.agents()
    for a in range(G.n):
        if a not in seen:
            raise ValueError(f"agent {a} missing from outcome")
    for a in seen:
        if not (0 <= a < G.n):
            raise ValueError(f"agent {a} outside network range 0..{G.n - 1}")


def coalition_distance(G: SocialNetwork, coalition: Iterable[int], i: int, j: int) -> ExtInt:
    """Shortest-path distance between i and j inside the induced subgraph on the coalition."""
    members = frozenset(coalition)
    if i not in members:
        raise ValueError(f"agent {i} not in coalition")
    if j not in members:
        raise ValueError(f"agent {j} not in coalition")
    if i == j:
        return 0
    dist = G.distances_in(G.mask_of(members), i)
    return dist.get(j, NEG_INF)


def utility_from_distances(s: ScoringVector, dist: dict, size: int) -> ExtInt:
    """Utility of a BFS source from its distances ``dist`` (itself at 0) in
    a coalition of ``size`` members: NEG_INF if some member is unreachable
    or beyond a closed tail, otherwise the sum of the scores."""
    if len(dist) < size:
        return NEG_INF
    score = s.score
    total = 0
    for d in dist.values():
        if d:
            sc = score(d)
            if sc is NEG_INF:
                return NEG_INF
            total += sc
    return total


def member_utility(s: ScoringVector, G: SocialNetwork, mask: int, i: int) -> ExtInt:
    """Utility of member i of the coalition with member bitmask ``mask``."""
    if mask == 1 << i:
        return 0
    return utility_from_distances(s, G.distances_in(mask, i), mask.bit_count())


def utility_in_coalition(s: ScoringVector, G: SocialNetwork, coalition: Iterable[int], i: int) -> ExtInt:
    """Utility of agent i inside one coalition; 0 in a singleton, NEG_INF if i cannot reach everyone."""
    members = frozenset(coalition)
    if i not in members:
        raise ValueError(f"agent {i} not in coalition")
    return member_utility(s, G, G.mask_of(members), i)


def ball_distances(G: SocialNetwork, source: int, radius: int) -> dict[int, int]:
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


def cutoff_balls(s: ScoringVector, G: SocialNetwork) -> Optional[tuple[int, ...]]:
    """Per agent, the bitmask of the agents at most ``s.cutoff`` from it in
    G, itself included; None for an open tail.  A coalition distance is
    never shorter than the distance in G, so under a closed tail every
    coalition of finite welfare lies inside each of its members' balls."""
    if not s.is_closed:
        return None
    return tuple(G.mask_of(ball_distances(G, a, s.cutoff)) for a in range(G.n))


class CoalitionEvaluator:
    """Utilities over one network under one scoring vector, cached by member
    bitmask: a coalition's utilities, or one member's, cost one BFS per
    member the first time they are asked for and a lookup after that.

    A member's utility is read off its BFS layer sizes: the number of members
    at distance d times the score of d, summed.  ``_table[d]`` is that score,
    so no per-member distance map is built."""

    __slots__ = ("s", "G", "_table", "_stats", "_utility")

    def __init__(self, s: ScoringVector, G: SocialNetwork):
        self.s = s
        self.G = G
        # a member's distance inside a coalition is below n
        self._table = [0] + [s.score(d) for d in range(1, G.n)]
        self._stats: dict[int, tuple[ExtInt, ExtInt, dict[int, ExtInt]]] = {}
        self._utility: dict[tuple[int, int], ExtInt] = {}

    def stats(self, mask: int) -> tuple[ExtInt, ExtInt, dict[int, ExtInt]]:
        """(welfare, worst member utility, member -> utility) of the coalition
        with member bitmask ``mask``."""
        cached = self._stats.get(mask)
        return cached if cached is not None else self._measure(mask)[0]

    def utility(self, i: int, mask: int) -> ExtInt:
        """Utility of member i of the coalition with bitmask ``mask``, read
        from that coalition's stats when they are cached.  Agent i's utility
        after joining a coalition ``c`` is ``utility(i, c | 1 << i)``."""
        cached = self._stats.get(mask)
        if cached is not None:
            return cached[2][i]
        key = (i, mask)
        u = self._utility.get(key)
        if u is None:
            u = self._utility[key] = 0 if mask == 1 << i else self._member(i, mask, mask.bit_count())[0]
        return u

    def diameter(self, mask: int) -> ExtInt:
        """``coalition_diameter`` of the coalition with bitmask ``mask``, from
        the BFS runs that also give (and cache) its stats."""
        return self._measure(mask)[1]

    def _measure(self, mask: int) -> tuple[tuple[ExtInt, ExtInt, dict[int, ExtInt]], ExtInt]:
        """The coalition's stats, which it caches, and its diameter: the
        largest eccentricity, or NEG_INF when the coalition is disconnected
        (then no member reaches every other, so one BFS settles it)."""
        size = mask.bit_count()
        utils: dict[int, ExtInt] = {}
        diameter: ExtInt = 0
        for i in iter_bits(mask):
            if size == 1:  # no BFS for a singleton
                utils[i] = 0
                break
            u, eccentricity = self._member(i, mask, size)
            if eccentricity == NEG_INF:
                utils = dict.fromkeys(iter_bits(mask), NEG_INF)
                diameter = NEG_INF
                break
            utils[i] = u
            diameter = max(diameter, eccentricity)
        result = self._stats[mask] = (sum(utils.values()), min(utils.values()), utils)
        return result, diameter

    def _member(self, i: int, mask: int, size: int) -> tuple[ExtInt, ExtInt]:
        """Member i's utility and eccentricity in the ``size``-member
        coalition ``mask`` from one BFS; both NEG_INF when i misses a member."""
        layers = self.G.layer_sizes(mask, i)
        if sum(layers) < size:
            return NEG_INF, NEG_INF
        return sum(map(mul, layers, self._table)), len(layers) - 1


def agent_utility(s: ScoringVector, G: SocialNetwork, outcome: Outcome, i: int) -> ExtInt:
    """Utility of agent i under the outcome."""
    return utility_in_coalition(s, G, outcome.coalition_of(i), i)


def coalition_welfare(s: ScoringVector, G: SocialNetwork, coalition: Iterable[int]) -> ExtInt:
    """Total utility of a coalition's members (its contribution to social welfare)."""
    members = tuple(sorted(set(coalition)))
    total: ExtInt = 0
    mask = G.mask_of(members)
    for i in members:
        u = member_utility(s, G, mask, i)
        if u == NEG_INF:
            return NEG_INF
        total += u
    return total


def social_welfare(s: ScoringVector, G: SocialNetwork, outcome: Outcome) -> ExtInt:
    """Sum of all agents' utilities; NEG_INF-absorbing."""
    return sum(coalition_welfare(s, G, block) for block in outcome)


def coalition_diameter(G: SocialNetwork, coalition: Iterable[int]) -> ExtInt:
    """Largest pairwise induced distance; NEG_INF when the coalition is disconnected."""
    mask = G.mask_of(coalition)
    if not mask:
        raise ValueError("empty coalition")
    dists = [G.distances_in(mask, i) for i in iter_bits(mask)]
    if any(len(d) < mask.bit_count() for d in dists):
        return NEG_INF
    return max(max(d.values()) for d in dists)


@dataclass(frozen=True)
class SolveResult:
    """Outcome returned by a solver together with its welfare and provenance."""

    outcome: Outcome
    welfare: ExtInt
    mode: str
    optimal: bool = True
    algorithm: str = ""
    size_limited: bool = False


MODES = ("welfare", "ir", "ns")


def check_mode(mode: str) -> str:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    return mode
