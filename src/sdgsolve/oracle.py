"""Exhaustive partition enumeration and the brute-force reference solver.

Every other solver in the package is differential-tested against this one.
A coalition of finite welfare is connected, so the search runs over connected
blocks only: a subset DP for welfare and IR, and a branch and bound over the
partitions into IR-admissible connected blocks for NS (coalition structure
generation over graphs: Voice, Polukarov & Jennings, JAIR 2012).  Every NS
outcome is IR, so the IR subset DP's value of the agents still to place
bounds each NS branch exactly, and the search starts from the IR optimum
(branch and bound with a DP bound: Rahwan et al., JAIR 2009).
The subset DP solves each connected piece of the agents left once.  Every
admissible block has finite welfare, so it is connected and lies inside one
component of G[rem]; the partitions of rem are exactly the products of
partitions of its components, welfare adds over them, and IR admissibility
is per block.  So the best of a disconnected rem is the sum of its
components' bests, and, as keys of disjoint edge sets add (OR is sum here)
and a maximum total needs every component at its own maximum, its smallest
key is the OR of theirs.  The NS search does not split: a deviation can go
into an already placed block that touches two pieces.  It reads its bound
from the split DP.
Under a closed tail both searches also skip every block with two members
farther apart in G than the cutoff (``core.cutoff_balls``): a coalition
distance is never shorter than the distance in G, so such a block scores
minus infinity and no search keeps it.  The condition is pairwise, so every
subset of a passing block passes; ``_connected_blocks``, a loop over an
explicit stack of partial blocks, filters each extension by the balls of
the block's members and returns exactly the passing blocks, each once,
without measuring the others.
Each block comes with a cheap upper bound on its welfare, the sum over its
ordered member pairs of s(d_G(u, v)) (``_pair_rows``): valid for the same
reason, since scores do not increase.  Both searches measure a block only
while that bound plus the exact best of the agents left can still reach the
incumbent; a block that can only tie it is measured too, since it may carry
the smaller key (bound and prune over coalition values: Rahwan et al.,
JAIR 2009).
Every utility comes from one ``CoalitionEvaluator`` per solve, which caches
it by member bitmask; the NS search tests each candidate partition with the
same deviation search as ``stability.find_deviation``.
Both searches carry a partition as its outcome key, the OR of its blocks'
``SocialNetwork.edge_key``, take the smallest key among the best partitions
and decode it at the end: the blocks are connected, so they are the
components of the key's edges.
``enumerate_partitions`` keeps the plain Bell enumeration for tests.
"""

from heapq import heapify, heappop, heappush
from typing import Iterator, Optional

from .core import (
    NEG_INF,
    CoalitionEvaluator,
    ExtInt,
    ResourceLimitError,
    ScoringVector,
    SocialNetwork,
    SolveResult,
    bfs_layers,
    check_mode,
    cutoff_balls,
    flood,
)
from .stability import first_deviation

# the largest component that brute force solves by default, and so the
# largest that auto dispatch routes to it
DEFAULT_AGENT_CAP = 13

# per agent, (mask, weight) pairs: see _pair_rows
PairRows = tuple[tuple[tuple[int, int], ...], ...]


def enumerate_partitions(n: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All set partitions of {0..n-1}, in restricted-growth lexicographic order."""
    if n < 1:
        raise ValueError("n must be at least 1")
    assignment = [0] * n

    def rec(i: int, used: int):
        if i == n:
            blocks: list[list[int]] = [[] for _ in range(used)]
            for agent, b in enumerate(assignment):
                blocks[b].append(agent)
            yield tuple(tuple(b) for b in blocks)
            return
        for b in range(used + 1):
            assignment[i] = b
            yield from rec(i + 1, max(used, b + 1))

    yield from rec(1, 1)


def bell_number(n: int) -> int:
    """Bell number via the Bell triangle; used to sanity-check enumeration."""
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[-1] if n >= 1 else 1


def _pair_rows(s: ScoringVector, G: SocialNetwork) -> PairRows:
    """Per agent v, one (mask, 2·score) pair per nonzero score: mask holds
    the agents whose distance from v in G scores ``score``, so a block that
    gains v gains at most the sum of 2·score times the block's members in
    each mask (both ordered pairs of v and a member).  Under a closed tail
    only the distances up to the cutoff are priced (the balls keep the
    farther pairs out of every block); under an open tail every distance
    from the cutoff on scores the last entry, so they share one pair."""
    depth = s.cutoff if s.is_closed else None
    rows = []
    for v in range(G.n):
        by_score: dict[ExtInt, int] = {}
        for d, layer in enumerate(bfs_layers(G.adj_mask, 1 << v, G.full_mask, depth)[1:], 1):
            score = s.score(d)
            by_score[score] = by_score.get(score, 0) | layer
        rows.append(tuple((mask, 2 * score) for score, mask in by_score.items() if score))
    return tuple(rows)


def _connected_blocks(
    G: SocialNetwork,
    low: int,
    allowed: int,
    rows: PairRows,
    balls: Optional[tuple[int, ...]] = None,
) -> list[tuple[int, int]]:
    """(block, bound) for each connected subset of ``allowed`` that contains
    agent ``low``, once; with ``balls`` (``core.cutoff_balls``), only those
    whose members all lie in each other's balls.  ``bound``, the sum over
    the block's ordered member pairs of s(d_G(u, v)) priced by ``rows``
    (``_pair_rows``), is at least the block's welfare: a coalition distance
    is never shorter than the distance in G, and scores do not increase.

    Extension-set search over an explicit stack of (block, frontier, banned,
    near, bound): grow from {low}; an extension, once tried, is banned from
    the extensions tried after it at the same block and from all their
    descendants, so no block is reached twice.  A popped block's extensions
    are pushed highest agent first, so they pop lowest first and the blocks
    come out in depth-first preorder.  ``near``, the AND of the block's
    members' balls, filters both the new reach and the carried frontier: an
    agent outside it is in no passing superset of the block, and ``near``
    only shrinks as a block grows, so each passing block is reached along
    the same path as without balls.  Extension v adds its pairs with the
    block's members to the bound: a few popcounts, one per pair of v's row.
    """
    adj = G.adj_mask
    if balls is None:
        balls = (G.full_mask,) * G.n
    start = 1 << low
    blocks = []
    stack = [(start, adj[low] & allowed & ~start, start, balls[low], 0)]
    while stack:
        block, frontier, banned, near, bound = stack.pop()
        blocks.append((block, bound))
        # extension v bans every frontier agent up to v; the agents above
        # it stay in its frontier
        rest = frontier
        while rest:
            v = rest.bit_length() - 1
            bit = 1 << v
            rest ^= bit
            tried = banned | rest | bit
            inner = near & balls[v]
            grown = bound
            for mask, weight in rows[v]:
                grown += weight * (block & mask).bit_count()
            grown_frontier = ((frontier ^ rest ^ bit) | adj[v] & allowed & ~tried) & inner
            stack.append((block | bit, grown_frontier, tried, inner, grown))
    return blocks


class _BestPartition:
    """Subset DP: best(rem) = max of w(B) + best(rem ^ B) over admissible B
    (finite welfare and, if ``need_ir``, no member below utility 0) holding
    the lowest agent of rem, ties to the smallest outcome key.  The key of B
    plus rem ^ B's partition is the sum of their keys (no edge is inside
    both), so the smallest key of rem ^ B completes B best.

    A rem that G[rem] splits is not enumerated: with K the component of its
    lowest agent, best(rem) = (w_K + w_R, key_K | key_R) for R = rem ^ K,
    both from ``best``.  This is exact, tie-break included: an admissible
    block has finite welfare, so it is connected and lies inside one
    component, the partitions of rem are the products of partitions of K and
    R, welfare adds and IR admissibility is per block; keys of disjoint edge
    sets add, and a maximum total needs K and R each at its maximum, so the
    smallest key is the sum of the two smallest.  Only a connected rem runs
    the search below, so each piece of the graph is enumerated once, not
    once for every remainder it is part of.

    Every block's bound (``_connected_blocks``) plus best(rem ^ B) caps
    what B can reach, so the blocks are measured in descending order of
    that sum, and only while it reaches the best total so far: a block that
    can only tie is still measured, since it may carry a smaller key.
    ``best`` is memoised per bitmask for the object's lifetime.  It is a
    method, not a closure that calls itself: such a closure sits in a
    reference cycle, which would keep the memo and the evaluator's caches
    alive until the next full garbage collection rather than the solve's
    end."""

    __slots__ = ("ev", "need_ir", "balls", "rows", "memo", "block_keys")

    def __init__(self, ev: CoalitionEvaluator, need_ir: bool, balls: Optional[tuple[int, ...]], rows: PairRows):
        self.ev = ev
        self.need_ir = need_ir
        self.balls = balls
        self.rows = rows
        self.memo: dict[int, tuple[ExtInt, int]] = {0: (0, 0)}
        self.block_keys: dict[int, int] = {}

    def best(self, rem: int) -> tuple[ExtInt, int]:
        memo = self.memo
        hit = memo.get(rem)
        if hit is not None:
            return hit
        ev = self.ev
        G = ev.G
        low_bit = rem & -rem
        low = low_bit.bit_length() - 1
        # the component of the lowest agent in G[rem]
        piece = flood(G.adj_mask, low_bit, rem)
        if piece != rem:
            piece_w, piece_key = memo.get(piece) or self.best(piece)
            rest_w, rest_key = memo.get(rem ^ piece) or self.best(rem ^ piece)
            memo[rem] = hit = (piece_w + rest_w, piece_key | rest_key)
            return hit
        reach = []
        for block, bound in _connected_blocks(G, low, rem, self.rows, self.balls):
            rest_w, rest_key = memo.get(rem ^ block) or self.best(rem ^ block)
            reach.append((bound + rest_w, block, rest_w, rest_key))
        reach.sort(reverse=True)
        need_ir, block_keys = self.need_ir, self.block_keys
        top_w: ExtInt = NEG_INF
        top_key = 0
        for cap, block, rest_w, rest_key in reach:
            if cap < top_w:
                break
            w, worst, _ = ev.stats(block)
            if w == NEG_INF or (need_ir and worst < 0):
                continue
            total = w + rest_w
            if total < top_w:
                continue
            key = block_keys.get(block)
            if key is None:
                key = block_keys[block] = G.edge_key(block)
            key |= rest_key
            if total > top_w or key < top_key:
                top_w, top_key = total, key
        memo[rem] = (top_w, top_key)
        return top_w, top_key


def _best_nash_stable(
    ev: CoalitionEvaluator,
    balls: Optional[tuple[int, ...]],
    rows: PairRows,
) -> Optional[tuple[ExtInt, int]]:
    """Best Nash-stable partition, by branch and bound over the partitions
    into IR-admissible blocks: every NS outcome is IR, since leaving for a
    singleton is one of the moves tested.

    The IR subset DP bounds every branch exactly.  An IR partition of ``rem``
    has welfare at most ``bound(rem)[0]``, and at that welfare a key at least
    ``bound(rem)[1]``, since keys of disjoint edge sets add; so a branch is
    cut once it cannot beat the incumbent's welfare, or tie it with a
    smaller key.  Each level keeps a heap of its blocks, keyed first by
    ``-(cap + bound(rem ^ B)[0])`` and the key of B plus ``bound(rem ^ B)``,
    where cap is the block's welfare once measured and its pair-distance
    bound (``_connected_blocks``) before.  An unmeasured block pops ahead of
    a measured one that ties it on both, is measured then (its welfare is
    at most its bound) and, if admissible, pushed back measured; a measured
    block is searched.  So the measured blocks come out in descending
    ``w(B) + bound(rem ^ B)[0]``, ties to the smaller key, and the first
    partition reached is the IR optimum: when it is Nash stable, every
    other branch is cut, and the blocks left unmeasured stay so."""
    G = ev.G
    bound = _BestPartition(ev, True, balls, rows).best
    best_welfare: ExtInt = NEG_INF  # every partition searched scores higher
    best_key = 0
    masks: list[int] = []
    block_keys: dict[int, int] = {}

    def rec(rem: int, welfare: ExtInt, key: int):
        nonlocal best_welfare, best_key
        if rem == 0:
            # the pop that led here showed it would replace the incumbent
            if first_deviation(ev, masks, "ns") is None:
                best_welfare, best_key = welfare, key
            return
        low = (rem & -rem).bit_length() - 1
        heap = []
        for block, cap in _connected_blocks(G, low, rem, rows, balls):
            rest_w, rest_key = bound(rem ^ block)
            block_key = block_keys.get(block)
            if block_key is None:
                block_key = block_keys[block] = G.edge_key(block)
            heap.append((-(cap + rest_w), block_key | rest_key, False, block, block_key, rest_w))
        heapify(heap)
        while heap:
            neg_reach, reach_key, measured, block, block_key, rest_w = heappop(heap)
            top_w = welfare - neg_reach
            if top_w < best_welfare or (top_w == best_welfare and key | reach_key >= best_key):
                return
            if measured:
                masks.append(block)
                rec(rem ^ block, top_w - rest_w, key | block_key)  # welfare + w(block)
                masks.pop()
                continue
            w, worst, _ = ev.stats(block)
            if w != NEG_INF and worst >= 0:
                heappush(heap, (-(w + rest_w), reach_key, True, block, block_key, rest_w))

    rec(G.full_mask, 0, 0)
    # rec reaches itself through its closure; emptying that cell frees the
    # search on return rather than at the next full garbage collection
    del rec
    return None if best_welfare == NEG_INF else (best_welfare, best_key)


def brute_force_solve(
    s: ScoringVector, G: SocialNetwork, mode: str, cap: int = DEFAULT_AGENT_CAP
) -> Optional[SolveResult]:
    """Maximum-welfare outcome under the mode's stability predicate.

    Welfare and IR run the subset DP over connected admissible blocks; NS
    searches the partitions into IR-admissible connected blocks, bounded by
    the IR subset DP, so it holds the IR memo, or the part of it that its
    branches reach.  Returns None only in ns mode when no Nash-stable outcome
    exists.  Ties break toward the smallest outcome key
    (``SocialNetwork.edge_key``).
    """
    check_mode(mode)
    if G.n > cap:
        raise ResourceLimitError(
            f"brute force capped at {cap} agents, network has {G.n}"
        )
    ev = CoalitionEvaluator(s, G)
    balls = cutoff_balls(s, G)
    rows = _pair_rows(s, G)
    if mode == "ns":
        solved = _best_nash_stable(ev, balls, rows)
    else:
        solved = _BestPartition(ev, mode == "ir", balls, rows).best(G.full_mask)
    if solved is None:
        return None
    welfare, key = solved
    return SolveResult(G.outcome_of_key(key), welfare, mode, True, "brute")


def decide_welfare_at_least(
    s: ScoringVector, G: SocialNetwork, b: int, mode: str, cap: int = DEFAULT_AGENT_CAP
) -> bool:
    """Decision form: does some outcome satisfying the mode reach welfare b?"""
    result = brute_force_solve(s, G, mode, cap=cap)
    if result is None:
        return False
    return result.welfare >= b
