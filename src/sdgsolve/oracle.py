"""Exhaustive partition enumeration and the brute-force reference solver.

Every other solver in the package is differential-tested against this one.
A coalition of finite welfare is connected, so the search runs over connected
blocks only: a subset DP for welfare and IR, and a branch and bound over the
partitions into IR-admissible connected blocks for NS (coalition structure
generation over graphs: Voice, Polukarov & Jennings, JAIR 2012).  Every NS
outcome is IR, so the IR subset DP's value of the agents still to place
bounds each NS branch exactly, and the search starts from the IR optimum
(branch and bound with a DP bound: Rahwan et al., JAIR 2009).
Under a closed tail both searches also skip every block with two members
farther apart in G than the cutoff (``core.cutoff_balls``): a coalition
distance is never shorter than the distance in G, so such a block scores
minus infinity and no search keeps it.  The condition is pairwise, so every
subset of a passing block passes; ``_connected_blocks``, a loop over an
explicit stack of partial blocks, filters each extension by the balls of
the block's members and returns exactly the passing blocks, each once,
without measuring the others.
Every utility comes from one ``CoalitionEvaluator`` per solve, which caches
it by member bitmask; the NS search tests each candidate partition with the
same deviation search as ``stability.find_deviation``.
Both searches carry a partition as its outcome key, the OR of its blocks'
``SocialNetwork.edge_key``, take the smallest key among the best partitions
and decode it at the end: the blocks are connected, so they are the
components of the key's edges.
``enumerate_partitions`` keeps the plain Bell enumeration for tests.
"""

from typing import Callable, Iterator, Optional

from .core import (
    NEG_INF,
    CoalitionEvaluator,
    ExtInt,
    ResourceLimitError,
    ScoringVector,
    SocialNetwork,
    SolveResult,
    check_mode,
    cutoff_balls,
)
from .stability import first_deviation

# the largest component that brute force solves by default, and so the
# largest that auto dispatch routes to it
DEFAULT_AGENT_CAP = 13


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


def _connected_blocks(
    G: SocialNetwork, low: int, allowed: int, balls: Optional[tuple[int, ...]] = None
) -> list[int]:
    """Each connected subset of ``allowed`` that contains agent ``low``, once;
    with ``balls`` (``core.cutoff_balls``), only those whose members all lie
    in each other's balls.

    Extension-set search over an explicit stack of (block, frontier, banned,
    near): grow from {low}; an extension, once tried, is banned from the
    extensions tried after it at the same block and from all their
    descendants, so no block is reached twice.  A popped block's extensions
    are pushed highest agent first, so they pop lowest first and the blocks
    come out in depth-first preorder.  ``near``, the AND of the block's
    members' balls, filters both the new reach and the carried frontier: an
    agent outside it is in no passing superset of the block, and ``near``
    only shrinks as a block grows, so each passing block is reached along
    the same path as without balls.
    """
    adj = G.adj_mask
    if balls is None:
        balls = (G.full_mask,) * G.n
    start = 1 << low
    blocks = []
    stack = [(start, adj[low] & allowed & ~start, start, balls[low])]
    while stack:
        block, frontier, banned, near = stack.pop()
        blocks.append(block)
        # extension v bans every frontier agent up to v; the agents above
        # it stay in its frontier
        rest = frontier
        while rest:
            v = rest.bit_length() - 1
            bit = 1 << v
            rest ^= bit
            tried = banned | rest | bit
            inner = near & balls[v]
            stack.append(
                (block | bit, ((frontier ^ rest ^ bit) | adj[v] & allowed & ~tried) & inner, tried, inner)
            )
    return blocks


def _admissible_blocks(
    ev: CoalitionEvaluator, rem: int, need_ir: bool, balls: Optional[tuple[int, ...]] = None
) -> Iterator[tuple[int, ExtInt]]:
    """(mask, welfare) of the blocks of ``rem`` that hold its lowest agent,
    have finite welfare and, if ``need_ir``, no member below utility 0;
    ``balls`` only skips blocks of welfare minus infinity unmeasured."""
    low = (rem & -rem).bit_length() - 1
    for block in _connected_blocks(ev.G, low, rem, balls):
        welfare, worst, _ = ev.stats(block)
        if welfare != NEG_INF and not (need_ir and worst < 0):
            yield block, welfare


def _best_partition(
    ev: CoalitionEvaluator, need_ir: bool, balls: Optional[tuple[int, ...]]
) -> Callable[[int], tuple[ExtInt, int]]:
    """Subset DP: best(rem) = max of w(B) + best(rem ^ B) over admissible B
    holding the lowest agent of rem, ties to the smallest outcome key.  The
    key of B plus rem ^ B's partition is the sum of their keys (no edge is
    inside both), so the smallest key of rem ^ B completes B best.  Returns
    ``best``, memoised per bitmask for the evaluator's lifetime."""
    G = ev.G
    memo: dict[int, tuple[ExtInt, int]] = {0: (0, 0)}
    block_keys: dict[int, int] = {}

    def best(rem: int) -> tuple[ExtInt, int]:
        hit = memo.get(rem)
        if hit is not None:
            return hit
        top_w: ExtInt = NEG_INF
        top_key = 0
        for block, w in _admissible_blocks(ev, rem, need_ir, balls):
            rest_w, rest_key = best(rem ^ block)
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

    return best


def _best_nash_stable(
    ev: CoalitionEvaluator, balls: Optional[tuple[int, ...]]
) -> Optional[tuple[ExtInt, int]]:
    """Best Nash-stable partition, by branch and bound over the partitions
    into IR-admissible blocks: every NS outcome is IR, since leaving for a
    singleton is one of the moves tested.

    The IR subset DP bounds every branch exactly.  An IR partition of ``rem``
    has welfare at most ``bound(rem)[0]``, and at that welfare a key at least
    ``bound(rem)[1]``, since keys of disjoint edge sets add; so a branch
    returns once it cannot beat the incumbent's welfare, or tie it with a
    smaller key.  Blocks are tried in descending ``w(B) + bound(rem ^ B)[0]``,
    ties to the smaller key, so the first partition reached is the IR
    optimum: when it is Nash stable, every other branch is cut."""
    G = ev.G
    bound = _best_partition(ev, True, balls)
    best_welfare: ExtInt = NEG_INF  # every partition searched scores higher
    best_key = 0
    masks: list[int] = []

    def rec(rem: int, welfare: ExtInt, key: int):
        nonlocal best_welfare, best_key
        top_w, top_key = bound(rem)
        top_w += welfare
        if top_w < best_welfare or (top_w == best_welfare and key | top_key >= best_key):
            return
        if rem == 0:
            # this partition would replace the incumbent
            if first_deviation(ev, masks, "ns") is None:
                best_welfare, best_key = welfare, key
            return
        order = []
        for block, w in _admissible_blocks(ev, rem, True, balls):
            rest_w, rest_key = bound(rem ^ block)
            block_key = G.edge_key(block)
            order.append((-(w + rest_w), block_key | rest_key, block, w, block_key))
        order.sort()
        for _, _, block, w, block_key in order:
            masks.append(block)
            rec(rem ^ block, welfare + w, key | block_key)
            masks.pop()

    rec(G.full_mask, 0, 0)
    return None if best_welfare == NEG_INF else (best_welfare, best_key)


def brute_force_solve(
    s: ScoringVector, G: SocialNetwork, mode: str, cap: int = DEFAULT_AGENT_CAP
) -> Optional[SolveResult]:
    """Maximum-welfare outcome under the mode's stability predicate.

    Welfare and IR run the subset DP over connected admissible blocks; NS
    searches the partitions into IR-admissible connected blocks, bounded by
    the IR subset DP, so it holds the IR memo and its memory equals IR
    mode's.  Returns None only in ns mode when no Nash-stable outcome
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
    if mode == "ns":
        solved = _best_nash_stable(ev, balls)
    else:
        solved = _best_partition(ev, mode == "ir", balls)(G.full_mask)
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
