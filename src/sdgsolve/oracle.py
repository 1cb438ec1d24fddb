"""Exhaustive partition enumeration and the brute-force reference solver.

Every other solver in the package is differential-tested against this one.
Per-coalition quantities are cached by member bitmask, which keeps full
enumeration workable up to the default 12-agent cap.
"""

from typing import Iterator, Optional

from .core import (
    MODES,
    NEG_INF,
    ExtInt,
    Outcome,
    ResourceLimitError,
    ScoringVector,
    SocialNetwork,
    SolveResult,
    check_mode,
    iter_bits,
    member_utility,
)

DEFAULT_AGENT_CAP = 12


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


class _BlockCache:
    """Per-coalition utilities keyed by member bitmask."""

    def __init__(self, s: ScoringVector, G: SocialNetwork):
        self.s = s
        self.G = G
        self._stats: dict[int, tuple[ExtInt, ExtInt, dict[int, ExtInt]]] = {}
        self._join: dict[tuple[int, int], ExtInt] = {}

    def stats(self, mask: int) -> tuple[ExtInt, ExtInt, dict[int, ExtInt]]:
        """(total welfare, min member utility, per-member utility) for one coalition."""
        cached = self._stats.get(mask)
        if cached is not None:
            return cached
        members = list(iter_bits(mask))
        if len(members) == 1:
            result = (0, 0, {members[0]: 0})
        else:
            utils = {i: member_utility(self.s, self.G, mask, i) for i in members}
            result = (sum(utils.values()), min(utils.values()), utils)
        self._stats[mask] = result
        return result

    def join_utility(self, i: int, mask: int) -> ExtInt:
        """Utility of agent i after joining the coalition given by ``mask``."""
        key = (i, mask)
        cached = self._join.get(key)
        if cached is not None:
            return cached
        u = member_utility(self.s, self.G, mask | (1 << i), i)
        self._join[key] = u
        return u


def _is_partition_stable(
    cache: _BlockCache, G: SocialNetwork, masks: list[int], mode: str
) -> bool:
    per_agent: dict[int, tuple[int, ExtInt]] = {}
    for bi, mask in enumerate(masks):
        _, worst, utils = cache.stats(mask)
        if worst < 0:
            return False
        for i, u in utils.items():
            per_agent[i] = (bi, u)
    if mode == "ir":
        return True
    for i in range(G.n):
        own_block, current = per_agent[i]
        neigh = G.adj_mask[i]
        for bi, mask in enumerate(masks):
            if bi == own_block or not (neigh & mask):
                continue
            if cache.join_utility(i, mask) > current:
                return False
    return True


def _solve_by_enumeration(
    s: ScoringVector, G: SocialNetwork, mode: str
) -> Optional[tuple[ExtInt, Outcome]]:
    """Full restricted-growth enumeration; used for all modes except pruned welfare."""
    n = G.n
    cache = _BlockCache(s, G)
    best_welfare: ExtInt = NEG_INF
    best_key = None
    best_blocks = None
    masks: list[int] = []
    blocks: list[list[int]] = []

    def consider():
        nonlocal best_welfare, best_key, best_blocks
        if mode != "welfare" and not _is_partition_stable(cache, G, masks, mode):
            return
        welfare = sum(cache.stats(m)[0] for m in masks)
        if mode != "welfare" and welfare == NEG_INF:
            return
        if welfare < best_welfare:
            return
        key = tuple(sorted(tuple(b) for b in blocks))
        if welfare > best_welfare or best_key is None or key < best_key:
            best_welfare = welfare
            best_key = key
            best_blocks = key

    def rec(i: int):
        if i == n:
            consider()
            return
        bit = 1 << i
        for b in range(len(blocks)):
            blocks[b].append(i)
            masks[b] |= bit
            rec(i + 1)
            masks[b] &= ~bit
            blocks[b].pop()
        blocks.append([i])
        masks.append(bit)
        rec(i + 1)
        masks.pop()
        blocks.pop()

    rec(0)
    if best_blocks is None:
        return None
    return best_welfare, Outcome.from_blocks(best_blocks)


def _solve_welfare_pruned(s: ScoringVector, G: SocialNetwork) -> tuple[ExtInt, Outcome]:
    """Welfare maximization for closed tails, skipping coalitions whose diameter
    exceeds the scoring cutoff (their welfare is NEG_INF and all-singletons
    dominates any partition containing them)."""
    n = G.n
    cache = _BlockCache(s, G)
    best_welfare: ExtInt = NEG_INF
    best_key = None

    chosen: list[int] = []

    def rec(remaining: int, welfare_so_far: ExtInt):
        nonlocal best_welfare, best_key
        if remaining == 0:
            if welfare_so_far < best_welfare:
                return
            key = tuple(sorted(tuple(iter_bits(m)) for m in chosen))
            if welfare_so_far > best_welfare or best_key is None or key < best_key:
                best_welfare = welfare_so_far
                best_key = key
            return
        vbit = remaining & -remaining
        rest = remaining ^ vbit
        sub = rest
        while True:
            block = sub | vbit
            w, _, _ = cache.stats(block)
            if w != NEG_INF:
                chosen.append(block)
                rec(remaining ^ block, welfare_so_far + w)
                chosen.pop()
            if sub == 0:
                break
            sub = (sub - 1) & rest

    rec(G.full_mask, 0)
    assert best_key is not None  # the all-singletons partition always survives
    return best_welfare, Outcome.from_blocks(best_key)


def brute_force_solve(
    s: ScoringVector,
    G: SocialNetwork,
    mode: str,
    cap: int = DEFAULT_AGENT_CAP,
    prune: bool = True,
) -> Optional[SolveResult]:
    """Maximum-welfare outcome under the mode's stability predicate.

    Returns None only in ns mode when no Nash-stable outcome exists.  Ties
    break toward the lexicographically smallest canonical outcome.  ``prune``
    enables the closed-tail diameter pruning in welfare mode; the unpruned
    path is kept reachable for dual-run verification.
    """
    check_mode(mode)
    if G.n > cap:
        raise ResourceLimitError(
            f"brute force capped at {cap} agents, network has {G.n}"
        )
    if mode == "welfare" and s.is_closed and prune:
        welfare, outcome = _solve_welfare_pruned(s, G)
        return SolveResult(outcome, welfare, mode, True, "brute")
    solved = _solve_by_enumeration(s, G, mode)
    if solved is None:
        return None
    welfare, outcome = solved
    return SolveResult(outcome, welfare, mode, True, "brute")


def decide_welfare_at_least(
    s: ScoringVector, G: SocialNetwork, b: int, mode: str, cap: int = DEFAULT_AGENT_CAP
) -> bool:
    """Decision form: does some outcome satisfying the mode reach welfare b?"""
    result = brute_force_solve(s, G, mode, cap=cap)
    if result is None:
        return False
    return result.welfare >= b
