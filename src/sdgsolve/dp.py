"""Shared machinery of the dynamic programs over a nice tree decomposition.

twdp and fptdp (``solver_twdp``, ``solver_fptdp``) both walk a nice
decomposition children first and keep, per node, a table from states to the
best partial outcome reaching that state.  This module holds what they
share: the postorder walk, the witness table with its budget counter, the
open-coalition DP that both run in NS mode, and the self-check every solver
runs on its answer.

A witness is one integer, the outcome key of ``SocialNetwork.edge_key``:
the bits of the edges inside the coalitions built so far.  Ties between
equal-welfare outcomes go to the smaller key, and one witness per state is
exact for that rule because the key is additive over a state's completions.
An edge's bit is fixed when the later of its ends is introduced: the other
end is then in the bag (an introduced agent has no edge to a forgotten one),
and bag agents in different coalitions never join later.  So the bits a
completion adds are edges with an end not yet introduced, or edges inside
the bag's coalitions, and both depend on the state alone; two branches at a
join share exactly the bits of the bag's edges, so a join ORs their keys.
Every coalition of finite welfare is connected, so the final key names the
outcome: its coalitions are the components of the key's edges
(``SocialNetwork.outcome_of_key``).
"""

from typing import Optional

from .core import (
    CoalitionEvaluator,
    Outcome,
    ResourceLimitError,
    cutoff_balls,
    iter_bits,
    validate_outcome,
)
from .stability import first_deviation


def run_postorder(ntd, leaf, introduce, forget, join):
    """Walk the nice decomposition children first and return the root's table.

    Every node reachable from the root gets exactly one step call:
    ``leaf(node)``, ``introduce(node, child_table)``, ``forget(node,
    child_table)`` or ``join(node, left_table, right_table)``.  A child's
    table is dropped once its parent's step has it.  The root bag must be
    empty: only then does every root entry describe a whole outcome."""
    if ntd.nodes[ntd.root].bag:
        raise ValueError("the nice decomposition's root bag is not empty")
    tables = {}
    for idx in ntd.postorder():
        node = ntd.nodes[idx]
        if node.kind == "leaf":
            table = leaf(node)
        elif node.kind == "introduce":
            table = introduce(node, tables.pop(node.children[0]))
        elif node.kind == "forget":
            table = forget(node, tables.pop(node.children[0]))
        else:
            left, right = node.children
            table = join(node, tables.pop(left), tables.pop(right))
        tables[idx] = table
    return tables[ntd.root]


class Budget:
    """Count of table insertions over one solve; the insertion past
    ``limit`` raises ResourceLimitError with ``message``."""

    __slots__ = ("limit", "message", "seen")

    def __init__(self, limit: int, message: str):
        self.limit = limit
        self.message = message
        self.seen = 0


class WitnessTable:
    """state -> (welfare, key): the maximum welfare of a partial outcome
    reaching the state, then the smallest outcome key
    (``SocialNetwork.edge_key``) among those of that welfare.  Every ``add``
    is charged to the budget first."""

    __slots__ = ("budget", "data")

    def __init__(self, budget: Budget):
        self.budget = budget
        self.data: dict = {}

    def add(self, state, welfare, key: int):
        budget = self.budget
        budget.seen += 1
        if budget.seen > budget.limit:
            raise ResourceLimitError(budget.message)
        old = self.data.get(state)
        if old is None or welfare > old[0] or (welfare == old[0] and key < old[1]):
            self.data[state] = (welfare, key)


def best_outcome(G, table: WitnessTable) -> Optional[tuple[int, Outcome]]:
    """(welfare, outcome) of the table's best entry, the outcome decoded
    from its key, or None when the table is empty."""
    if not table.data:
        return None
    welfare, key = max(table.data.values(), key=lambda e: (e[0], -e[1]))
    return welfare, G.outcome_of_key(key)


def coalition_steps(ev: CoalitionEvaluator, budget: Budget, cap: int):
    """(leaf, introduce, forget, join) of the open-coalition NS DP, for
    ``run_postorder``, over coalitions of at most ``cap`` members.

    A state is ``(opens, pending, devs)``: the member bitmasks of the open
    coalitions (those meeting the bag), sorted; ``(agent, utility)`` of every
    settled agent that still neighbours an open coalition it could later want
    to join; and ``(agent, best deviation so far)`` of every open member.

    * introduce: the agent joins an open coalition below ``cap`` members, or
      opens one of its own;
    * forget: a coalition with bag members left stays open while every member
      reaches one of them inside it (a forgotten agent gains no neighbours,
      so one that cannot is cut off for good); otherwise it completes and
      adds its welfare, read from ``ev``, unless a member scores below 0 or
      below its best deviation, or the coalition tempts a settled neighbour;
    * join: coalitions glue at their shared bag members.

    Under a closed tail no open coalition holds two members farther apart
    in G than the cutoff (``core.cutoff_balls``): an introduce does not put
    the agent into a coalition with a member outside its ball, and a join
    drops a merge whose two sides hold such a pair.  This loses nothing: a
    coalition distance is never shorter than the distance in G, so that
    pair's utility is minus infinity, coalitions only grow until they
    complete, and at completion the member's negative utility drops the
    entry.  The entry's state holds the coalition, so no other slot of any
    table changes.

    An introduce into an open coalition ORs the new agent's edge bits into
    the entry's key, and a join ORs both sides' keys."""
    G = ev.G
    adj = G.adj_mask
    balls = cutoff_balls(ev.s, G) or (G.full_mask,) * G.n
    near_cache: dict = {}
    anchored_cache: dict = {}

    def near(mask):
        """The AND of the balls of the coalition ``mask``'s members: the
        agents it may still take in."""
        hit = near_cache.get(mask)
        if hit is None:
            hit = G.full_mask
            for v in iter_bits(mask):
                hit &= balls[v]
            near_cache[mask] = hit
        return hit

    def anchored(mask, part):
        """Whether every member of the coalition ``mask`` reaches its bag
        part ``part`` inside the coalition."""
        hit = anchored_cache.get((mask, part))
        if hit is None:
            reached = frontier = part
            while frontier:
                nxt = 0
                for v in iter_bits(frontier):
                    nxt |= adj[v]
                frontier = nxt & mask & ~reached
                reached |= frontier
            hit = anchored_cache[mask, part] = reached == mask
        return hit

    def leaf(node):
        out = WitnessTable(budget)
        out.add(((), (), ()), 0, 0)
        return out

    def introduce(node, child):
        out = WitnessTable(budget)
        a = node.agent
        bit = 1 << a
        ball = balls[a]
        for (opens, pending, devs), (wf, key) in child.data.items():
            devs = tuple(sorted(devs + ((a, 0),)))
            for block in opens:
                if block.bit_count() >= cap or block & ~ball:
                    continue
                grown = tuple(sorted(b | bit if b == block else b for b in opens))
                out.add((grown, pending, devs), wf, key | G.edge_key_to(a, block))
            out.add((tuple(sorted(opens + (bit,))), pending, devs), wf, key)
        return out

    def forget(node, child):
        bag = G.mask_of(node.bag)
        out = WitnessTable(budget)
        w = node.agent
        for state, (wf, key) in child.data.items():
            opens, pending, devs = state
            block = next(b for b in opens if b >> w & 1)
            if block & bag:
                if anchored(block, block & bag):
                    out.add(state, wf, key)
                continue
            welfare, _, utils = ev.stats(block)
            rest = tuple(b for b in opens if b != block)
            devmap = dict(devs)
            if any(u < 0 or u < devmap[i] for i, u in utils.items()):
                continue
            rest_mask = sum(rest)
            settled = dict(pending)
            near = 0
            for i in utils:
                near |= adj[i]
            alive = True
            for t in iter_bits(near & (rest_mask | G.mask_of(settled))):
                joined = ev.utility(t, block | 1 << t)
                if t in settled:
                    if joined > settled[t]:
                        alive = False
                        break
                elif joined > devmap[t]:
                    devmap[t] = joined
            if not alive:
                continue
            still = [(t, u) for t, u in pending if adj[t] & rest_mask]
            for i, u in utils.items():
                del devmap[i]
                if adj[i] & rest_mask:
                    still.append((i, u))
            out.add((rest, tuple(sorted(still)), tuple(sorted(devmap.items()))), wf + welfare, key)
        return out

    def join(node, left, right):
        bag = G.mask_of(node.bag)
        out = WitnessTable(budget)
        grouped: dict = {}
        for (opens, pending, devs), (wf, key) in right.data.items():
            parts = {b & bag: b for b in opens}
            grouped.setdefault(tuple(sorted(parts)), []).append((wf, key, parts, pending, devs))
        for (opens_y, pending_y, devs_y), (wf_y, key_y) in left.data.items():
            matches = grouped.get(tuple(sorted(b & bag for b in opens_y)))
            if not matches:
                continue
            for wf_z, key_z, parts, pending_z, devs_z in matches:
                merged = tuple(sorted(b | parts[b & bag] for b in opens_y))
                if any(b.bit_count() > cap for b in merged):
                    continue
                if any(parts[b & bag] & ~near(b) for b in opens_y):
                    continue
                devmap = dict(devs_y)
                for t, d in devs_z:
                    devmap[t] = max(devmap.get(t, 0), d)
                out.add(
                    (merged, tuple(sorted(pending_y + pending_z)), tuple(sorted(devmap.items()))),
                    wf_y + wf_z,
                    key_y | key_z,
                )
        return out

    return leaf, introduce, forget, join


def self_check(s, G, mode: str, welfare, outcome: Outcome, solver: str) -> None:
    """Re-derive a solver's answer directly: the outcome must be a partition
    of G's agents, its welfare must match, and it must be individually
    rational in ir mode and Nash stable in ns mode.  Raises AssertionError
    naming the solver otherwise."""
    try:
        validate_outcome(G, outcome)
    except ValueError as exc:
        raise AssertionError(f"{solver} outcome is not a partition of the agents: {exc}") from exc
    ev = CoalitionEvaluator(s, G)
    masks = [G.mask_of(b) for b in outcome]
    if sum(ev.stats(mask)[0] for mask in masks) != welfare:
        raise AssertionError(f"{solver} welfare disagrees with direct evaluation")
    if mode != "welfare" and first_deviation(ev, masks, mode) is not None:
        raise AssertionError(f"{solver} produced a non-{mode.upper()} outcome")
