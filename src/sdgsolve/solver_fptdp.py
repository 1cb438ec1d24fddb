"""Coalition-topology dynamic program: treewidth plus maximum coalition size.

fptdp runs ``dp.coalition_steps`` in every mode with the size cap ``sz``: a
state is its open coalitions, those that meet the bag, held as member
bitmasks (NS mode adds pending settled agents and deviation values).
Welfare and IR tables key a state by the sorted topologies of its open
coalitions, so isomorphic states share one entry.  A topology is the explicit
graph on a coalition's bag members ("named") plus one anonymous vertex per
forgotten member.  New agents can only attach to named vertices (a forgotten
agent's neighbours are all introduced), so entries that share a key complete
to isomorphic coalitions and their open parts add the same welfare; a
witness's welfare counts completed coalitions only.  They also have the same
bag parts, so a completion adds the same outcome-key bits to each, and the
table's one witness per key keeps the smallest key exactly.  NS tables key a state
by the state itself, so NS mode is the same DP as twdp's.

Works for closed and open tails alike.
"""

from typing import Optional

from .canon import canonical_order
from .core import (
    CoalitionEvaluator,
    ScoringVector,
    SocialNetwork,
    SolveResult,
    check_mode,
    iter_bits,
)
from .bounds import compute_bound_report
from .dp import Budget, best_outcome, coalition_steps, run_postorder, self_check
from .treedecomp import NiceTreeDecomposition, nice_decomposition

DEFAULT_STATE_BUDGET = 3_000_000


def _topology_key(G):
    """Table key of a welfare/IR state, ``canon(bag_mask, state)``: the sorted
    topologies of its open coalitions, each computed once per (member mask,
    bag members) pair of the solve."""
    adj = G.adj_mask
    topologies: dict = {}

    def topology(mask, named):
        """(named agents, anonymous count, anonymous-named edges, anonymous-
        anonymous edges), anonymous vertices indexed in ``canonical_order``
        with ties in ascending agent id.  Equal keys mean isomorphic
        coalitions over the named agents."""
        topo = topologies.get((mask, named))
        if topo is None:
            anon = mask & ~named
            tokens = list(iter_bits(anon))
            nedges = {t: tuple(iter_bits(adj[t] & named)) for t in tokens}
            adjacency = {t: tuple(iter_bits(adj[t] & anon)) for t in tokens}
            order = canonical_order(tokens, dict.fromkeys(tokens, 0), nedges, adjacency)
            index = {t: i for i, t in enumerate(order)}
            an = sorted((index[t], u) for t in order for u in nedges[t])
            aa = sorted(
                (index[t], index[u]) for t in order for u in adjacency[t] if index[t] < index[u]
            )
            topo = topologies[mask, named] = (tuple(iter_bits(named)), len(order), tuple(an), tuple(aa))
        return topo

    def canon(bag, state):
        return tuple(sorted(topology(b, b & bag) for b in state[0]))

    return canon


def select_sz(s: ScoringVector, G: SocialNetwork) -> Optional[int]:
    """Smallest size bound of ``compute_bound_report``, clamped to 1..n (a
    singleton is always allowed), or None when neither size bound's premise
    holds."""
    report = compute_bound_report(s, G)
    bounds = [b for b in (report.degree_size_bound, report.treewidth_size_bound) if b is not None]
    if not bounds:
        return None
    return max(1, min(min(bounds), G.n))


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
    canon = None if mode == "ns" else _topology_key(G)
    steps = coalition_steps(CoalitionEvaluator(s, G), budget, sz, mode, canon)
    solved = best_outcome(G, run_postorder(decomposition, *steps))
    if solved is None:
        return None
    welfare, outcome = solved
    self_check(s, G, mode, welfare, outcome, "fptdp")
    return SolveResult(outcome, welfare, mode, optimal, "fptdp", size_limited=not optimal)
