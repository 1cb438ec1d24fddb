"""Algorithm selection and component-wise solving.

Disconnected networks are solved per connected component and the results
merged: no coalition may span components (it would be disconnected and score
minus infinity), and stability never couples components either, because
joining a coalition with no neighbor is never profitable.
"""

from dataclasses import replace
from typing import Optional

from .core import (
    Outcome,
    ResourceLimitError,
    ScoringVector,
    SocialNetwork,
    SolveResult,
    check_mode,
)
from .bounds import select_sz
from .oracle import DEFAULT_AGENT_CAP, brute_force_solve
from .solver_fptdp import solve_fpt
from .solver_twdp import solve_tw_ir, solve_tw_ns, solve_tw_welfare
from .solver_vc import compute_vertex_cover, solve_vc
from .treedecomp import (
    NiceTreeDecomposition,
    compute_decomposition,
    nice_decomposition,
    validate_nice,
)

AUTO_TW_WIDTH = 4
AUTO_VC_SIZE = 8

# treewidth DP entry point per mode; each name is looked up in this module's
# globals at call time, so wrappers rebound there (tracing) see the call
_TW_SOLVERS = {
    "welfare": lambda s, G, ntd: solve_tw_welfare(s, G, ntd),
    "ir": lambda s, G, ntd: solve_tw_ir(s, G, ntd),
    "ns": lambda s, G, ntd: solve_tw_ns(s, G, ntd),
}


def choose_algorithm(
    s: ScoringVector, G: SocialNetwork, brute_cap: int = DEFAULT_AGENT_CAP
) -> str:
    """Deterministic automatic selection for one connected component: brute
    force up to ``brute_cap`` agents, where its subset DP over connected
    coalitions beats the paper's DPs; then twdp, for a closed tail of small
    width or any tail with a certified coalition-size bound (the cap that
    bounds its tables); then vc, for a small cover.  The same body under a
    caller's size limit runs only when that algorithm is asked for by name."""
    if G.n <= brute_cap:
        return "brute"
    if (s.is_closed and compute_decomposition(G).width() <= AUTO_TW_WIDTH) or select_sz(s, G) is not None:
        return "twdp"
    try:
        if len(compute_vertex_cover(G)) <= AUTO_VC_SIZE:
            return "vc"
    except ResourceLimitError:
        pass  # the minimum cover is above the vc solver's limit
    return "brute-raised"


def _solve_component(s, G, mode, algo, sz, brute_cap):
    if algo == "auto":
        algo = choose_algorithm(s, G, brute_cap)
    if algo == "brute":
        return brute_force_solve(s, G, mode, cap=brute_cap)
    if algo == "brute-raised":
        result = brute_force_solve(s, G, mode, cap=G.n)
        if result is None:
            return None
        return replace(result, algorithm="brute-raised")
    if algo == "twdp":
        return _TW_SOLVERS[mode](s, G, nice_decomposition(G))
    if algo == "fptdp":
        return solve_fpt(s, G, sz=sz, mode=mode)
    if algo == "vc":
        return solve_vc(s, G, mode)
    raise ValueError(f"unknown algorithm {algo!r}")


def solve(
    s: ScoringVector,
    G: SocialNetwork,
    mode: str = "welfare",
    algo: str = "auto",
    sz: Optional[int] = None,
    decomposition: Optional[NiceTreeDecomposition] = None,
    brute_cap: int = DEFAULT_AGENT_CAP,
) -> Optional[SolveResult]:
    """Solve one instance end to end; None only in ns mode with no stable
    outcome.  A user-supplied nice decomposition forces the treewidth DP; it
    must be a valid nice decomposition of G, else ValueError names the first
    violated condition.  A coalition size limit ``sz`` needs algo "fptdp",
    the one solver that honours it."""
    check_mode(mode)
    if algo not in ("auto", "brute", "twdp", "fptdp", "vc"):
        raise ValueError(f"unknown algorithm {algo!r}")
    if brute_cap < 1:
        raise ValueError(f"brute-force cap must be at least 1, got {brute_cap}")
    if sz is not None and algo != "fptdp":
        raise ValueError("a coalition size limit only drives the fptdp algorithm")
    if decomposition is not None:
        if algo not in ("auto", "twdp"):
            raise ValueError("a tree decomposition only drives the twdp algorithm")
        width = validate_nice(G, decomposition)
        if not isinstance(width, int):
            raise ValueError(f"invalid nice decomposition: {width.kind}: {width.detail}")
        return _TW_SOLVERS[mode](s, G, decomposition)

    parts = G.structure.get("components")
    if parts is None:
        # each component's subgraph, with its agents in G ascending, is kept
        # per graph object, so its decomposition and cover are built once; a
        # connected G keeps none
        components = G.components()
        parts = G.structure["components"] = (
            [(G.induced(c)[0], tuple(sorted(c))) for c in components] if len(components) > 1 else []
        )
    if not parts:
        return _solve_component(s, G, mode, algo, sz, brute_cap)

    blocks: list[tuple[int, ...]] = []
    welfare = 0
    algorithms = []
    optimal = True
    size_limited = False
    for sub, agents in parts:
        result = _solve_component(s, sub, mode, algo, sz, brute_cap)
        if result is None:
            return None
        for block in result.outcome:
            blocks.append(tuple(agents[v] for v in block))
        welfare += result.welfare
        algorithms.append(result.algorithm)
        optimal &= result.optimal
        size_limited |= result.size_limited
    return SolveResult(
        Outcome.from_blocks(blocks),
        welfare,
        mode,
        optimal,
        "+".join(sorted(set(algorithms))),
        size_limited=size_limited,
    )
