"""fptdp: treewidth plus maximum coalition size.

fptdp is twdp's solve body (``solver_twdp.solve_nice``) under a caller's
size cap ``sz``: the compressed record in welfare and IR mode,
``dp.coalition_steps`` in NS mode, with the same record budget.  The
record's states are bounded by the width, the cap and the cutoff: a part
holds at most ``sz`` members, and committed distances and cell entries stop
at ``sz - 1`` or a closed tail's cutoff, or fold past an open tail's cutoff
(``solver_twdp`` argues both).  Without ``sz`` it takes twdp's cap and gives
twdp's answer, labelled fptdp; automatic dispatch never picks it.
"""

from typing import Optional

from .bounds import select_sz  # also imported from here by callers
from .core import ScoringVector, SocialNetwork, SolveResult, check_mode
from .solver_twdp import solve_nice
from .treedecomp import NiceTreeDecomposition


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
        sz = select_sz(s, G) or G.n
    if sz < 1:
        raise ValueError("sz must be at least 1")
    # no coalition of G holds more than n members
    return solve_nice(s, G, decomposition, mode, min(sz, G.n), "fptdp", optimal)
