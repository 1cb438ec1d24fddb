"""fptdp: treewidth plus maximum coalition size.

fptdp runs twdp's solve body (``solver_twdp.solve_nice``) under the size cap
``sz``: the compressed record in welfare and IR mode, ``dp.coalition_steps``
in NS mode.  The record's states are bounded by the width, the cap and the
cutoff: a part holds at most ``sz`` members, and committed distances and
cell entries stop at ``sz - 1`` or a closed tail's cutoff, or fold past an
open tail's cutoff (``solver_twdp`` argues both).  Unlike twdp, it accepts
open tails too.
"""

from typing import Optional

from .bounds import select_sz  # also imported from here by callers
from .core import ScoringVector, SocialNetwork, SolveResult, check_mode
from .dp import Budget
from .solver_twdp import solve_nice
from .treedecomp import NiceTreeDecomposition

DEFAULT_STATE_BUDGET = 3_000_000


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
    budget = Budget(
        DEFAULT_STATE_BUDGET,
        f"topology DP exceeded its state budget ({DEFAULT_STATE_BUDGET})",
    )
    # no coalition of G holds more than n members
    return solve_nice(s, G, decomposition, mode, min(sz, G.n), budget, "fptdp", optimal)
