"""Structural bounds on coalitions and an outcome certifier.

Two size bounds limit how large a coalition can usefully get: one from the
network's maximum degree (see ``degree_bound_applies``) and one from its
treewidth (score of distance 2 negative).  A third bound limits the diameter
of any coalition in a stable outcome under open-tail vectors.  The solvers use
these to shrink search parameters; the certifier reports them as hard
violations only where their premises hold.
"""

from dataclasses import dataclass
from typing import Optional

from .core import (
    NEG_INF,
    CoalitionEvaluator,
    ExtInt,
    Outcome,
    ScoringVector,
    SocialNetwork,
    UnsupportedInputError,
    validate_outcome,
)
from .stability import Deviation, first_deviation
from .treedecomp import compute_decomposition


def degree_bound_applies(s: ScoringVector, max_degree: int) -> bool:
    """Premise of ``degree_coalition_bound``: s(1) >= 1, a closed tail of
    cutoff 1 or of cutoff 2 with s(2) <= -2, and max degree at least 2.
    Elsewhere distant members need not outweigh the neighbours: on a cycle
    under (1,0,-1) the grand coalition is optimal."""
    return (
        s.is_closed
        and s.max_score >= 1
        and (s.cutoff == 1 or (s.cutoff == 2 and s.scores[1] <= -2))
        and max_degree >= 2
    )


def degree_coalition_bound(s: ScoringVector, max_degree: int) -> int:
    """Size above which every member of a coalition has negative utility:
    (s1+1) * max_degree, where ``degree_bound_applies`` holds.  A member has
    at most max_degree neighbours, worth s1 each, and every further member
    costs at least 2 (cutoff 2) or is out of reach (cutoff 1)."""
    if not degree_bound_applies(s, max_degree):
        raise UnsupportedInputError(f"degree bound does not hold for {s} at max degree {max_degree}")
    return (s.max_score + 1) * max_degree


def treewidth_coalition_bound(s: ScoringVector, tw: int) -> int:
    """Size above which a coalition's total utility is negative when distance 2
    already scores below zero: 2*(s1+1)*tw + 1."""
    if tw < 1:
        raise ValueError("treewidth bound needs tw >= 1")
    if not (s.score(2) < 0):
        raise ValueError("treewidth bound needs score(2) < 0")
    return 2 * (s.max_score + 1) * tw + 1


def stable_diameter_limit(s: ScoringVector) -> int:
    """Diameter above which no coalition can appear in an IR or NS outcome
    under an open-tail vector: 2 * s1 * cutoff.

    Requires a strictly negative last score; with a non-negative tail the
    grand coalition is stable regardless of diameter, so no limit exists.
    """
    if s.is_closed:
        raise UnsupportedInputError(
            "closed tails already force stable coalition diameters <= cutoff"
        )
    if s.max_score <= 0:
        raise ValueError("diameter limit needs a positive leading score")
    if s.scores[-1] >= 0:
        raise UnsupportedInputError(
            "diameter limit needs a negative last score: with a non-negative "
            "tail the grand coalition is individually rational at any diameter"
        )
    return 2 * s.max_score * s.cutoff


@dataclass(frozen=True)
class BoundReport:
    """Applicable coalition bounds for one game."""

    welfare_diameter_limit: int
    degree_size_bound: Optional[int] = None
    treewidth_size_bound: Optional[int] = None
    stable_diameter: Optional[int] = None


def compute_bound_report(
    s: ScoringVector, G: SocialNetwork, tw: Optional[int] = None
) -> BoundReport:
    """Evaluate every bound whose premise holds for this game.

    ``tw`` may be any upper bound on the treewidth; a looser width only
    weakens the size bound, never invalidates it.  Without one the width of
    ``compute_decomposition(G)`` is used, and only when the treewidth
    bound's premise holds.
    """
    degree_bound = None
    if degree_bound_applies(s, G.max_degree()):
        degree_bound = degree_coalition_bound(s, G.max_degree())
    tw_bound = None
    if s.score(2) < 0:
        if tw is None:
            tw = compute_decomposition(G).width()
        tw_bound = treewidth_coalition_bound(s, max(1, tw))
    stable_diam = None
    if not s.is_closed and s.max_score > 0 and s.scores[-1] < 0:
        stable_diam = stable_diameter_limit(s)
    return BoundReport(
        welfare_diameter_limit=s.cutoff,
        degree_size_bound=degree_bound,
        treewidth_size_bound=tw_bound,
        stable_diameter=stable_diam,
    )


@dataclass(frozen=True)
class CertificateReport:
    """Independent validation of one outcome against a mode's requirements."""

    mode: str
    welfare: ExtInt
    utilities: tuple[ExtInt, ...]
    coalition_diameters: tuple[ExtInt, ...]
    individually_rational: bool
    nash_stable: bool
    mode_satisfied: bool
    bound_violations: tuple[str, ...]
    deviation: Optional[Deviation]


def certify_outcome(
    s: ScoringVector, G: SocialNetwork, outcome: Outcome, mode: str
) -> CertificateReport:
    """Welfare, stability verdicts, per-coalition diameters, and violated bounds."""
    validate_outcome(G, outcome)
    ev = CoalitionEvaluator(s, G)
    masks = [G.mask_of(b) for b in outcome]
    diameters = tuple(ev.diameter(mask) for mask in masks)
    welfare = sum(ev.stats(mask)[0] for mask in masks)
    per_agent = {i: u for mask in masks for i, u in ev.stats(mask)[2].items()}
    utilities = tuple(per_agent[i] for i in range(G.n))
    deviations = {m: first_deviation(ev, masks, m) for m in ("ir", "ns")}

    violations: list[str] = []
    for i, u in enumerate(utilities):
        if mode in ("ir", "ns") and u < 0:
            violations.append(f"agent {i} utility {u} < 0")
    if not s.is_closed and s.max_score > 0 and s.scores[-1] < 0 and mode in ("ir", "ns"):
        limit = stable_diameter_limit(s)
        for block, diam in zip(outcome, diameters):
            if diam == NEG_INF or diam > limit:
                violations.append(
                    f"coalition {block} diameter {diam} exceeds stable limit {limit}"
                )
    if s.is_closed and mode == "welfare":
        for block, diam in zip(outcome, diameters):
            if diam == NEG_INF or diam > s.cutoff:
                violations.append(
                    f"coalition {block} diameter {diam} exceeds scoring cutoff {s.cutoff}"
                )

    deviation = {"welfare": None, **deviations}[mode]
    return CertificateReport(
        mode=mode,
        welfare=welfare,
        utilities=utilities,
        coalition_diameters=diameters,
        individually_rational=deviations["ir"] is None,
        nash_stable=deviations["ns"] is None,
        mode_satisfied=deviation is None,
        bound_violations=tuple(violations),
        deviation=deviation,
    )
