"""Structural bounds on coalitions and an outcome certifier.

Two size bounds limit how large a coalition can usefully get: one from the
network's maximum degree (closed tails only) and one from its treewidth
(score of distance 2 negative).  A third bound limits the diameter of any
coalition in a stable outcome under open-tail vectors.  The solvers use
these to shrink search parameters; the certifier reports them as hard
violations only where their premises hold.
"""

from dataclasses import dataclass
from typing import Optional

from .core import (
    NEG_INF,
    ExtInt,
    Outcome,
    ScoringVector,
    SocialNetwork,
    UnsupportedInputError,
    agent_utility,
    coalition_diameter,
    social_welfare,
    validate_outcome,
)
from .stability import Deviation, find_deviation, is_individually_rational, is_nash_stable


def degree_coalition_bound(s: ScoringVector, max_degree: int) -> int:
    """Size above which every member of a coalition in a degree-bounded network
    has negative utility: (s1+1) * deg * (deg-1)^(cutoff-2), degenerating to
    (s1+1) * deg when only distance 1 is scored."""
    if not s.is_closed:
        raise UnsupportedInputError(
            "degree bound needs a closed tail: open tails with a non-negative "
            "last score admit arbitrarily large coalitions"
        )
    if max_degree < 2:
        raise ValueError("degree bound needs max degree >= 2")
    if s.cutoff == 1:
        return (s.max_score + 1) * max_degree
    return (s.max_score + 1) * max_degree * (max_degree - 1) ** (s.cutoff - 2)


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
    weakens the size bound, never invalidates it.
    """
    degree_bound = None
    if s.is_closed and G.max_degree() >= 2:
        degree_bound = degree_coalition_bound(s, G.max_degree())
    tw_bound = None
    if s.score(2) < 0 and tw is not None and tw >= 1:
        tw_bound = treewidth_coalition_bound(s, tw)
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
    welfare = social_welfare(s, G, outcome)
    utilities = tuple(agent_utility(s, G, outcome, i) for i in range(G.n))
    diameters = tuple(coalition_diameter(G, block) for block in outcome)
    ir = is_individually_rational(s, G, outcome)
    ns = is_nash_stable(s, G, outcome)

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

    mode_satisfied = {"welfare": True, "ir": ir, "ns": ns}[mode]
    deviation = None if mode == "welfare" else find_deviation(s, G, outcome, mode)
    return CertificateReport(
        mode=mode,
        welfare=welfare,
        utilities=utilities,
        coalition_diameters=diameters,
        individually_rational=ir,
        nash_stable=ns,
        mode_satisfied=mode_satisfied,
        bound_violations=tuple(violations),
        deviation=deviation,
    )
