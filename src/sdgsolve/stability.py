"""Individual rationality and Nash stability checks with deviation witnesses."""

from dataclasses import dataclass
from typing import Optional

from .core import (
    NEG_INF,
    ExtInt,
    Outcome,
    ScoringVector,
    SocialNetwork,
    agent_utility,
    member_utility,
)


@dataclass(frozen=True)
class Deviation:
    """A profitable move for one agent.

    ``kind`` is "to-singleton" (leave and stand alone) or "to-coalition"
    (join the coalition at canonical index ``target``).  ``gain`` is the
    utility improvement; None encodes an unbounded gain away from a
    NEG_INF-utility coalition.
    """

    agent: int
    kind: str
    target: Optional[int] = None
    current_utility: ExtInt = 0
    new_utility: ExtInt = 0

    @property
    def gain(self) -> Optional[int]:
        if self.current_utility is NEG_INF:
            return None
        assert isinstance(self.new_utility, int)
        return self.new_utility - self.current_utility


def is_individually_rational(s: ScoringVector, G: SocialNetwork, outcome: Outcome) -> bool:
    """True iff no agent has negative utility."""
    return all(agent_utility(s, G, outcome, i) >= 0 for i in range(G.n))


def _joined_utility(s, G, block, i) -> ExtInt:
    return member_utility(s, G, G.mask_of(block) | (1 << i), i)


def is_nash_stable(s: ScoringVector, G: SocialNetwork, outcome: Outcome) -> bool:
    """True iff no agent strictly gains by joining another coalition or going solo."""
    for i in range(G.n):
        current = agent_utility(s, G, outcome, i)
        if current < 0:
            return False
        own = outcome.coalition_of(i)
        for block in outcome:
            if block is own:
                continue
            # Joining a coalition with no neighbor of i leaves i unreachable.
            if not any(G.has_edge(i, j) for j in block):
                continue
            if _joined_utility(s, G, block, i) > current:
                return False
    return True


def find_deviation(
    s: ScoringVector, G: SocialNetwork, outcome: Outcome, mode: str
) -> Optional[Deviation]:
    """Witness for the first deviating agent (agents ascending, coalition targets
    in canonical order, the fresh singleton last), or None if stable."""
    if mode not in ("ir", "ns"):
        raise ValueError(f"mode must be 'ir' or 'ns', got {mode!r}")
    for i in range(G.n):
        current = agent_utility(s, G, outcome, i)
        if mode == "ir":
            if current < 0:
                return Deviation(i, "to-singleton", None, current, 0)
            continue
        own_index = outcome.coalition_index_of(i)
        for t, block in enumerate(outcome.coalitions):
            if t == own_index:
                continue
            if not any(G.has_edge(i, j) for j in block):
                continue
            new = _joined_utility(s, G, block, i)
            if new > current:
                return Deviation(i, "to-coalition", t, current, new)
        if current < 0:
            return Deviation(i, "to-singleton", None, current, 0)
    return None
