"""Individual rationality and Nash stability checks with deviation witnesses.

``first_deviation`` is the package's one deviation search: it runs on member
bitmasks and reads every utility from a ``CoalitionEvaluator``, so a caller
that checks one outcome several times, or many partitions of one network
(the brute-force NS search), pays for each utility once.
"""

from dataclasses import dataclass
from typing import Optional

from .core import NEG_INF, CoalitionEvaluator, ExtInt, Outcome, ScoringVector, SocialNetwork


@dataclass(frozen=True)
class Deviation:
    """A profitable move for one agent.

    ``kind`` is "to-singleton" (leave and stand alone) or "to-coalition"
    (join the coalition at index ``target`` of the partition as searched:
    the outcome's canonical order from ``find_deviation``).  ``gain`` is the
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
        if self.current_utility == NEG_INF:
            return None
        assert isinstance(self.new_utility, int)
        return self.new_utility - self.current_utility


def is_individually_rational(s: ScoringVector, G: SocialNetwork, outcome: Outcome) -> bool:
    """True iff no agent has negative utility."""
    return find_deviation(s, G, outcome, "ir") is None


def is_nash_stable(s: ScoringVector, G: SocialNetwork, outcome: Outcome) -> bool:
    """True iff no agent strictly gains by joining another coalition or going solo."""
    return find_deviation(s, G, outcome, "ns") is None


def find_deviation(
    s: ScoringVector, G: SocialNetwork, outcome: Outcome, mode: str
) -> Optional[Deviation]:
    """Witness for the first deviating agent (agents ascending, coalition targets
    in canonical order, the fresh singleton last), or None if stable."""
    if mode not in ("ir", "ns"):
        raise ValueError(f"mode must be 'ir' or 'ns', got {mode!r}")
    return first_deviation(CoalitionEvaluator(s, G), [G.mask_of(b) for b in outcome], mode)


def first_deviation(ev: CoalitionEvaluator, masks: list[int], mode: str) -> Optional[Deviation]:
    """``find_deviation`` on the partition with coalition bitmasks ``masks``,
    reading every utility from ``ev``.  The masks may come in any order;
    it sets only ``Deviation.target``, an index into ``masks``."""
    adj = ev.G.adj_mask
    for i in range(ev.G.n):
        own = next((t for t, mask in enumerate(masks) if mask >> i & 1), None)
        if own is None:
            raise KeyError(f"agent {i} not in outcome")
        current = ev.utility(i, masks[own])
        if mode == "ns":
            for t, mask in enumerate(masks):
                # Joining a coalition with no neighbor of i leaves i unreachable.
                if t != own and adj[i] & mask:
                    new = ev.utility(i, mask | 1 << i)
                    if new > current:
                        return Deviation(i, "to-coalition", t, current, new)
        if current < 0:
            return Deviation(i, "to-singleton", None, current, 0)
    return None
