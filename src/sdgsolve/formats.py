"""File formats: PACE-style .gr graphs, .out outcome listings, JSON reports.

Graph files use 1-indexed vertices ("p tw <n> <m>" header plus edge lines);
a headerless file is read as a plain 1-indexed edge list.  Outcome files hold
one coalition per line as space-separated 1-indexed agents.
"""

import json
from typing import Optional

from .core import NEG_INF, Outcome, ScoringVector, SocialNetwork, SolveResult
from .stability import is_individually_rational, is_nash_stable


class GrParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def read_gr(text: str) -> SocialNetwork:
    n = None
    raw_pairs: list[tuple[int, int, int]] = []  # (line_no, u, v), 1-indexed
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if len(parts) != 4 or parts[1] not in ("tw", "sdg"):
                raise GrParseError(line_no, f"malformed header {line!r}")
            try:
                n = int(parts[2])
            except ValueError:
                raise GrParseError(line_no, f"non-integer vertex count in {line!r}")
            if n < 1:
                raise GrParseError(line_no, "network needs at least one agent")
            continue
        if len(parts) != 2:
            raise GrParseError(line_no, f"malformed edge line {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GrParseError(line_no, f"non-integer edge endpoints {line!r}")
        if u < 1 or v < 1:
            raise GrParseError(line_no, "vertex ids are 1-indexed and positive")
        if u == v:
            raise GrParseError(line_no, f"self-loop at agent {u}")
        raw_pairs.append((line_no, u, v))
    if n is None:
        if not raw_pairs:
            raise GrParseError(0, "empty graph file without a header")
        n = max(max(u, v) for _, u, v in raw_pairs)
    for line_no, u, v in raw_pairs:
        if u > n or v > n:
            raise GrParseError(line_no, f"edge ({u},{v}) exceeds declared vertex count {n}")
    return SocialNetwork(n, [(u - 1, v - 1) for _, u, v in raw_pairs])


def write_gr(G: SocialNetwork) -> str:
    lines = [f"p tw {G.n} {len(G.edges)}"]
    lines += [f"{u + 1} {v + 1}" for u, v in G.edges]
    return "\n".join(lines) + "\n"


def read_outcome(text: str, n: int) -> Outcome:
    blocks = []
    seen: set[int] = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        try:
            members = [int(tok) for tok in line.split()]
        except ValueError:
            raise ValueError(f"line {line_no}: non-integer agent id")
        for a in members:
            if not 1 <= a <= n:
                raise ValueError(f"line {line_no}: agent {a} outside 1..{n}")
            if a in seen:
                raise ValueError(f"line {line_no}: agent {a} appears in two coalitions")
            seen.add(a)
        blocks.append([a - 1 for a in members])
    missing = set(range(1, n + 1)) - seen
    if missing:
        raise ValueError(f"agent {min(missing)} missing from outcome")
    return Outcome.from_blocks(blocks)


def write_outcome(outcome: Outcome) -> str:
    return "\n".join(" ".join(str(a + 1) for a in block) for block in outcome) + "\n"


def result_report(
    s: ScoringVector,
    G: SocialNetwork,
    result: Optional[SolveResult],
    elapsed_ms: Optional[float] = None,
    graph_path: Optional[str] = None,
) -> dict:
    from .core import agent_utility

    report: dict = {
        "n": G.n,
        "m": len(G.edges),
        "scores": list(s.scores),
        "tail": s.tail,
    }
    if graph_path:
        report["graph"] = graph_path
    if result is None:
        report.update({"feasible": False})
        return report
    utilities = [agent_utility(s, G, result.outcome, i) for i in range(G.n)]
    report.update(
        {
            "feasible": True,
            "mode": result.mode,
            "algorithm": result.algorithm,
            "welfare": int(result.welfare),
            "outcome": [[a + 1 for a in block] for block in result.outcome],
            "utilities": [None if u == NEG_INF else int(u) for u in utilities],
            "individually_rational": is_individually_rational(s, G, result.outcome),
            "nash_stable": is_nash_stable(s, G, result.outcome),
            "optimal": result.optimal,
            "size_limited": result.size_limited,
        }
    )
    if elapsed_ms is not None:
        report["elapsed_ms"] = round(elapsed_ms, 3)
    return report


def report_to_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def report_from_json(text: str) -> dict:
    return json.loads(text)
