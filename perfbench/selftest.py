"""Self-test of the independent checker: it must accept right answers and
reject deliberately wrong ones.  Run alone with ``python3 perfbench/selftest.py``;
every benchmark run also runs it and fails when it does not pass."""

import sys

from checker import Game, exhaustive_optima, outcome_errors

# the paper's 7-agent network (two hubs over a triangle, one pendant each)
FIG_A_EDGES = ((0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3), (3, 4), (2, 4), (0, 5), (1, 6))


def failures():
    """Descriptions of every self-test case the checker gets wrong."""
    bad = []

    def expect(ok, what):
        if not ok:
            bad.append(what)

    mild = Game(7, FIG_A_EDGES, (1, 0, -1), "closed")
    sharp = Game(7, FIG_A_EDGES, (1, -3), "closed")
    expect(exhaustive_optima(mild)["welfare"] == 18, "exhaustive welfare of fig_a under (1,0,-1) is not 18")
    expect(exhaustive_optima(sharp)["welfare"] == 14, "exhaustive welfare of fig_a under (1,-3) is not 14")

    # the hub partition {x, y, a1, a2, a3}, {x1}, {y1} scores 12 under (1,-3)
    hub = [[0, 1, 2, 3, 4], [5], [6]]
    expect(outcome_errors(sharp, hub, 12, "welfare") == [], "a right welfare claim is rejected")
    expect(outcome_errors(sharp, hub, 13, "welfare") != [], "welfare off by one is accepted")
    expect(outcome_errors(sharp, hub, 11, "welfare") != [], "welfare off by minus one is accepted")
    expect(outcome_errors(sharp, [[0, 1, 2, 3, 4], [5]], 12, "welfare") != [], "an outcome missing an agent is accepted")
    expect(outcome_errors(sharp, [[0, 1, 2, 3, 4], [4, 5], [6]], 12, "welfare") != [], "an agent in two coalitions is accepted")
    expect(outcome_errors(sharp, [[0, 1, 2, 3, 4], [5], [6], []], 12, "welfare") != [], "an empty coalition is accepted")
    expect(outcome_errors(sharp, [[0, 1, 2, 3, 4], [5], [6, 7]], 12, "welfare") != [], "an unknown agent is accepted")

    # path 0-1-2 under (1,): agent 0 alone gains 1 by joining agent 1
    path = Game(3, ((0, 1), (1, 2)), (1,), "closed")
    lonely = [[0], [1], [2]]
    expect(outcome_errors(path, lonely, 0, "ir") == [], "singletons are rejected as IR")
    expect(outcome_errors(path, lonely, 0, "ns") != [], "an NS claim with a profitable move is accepted")
    expect(outcome_errors(path, [[0, 1], [2]], 2, "ns") == [], "a Nash-stable outcome is rejected")
    expect(exhaustive_optima(path) == {"welfare": 2, "ir": 2, "ns": 2}, "exhaustive optima of the 3-path are wrong")

    # star with centre 0 under (1,-3): the centre has 3, each leaf 1 - 3 - 3 = -5
    star = Game(4, ((0, 1), (0, 2), (0, 3)), (1, -3), "closed")
    grand = [[0, 1, 2, 3]]
    expect(outcome_errors(star, grand, -12, "welfare") == [], "the star's grand coalition welfare is rejected")
    expect(outcome_errors(star, grand, -12, "ir") != [], "an IR claim with a negative utility is accepted")
    # a closed tail rejects distance 3, an open tail clamps it
    line = ((0, 1), (1, 2), (2, 3))
    expect(Game(4, line, (2, -1), "closed").welfare([[0, 1, 2, 3]]) == float("-inf"), "closed tail scores distance 3")
    expect(Game(4, line, (2, -1), "open").welfare([[0, 1, 2, 3]]) == 2 * (3 * 2 + 2 * -1 + -1), "open tail misscores")
    return bad


if __name__ == "__main__":
    problems = failures()
    for p in problems:
        print("FAIL:", p)
    print("checker self-test:", "passed" if not problems else f"{len(problems)} failures")
    sys.exit(1 if problems else 0)
