"""The shared nice-decomposition DP machinery: postorder walk, witness table, self-check."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdgsolve.core import Outcome, ResourceLimitError, ScoringVector, SocialNetwork
from sdgsolve.dispatch import solve
from sdgsolve.dp import Budget, WitnessTable, best_outcome, run_postorder, self_check
from sdgsolve.solver_fptdp import solve_fpt
from sdgsolve.treedecomp import (
    NiceNode,
    NiceTreeDecomposition,
    decomposition_from_order,
    make_nice,
    validate_nice,
)

from conftest import path_graph, random_connected_graph


def _reachable(ntd):
    seen, stack = set(), [ntd.root]
    while stack:
        idx = stack.pop()
        seen.add(idx)
        stack.extend(ntd.nodes[idx].children)
    return seen


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 9), st.randoms(use_true_random=False))
def test_postorder_visits_children_first_and_hands_over_their_tables(n, rng):
    G = random_connected_graph(n, rng, extra_edge_prob=1.5)
    order = list(range(n))
    rng.shuffle(order)
    ntd = make_nice(decomposition_from_order(G, order))
    assert isinstance(validate_nice(G, ntd), int)
    index = {id(node): i for i, node in enumerate(ntd.nodes)}
    calls = []

    def step(kind):
        def call(node, *child_tables):
            idx = index[id(node)]
            assert node.kind == kind
            assert child_tables == tuple(("table", c) for c in node.children)
            calls.append(idx)
            return ("table", idx)

        return call

    root = run_postorder(ntd, step("leaf"), step("introduce"), step("forget"), step("join"))
    assert root == ("table", ntd.root)
    assert sorted(calls) == sorted(_reachable(ntd))
    position = {idx: i for i, idx in enumerate(calls)}
    for idx in calls:
        for child in ntd.nodes[idx].children:
            assert position[child] < position[idx]


def test_postorder_rejects_a_root_bag_that_is_not_empty():
    G = SocialNetwork(2, [(0, 1)])
    ntd = NiceTreeDecomposition(
        (
            NiceNode("leaf", frozenset(), ()),
            NiceNode("introduce", frozenset({0}), (0,), 0),
            NiceNode("introduce", frozenset({0, 1}), (1,), 1),
        ),
        2,
    )
    for mode in ("welfare", "ir", "ns"):
        with pytest.raises(ValueError, match="root bag"):
            solve(ScoringVector((1, -3)), G, mode, decomposition=ntd)
        with pytest.raises(ValueError, match="root bag"):
            solve_fpt(ScoringVector((1, -3)), G, decomposition=ntd, mode=mode)


def test_witness_table_prefers_welfare_then_smallest_witness():
    table = WitnessTable(Budget(10, "unused"))
    table.add("k", 3, (frozenset({2}), frozenset({0, 1})))
    table.add("k", 2, (frozenset({0, 1, 2}),))
    table.add("k", 3, (frozenset({0}), frozenset({1, 2})))
    table.add("k", 3, (frozenset({0, 2}), frozenset({1})))
    assert best_outcome(table) == (3, Outcome(((0,), (1, 2))))
    assert table.budget.seen == 4


def test_witness_table_keys_states_by_canon():
    table = WitnessTable(Budget(10, "unused"), canon=len)
    table.add("ab", 1, ())
    table.add("cd", 2, ())
    assert list(table.data) == [2]
    assert table.data[2][3] == "cd"


def test_budget_charges_every_add_and_raises_past_its_limit():
    budget = Budget(3, "out of records (3)")
    left, right = WitnessTable(budget), WitnessTable(budget)
    left.add("a", 0, ())
    right.add("a", -1, ())
    left.add("a", -1, ())
    with pytest.raises(ResourceLimitError, match=r"out of records \(3\)"):
        right.add("b", 0, ())


def test_best_outcome_of_empty_table_is_none():
    assert best_outcome(WitnessTable(Budget(1, "unused"))) is None


def test_self_check_rejects_wrong_welfare_and_unstable_outcomes():
    G = path_graph(3)
    s = ScoringVector((1, -3))
    grand = Outcome(((0, 1, 2),))
    self_check(s, G, "welfare", -2, grand, "x")
    with pytest.raises(AssertionError, match="x welfare"):
        self_check(s, G, "welfare", 0, grand, "x")
    with pytest.raises(AssertionError, match="non-IR"):
        self_check(s, G, "ir", -2, grand, "x")
    self_check(s, G, "ns", 2, Outcome(((0,), (1, 2))), "x")
    with pytest.raises(AssertionError, match="non-NS"):
        self_check(s, G, "ns", 0, Outcome.singletons(3), "x")
