"""The shared nice-decomposition DP machinery: postorder walk, witness table, self-check."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdgsolve.core import (
    CoalitionEvaluator,
    Outcome,
    ResourceLimitError,
    ScoringVector,
    SocialNetwork,
    iter_bits,
)
from sdgsolve import dp, solver_twdp, treedecomp
from sdgsolve.dispatch import solve
from sdgsolve.dp import (
    Budget,
    WitnessTable,
    best_outcome,
    coalition_steps,
    run_postorder,
    self_check,
)
from sdgsolve.generators import random_solver_corpus_instance
from sdgsolve.oracle import brute_force_solve
from sdgsolve.solver_fptdp import solve_fpt
from sdgsolve.solver_twdp import solve_tw_ir, solve_tw_ns, solve_tw_welfare
from sdgsolve.treedecomp import (
    NiceNode,
    NiceTreeDecomposition,
    decomposition_from_order,
    make_nice,
    validate_nice,
)

from conftest import complete_graph, path_graph, plain_key, random_connected_graph


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
    # on the triangle, edge (0,1) owns key bit 2, (0,2) bit 1 and (1,2) bit 0
    G = complete_graph(3)
    table = WitnessTable(Budget(10, "unused"))
    table.add("k", 3, 0b100)  # ((0,1),(2,))
    table.add("k", 2, 0b000)
    table.add("k", 3, 0b001)  # ((0,),(1,2))
    table.add("k", 3, 0b010)  # ((0,2),(1,))
    assert best_outcome(G, table) == (3, Outcome(((0,), (1, 2))))
    assert table.budget.seen == 4


def _random_partition(agents, rng):
    """Member bitmasks of a random partition of ``agents``, in random order."""
    blocks: dict = {}
    for a in agents:
        label = rng.randrange(len(agents))
        blocks[label] = blocks.get(label, 0) | 1 << a
    masks = list(blocks.values())
    rng.shuffle(masks)
    return tuple(masks)


def _blocks(masks):
    return [tuple(iter_bits(m)) for m in masks]


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 7), st.randoms(use_true_random=False))
def test_witness_table_keeps_the_best_entry_per_slot(n, rng):
    # against a plain list of every add: per state the highest welfare, then
    # the smallest key
    G = complete_graph(n)
    table = WitnessTable(Budget(10**6, "unused"))
    adds = []
    for _ in range(rng.randrange(1, 40)):
        # few states and a narrow welfare range, so that most adds tie
        state = rng.randrange(3)
        welfare = rng.randrange(-1, 2)
        key = plain_key(G, _blocks(_random_partition(range(n), rng)))
        table.add(state, welfare, key)
        adds.append((state, -welfare, key))
    expect = {}
    for state, neg_welfare, key in sorted(adds):
        expect.setdefault(state, (-neg_welfare, key))
    assert table.data == expect
    welfare, key = min(expect.values(), key=lambda e: (-e[0], e[1]))
    assert best_outcome(G, table) == (welfare, G.outcome_of_key(key))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8), st.floats(0, 1), st.randoms(use_true_random=False))
def test_mask_block_helpers_match_the_set_versions(n, p, rng):
    # a block's key and an agent's key bits into a block, against the plain
    # key of the block's agents with and without the agent
    G = SocialNetwork(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
    for mask in _random_partition(range(n), rng):
        block = tuple(iter_bits(mask))
        assert G.edge_key(mask) == plain_key(G, [block])
        a = rng.randrange(n)
        rest = tuple(b for b in block if b != a)
        assert G.edge_key_to(a, mask) == plain_key(G, [rest + (a,)]) - plain_key(G, [rest])


def _edge_indicators(G, masks):
    """Per edge in rank order, whether some block holds both its ends."""
    return tuple(any(m >> u & 1 and m >> v & 1 for m in masks) for u, v in G.edges)


def _key(G, masks):
    key = 0
    for mask in masks:
        key |= G.edge_key(mask)
    return key


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 9), st.floats(0, 1), st.randoms(use_true_random=False))
def test_key_order_is_the_edge_rank_order(n, p, rng):
    # the smaller key leaves out the first edge in rank order where two
    # partitions differ
    G = SocialNetwork(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
    xs = _random_partition(range(n), rng)
    # an equal partition a fifth of the time, so that equal witnesses are drawn too
    ys = xs if rng.random() < 0.2 else _random_partition(range(n), rng)
    assert (_key(G, xs) < _key(G, ys)) == (_edge_indicators(G, xs) < _edge_indicators(G, ys))
    assert (_key(G, ys) < _key(G, xs)) == (_edge_indicators(G, ys) < _edge_indicators(G, xs))


@pytest.mark.parametrize(
    "xs, ys",
    [
        ((0b011, 0b100), (0b111,)),  # {0,1} is a prefix of {0,1,2}
        ((0b111,), (0b011, 0b100)),
        ((0b101, 0b010), (0b011, 0b100)),  # {0,2} against {0,1}
        ((0b001, 0b110), (0b011, 0b100)),  # {0} against {0,1}
        ((0b110, 0b001), (0b001, 0b110)),  # equal, in another block order
        ((0b011,), (0b011, 0b100)),  # a witness that is a prefix of the other
        ((), ()),
    ],
)
def test_bitmask_tie_order_on_prefix_blocks(xs, ys):
    # the keys of bitmask witnesses on the triangle, where every pair of
    # agents is an edge
    G = complete_graph(3)
    assert (_key(G, xs) < _key(G, ys)) == (_edge_indicators(G, xs) < _edge_indicators(G, ys))
    assert (_key(G, ys) < _key(G, xs)) == (_edge_indicators(G, ys) < _edge_indicators(G, xs))


def _set_join(G, s, cap, node, left, right):
    """The open-coalition DP's join written over sets: every pair of entries
    whose open coalitions meet the bag in the same parts, with coalitions
    fused where they share an agent, dropped when one outgrows ``cap`` or,
    under a closed tail, holds two agents farther apart in G than the
    cutoff; pending lists concatenate, deviations take the larger value per
    agent, welfare adds and keys OR."""
    bag = set(node.bag)
    dist = [G.distances_in(G.full_mask, u) for u in range(G.n)]
    table = WitnessTable(Budget(10**9, "unused"))
    for (opens_y, pending_y, devs_y), (wf_y, key_y) in left.data.items():
        for (opens_z, pending_z, devs_z), (wf_z, key_z) in right.data.items():
            sets_y = [set(iter_bits(b)) for b in opens_y]
            sets_z = [set(iter_bits(b)) for b in opens_z]
            if sorted(sorted(b & bag) for b in sets_y) != sorted(sorted(b & bag) for b in sets_z):
                continue
            merged = [b | next(c for c in sets_z if b & c) for b in sets_y]
            if any(len(b) > cap for b in merged):
                continue
            if s.is_closed and any(
                dist[u].get(v, G.n) > s.cutoff for b in merged for u in b for v in b
            ):
                continue
            devs = dict(devs_y)
            for t, d in devs_z:
                devs[t] = max(devs.get(t, 0), d)
            state = (
                tuple(sorted(G.mask_of(b) for b in merged)),
                tuple(sorted(pending_y + pending_z)),
                tuple(sorted(devs.items())),
            )
            table.add(state, wf_y + wf_z, key_y | key_z)
    return table


# criterion-4 seeds whose nice decompositions have join nodes
@pytest.mark.parametrize("seed", [0, 5, 9, 10, 12, 19, 20, 24, 26, 27])
def test_bag_merge_equals_the_set_merge_during_solves(seed, monkeypatch):
    # at every join of the open-coalition DP (twdp and fptdp in NS mode)
    # the bag-keyed merge builds the table that merging the entries as sets
    # builds
    G = random_solver_corpus_instance(seed)
    joins = []
    steps = dp.coalition_steps

    def wrapped(ev, budget, cap):
        leaf, introduce, forget, join = steps(ev, budget, cap)

        def checked(node, left, right):
            table = join(node, left, right)
            assert list(table.data.items()) == list(_set_join(G, ev.s, cap, node, left, right).data.items())
            joins.append(len(table.data))
            return table

        return leaf, introduce, forget, checked

    monkeypatch.setattr(solver_twdp, "coalition_steps", wrapped)
    for vec in ((1, -3), (1, 0, -1)):
        s = ScoringVector(vec)
        solve(s, G, "ns", algo="twdp")
        solve_fpt(s, G, mode="ns")
        solve_fpt(s, G, sz=3, mode="ns")
    assert any(joins)


def _relabelled_degree3_graph():
    """Relabelling 2 of random_bounded_degree(11, 3, 1): under the old tie
    rule fptdp returned another welfare-26 optimum here than brute force."""
    return SocialNetwork(11, [
        (0, 4), (0, 6), (1, 10), (2, 4), (2, 5), (2, 7), (3, 7),
        (3, 10), (4, 8), (5, 9), (6, 8), (6, 9), (7, 8), (9, 10),
    ])


# criterion-4 seeds whose nice decompositions have join nodes, the graph
# above, and the 6-agent graph whose tie twdp broke by the decomposition
INDEPENDENCE_GRAPHS = {
    **{f"seed{seed}": (lambda seed=seed: random_solver_corpus_instance(seed))
       for seed in (0, 5, 9, 10, 12, 19, 20, 24, 26, 27)},
    "degree3-n11": _relabelled_degree3_graph,
    "tie-n6": lambda: SocialNetwork(6, [(0, 2), (0, 4), (1, 4), (3, 4), (3, 5)]),
}


@pytest.mark.parametrize("case", list(INDEPENDENCE_GRAPHS))
def test_outcome_does_not_depend_on_the_decomposition(case):
    # twdp and fptdp on the subset DP's nice decomposition and on min-fill's
    # rooted above its first and above its last bag give byte-equal answers,
    # brute force's, in every mode
    G = INDEPENDENCE_GRAPHS[case]()
    exact = decomposition_from_order(G, treedecomp._exact_elimination_order(G))
    min_fill = decomposition_from_order(G, treedecomp._min_fill_order(G))
    decompositions = [
        make_nice(exact),
        make_nice(min_fill),
        make_nice(min_fill, len(min_fill.bags) - 1),
    ]
    twdp = {"welfare": solve_tw_welfare, "ir": solve_tw_ir, "ns": solve_tw_ns}
    vectors = [ScoringVector(v) for v in ((1,), (1, -3), (1, 0, -1), (1, 1, -1, -1, -1, -1))]
    for s in vectors + [ScoringVector((2, -1), tail="open")]:
        for mode in ("welfare", "ir", "ns"):
            expect = brute_force_solve(s, G, mode)
            answers = {repr(None if expect is None else (expect.welfare, expect.outcome))}
            for ntd in decompositions:
                got = [solve_fpt(s, G, decomposition=ntd, mode=mode)]
                if s.is_closed:
                    got.append(twdp[mode](s, G, ntd))
                answers |= {repr(None if r is None else (r.welfare, r.outcome)) for r in got}
            assert len(answers) == 1, (str(s), mode, answers)


def test_budget_charges_every_add_and_raises_past_its_limit():
    budget = Budget(3, "out of records (3)")
    left, right = WitnessTable(budget), WitnessTable(budget)
    left.add("a", 0, 0)
    right.add("a", -1, 0)
    left.add("a", -1, 0)
    with pytest.raises(ResourceLimitError, match=r"out of records \(3\)"):
        right.add("b", 0, 0)


def test_best_outcome_of_empty_table_is_none():
    assert best_outcome(path_graph(2), WitnessTable(Budget(1, "unused"))) is None


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


def test_self_check_rejects_an_outcome_that_leaves_out_an_agent():
    # ((0, 1),) has the right welfare for the 3-path under (1) but drops agent 2
    with pytest.raises(AssertionError, match="x outcome is not a partition.*agent 2"):
        self_check(ScoringVector((1,)), path_graph(3), "welfare", 2, Outcome(((0, 1),)), "x")


@pytest.mark.parametrize("mode", ["welfare", "ir", "ns"])
def test_forget_drops_a_coalition_its_forgotten_member_cannot_reach(mode):
    # on the path 0-1-2, once 0 is forgotten no later agent can join it to 2
    # inside the coalition {0, 2}, so no state may keep that coalition open:
    # not NS mode's open-coalition DP, nor the record of welfare and IR mode
    G = path_graph(3)
    s = ScoringVector((1, 1))
    budget = Budget(100, "unused")
    if mode == "ns":
        steps = coalition_steps(CoalitionEvaluator(s, G), budget, 3)
    else:
        steps = solver_twdp._compressed_steps(s, G, budget, mode == "ir", 3)
    leaf, introduce, forget, _ = steps
    table = leaf(NiceNode("leaf", frozenset(), ()))
    bag = frozenset()
    for agent in (0, 2, 1):
        bag = bag | {agent}
        table = introduce(NiceNode("introduce", bag, (0,), agent), table)
    # a state's first entry is its open coalitions (NS) or its bag parts
    assert any(0b101 in state[0] for state in table.data)
    table = forget(NiceNode("forget", frozenset({1, 2}), (0,), 0), table)
    assert table.data
    for state in table.data:
        if mode == "ns":
            assert 0b101 not in state[0]
        else:
            # the record would keep {0, 2} as the part {2} with 0 in a cell
            assert all(cell[0] != 0b100 for cell in state[2])
