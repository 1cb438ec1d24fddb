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
from sdgsolve import dp, solver_twdp
from sdgsolve.dispatch import solve
from sdgsolve.dp import (
    Budget,
    WitnessTable,
    _low_order,
    _precedes,
    best_outcome,
    coalition_steps,
    grow_block,
    merge_blocks,
    part_index,
    run_postorder,
    self_check,
)
from sdgsolve.generators import random_solver_corpus_instance
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
    table.add("k", 3, (0b100, 0b011))
    table.add("k", 2, (0b111,))
    table.add("k", 3, (0b001, 0b110))
    table.add("k", 3, (0b101, 0b010))
    assert best_outcome(table) == (3, Outcome(((0,), (1, 2))))
    assert table.budget.seen == 4


# The witness table with frozenset blocks and an eagerly computed witness key,
# as it was before blocks became bitmasks: the reference for the lazy table.


def _eager_witness_key(blocks):
    return tuple(sorted(tuple(sorted(b)) for b in blocks))


class _EagerTable:
    def __init__(self, budget, canon=None):
        self.budget = budget
        self.canon = canon
        self.data = {}

    def add(self, state, welfare, blocks):
        budget = self.budget
        budget.seen += 1
        if budget.seen > budget.limit:
            raise ResourceLimitError(budget.message)
        key = state if self.canon is None else self.canon(state)
        old = self.data.get(key)
        wk = None
        if old is not None:
            if welfare < old[0]:
                return
            if welfare == old[0]:
                wk = _eager_witness_key(blocks)
                if wk >= old[2]:
                    return
        if wk is None:
            wk = _eager_witness_key(blocks)
        self.data[key] = (welfare, blocks, wk, state)


def _eager_best_outcome(table):
    if not table.data:
        return None
    welfare, blocks, _, _ = min(table.data.values(), key=lambda e: (-e[0], e[2]))
    return welfare, Outcome.from_blocks(blocks)


def _set_grow_block(blocks, mates, a):
    mates_set = set(mates)
    out = []
    grown = False
    for b in blocks:
        if b & mates_set:
            out.append(b | {a})
            grown = True
        else:
            out.append(b)
    if not grown:
        out.append(frozenset({a}))
    return tuple(out)


def _set_merge_blocks(blocks_y, blocks_z):
    out = [set(b) for b in blocks_y]
    for bz in blocks_z:
        hit = None
        for b in out:
            if b & bz:
                hit = b
                break
        if hit is None:
            out.append(set(bz))
        else:
            hit |= bz
    return tuple(frozenset(b) for b in out)


def _sets(masks):
    return tuple(frozenset(iter_bits(m)) for m in masks)


def _random_partition(agents, rng):
    """Member bitmasks of a random partition of ``agents``, in random order."""
    blocks: dict = {}
    for a in agents:
        label = rng.randrange(len(agents))
        blocks[label] = blocks.get(label, 0) | 1 << a
    masks = list(blocks.values())
    rng.shuffle(masks)
    return tuple(masks)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 7), st.randoms(use_true_random=False))
def test_lazy_witness_table_keeps_the_eager_tables_winners(n, rng):
    budget, eager_budget = Budget(10**6, "unused"), Budget(10**6, "unused")
    first = lambda state: state[0]
    table, eager = WitnessTable(budget, canon=first), _EagerTable(eager_budget, canon=first)
    for step in range(rng.randrange(1, 40)):
        # few keys and a narrow welfare range, so that most adds tie
        state = (rng.randrange(3), step)
        welfare = rng.randrange(-1, 2)
        masks = _random_partition(range(n), rng)
        table.add(state, welfare, masks)
        eager.add(state, welfare, _sets(masks))
    assert list(table.data) == list(eager.data)
    for key, (welfare, masks, _, state) in table.data.items():
        eager_welfare, blocks, _, eager_state = eager.data[key]
        assert (welfare, _sets(masks), state) == (eager_welfare, blocks, eager_state)
    assert best_outcome(table) == _eager_best_outcome(eager)
    assert budget.seen == eager_budget.seen


def _join_witnesses(n, rng):
    """(bag, blocks_y, blocks_z): a random bag over agents 0..n-1 and the
    witnesses of a join's two branches, whose open blocks meet the bag in the
    same parts.  Each agent outside the bag belongs to one branch, and the
    right branch may hold up to three more agents n, n+1, ...; a branch's own
    agent joins one of the bag parts' blocks or a closed block."""
    bag_agents = [a for a in range(n) if rng.random() < 0.4]
    bag = sum(1 << a for a in bag_agents)
    parts = _random_partition(bag_agents, rng)
    own_y = [a for a in range(n) if not bag >> a & 1 and rng.random() < 0.5]
    own_z = [a for a in range(n) if not bag >> a & 1 and a not in own_y]
    own_z += list(range(n, n + rng.randrange(4)))

    def side(own):
        opens = list(parts)
        closed: dict = {}
        for a in own:
            label = rng.randrange(len(opens) + len(own))
            if label < len(opens):
                opens[label] |= 1 << a
            else:
                closed[label] = closed.get(label, 0) | 1 << a
        masks = opens + list(closed.values())
        rng.shuffle(masks)
        return tuple(masks)

    return bag, side(own_y), side(own_z)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8), st.randoms(use_true_random=False))
def test_mask_block_helpers_match_the_set_versions(n, rng):
    masks = _random_partition(range(n), rng)
    # a new agent joins the block of some mates, or opens a block of its own
    host = masks[rng.randrange(len(masks))]
    mates = [a for a in range(n) if host >> a & 1 and rng.random() < 0.5]
    mates_mask = sum(1 << m for m in mates)
    assert _sets(grow_block(masks, mates_mask, n)) == _set_grow_block(_sets(masks), mates, n)
    # two branches' witnesses that meet the join's bag in the same parts
    bag, blocks_y, blocks_z = _join_witnesses(n, rng)
    assert _sets(merge_blocks(blocks_y, blocks_z, bag)) == _set_merge_blocks(_sets(blocks_y), _sets(blocks_z))


def _agent_key(blocks):
    return tuple(sorted(tuple(iter_bits(b)) for b in blocks))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 9), st.randoms(use_true_random=False))
def test_bitmask_tie_order_is_the_agent_tuple_order(n, rng):
    xs = _random_partition(range(n), rng)
    # an equal partition a fifth of the time, so that equal witnesses are drawn too
    ys = xs if rng.random() < 0.2 else _random_partition(range(n), rng)
    assert _precedes(_low_order(xs), _low_order(ys)) == (_agent_key(xs) < _agent_key(ys))
    assert _precedes(_low_order(ys), _low_order(xs)) == (_agent_key(ys) < _agent_key(xs))


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
    assert _precedes(_low_order(xs), _low_order(ys)) == (_agent_key(xs) < _agent_key(ys))
    assert _precedes(_low_order(ys), _low_order(xs)) == (_agent_key(ys) < _agent_key(xs))


# criterion-4 seeds whose nice decompositions have join nodes
@pytest.mark.parametrize("seed", [0, 5, 9, 10, 12, 19, 20, 24, 26, 27])
def test_bag_merge_equals_the_set_merge_during_solves(seed, monkeypatch):
    # at every join of a twdp or fptdp solve, the bag-keyed merge gives the
    # tuple that fusing every pair of blocks sharing an agent gives
    G = random_solver_corpus_instance(seed)
    joins = []

    def checked(blocks_y, blocks_z, bag, at):
        assert at == part_index(blocks_y, bag)
        merged = merge_blocks(blocks_y, blocks_z, bag, at)
        assert _sets(merged) == _set_merge_blocks(_sets(blocks_y), _sets(blocks_z))
        joins.append(bag)
        return merged

    monkeypatch.setattr(dp, "merge_blocks", checked)
    monkeypatch.setattr(solver_twdp, "merge_blocks", checked)
    for vec in ((1, -3), (1, 0, -1)):
        s = ScoringVector(vec)
        for mode in ("welfare", "ir", "ns"):
            solve(s, G, mode, algo="twdp")
            solve_fpt(s, G, mode=mode)
    assert joins


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


def test_self_check_rejects_an_outcome_that_leaves_out_an_agent():
    # ((0, 1),) has the right welfare for the 3-path under (1) but drops agent 2
    with pytest.raises(AssertionError, match="x outcome is not a partition.*agent 2"):
        self_check(ScoringVector((1,)), path_graph(3), "welfare", 2, Outcome(((0, 1),)), "x")


@pytest.mark.parametrize("mode", ["welfare", "ir", "ns"])
def test_forget_drops_a_coalition_its_forgotten_member_cannot_reach(mode):
    # on the path 0-1-2, once 0 is forgotten no later agent can join it to 2
    # inside the coalition {0, 2}, so no state may keep that coalition open
    G = path_graph(3)
    leaf, introduce, forget, _ = coalition_steps(
        CoalitionEvaluator(ScoringVector((1, 1)), G), Budget(100, "unused"), 3, mode
    )
    table = leaf(NiceNode("leaf", frozenset(), ()))
    bag = frozenset()
    for agent in (0, 2, 1):
        bag = bag | {agent}
        table = introduce(NiceNode("introduce", bag, (0,), agent), table)
    assert any(0b101 in opens for opens, _, _ in (e[3] for e in table.data.values()))
    table = forget(NiceNode("forget", frozenset({1, 2}), (0,), 0), table)
    states = [e[3] for e in table.data.values()]
    assert states and all(0b101 not in opens for opens, _, _ in states)
