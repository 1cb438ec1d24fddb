"""The bitmask-cached coalition evaluator and the mask-level deviation search."""

from hypothesis import given, settings
from hypothesis import strategies as st

from sdgsolve.bounds import certify_outcome
from sdgsolve.core import (
    CoalitionEvaluator,
    Outcome,
    ScoringVector,
    SocialNetwork,
    agent_utility,
    coalition_diameter,
    coalition_welfare,
    iter_bits,
    member_utility,
    utility_from_distances,
    utility_in_coalition,
)
from sdgsolve.formats import result_report
from sdgsolve.oracle import brute_force_solve
from sdgsolve.stability import Deviation, find_deviation, first_deviation

from conftest import VECTORS


def reference_find_deviation(s, G, outcome, mode):
    """Uncached set-based deviation search: agents ascending, join targets in
    canonical order, the fresh singleton last."""
    for i in range(G.n):
        current = agent_utility(s, G, outcome, i)
        if mode == "ns":
            own_index = outcome.coalition_index_of(i)
            for t, block in enumerate(outcome.coalitions):
                if t == own_index:
                    continue
                if not any(G.has_edge(i, j) for j in block):
                    continue
                new = member_utility(s, G, G.mask_of(block) | (1 << i), i)
                if new > current:
                    return Deviation(i, "to-coalition", t, current, new)
        if current < 0:
            return Deviation(i, "to-singleton", None, current, 0)
    return None


def random_game(n, rng, density):
    """A possibly disconnected graph and a random partition of its agents."""
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density / 4]
    blocks: dict[int, list[int]] = {}
    for i in range(n):
        blocks.setdefault(rng.randrange(1 + n // 2), []).append(i)
    return SocialNetwork(n, edges), Outcome.from_blocks(blocks.values())


GAMES = dict(
    n=st.integers(2, 8),
    rng=st.randoms(use_true_random=False),
    density=st.integers(1, 4),
    vi=st.integers(0, len(VECTORS) - 1),
)


@settings(max_examples=80, deadline=None)
@given(**GAMES)
def test_evaluator_matches_member_utility(n, rng, density, vi):
    s = VECTORS[vi]
    G, outcome = random_game(n, rng, density)
    ev = CoalitionEvaluator(s, G)
    fresh = CoalitionEvaluator(s, G)  # utilities asked for before any stats
    for block in outcome:
        mask = G.mask_of(block)
        expected = {i: member_utility(s, G, mask, i) for i in block}
        assert {i: fresh.utility(i, mask) for i in block} == expected
        welfare, worst, utils = ev.stats(mask)
        assert utils == expected
        assert worst == min(expected.values())
        assert welfare == coalition_welfare(s, G, block)
        assert {i: ev.utility(i, mask) for i in block} == expected
        for i in range(n):
            if i not in block:
                joined = member_utility(s, G, mask | (1 << i), i)
                assert ev.utility(i, mask | (1 << i)) == joined
                assert joined == utility_in_coalition(s, G, set(block) | {i}, i)


@settings(max_examples=80, deadline=None)
@given(**GAMES)
def test_diameter_matches_coalition_diameter_and_caches_the_same_stats(n, rng, density, vi):
    s = VECTORS[vi]
    G, outcome = random_game(n, rng, density)
    ev = CoalitionEvaluator(s, G)
    for block in outcome:
        mask = G.mask_of(block)
        assert ev.diameter(mask) == coalition_diameter(G, block)
        assert ev.stats(mask) == CoalitionEvaluator(s, G).stats(mask)
        assert ev.diameter(mask) == coalition_diameter(G, block)


def reference_stats(s, G, mask):
    """Stats from per-member distance maps instead of the evaluator's
    per-layer member counts."""
    size = mask.bit_count()
    utils = {i: utility_from_distances(s, G.distances_in(mask, i), size) for i in iter_bits(mask)}
    return sum(utils.values()), min(utils.values()), utils


@settings(max_examples=120, deadline=None)
@given(
    n=st.integers(1, 9),
    rng=st.randoms(use_true_random=False),
    chords=st.integers(0, 3),
    vi=st.integers(0, len(VECTORS)),
    drawn=st.lists(st.integers(1, (1 << 9) - 1), max_size=8),
)
def test_layer_counts_match_the_distance_reference(n, rng, chords, vi, drawn):
    s = (VECTORS + [ScoringVector((2, -1), tail="open")])[vi]
    # a path over k agents reaches past every closed cutoff here; with few
    # chords the agents off the path are often isolated, so the grand
    # coalition is often disconnected
    k = rng.randint(1, n)
    path = rng.sample(range(n), k)
    edges = list(zip(path, path[1:]))
    edges += [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < chords / (2 * n)]
    G = SocialNetwork(n, edges)
    masks = [1 << i for i in range(n)] + [G.mask_of(path), G.full_mask]
    masks += [m & G.full_mask for m in drawn if m & G.full_mask]
    ev = CoalitionEvaluator(s, G)
    fresh = CoalitionEvaluator(s, G)  # utilities asked for before any stats
    for mask in masks:
        expected = reference_stats(s, G, mask)
        assert {i: fresh.utility(i, mask) for i in iter_bits(mask)} == expected[2]
        assert ev.stats(mask) == expected
        assert ev.diameter(mask) == coalition_diameter(G, iter_bits(mask))


@settings(max_examples=150, deadline=None)
@given(**GAMES)
def test_mask_search_matches_reference(n, rng, density, vi):
    s = VECTORS[vi]
    G, outcome = random_game(n, rng, density)
    ev = CoalitionEvaluator(s, G)
    masks = [G.mask_of(b) for b in outcome]
    for mode in ("ir", "ns"):
        expected = reference_find_deviation(s, G, outcome, mode)
        assert first_deviation(ev, masks, mode) == expected
        assert find_deviation(s, G, outcome, mode) == expected


def record_evaluators(monkeypatch):
    """List that collects every ``CoalitionEvaluator`` made from now on; the
    BFS runs made are the sum of their ``bfs_runs``."""
    made = []
    init = CoalitionEvaluator.__init__

    def recorded(self, *args):
        init(self, *args)
        made.append(self)

    monkeypatch.setattr(CoalitionEvaluator, "__init__", recorded)
    return made


def bfs_runs(made):
    return sum(ev.bfs_runs for ev in made)


def test_report_evaluates_each_utility_once(fig_c, long_vec, monkeypatch):
    result = brute_force_solve(long_vec, fig_c, "ir")
    outcome = result.outcome
    members = sum(len(b) for b in outcome)
    joins = sum(
        1
        for i in range(fig_c.n)
        for b in outcome
        if i not in b and fig_c.adj_mask[i] & fig_c.mask_of(b)
    )
    made = record_evaluators(monkeypatch)
    report = result_report(long_vec, fig_c, result)
    assert report["individually_rational"] and not report["nash_stable"]
    # one BFS per member of each coalition of two or more, and at most one
    # per join the NS search tests
    grouped = sum(len(b) for b in outcome if len(b) > 1)
    assert grouped > 0
    assert grouped <= bfs_runs(made) <= members + joins


def test_certificate_takes_diameters_from_the_evaluators_bfs(fig_c, long_vec, monkeypatch):
    # fig_c's IR optimum: one BFS per member of {0..8} gives utilities and
    # the diameter; the NS search adds one for agent 2 joining {9}
    outcome = Outcome.from_blocks([range(9), [9]])
    made = record_evaluators(monkeypatch)
    for mode in ("welfare", "ir", "ns"):
        made.clear()
        report = certify_outcome(long_vec, fig_c, outcome, mode)
        assert report.coalition_diameters == (3, 0)
        assert bfs_runs(made) == 10, mode
