"""Refinement order behind fptdp's state keys: exact encodings, stable ties."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from sdgsolve.canon import canonical_order


def _encoding(order, colors, fixed, adjacency):
    """The rows fptdp keys a state by, relative to ``order``."""
    index = {v: i for i, v in enumerate(order)}
    return tuple(
        (colors[v], tuple(sorted(fixed[v])), tuple(sorted(index[u] for u in adjacency[v])))
        for v in order
    )


@st.composite
def _graphs(draw, distinct_start=False):
    """(vertices, colors, fixed neighbors, adjacency) on up to 7 tokens.

    With ``distinct_start`` every vertex gets its own colour, so the
    starting colours ``(colour, fixed neighbours)`` are pairwise distinct."""
    n = draw(st.integers(0, 7))
    vertices = [("t", i) for i in range(n)]
    if distinct_start:
        palette = draw(st.lists(st.integers(0, 9), min_size=n, max_size=n, unique=True))
    else:
        palette = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    colors = dict(zip(vertices, palette))
    fixed = {v: frozenset(draw(st.sets(st.integers(0, 3), max_size=2))) for v in vertices}
    pairs = list(itertools.combinations(vertices, 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    adjacency = {v: set() for v in vertices}
    for u, v in edges:
        adjacency[u].add(v)
        adjacency[v].add(u)
    return vertices, colors, fixed, adjacency


def _relabel(graph, perm, order):
    """``graph`` with every vertex ``v`` renamed ``perm[v]``, listed in ``order``."""
    vertices, colors, fixed, adjacency = graph
    return (
        [perm[v] for v in order],
        {perm[v]: colors[v] for v in vertices},
        {perm[v]: fixed[v] for v in vertices},
        {perm[v]: {perm[u] for u in adjacency[v]} for v in vertices},
    )


@st.composite
def _relabelled_pairs(draw, distinct_start=False):
    graph = draw(_graphs(distinct_start))
    vertices = graph[0]
    names = [("s", i) for i in draw(st.permutations(range(len(vertices))))]
    perm = dict(zip(vertices, names))
    order = draw(st.permutations(vertices))
    return graph, _relabel(graph, perm, order)


def test_unrefinable_vertices_keep_input_order():
    # ten interchangeable vertices (10! orders of equal encoding):
    # refinement cannot split them, so they keep their input order
    vertices = [("t", i) for i in (3, 1, 4, 0, 5, 9, 2, 6, 8, 7)]
    order = canonical_order(
        vertices,
        {v: 0 for v in vertices},
        {v: frozenset() for v in vertices},
        {v: set() for v in vertices},
    )
    assert order == tuple(vertices)


@settings(max_examples=80, deadline=None)
@given(_graphs())
def test_order_is_a_permutation_sorted_by_starting_colour(graph):
    vertices, colors, fixed, adjacency = graph
    order = canonical_order(vertices, colors, fixed, adjacency)
    assert len(order) == len(vertices) and set(order) == set(vertices)
    start = [(colors[v], sorted(fixed[v])) for v in order]
    assert start == sorted(start)


@settings(max_examples=80, deadline=None)
@given(_relabelled_pairs(), st.data())
def test_equal_encodings_mean_isomorphic_inputs(pair, data):
    first, second = pair
    vertices, colors, fixed, adjacency = second
    if vertices and data.draw(st.booleans()):
        # perturb the copy so that unequal structures are compared too
        v, w = data.draw(st.sampled_from(vertices)), data.draw(st.sampled_from(vertices))
        if v == w:
            colors[v] += 1
        else:
            adjacency[v] ^= {w}
            adjacency[w] ^= {v}
    order1, order2 = canonical_order(*first), canonical_order(*second)
    if _encoding(order1, *first[1:]) != _encoding(order2, colors, fixed, adjacency):
        return
    _, colors1, fixed1, adjacency1 = first
    to_second = dict(zip(order1, order2))
    for v, w in to_second.items():
        assert colors1[v] == colors[w]
        assert fixed1[v] == fixed[w]
        assert {to_second[u] for u in adjacency1[v]} == adjacency[w]


@settings(max_examples=80, deadline=None)
@given(_relabelled_pairs(distinct_start=True))
def test_distinct_starting_colours_give_one_encoding(pair):
    first, second = pair
    assert _encoding(canonical_order(*first), *first[1:]) == _encoding(
        canonical_order(*second), *second[1:]
    )


def test_refinement_separates_path_ends():
    # a-b-c all colour 0, only a has a fixed neighbour: b and c start equal
    # and only refinement (b touches a, c does not) tells them apart
    a, b, c = ("t", 0), ("t", 1), ("t", 2)
    colors = {a: 0, b: 0, c: 0}
    fixed = {a: frozenset({7}), b: frozenset(), c: frozenset()}
    adjacency = {a: {b}, b: {a, c}, c: {b}}
    encodings = {
        _encoding(canonical_order(list(vs), colors, fixed, adjacency), colors, fixed, adjacency)
        for vs in itertools.permutations((a, b, c))
    }
    assert encodings == {((0, (), (1,)), (0, (), (0, 2)), (0, (7,), (1,)))}
