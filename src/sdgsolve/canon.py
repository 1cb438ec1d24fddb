"""Refinement order of small vertex-colored graphs with a fixed vertex set.

Used by the coalition-topology solver to deduplicate DP states: anonymous
vertices may be permuted freely within equal colors, named vertices are fixed.
The solver encodes each state exactly relative to the colour-refinement order,
so equal encodings mean isomorphic states; isomorphic states that refinement
cannot tell apart may keep different encodings and are then stored twice.
"""


def canonical_order(
    vertices: list,
    colors: dict,
    fixed_neighbors: dict,
    adjacency: dict,
) -> tuple:
    """``vertices`` sorted by their stable colour under refinement.

    ``colors[v]`` is any hashable, comparable within one call;
    ``fixed_neighbors[v]`` a frozenset of fixed (named) ids; ``adjacency[v]``
    the set of neighbors among ``vertices``.  Vertices that refinement leaves
    in one colour keep their input order.  Whenever refinement makes every
    colour distinct, two inputs that differ by a color/edge-preserving
    permutation map to the same ordering of structure.
    """
    color = {v: (colors[v], tuple(sorted(fixed_neighbors[v]))) for v in vertices}
    classes = len(set(color.values()))
    # a discrete colouring already fixes the order; refining it changes nothing
    while classes < len(vertices):
        ranked = {c: i for i, c in enumerate(sorted(set(color.values())))}
        color = {
            v: (ranked[color[v]], tuple(sorted(ranked[color[u]] for u in adjacency[v])))
            for v in vertices
        }
        refined = len(set(color.values()))
        if refined == classes:
            break
        classes = refined
    return tuple(sorted(vertices, key=color.__getitem__))
