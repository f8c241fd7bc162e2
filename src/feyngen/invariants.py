"""Graph invariants that the generator never computes: connectivity, the
loop number, vertex renumbering and the symmetry factors in closed form.

The oracle, the tests and the demos use them to check the generated graphs
and their weights 1/S.  The vertex symmetry factor is the automorphism count
of the canonical search in graphs; the brute-force joint count lives in
oracle as an independent check.
"""

from __future__ import annotations

from collections import Counter
from math import factorial
from typing import Sequence

from .graphs import OrderedGraph, _least_externals, _max_vector_numberings, _renumbered_edges


def is_connected(g: OrderedGraph) -> bool:
    """True iff the vertices form a single component under internal edges."""
    v = g.vertex_count
    parent = list(range(v + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in g.edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    return len({find(i) for i in range(1, v + 1)}) == 1


def loop_number(g: OrderedGraph) -> int:
    """Number of independent cycles, e - v + 1, of a connected graph."""
    if not is_connected(g):
        raise ValueError("loop number is defined for connected graphs only")
    return g.edge_count - g.vertex_count + 1


def permute_vertices(g: OrderedGraph, perm: Sequence[int]) -> OrderedGraph:
    """Renumber vertices: perm[i-1] is the new number of old vertex i."""
    if sorted(perm) != list(range(1, g.vertex_count + 1)):
        raise ValueError("perm must be a permutation of 1..v")
    return OrderedGraph(
        g.vertex_count,
        _renumbered_edges(g.edges, perm),
        tuple((lab, perm[vtx - 1]) for lab, vtx in g.externals),
    )


def _lex_min_numbering(g: OrderedGraph) -> tuple[list[int], int]:
    """(perm, count): a renumbering perm of g whose (edges, externals) key is
    minimal, and the number of renumberings reaching that key."""
    return _least_externals(_max_vector_numberings(g.vertex_count, g.edges)[1], g.externals)[:2]


def edge_symmetry_factor(g: OrderedGraph) -> int:
    """Order of the group of edge-end renumberings fixing the graph, vertices held fixed.

    Closed form: q! over the multiplicity q of each distinct edge, times 2**q
    when it is a self-loop.
    """
    factor = 1
    for (a, b), q in Counter(g.edges).items():
        factor *= factorial(q) << (q if a == b else 0)
    return factor


def vertex_symmetry_factor(g: OrderedGraph) -> int:
    """Number of vertex renumberings yielding combinatorially the same graph.

    The renumberings of g that reach its canonical form are one coset of the
    ones fixing g, so this is the count that stage 2 of the search behind
    canonicalize returns.
    """
    return _lex_min_numbering(g)[1]


def symmetry_factor(g: OrderedGraph) -> int:
    """Order of the group of joint vertex/edge-end renumberings fixing the graph.

    Computed as the product of the vertex and edge symmetry factors; the
    brute-force joint count lives in the oracle module as an independent check.
    """
    return vertex_symmetry_factor(g) * edge_symmetry_factor(g)
