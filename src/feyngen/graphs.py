"""Labeled multigraphs with vertex ordering, symmetry factors and canonical forms.

Vertices are numbered 1..v.  Internal edges form a multiset of unordered index
pairs (a self-loop is the pair (i, i)); external edges attach a distinct label
to a vertex.  All values are immutable and hashable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Iterator, Mapping, Sequence


@dataclass(frozen=True)
class OrderedGraph:
    vertex_count: int
    edges: tuple[tuple[int, int], ...] = ()
    externals: tuple[tuple[str, int], ...] = ()

    def __post_init__(self) -> None:
        if self.vertex_count < 1:
            raise ValueError("graph needs at least one vertex")
        edges = tuple(sorted((min(a, b), max(a, b)) for a, b in self.edges))
        ext = self.externals
        if isinstance(ext, Mapping):
            ext = tuple(ext.items())
        ext = tuple(sorted(ext))
        for a, b in edges:
            if not (1 <= a <= self.vertex_count and 1 <= b <= self.vertex_count):
                raise ValueError(f"edge ({a},{b}) outside vertex range 1..{self.vertex_count}")
        labels = [lab for lab, _ in ext]
        if len(set(labels)) != len(labels):
            raise ValueError("external labels must be pairwise distinct")
        for lab, vtx in ext:
            if not 1 <= vtx <= self.vertex_count:
                raise ValueError(f"external label {lab!r} attached to invalid vertex {vtx}")
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "externals", ext)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def externals_map(self) -> dict[str, int]:
        return dict(self.externals)

    @property
    def external_labels(self) -> frozenset[str]:
        return frozenset(lab for lab, _ in self.externals)

    def valence(self, i: int) -> int:
        """Number of edge ends plus external labels attached to vertex i."""
        ends = sum((a == i) + (b == i) for a, b in self.edges)
        return ends + sum(1 for _, vtx in self.externals if vtx == i)

    def self_loop_count(self, i: int) -> int:
        return sum(1 for a, b in self.edges if a == b == i)


#: A canonical form is just an ordered graph that is minimal in its
#: renumbering class; two graphs are renumberings of each other iff their
#: canonical forms are equal.
CanonicalGraph = OrderedGraph


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


def _renumbered(g: OrderedGraph, perm: Sequence[int]) -> tuple[tuple, tuple]:
    """Normal-form (edges, externals) of g with old vertex i renumbered perm[i-1].

    Builds no OrderedGraph.  The externals keep their order: they are sorted by
    label and the labels are distinct.
    """
    new = (0, *perm)
    edges = sorted((new[a], new[b]) if new[a] <= new[b] else (new[b], new[a]) for a, b in g.edges)
    return tuple(edges), tuple((lab, new[vtx]) for lab, vtx in g.externals)


def _all_renumberings(g: OrderedGraph) -> Iterator[tuple[tuple, tuple]]:
    for perm in itertools.permutations(range(1, g.vertex_count + 1)):
        yield _renumbered(g, perm)


def permute_vertices(g: OrderedGraph, perm: Sequence[int]) -> OrderedGraph:
    """Renumber vertices: perm[i-1] is the new number of old vertex i."""
    if sorted(perm) != list(range(1, g.vertex_count + 1)):
        raise ValueError("perm must be a permutation of 1..v")
    return OrderedGraph(g.vertex_count, *_renumbered(g, perm))


def canonicalize(g: OrderedGraph) -> CanonicalGraph:
    """Lexicographically minimal renumbering of the graph, keyed by (edges, externals).

    Exhaustive over all v! permutations; fine at desk scale (v up to ~8).
    Shares its renumbering search with vertex_symmetry_factor.
    """
    return OrderedGraph(g.vertex_count, *min(_all_renumberings(g)))


def edge_symmetry_factor(g: OrderedGraph) -> int:
    """Order of the group of edge-end renumberings fixing the graph, vertices held fixed.

    Closed form: product of 2**p * p! over the self-loop counts p of each
    vertex, times q! over the multiplicities q of each connected vertex pair.
    """
    factor = 1
    pair_multiplicity: dict[tuple[int, int], int] = {}
    for i in range(1, g.vertex_count + 1):
        p = g.self_loop_count(i)
        factor *= 2**p * factorial(p)
    for a, b in g.edges:
        if a != b:
            pair_multiplicity[(a, b)] = pair_multiplicity.get((a, b), 0) + 1
    for q in pair_multiplicity.values():
        factor *= factorial(q)
    return factor


def vertex_symmetry_factor(g: OrderedGraph) -> int:
    """Number of vertex renumberings yielding combinatorially the same graph.

    Shares its renumbering search with canonicalize.
    """
    own = (g.edges, g.externals)
    return sum(key == own for key in _all_renumberings(g))


def symmetry_factor(g: OrderedGraph) -> int:
    """Order of the group of joint vertex/edge-end renumberings fixing the graph.

    Computed as the product of the vertex and edge symmetry factors; the
    brute-force joint count lives in the oracle module as an independent check.
    """
    return vertex_symmetry_factor(g) * edge_symmetry_factor(g)


# ---------------------------------------------------------------------------
# serialization


def format_weight(w: Fraction) -> str:
    return f"{w.numerator}/{w.denominator}"


def parse_weight(text: str) -> Fraction:
    return Fraction(text)


def graph_to_dict(g: OrderedGraph, weight: Fraction | None = None) -> dict:
    doc: dict = {
        "v": g.vertex_count,
        "edges": [[a, b] for a, b in g.edges],
        "externals": {lab: vtx for lab, vtx in g.externals},
    }
    if weight is not None:
        doc["weight"] = format_weight(weight)
    return doc


def graph_from_dict(doc: Mapping) -> tuple[OrderedGraph, Fraction | None]:
    """Inverse of graph_to_dict; a document that is not a graph record raises ValueError."""
    if not isinstance(doc, Mapping) or "v" not in doc:
        raise ValueError(f"graph record must be an object with a \"v\" entry, got {doc!r}")
    externals = doc.get("externals", {})
    if not isinstance(externals, Mapping):
        raise ValueError(f"graph \"externals\" must map labels to vertices, got {externals!r}")
    weight = doc.get("weight")
    try:
        g = OrderedGraph(
            int(doc["v"]),
            tuple((int(a), int(b)) for a, b in doc.get("edges", ())),
            tuple((str(lab), int(vtx)) for lab, vtx in externals.items()),
        )
        return g, (parse_weight(weight) if weight is not None else None)
    except TypeError as exc:
        raise ValueError(f"malformed graph record {doc!r}: {exc}") from exc


def to_dot(g: OrderedGraph, weight: Fraction | None = None, name: str = "g") -> str:
    """Render as Graphviz DOT: circle vertices, diamond external-label nodes."""
    lines = [f"graph {name} {{"]
    if weight is not None:
        lines.append(f"  // weight {format_weight(weight)}")
    lines.append("  node [shape=circle];")
    for i in range(1, g.vertex_count + 1):
        lines.append(f"  v{i};")
    for a, b in g.edges:
        lines.append(f"  v{a} -- v{b};")
    for lab, vtx in g.externals:
        lines.append(f'  "{lab}" [shape=diamond];')
        lines.append(f'  "{lab}" -- v{vtx};')
    lines.append("}")
    return "\n".join(lines)
