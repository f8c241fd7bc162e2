"""Labeled multigraphs with vertex ordering, symmetry factors and canonical forms.

Vertices are numbered 1..v.  Internal edges form a multiset of unordered index
pairs (a self-loop is the pair (i, i)); external edges attach a distinct label
to a vertex.  All values are immutable and hashable.

The canonical form of a graph is its renumbering with the smallest
(edges, externals) key.  For a fixed edge count the sorted edge tuple is
smaller exactly when the row-major vertex-pair multiplicity vector is larger,
so one pruned search hands out the numbers 1..v row by row (a lexicographic-
leader form of partition refinement, after McKay and Piperno, "Practical graph
isomorphism II", 2014); it also counts the vertex automorphisms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Mapping, Sequence


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


def permute_vertices(g: OrderedGraph, perm: Sequence[int]) -> OrderedGraph:
    """Renumber vertices: perm[i-1] is the new number of old vertex i."""
    if sorted(perm) != list(range(1, g.vertex_count + 1)):
        raise ValueError("perm must be a permutation of 1..v")
    return OrderedGraph(g.vertex_count, *_renumbered(g, perm))


def _row(u: int, to_u: list[int], cells: list[list[int]]) -> list[int]:
    """Row of the multiplicity vector that vertex u gets when it takes the next
    number: its self-loop count, then its multiplicities to the vertices of
    each cell, sorted descending within the cell."""
    row = [to_u[u]]
    for cell in cells:
        if len(cell) == 1:
            if cell[0] != u:
                row.append(to_u[cell[0]])
        else:
            row += sorted([to_u[x] for x in cell if x != u], reverse=True)
    return row


def _refined(u: int, to_u: list[int], cells: list[list[int]]) -> list[list[int]]:
    """The cells without u, each split by multiplicity to u, larger first."""
    out = []
    for cell in cells:
        if len(cell) == 1:
            if cell[0] != u:
                out.append(cell)
            continue
        cell = sorted([x for x in cell if x != u], key=to_u.__getitem__, reverse=True)
        start = 0
        for end in range(1, len(cell)):
            if to_u[cell[end]] != to_u[cell[end - 1]]:
                out.append(cell[start:end])
                start = end
        if cell:
            out.append(cell[start:])
    return out


def _lex_min_numbering(g: OrderedGraph) -> tuple[list[int], int]:
    """(perm, count): a renumbering perm of g (perm[i-1] is the new number of
    old vertex i) whose (edges, externals) key is minimal, and the number of
    renumberings reaching that key.

    With the edge count fixed, a sorted edge tuple is smaller exactly when the
    row-major multiplicity vector M[p_i][p_j] (i <= j) is larger, so the
    search first finds the numberings with the largest vector, then the
    smallest externals tuple among them.  It hands out the numbers 1..v in
    order and keeps the unnumbered vertices as an ordered partition into
    cells.  Number i goes to a vertex of the first cell, and only the
    candidates with the largest row (see _row) branch.  Every cell is then
    refined by multiplicity to the chosen vertex, larger first, so row i is a
    true prefix of the vector once rows 1..i-1 are fixed: a branch whose rows
    fall below the best found so far is cut, one that rises above it replaces
    it.  Candidates tied at row i may still differ in later rows, so all of
    them are searched.  The leaves are the numberings with the largest
    vector; they compare their externals tuples only, and count is the number
    of leaves reaching the minimum.
    """
    v = g.vertex_count
    mult = [[0] * (v + 1) for _ in range(v + 1)]
    for a, b in g.edges:
        mult[a][b] += 1
        if a != b:
            mult[b][a] += 1
    ext_vertices = [vtx for _, vtx in g.externals]
    order: list[int] = []                   # old vertices in the order of their new numbers
    best_rows: list[list[int]] = []         # rows of the largest vector found so far
    best_ext: tuple[int, ...] | None = None  # smallest externals tuple among its leaves,
    best_order: list[int] = []              # reached by this order
    count = 0                               # and by this many leaves

    def search(cells: list[list[int]]) -> None:
        nonlocal best_ext, best_order, count
        depth = len(order)
        while cells:  # a lone candidate is numbered in place; only ties recurse
            top: list[int] = []
            chosen: list[int] = []
            for u in cells[0]:
                row = _row(u, mult[u], cells)
                if not chosen or row > top:
                    top, chosen = row, [u]
                elif row == top:
                    chosen.append(u)
            i = len(order)
            if i < len(best_rows):
                if top < best_rows[i]:
                    break
                if top > best_rows[i]:
                    del best_rows[i:]
                    best_ext = None
            if i == len(best_rows):
                best_rows.append(top)
            if len(chosen) > 1:
                for u in chosen:
                    order.append(u)
                    search(_refined(u, mult[u], cells))
                    order.pop()
                break
            order.append(chosen[0])
            cells = _refined(chosen[0], mult[chosen[0]], cells)
        else:
            ext = tuple([order.index(x) + 1 for x in ext_vertices])
            if best_ext is None or ext < best_ext:
                best_ext, best_order, count = ext, order[:], 1
            elif ext == best_ext:
                count += 1
        del order[depth:]

    search([list(range(1, v + 1))])
    perm = [0] * v
    for new, old in enumerate(best_order, 1):
        perm[old - 1] = new
    return perm, count


def canonicalize(g: OrderedGraph) -> CanonicalGraph:
    """Lexicographically minimal renumbering of the graph, keyed by (edges, externals).

    Found by the pruned row-by-row search of _lex_min_numbering, which
    vertex_symmetry_factor shares; oracle.brute_force_canonicalize is the
    exhaustive minimum over all v! renumberings.
    """
    return OrderedGraph(g.vertex_count, *_renumbered(g, _lex_min_numbering(g)[0]))


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

    The renumberings of g that reach its canonical form are one coset of the
    ones fixing g, so this is the leaf count of the search behind
    canonicalize.
    """
    return _lex_min_numbering(g)[1]


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
