"""Labeled multigraphs with vertex ordering and their canonical forms.

Vertices are numbered 1..v.  Internal edges form a multiset of unordered index
pairs (a self-loop is the pair (i, i)); external edges attach a distinct label
to a vertex.  All values are immutable and hashable.

The canonical form of a graph is its renumbering with the smallest
(edges, externals) key.  For a fixed edge count the sorted edge tuple is
smaller exactly when the row-major vertex-pair multiplicity vector is larger,
so the search runs in two stages.  Stage 1 (_max_vector_numberings) sees the
edges only: a pruned search hands out the numbers 1..v row by row (a
lexicographic-leader form of partition refinement, after McKay and Piperno,
"Practical graph isomorphism II", 2014) and returns every numbering with the
largest vector, all of which give the canonical edge tuple.  Once at most
_TABLE_VERTICES vertices are left to number, the search stops branching: a
table keyed by the sizes of the remaining cells holds one itemgetter per
order of those vertices that keeps the cells, each mapping the remaining
multiplicities to the renumbered ones, so the largest and its ties are found
in C (_finish_table).  A graph with that few vertices is finished at once,
from its edge list.  The tables are built on first use and are few: one per
sequence of cell sizes summing to 2, 3 or 4, not all 1.  Stage 2
(_least_externals) picks among them the smallest externals tuple and counts
the numberings reaching it, which is the number of vertex automorphisms.
Graphs with equal edges share stage 1, so a batch of them (a recursion cell)
runs it once per distinct edge tuple, and a canonical form's own stage 1
follows from the search that found it (_form_numberings).

OrderedGraph(...) sorts and checks its parts, for every graph read from
outside the engine; the engine builds graphs whose parts are in normal form by
construction through _normal_graph, which does neither.  The JSON records and
DOT drawings of graphs are in records, which only the commands that write or
read them load.
"""

from __future__ import annotations

import itertools
from operator import itemgetter
from typing import Mapping, Sequence

from .algebra import Frozen


class OrderedGraph(Frozen):
    """A graph in normal form: each edge (low, high), edges and externals
    sorted; externals may be given as a Mapping.  Vertex numbers out of range
    and repeated labels are refused."""

    __slots__ = ("vertex_count", "edges", "externals")

    def __init__(
        self,
        vertex_count: int,
        edges: tuple[tuple[int, int], ...] = (),
        externals: tuple[tuple[str, int], ...] | Mapping[str, int] = (),
    ) -> None:
        v = vertex_count
        if v < 1:
            raise ValueError("graph needs at least one vertex")
        edges = sorted([(a, b) if a <= b else (b, a) for a, b in edges])
        ext = externals
        if type(ext) is not tuple and isinstance(ext, Mapping):
            ext = tuple(ext.items())
        ext = tuple(sorted(ext))
        # Each edge is (low, high) and the list is sorted, so edges[0][0] is
        # the smallest end; the loop only finds the edge to name in the error.
        if edges and (edges[0][0] < 1 or max([b for _, b in edges]) > v):
            for a, b in edges:
                if not (1 <= a <= v and 1 <= b <= v):
                    raise ValueError(f"edge ({a},{b}) outside vertex range 1..{v}")
        labels = [lab for lab, _ in ext]
        if len(set(labels)) != len(labels):
            raise ValueError("external labels must be pairwise distinct")
        for lab, vtx in ext:
            if not 1 <= vtx <= v:
                raise ValueError(f"external label {lab!r} attached to invalid vertex {vtx}")
        object.__setattr__(self, "vertex_count", v)
        object.__setattr__(self, "edges", tuple(edges))
        object.__setattr__(self, "externals", ext)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.vertex_count, self.edges, self.externals) == (
            other.vertex_count, other.edges, other.externals)

    def __hash__(self) -> int:
        return hash((self.vertex_count, self.edges, self.externals))

    def __repr__(self) -> str:
        return (f"{type(self).__qualname__}(vertex_count={self.vertex_count!r}, "
                f"edges={self.edges!r}, externals={self.externals!r})")

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def valence(self, i: int) -> int:
        """Number of edge ends plus external labels attached to vertex i."""
        ends = sum((a == i) + (b == i) for a, b in self.edges)
        return ends + sum(1 for _, vtx in self.externals if vtx == i)


# The engine builds graphs whose parts are in normal form by construction and
# sets the three slots through their descriptors: OrderedGraph(...) takes
# ~15x as long, sorting and range-checking what is known to hold.
_new_graph = object.__new__
_set_vertex_count = OrderedGraph.__dict__["vertex_count"].__set__
_set_edges = OrderedGraph.__dict__["edges"].__set__
_set_externals = OrderedGraph.__dict__["externals"].__set__


def _normal_graph(
    v: int, edges: tuple[tuple[int, int], ...], externals: tuple[tuple[str, int], ...]
) -> OrderedGraph:
    """The OrderedGraph with these parts, neither sorted nor checked.  The
    caller guarantees normal form: v >= 1, each edge (low, high) within 1..v
    and the tuple sorted, distinct labels sorted, each on a vertex in 1..v.
    Input from outside the engine goes through OrderedGraph(...)."""
    g = _new_graph(OrderedGraph)
    _set_vertex_count(g, v)
    _set_edges(g, edges)
    _set_externals(g, externals)
    return g


#: A canonical form is just an ordered graph that is minimal in its
#: renumbering class; two graphs are renumberings of each other iff their
#: canonical forms are equal.
CanonicalGraph = OrderedGraph


def _renumbered_edges(edges: tuple[tuple[int, int], ...], perm: Sequence[int]) -> tuple:
    """Normal-form edge tuple with old vertex i renumbered perm[i-1]."""
    new = (0, *perm)
    return tuple(sorted([(new[a], new[b]) if new[a] <= new[b] else (new[b], new[a])
                         for a, b in edges]))


def _row(u: int, to_u: list[int], cells: list[list[int]]) -> list[int]:
    """Row of the multiplicity vector that vertex u of the first cell gets
    when it takes the next number: its self-loop count, then its
    multiplicities to the vertices of each cell, sorted descending within the
    cell."""
    get = to_u.__getitem__
    row = [to_u[u]]
    if len(cells[0]) > 1:
        first = sorted(map(get, cells[0]), reverse=True)
        first.remove(row[0])
        row += first
    for cell in cells[1:]:
        row += sorted(map(get, cell), reverse=True) if len(cell) > 1 else (to_u[cell[0]],)
    return row


def _refined(u: int, to_u: list[int], cells: list[list[int]]) -> list[list[int]]:
    """The cells without u, each split by multiplicity to u, larger first."""
    out = []
    for cell in cells:
        if len(cell) == 1:
            if cell[0] != u:
                out.append(cell)
            continue
        parts: dict[int, list[int]] = {}  # multiplicity to u -> those vertices
        for x in cell:
            if x != u:
                m = to_u[x]
                if m in parts:
                    parts[m].append(x)
                else:
                    parts[m] = [x]
        out += parts.values() if len(parts) == 1 else [parts[m] for m in sorted(parts, reverse=True)]
    return out


#: Stage 1 numbers vertices by search while more than this many remain and
#: finishes the numbering from a table (_finish_table).  Measured on the
#: stage-1 searches of the vacuum cell (3, 6), 3 and 5 are both slower, and 6
#: (one table of all 720 orders in place of the search) about 10x slower.
_TABLE_VERTICES = 4

#: The finishing tables built so far, keyed by the sizes of the remaining
#: cells in order, each with a cell of two or more: at most 11 keys for 4.
_FINISHES: dict[tuple[int, ...], tuple] = {}


def _finish_table(sizes: tuple[int, ...]) -> tuple[dict, list, list, list]:
    """(index, getters, orders, numberings) for remaining cells of these
    sizes, n vertices in all at positions 1..n, cell after cell.  index maps
    each pair (a, b), a <= b, to its place in the row-major upper triangle of
    the remaining multiplicity matrix; orders holds every order of the
    positions that keeps the cells in place, lexicographically, and
    numberings their inverses (numberings[k][a-1] is the place of position a
    in orders[k], from 1); getters[k] maps that triangle in position order to
    the triangle in orders[k].  Built on first use."""
    table = _FINISHES.get(sizes)
    if table is None:
        n = sum(sizes)
        pairs = [(a, b) for a in range(1, n + 1) for b in range(a, n + 1)]
        index = {pair: k for k, pair in enumerate(pairs)}
        blocks = []
        start = 1
        for size in sizes:
            blocks.append(itertools.permutations(range(start, start + size)))
            start += size
        orders = [sum(parts, ()) for parts in itertools.product(*blocks)]
        numberings = [list(map((0, *o).index, range(1, n + 1))) for o in orders]
        getters = [itemgetter(*[index[(o[a - 1], o[b - 1]) if o[a - 1] <= o[b - 1]
                                      else (o[b - 1], o[a - 1])] for a, b in pairs])
                   for o in orders]
        table = _FINISHES[sizes] = (index, getters, orders, numberings)
    return table


def _largest(getters: list, base: tuple[int, ...]) -> tuple[tuple[int, ...], list[int]]:
    """(tail, ks): the largest of the triangles the getters make from base,
    and the places k, in table order, of the getters that make it."""
    vectors = [get(base) for get in getters]
    tail = max(vectors)
    return tail, [k for k, vec in enumerate(vectors) if vec == tail]


def _max_vector_numberings(
    v: int, edges: tuple[tuple[int, int], ...]
) -> tuple[tuple[tuple[int, int], ...], list[list[int]]]:
    """Stage 1 of the canonical search, on the edges alone: (canonical edges,
    perms), the renumberings perm (perm[i-1] is the new number of old vertex
    i) whose row-major multiplicity vector M[p_i][p_j] (i <= j) is largest,
    and the edge tuple they all give.

    With the edge count fixed, a sorted edge tuple is smaller exactly when
    that vector is larger.  The search hands out the numbers 1..v in order.
    Each branch keeps its unnumbered vertices as an ordered partition into
    cells; number i goes to a vertex of the first cell, and every cell is
    then refined by multiplicity to the chosen vertex, larger first, so row i
    is a true prefix of the vector once rows 1..i-1 are fixed.  The branches
    advance together, one row at a time, and only the candidates whose row
    is the largest of all of them at that row go on: candidates tied at row
    i may still differ in later rows, so all of them do.

    Once at most _TABLE_VERTICES vertices remain, their rows are the row-major
    upper triangle of their own multiplicity matrix, and every order that
    keeps the cells gives the rows above the same entries.  So the search
    stops branching there: the table of the cells' sizes (_finish_table)
    renumbers that triangle by each such order, the largest triangle over
    all branches wins, and the orders reaching it are the leaves.  The
    branches stay in the lexicographic order of the old vertices they have
    numbered, and each table lists its orders the same way, so perms come in
    the lexicographic order of the old vertices they number 1, 2, ..., v.
    """
    if v == 1:
        return edges, [[1]]
    if v <= _TABLE_VERTICES:
        index, getters, _, numberings = _finish_table((v,))
        base = [0] * len(index)
        for e in edges:
            base[index[e]] += 1
        ks = _largest(getters, tuple(base))[1]
        perms = [list(numberings[k]) for k in ks]
    else:
        perms = [list(map((0, *leaf).index, range(1, v + 1)))
                 for leaf in _searched_leaves(v, edges)]
    return _renumbered_edges(edges, perms[0]), perms


def _searched_leaves(v: int, edges: tuple[tuple[int, int], ...]) -> list[tuple[int, ...]]:
    """The leaves of the search of _max_vector_numberings on more than
    _TABLE_VERTICES vertices, each the old vertices in the order of their new
    numbers."""
    mult = [[0] * (v + 1) for _ in range(v + 1)]
    for a, b in edges:
        mult[a][b] += 1
        if a != b:
            mult[b][a] += 1
    # Number 1 may go to any vertex, and the rows it can get are compared
    # only with each other: a self-loop count then all of the vertex's
    # multiplicities sorted compare as the rows do.
    everyone = list(range(1, v + 1))
    profiles = [[to_u[u], *sorted(to_u, reverse=True)] for u, to_u in enumerate(mult) if u]
    best = max(profiles)
    # (old vertices numbered, cells left) of each branch, in order
    frontier = [((u,), _refined(u, mult[u], [everyone]))
                for u, profile in zip(everyone, profiles) if profile == best]
    for _ in range(v - _TABLE_VERTICES - 1):
        if len(frontier) == 1 and len(frontier[0][1][0]) == 1:
            # One branch with one candidate: its row has nothing to be compared with.
            (order, cells), = frontier
            u = cells[0][0]
            frontier = [(order + (u,), _refined(u, mult[u], cells))]
            continue
        rows = [[_row(u, mult[u], cells) for u in cells[0]] for _, cells in frontier]
        best = max(map(max, rows))
        frontier = [(order + (u,), _refined(u, mult[u], cells))
                    for (order, cells), branch_rows in zip(frontier, rows)
                    for u, row in zip(cells[0], branch_rows) if row == best]
    finished = []  # (largest tail, order, the orders of the rest reaching it) per branch
    for order, cells in frontier:
        rest = [x for cell in cells for x in cell]
        tail = tuple([mult[x][y] for k, x in enumerate(rest) for y in rest[k:]])
        if len(cells) == len(rest):
            finished.append((tail, order, [tuple(rest)]))
        else:
            _, getters, orders, _ = _finish_table(tuple(map(len, cells)))
            tail, ks = _largest(getters, tail)
            finished.append((tail, order, [tuple([rest[p - 1] for p in orders[k]]) for k in ks]))
    best = max([tail for tail, _, _ in finished])
    return [order + r for tail, order, rests in finished if tail == best for r in rests]


def _least_externals(
    perms: list[list[int]], externals: tuple[tuple[str, int], ...]
) -> tuple[list[int], int, tuple[int, ...]]:
    """Stage 2 of the canonical search: (perm, count, least), the first of the
    stage-1 perms giving the smallest externals tuple, how many of them give
    it, and that tuple, the new vertex of each external in label order."""
    if not externals:
        return perms[0], len(perms), ()
    best: tuple[int, ...] | None = None
    for perm in perms:
        ext = tuple([perm[vtx - 1] for _, vtx in externals])
        if best is None or ext < best:
            best, best_perm, count = ext, perm, 1
        elif ext == best:
            count += 1
    return best_perm, count, best


def _form_numberings(g: OrderedGraph, perms: list[list[int]]) -> list[list[int]]:
    """The perms of stage 1 on the edges of canonicalize(g), from perms, those
    of stage 1 on g's edges: p∘p0⁻¹ for each p in perms, p0 being the perm
    that gives the form.  Renumbering the form by p∘p0⁻¹ is renumbering g by
    p, so these are all the numberings taking the form's edges to the
    canonical edges, with no search."""
    p0 = _least_externals(perms, g.externals)[0]
    back = [0] * len(p0)  # back[k-1]: the old vertex, less one, that p0 numbers k
    for old, new in enumerate(p0):
        back[new - 1] = old
    return [[p[old] for old in back] for p in perms]


def _canonical_form(
    g: OrderedGraph, edges: tuple[tuple[int, int], ...], perms: list[list[int]]
) -> CanonicalGraph:
    """canonicalize(g), given (edges, perms), stage 1 of the search on g's edges."""
    least = _least_externals(perms, g.externals)[2]
    # The externals stay in label order, and _renumbered_edges gives normal edges.
    return _normal_graph(
        g.vertex_count, edges, tuple([(lab, k) for (lab, _), k in zip(g.externals, least)])
    )


def canonicalize(g: OrderedGraph) -> CanonicalGraph:
    """Lexicographically minimal renumbering of the graph, keyed by (edges, externals).

    Found by the two-stage search of _max_vector_numberings and
    _least_externals, which invariants.vertex_symmetry_factor shares;
    oracle.brute_force_canonicalize is the exhaustive minimum over all v!
    renumberings.
    """
    return _canonical_form(g, *_max_vector_numberings(g.vertex_count, g.edges))
