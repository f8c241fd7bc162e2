"""The graph generator: self-loop and vertex-split operators and the loop/vertex recursion.

The ordered cells (_cell) hold vertex-ordered graphs; identical ordered
terms merge their rational coefficients, and canonical merging (summing
weights over renumbering classes) yields weight 1/S per unordered connected
graph, S being its symmetry factor.  omega_classes merges at every cell
instead: summing the operators over all vertices commutes with renumbering,
so each vacuum cell is built from the canonically merged cells below it,
canonicalizing each distinct ordered graph of a cell once and running the
edge stage of that search once per distinct edge tuple.  The generate and
evaluate commands and verify's graph-oracle suite use the class cells; the
ordered cells with their labels placed, hopf.omega, are the Hopf side's,
which verify's alt-recursion suite compares with hopf.omega_alt.

External labels never enter the recursion: every cell it builds and
memoizes is a vacuum cell, and a labelled cell, ordered or merged, is a
vacuum cell with the labels placed on it.  Labels enter through the
coproduct, omega(l, v, m) = distribute(omega(l, v), iterated_coproduct(m,
v-1)), and with distinct labels the iterated coproduct puts each label on
each vertex with coefficient 1, so hopf.omega places the labels on each
ordered vacuum graph in all v^n ways, its coefficient unchanged.  The
placements are permuted among themselves by renumbering, and canonical
merging commutes with renumbering, so the class cell is the sum over the
vacuum classes (g, w) of w * canonicalize(g with the labels placed), over
every placement.  The edge stage of the search on each class is the one the
vacuum cell's merge ran, kept while the cell is memoized, and only the
externals stage runs per placement (see _placed).  No labelled cell is
memoized.

Pruning has one rule, a budget on the valence deficit: the sum over a
graph's vertices of max(0, m - valence), external labels counting as ends.
For m >= 2 a vertex split never lowers it and a self-loop lowers it by at
most 2, so a cell pruned at (m, b), the unpruned cell without its graphs of
deficit above b, is built from cells pruned at b and b + 2 (see _cell).
Placing n labels lowers a deficit by at most n, so a labelled cell at budget
b is the vacuum cell at budget b + n with the placements that leave a
deficit of at most b (hopf.omega), and generate --min-valence m
(min_valence_classes) places the labels where they cover every deficit, on
vacuum cells at budget n + 2(L - l), L being the run's top loop number.

The vertex split Q_i is the coproduct on the ends at vertex i: equal ends
(parallel edges to one neighbour, the ends of self-loops) are distributed as
groups, each distribution carrying its integer multiplicity, as repeated
factors of a monomial merge into binomial coefficients (see _split_vertex).

Each step of the recursion, from cells with e-1 edges to a cell with e,
multiplies by the same weight 1/(2e), so every coefficient of a cell with e
edges is an integer over 2^e * e!.  Cells are built in those integer
numerators, a term's numerator being its parent's times the split
multiplicity, and become Fractions only when memoized (see _cell): integer
arithmetic needs no gcd per term, where Fraction arithmetic takes one per
operation.  The memo and every returned sum hold Fractions.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence

from .algebra import ONE, ExactSum, Monomial, _accumulated
from .graphs import (
    OrderedGraph, _canonical_form, _form_numberings, _max_vector_numberings, _normal_graph,
)


class GraphSum(ExactSum):
    """Exact sum of ordered graphs; all graphs in one sum share the vertex
    count and the external label set.  Coefficients are Fractions; a cell
    under construction keeps its integer numerators in a plain dict (see
    _cell)."""

    __slots__ = ()

    @property
    def vertex_count(self) -> int:
        return self._grade

    def _checked(
        self, vertex_count: int, items: Iterable[tuple[OrderedGraph, Fraction]]
    ) -> Iterator[tuple[OrderedGraph, Fraction]]:
        if vertex_count < 1:
            raise ValueError("vertex count must be positive")
        # Externals are sorted by label and labels are distinct, so equal
        # label tuples mean equal label sets.
        labels: tuple[str, ...] | None = None
        for g, coeff in items:
            if g.vertex_count != vertex_count:
                raise ValueError("all graphs in a sum must share the vertex count")
            here = tuple([lab for lab, _ in g.externals])
            if labels is None:
                labels = here
            elif here != labels:
                raise ValueError("all graphs in a sum must share the external label set")
            yield g, coeff

    def canonical_merge(self) -> "GraphSum":
        """Sum weights over vertex-renumbering classes, keyed by canonical form."""
        return GraphSum(self.vertex_count, _canonical_terms(self._terms.items()))

    def restricted(self, keep: Callable[[OrderedGraph], bool]) -> "GraphSum":
        return GraphSum(self.vertex_count, ((g, c) for g, c in self._terms.items() if keep(g)))

    def __repr__(self) -> str:
        return f"GraphSum(v={self.vertex_count}, terms={len(self._terms)})"


#: The cell memo: (merged, l, v, m, b) -> vacuum cell, (m, b) being the
#: budget the cell is pruned at and (0, 0) for an unpruned cell.  It holds
#: the ordered vacuum cells hopf.omega places labels on and the merged ones
#: omega_classes and min_valence_classes place them on; no labelled cell.
_CELLS: dict[tuple, GraphSum] = {}

#: Stage 1 of the canonical search on each class of the merged vacuum cells
#: in _CELLS, kept from the merge that found the class (see _canonical_terms)
#: for _placed: class -> the perms of _max_vector_numberings(v, class.edges).
_CLASS_NUMBERINGS: dict[OrderedGraph, list[list[int]]] = {}

#: Counts since the last reset: vertex-split distributions produced,
#: canonical forms taken by _canonical_terms (one per distinct ordered graph
#: of a merged cell or of canonical_merge), stage-1 edge searches (one per
#: distinct (vertex count, edges) among those graphs) and placements (stage-2
#: searches on vacuum classes, see _placed; the empty placement counts too,
#: but a vacuum class cell at min_valence 0 is returned as it is, with none).
_STATS = {"split_terms": 0, "canonical_forms": 0, "edge_searches": 0, "placements": 0}


def clear_cache() -> None:
    _CELLS.clear()
    _CLASS_NUMBERINGS.clear()


def reset_stats() -> None:
    for name in _STATS:
        _STATS[name] = 0


def split_term_count() -> int:
    return _STATS["split_terms"]


def canonical_form_count() -> int:
    return _STATS["canonical_forms"]


def edge_search_count() -> int:
    return _STATS["edge_searches"]


def placement_count() -> int:
    return _STATS["placements"]


def _canonical_terms(
    terms: Iterable[tuple[OrderedGraph, Fraction]],
    classes: dict[OrderedGraph, list[list[int]]] | None = None,
) -> Iterator[tuple[OrderedGraph, Fraction]]:
    """Each term (g, c) as (canonicalize(g), c).  Graphs sharing their vertex
    count and edges share stage 1 of the canonical search, run once and kept
    for this call only.  Given classes, each form not yet in it is entered
    with stage 1 on its own edges, derived from g's (_form_numberings)."""
    searches: dict[tuple, tuple] = {}
    for g, c in terms:
        key = (g.vertex_count, g.edges)
        search = searches.get(key)
        if search is None:
            _STATS["edge_searches"] += 1
            search = searches[key] = _max_vector_numberings(*key)
        _STATS["canonical_forms"] += 1
        form = _canonical_form(g, *search)
        if classes is not None and form not in classes:
            classes[form] = _form_numberings(g, search[1])
        yield form, c


def _cell_sum(v: int, terms: dict[OrderedGraph, Fraction]) -> GraphSum:
    """The GraphSum holding terms as they stand.  Every graph of a cell has v
    vertices and the cell's labels by construction, so the checks of
    GraphSum(...) are not run again; terms must hold no zero."""
    s = GraphSum.__new__(GraphSum)
    s._grade = v
    s._terms = terms
    return s


def _split_vertex(g: OrderedGraph, i: int) -> Iterator[tuple[OrderedGraph, int]]:
    """All ways of splitting vertex i of the vacuum graph g into vertices i
    and i+1, joined by a new edge.

    The ends attached at i split as the coproduct splits a monomial with
    repeated factors: one (graph, multiplicity) per distribution of the groups
    of equal ends.  The m parallel ends to one neighbour go k left (to i) and
    m - k right (to i+1) with multiplicity C(m, k).
    The p self-loops go a left-left, b split and c right-right with
    multiplicity p!/(a! b! c!) * 2^b, the two ends of a loop being told apart.
    The multiplicities sum to 2^(ends at i).
    """

    def shift(x: int) -> int:
        return x + 1 if x > i else x

    j = i + 1
    # One tuple of choices per group of equal ends; a choice is (edges, multiplicity).
    groups: list[tuple] = []
    fixed_edges = [(i, j)]
    neighbours: dict[int, int] = {}  # other endpoint (already shifted) -> parallel ends
    loops = 0
    for a, b in g.edges:
        if a == b == i:
            loops += 1
        elif a == i:
            neighbours[shift(b)] = neighbours.get(shift(b), 0) + 1
        elif b == i:
            neighbours[shift(a)] = neighbours.get(shift(a), 0) + 1
        else:
            fixed_edges.append((shift(a), shift(b)))
    for other, m in neighbours.items():
        # other is neither i nor j, so each edge is written (low, high)
        left, right = ((other, i), (other, j)) if other < i else ((i, other), (j, other))
        choices = []
        weight = 1  # C(m, k)
        for k in range(m + 1):
            choices.append(((left,) * k + (right,) * (m - k), weight))
            weight = weight * (m - k) // (k + 1)
        groups.append(tuple(choices))
    if loops:
        choices = []
        weight_a = 1  # C(loops, a)
        for a in range(loops + 1):
            weight = weight_a  # C(loops, a) * C(loops - a, b)
            for b in range(loops - a + 1):
                edges = ((i, i),) * a + ((i, j),) * b + ((j, j),) * (loops - a - b)
                choices.append((edges, weight << b))
                weight = weight * (loops - a - b) // (b + 1)
            weight_a = weight_a * (loops - a) // (a + 1)
        groups.append(tuple(choices))

    for distribution in itertools.product(*groups):
        _STATS["split_terms"] += 1
        new_edges = list(fixed_edges)
        multiplicity = 1
        for edges, weight in distribution:
            new_edges += edges
            multiplicity *= weight
        new_edges.sort()
        yield _normal_graph(g.vertex_count + 1, tuple(new_edges), ()), multiplicity


def _check_cell(l: int, v: int, externals: Monomial, max_loops: int | None = None) -> None:
    """Refuse the arguments of a cell (l, v): v < 1, l < 0, repeated labels,
    and l above max_loops when that is given (pruned generation)."""
    if v < 1:
        raise ValueError("vertex count must be at least 1")
    if l < 0:
        raise ValueError("loop number must be non-negative")
    if not externals.has_distinct_factors():
        raise ValueError("external labels must be pairwise distinct")
    if max_loops is not None and l > max_loops:
        raise ValueError(f"loop number {l} exceeds max_loops {max_loops} of pruned generation")


def _valences(g: OrderedGraph) -> list[int]:
    """The internal edge ends at each vertex 1..v of g, two for a self-loop:
    its valence when g is a vacuum graph."""
    valence = [0] * (g.vertex_count + 1)
    for end in itertools.chain(*g.edges):
        valence[end] += 1
    return valence[1:]


def _deficits(g: OrderedGraph, m: int) -> tuple[int, ...]:
    """max(0, m - valence) at each vertex of the vacuum graph g; their sum is
    g's deficit against m."""
    if not m:
        return (0,) * g.vertex_count
    return tuple([max(0, m - d) for d in _valences(g)])


def _cell_denominator(e: int) -> int:
    """2^e * e!, the common denominator of every coefficient of a cell with e edges."""
    return math.factorial(e) << e


def _numerators(cell: GraphSum, e: int) -> list[tuple[OrderedGraph, int]]:
    """The terms of a cell with e edges as integer numerators over
    _cell_denominator(e).  A coefficient whose denominator does not divide
    that (a corrupted memo cell) raises ValueError; nothing is floored."""
    denominator = _cell_denominator(e)
    terms = []
    for g, c in cell.items():
        ratio, rest = divmod(denominator, c.denominator)
        if rest:
            raise ValueError(f"coefficient {c} of a cell with {e} edges is not over 2^{e}*{e}!")
        terms.append((g, c.numerator * ratio))
    return terms


def _covering_placements(
    deficits: tuple[int, ...], n: int, slack: int = 0
) -> list[tuple[int, ...]]:
    """Every placement of n labels, as the tuple of their vertices, that
    leaves at most slack of the deficits uncovered, vertex i covering up to
    deficits[i-1] with the labels it takes, in the order of
    itertools.product; other placements are never built.  At slack 0 vertex
    i takes at least deficits[i-1] labels."""
    out: list[tuple[int, ...]] = []
    # Depth first, each entry (chosen, need, short): the vertices of the
    # labels placed so far, the deficits left and their sum.
    stack = [((), deficits, sum(deficits))] if sum(deficits) <= n + slack else []
    while stack:
        chosen, need, short = stack.pop()
        if len(chosen) == n:
            out.append(chosen)
            continue
        spare = n - len(chosen) > short - slack  # a label no deficit needs may go anywhere
        branches = []
        for i, d in enumerate(need):
            if d:
                branches.append((chosen + (i + 1,), need[:i] + (d - 1,) + need[i + 1:], short - 1))
            elif spare:
                branches.append((chosen + (i + 1,), need, short))
        stack += reversed(branches)
    return out


def _placement_sum(rows: Iterable[Sequence[int]], n: int) -> int:
    """Sum over the v^n maps of n labels to the vertices of prod_k
    rows[k-1][j_k], j_k labels at vertex k, each row holding at least n + 1
    entries: a DP over the vertices keyed by the labels left, vertex k taking
    j of them in C(left, j) ways."""
    ways = {n: 1}  # labels left -> the sum over the placements of the others
    for row in rows:
        after: dict[int, int] = {}
        for left, w in ways.items():
            for j, value in enumerate(row[:left + 1]):
                if value:
                    after[left - j] = after.get(left - j, 0) + w * math.comb(left, j) * value
        ways = after
    return ways.get(0, 0)


def _covering_count(deficits: tuple[int, ...], n: int) -> int:
    """len(_covering_placements(deficits, n)), counted without building them:
    the placement sum of the rows that weigh vertex i taking j labels 1 when
    j >= deficits[i-1], else 0."""
    return _placement_sum([(0,) * d + (1,) * (n + 1) for d in deficits], n)


def _vertex_getter(placement: tuple[int, ...]) -> Callable[[list[int]], tuple[int, ...]]:
    """perm -> the new vertices perm gives the labels of this placement, as
    a tuple: an itemgetter for two or more labels."""
    if len(placement) > 1:
        return itemgetter(*[vtx - 1 for vtx in placement])
    return lambda perm: tuple([perm[vtx - 1] for vtx in placement])


def _placed(
    v: int, vacuum: Iterable[tuple[OrderedGraph, int]], labels: tuple[str, ...],
    min_valence: int = 0,
) -> Iterator[tuple[OrderedGraph, int]]:
    """Every placement of the distinct labels on the vertices of each vacuum
    class (g, n) that covers g's deficits against min_valence (_deficits), as
    (canonical form, numerator), equal forms summed.

    Only the covering placements are built (_covering_placements): all v^n
    when min_valence is 0, none when g's deficit exceeds the number of
    labels, and the empty one when there are no labels.  Stage 1 of the
    canonical search on g's edges is the one the vacuum cell's merge kept in
    _CLASS_NUMBERINGS, so each placement needs only stage 2, the least
    externals tuple over those perms (_least_externals).  It runs on the
    whole class at once: one getter per placement, shared by the classes
    with the same deficits, maps each perm to that placement's externals
    tuple, the elementwise minimum over the perms gives each placement's
    form, and each distinct form is built once, carrying n times the number
    of placements reaching it.
    """
    coverings: dict[tuple[int, ...], list] = {}  # deficits -> a getter per placement
    for g, n in vacuum:
        deficits = _deficits(g, min_valence)
        getters = coverings.get(deficits)
        if getters is None:
            getters = coverings[deficits] = [
                _vertex_getter(a) for a in _covering_placements(deficits, len(labels))]
        perms = _CLASS_NUMBERINGS[g]
        least = [[get(perm) for get in getters] for perm in perms]
        forms = Counter(least[0] if len(perms) == 1 else map(min, *least))
        _STATS["placements"] += len(getters)
        # g is canonical, so its edges are the canonical edges; labels are sorted.
        for ext, count in forms.items():
            yield _normal_graph(v, g.edges, tuple(zip(labels, ext))), n * count


def _cell(merged: bool, l: int, v: int, m: int, b: int) -> GraphSum:
    """Vacuum cell (l, v) pruned at (m, b), memoized in _CELLS: Q_i of cell
    (l, v-1) for i = 1..v-1, then T_i of cell (l-1, v) for i = 1..v, times
    1/(2e), e = l+v-1 being the cell's edge count; the 1/2 is the operators'
    own.  The base cell (0, 1) is the bare vertex.  Labels are placed on the
    cell by its callers (see the module docstring), never built into it.

    Its coefficients are integers over 2^e * e! (see the module docstring)
    and it is built in those: the cells below are read back as numerators
    over 2^(e-1) * (e-1)! (_numerators), Q and T multiply them by the split
    multiplicities only and the terms stream into one dict (_accumulated),
    so no Fraction arithmetic runs per term.  Its graphs are built in normal
    form (_normal_graph) and its sum unchecked (_cell_sum): the arguments
    were checked on entry.

    A merged cell is that sum's canonical_merge(), which takes the canonical
    form of each distinct ordered graph of the cell once (see
    _canonical_terms) and keeps stage 1 of the search on each of its classes
    in _CLASS_NUMBERINGS, for placing labels on it (see _placed).

    Pruned, the cell keeps its graphs of deficit at most b against m (see
    the module docstring): it reads cell (l, v-1) at budget b and cell
    (l-1, v) at b + 2, and filters its terms before any is canonicalized.
    m < 2, or a budget no graph of the cell can exceed (b >= v * m), prunes
    nothing and is keyed (0, 0), as unpruned cells are.
    """
    if m < 2 or b >= v * m:
        m = b = 0
    key = (merged, l, v, m, b)
    result = _CELLS.get(key)
    if result is not None:
        return result
    e = l + v - 1
    if e == 0:
        terms: Iterable[tuple[OrderedGraph, int]] = [(_normal_graph(1, (), ()), 1)]
    else:
        parts = []
        if v > 1:
            below = _numerators(_cell(merged, l, v - 1, m, b), e - 1)
            parts.append((h, n if k == 1 else n * k)
                         for i in range(1, v) for g, n in below for h, k in _split_vertex(g, i))
        if l > 0:
            fewer = _numerators(_cell(merged, l - 1, v, m, b + 2), e - 1)
            parts.append((_normal_graph(v, tuple(sorted(g.edges + ((i, i),))), ()), n)
                         for i in range(1, v + 1) for g, n in fewer)
        terms = itertools.chain(*parts)
    numerators: Iterable[tuple[OrderedGraph, int]] = _accumulated(terms).items()
    if m:
        numerators = [(g, n) for g, n in numerators if sum(_deficits(g, m)) <= b]
    if merged:
        numerators = _accumulated(_canonical_terms(numerators, _CLASS_NUMBERINGS)).items()
    denominator = _cell_denominator(e)
    result = _cell_sum(v, {g: Fraction(n, denominator) for g, n in numerators})
    _CELLS[key] = result
    return result


def omega_classes(l: int, v: int, externals: Monomial = ONE) -> GraphSum:
    """omega(l, v, externals).canonical_merge(), built class by class:
    min_valence_classes(l, v, externals, 0, None), the merged vacuum cell
    (see _cell) with the labels placed on its vertices in every way (see the
    module docstring).  The vacuum cell is memoized, in _CELLS, and
    returned as it is; a labelled cell is placed afresh on each call.  Same
    input checks as hopf.omega.
    """
    return min_valence_classes(l, v, externals, 0, None)


def _vacuum_cell(l: int, v: int, externals: Monomial, min_valence: int,
                 max_loops: int | None) -> GraphSum:
    """Check the arguments of min_valence_classes and return the merged vacuum
    cell (l, v) it places the n labels on, at budget n + 2(L - l) against
    min_valence, L being max_loops, or l when that is None."""
    _check_cell(l, v, externals, max_loops)
    top = l if max_loops is None else max_loops
    return _cell(True, l, v, min_valence, len(externals.factors) + 2 * (top - l))


def min_valence_classes(
    l: int, v: int, externals: Monomial, min_valence: int, max_loops: int | None
) -> GraphSum:
    """omega(l, v, externals).canonical_merge() restricted to the graphs
    whose every vertex has valence at least min_valence, with the same
    weights; with min_valence 0, all of it.

    A labelled class is a placement of the labels on a vacuum class, and it
    is kept exactly when the placement covers every vertex's deficit, so the
    cell is the vacuum class cell (l, v) with only those placements made
    (see _placed).  The vacuum cell is read at budget n + 2(L - l)
    (_vacuum_cell): at least n, so no class with a covering placement is
    dropped, and the budget at which the cells at loop number L read it, so
    a run up to L builds each cell once.

    With no labels and min_valence 0 every class takes the empty placement,
    so the memoized vacuum cell itself is returned and no placement is made.

    l above max_loops raises ValueError; so do the input checks of hopf.omega.
    Only the vacuum cells read are memoized.
    """
    cell = _vacuum_cell(l, v, externals, min_valence, max_loops)
    if not (externals.factors or min_valence):
        return cell
    e = l + v - 1
    vacuum = _numerators(cell, e)
    denominator = _cell_denominator(e)
    return _cell_sum(v, {g: Fraction(n, denominator)
                         for g, n in _placed(v, vacuum, externals.factors, min_valence)})


def planned_placements(
    l: int, v: int, externals: Monomial, min_valence: int = 0, max_loops: int | None = None
) -> int:
    """The placements (see _placed) min_valence_classes(l, v, externals,
    min_valence, max_loops) makes, counted on the classes of the vacuum cell
    it builds: none when it returns that cell as it is."""
    vacuum = _vacuum_cell(l, v, externals, min_valence, max_loops)
    n = len(externals.factors)
    if not (n or min_valence):
        return 0
    classes = Counter([_deficits(g, min_valence) for g, _ in vacuum.items()])
    return sum([k * _covering_count(deficits, n) for deficits, k in classes.items()])


def vertex_bound(n: int, m: int, a: int) -> int:
    """Largest vertex count a graph with n external edges, at most m loops and
    every vertex of valence at least a (a >= 3) can have: floor((n+2m-2)/(a-2)).
    """
    if a < 3:
        raise ValueError("minimum valence must be at least 3")
    return (n + 2 * m - 2) // (a - 2)
