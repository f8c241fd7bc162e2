"""The graph generator: self-loop and vertex-split operators and the loop/vertex recursion.

omega generates vertex-ordered graphs; identical ordered terms merge their
rational coefficients, and canonical merging (summing weights over
renumbering classes) yields weight 1/S per unordered connected graph, S being
its symmetry factor.  omega_classes merges at every cell instead: summing the
operators over all vertices commutes with renumbering, so each vacuum cell is
built from the canonically merged cells below it, canonicalizing each distinct
ordered graph of a cell once and running the edge stage of that search once
per distinct edge tuple.  The generate and evaluate commands and verify's
graph-oracle suite use omega_classes.

A class cell with distinct external labels runs no recursion: it is the
vacuum class cell with the labels placed.  External labels enter through the
coproduct, omega(l, v, m) = distribute(omega(l, v), iterated_coproduct(m,
v-1)), and with distinct labels the iterated coproduct puts each label on
each vertex with coefficient 1.  The v^n placements of n labels are permuted
among themselves by renumbering, and canonical merging commutes with
renumbering, so the class cell is the sum over the vacuum classes (g, w) of
w * canonicalize(g with the labels placed), over every placement.  The edge
stage of the search on each class is the one the vacuum cell's merge ran,
kept while the cell is memoized, and only the externals stage runs per
placement (see _placed).  A pruned class cell (labels, at max_loops under
GenOptions pruning) keeps the recursion: which splits it drops depends on
where each label sat at every split, so it is no placement of any vacuum
cell; its T part, from the cell one loop below, is a placed cell.  Only
omega and omega_classes called with pruning GenOptions build one.

generate --min-valence m prints a class cell restricted to valence >= m,
which needs no pruned labelled cell: min_valence_classes places the labels
on the vacuum classes only where they cover every vertex's valence deficit,
and prunes the vacuum cell at max_loops by a threshold lowered by the number
of labels.

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
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

from .algebra import ONE, ExactSum, Frozen, Monomial
from .graphs import (
    OrderedGraph, _canonical_form, _form_numberings, _least_externals, _max_vector_numberings,
    _normal_graph,
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


class GenOptions(Frozen):
    """Generation options.

    min_valence is the truncation threshold k: when pruning is active, vertex
    splits leaving one side with fewer than k attached ends are dropped, so
    surviving vertices end with valence at least k+1.  Pruning is only sound
    once no further self-loop can be added, i.e. on recursion cells that have
    already reached max_loops; with max_loops unset no pruning happens.  With
    pruning on, omega refuses loop numbers above max_loops, whose self-loops
    would land on graphs already pruned.

    Memoized cells are keyed by the threshold the options give them, k at
    max_loops under pruning and 0 elsewhere, not by the options: options that
    prune no cell share the unpruned cells, and every cell below max_loops is
    shared by pruned and unpruned runs.

    A pruned cell with labels is reached only by omega and omega_classes
    called with these options; generate --min-valence calls
    min_valence_classes, which prunes vacuum cells alone.
    """

    __slots__ = ("min_valence", "max_loops")

    def __init__(self, min_valence: int = 0, max_loops: int | None = None) -> None:
        object.__setattr__(self, "min_valence", min_valence)
        object.__setattr__(self, "max_loops", max_loops)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.min_valence, self.max_loops) == (other.min_valence, other.max_loops)

    def __hash__(self) -> int:
        return hash((self.min_valence, self.max_loops))

    def __repr__(self) -> str:
        return (f"{type(self).__qualname__}(min_valence={self.min_valence!r}, "
                f"max_loops={self.max_loops!r})")


DEFAULT_OPTIONS = GenOptions()

#: The cell memo of omega, omega_classes and min_valence_classes (vacuum
#: cells only): (merged, l, v, externals, min_ends) -> cell.
_CELLS: dict[tuple, GraphSum] = {}

#: Stage 1 of the canonical search on each class of the merged vacuum cells
#: in _CELLS, kept from the merge that found the class (see _canonical_terms)
#: for _placed: class -> the perms of _max_vector_numberings(v, class.edges).
_CLASS_NUMBERINGS: dict[OrderedGraph, list[list[int]]] = {}

#: Counts since the last reset: vertex-split distributions produced (to
#: compare pruned and unpruned generation cost), canonical forms taken by
#: _canonical_terms (class cells built by the recursion and canonical_merge;
#: one per distinct ordered graph of a cell), stage-1 edge searches (one per
#: distinct (vertex count, edges) among those graphs; placing labels on a
#: vacuum class reuses the search that found it) and placements (one stage-2
#: search per placement of the labels on a vacuum class, see _placed;
#: min_valence_classes counts only the placements covering the deficits).
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


def _accumulated(terms: Iterable[tuple[OrderedGraph, int]]) -> dict[OrderedGraph, int]:
    """The terms with equal graphs' coefficients added and zero sums dropped,
    as GraphSum(...) accumulates them, without its per-term checks."""
    acc: dict[OrderedGraph, int] = {}
    for g, c in terms:
        c += acc.get(g, 0)
        if c:
            acc[g] = c
        else:
            acc.pop(g, None)
    return acc


def _cell_sum(v: int, terms: dict[OrderedGraph, Fraction]) -> GraphSum:
    """The GraphSum holding terms as they stand.  Every graph of a cell has v
    vertices and the cell's labels by construction, so the checks of
    GraphSum(...) are not run again; terms must hold no zero."""
    s = GraphSum.__new__(GraphSum)
    s._grade = v
    s._terms = terms
    return s


def _t_terms(vertices: Iterable[int], terms: Sequence[tuple]) -> Iterator[tuple]:
    """T_i of the (graph, coefficient) pairs for each i in vertices: a
    self-loop at vertex i, the coefficient unchanged."""
    return ((_normal_graph(g.vertex_count, tuple(sorted(g.edges + ((i, i),))), g.externals), c)
            for i in vertices for g, c in terms)


def _split_vertex(
    g: OrderedGraph, i: int, min_ends: int
) -> Iterator[tuple[OrderedGraph, int]]:
    """All ways of splitting vertex i into vertices i and i+1, joined by a new edge.

    The ends attached at i split as the coproduct splits a monomial with
    repeated factors: one (graph, multiplicity) per distribution of the groups
    of equal ends.  Each external label goes left (to i) or right (to i+1).
    The m parallel ends to one neighbour go k left with multiplicity C(m, k).
    The p self-loops go a left-left, b split and c right-right with
    multiplicity p!/(a! b! c!) * 2^b, the two ends of a loop being told apart.
    The multiplicities sum to 2^(ends at i).  With min_ends > 0, the degree
    rule of hopf.truncated_coproduct drops distributions leaving either side with
    fewer than min_ends attached ends (not counting the new connecting edge).
    """

    def shift(x: int) -> int:
        return x + 1 if x > i else x

    j = i + 1
    ext_here = [lab for lab, vtx in g.externals if vtx == i]
    ext_rest = [(lab, shift(vtx)) for lab, vtx in g.externals if vtx != i]
    # One tuple of choices per group of equal ends; a choice is
    # (ends going left, edges, externals, multiplicity).
    groups: list[tuple] = [((1, (), ((lab, i),), 1), (0, (), ((lab, j),), 1)) for lab in ext_here]
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
            choices.append((k, (left,) * k + (right,) * (m - k), (), weight))
            weight = weight * (m - k) // (k + 1)
        groups.append(tuple(choices))
    if loops:
        choices = []
        weight_a = 1  # C(loops, a)
        for a in range(loops + 1):
            weight = weight_a  # C(loops, a) * C(loops - a, b)
            for b in range(loops - a + 1):
                edges = ((i, i),) * a + ((i, j),) * b + ((j, j),) * (loops - a - b)
                choices.append((2 * a + b, edges, (), weight << b))
                weight = weight * (loops - a - b) // (b + 1)
            weight_a = weight_a * (loops - a) // (a + 1)
        groups.append(tuple(choices))

    ends = len(ext_here) + sum(neighbours.values()) + 2 * loops
    for distribution in itertools.product(*groups):
        if min_ends:
            n_left = sum([choice[0] for choice in distribution])
            if n_left < min_ends or ends - n_left < min_ends:
                continue
        _STATS["split_terms"] += 1
        new_edges = list(fixed_edges)
        new_ext = list(ext_rest)
        multiplicity = 1
        for _, edges, ext, weight in distribution:
            new_edges += edges
            new_ext += ext
            multiplicity *= weight
        new_edges.sort()
        new_ext.sort()
        yield _normal_graph(g.vertex_count + 1, tuple(new_edges), tuple(new_ext)), multiplicity


def _q_terms(vertices: Iterable[int], terms: Sequence[tuple], min_ends: int) -> Iterator[tuple]:
    """Q_i of the (graph, coefficient) pairs for each i in vertices: every
    split of vertex i (see _split_vertex), the coefficient multiplied by the
    split's multiplicity, whatever its number type."""
    for i in vertices:
        for g, c in terms:
            for h, k in _split_vertex(g, i, min_ends):
                yield h, (c if k == 1 else c * k)


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


def _min_ends(l: int, v: int, externals: Monomial, opts: GenOptions) -> int:
    """Check the arguments of cell (l, v) and return its truncation threshold:
    opts.min_valence on a cell at opts.max_loops when pruning is on (see
    GenOptions), else 0."""
    pruning = opts.min_valence > 0 and opts.max_loops is not None
    _check_cell(l, v, externals, opts.max_loops if pruning else None)
    return opts.min_valence if pruning and l == opts.max_loops else 0


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


def _covering_placements(deficits: tuple[int, ...], n: int) -> list[tuple[int, ...]]:
    """Every placement of n labels, as the tuple of their vertices, in which
    vertex i takes at least deficits[i-1] of them, in the order of
    itertools.product; placements that leave a deficit uncovered are never
    built."""
    out: list[tuple[int, ...]] = []
    chosen: list[int] = []
    need = list(deficits)

    def place(short: int) -> None:  # short: labels the deficits still need
        if len(chosen) == n:
            out.append(tuple(chosen))
            return
        spare = n - len(chosen) > short
        for i in range(len(need)):
            if need[i]:
                need[i] -= 1
                chosen.append(i + 1)
                place(short - 1)
                chosen.pop()
                need[i] += 1
            elif spare:
                chosen.append(i + 1)
                place(short)
                chosen.pop()

    short = sum(deficits)
    if short <= n:
        place(short)
    return out


def _placed(
    v: int, vacuum: Iterable[tuple[OrderedGraph, int]], labels: tuple[str, ...],
    min_valence: int = 0,
) -> Iterator[tuple[OrderedGraph, int]]:
    """Every placement of the distinct labels on the vertices of each vacuum
    class (g, n) that leaves no vertex below min_valence, as (canonical form,
    numerator), equal forms summed.

    A vertex of internal degree d (a self-loop counting 2) needs
    max(0, min_valence - d) of the labels, its deficit.  A class whose
    deficits sum above the number of labels has no such placement and is
    skipped before any search; the others get only the placements covering
    their deficits (_covering_placements), all v^n of them when min_valence
    is 0.  Stage 1 of the canonical search on g's edges is not run again:
    the merge that built the memoized vacuum cell kept it in
    _CLASS_NUMBERINGS.  Each placement then needs only stage 2
    (_least_externals), and each distinct form is built once, carrying n
    times the number of placements reaching it, so no form is yielded twice.
    With no labels a class is its own canonical form and needs no search.
    """
    coverings: dict[tuple[int, ...], list[tuple]] = {}  # deficits -> their placements
    for g, n in vacuum:
        deficits = (0,) * v
        if min_valence:
            degree = [0] * (v + 1)
            for a, b in g.edges:
                degree[a] += 1
                degree[b] += 1
            deficits = tuple([max(0, min_valence - d) for d in degree[1:]])
            if sum(deficits) > len(labels):
                continue
        if not labels:
            yield g, n
            continue
        covering = coverings.get(deficits)
        if covering is None:
            covering = coverings[deficits] = [
                tuple(zip(labels, a)) for a in _covering_placements(deficits, len(labels))]
        perms = _CLASS_NUMBERINGS[g]
        forms: dict[tuple[int, ...], int] = {}
        for ext in covering:
            least = _least_externals(perms, ext)[2]
            forms[least] = forms.get(least, 0) + n
        _STATS["placements"] += len(covering)
        # g is canonical, so its edges are the canonical edges; labels are sorted.
        for least, total in forms.items():
            yield _normal_graph(v, g.edges, tuple(zip(labels, least))), total


def _cell(merged: bool, l: int, v: int, externals: Monomial, min_ends: int) -> GraphSum:
    """Cell (l, v), memoized in _CELLS: Q_i of cell (l, v-1) for i = 1..v-1,
    then T_i of cell (l-1, v) for i = 1..v, times 1/(2e), e = l+v-1 being the
    cell's edge count; the 1/2 is the operators' own.

    Its coefficients are integers over 2^e * e! (see the module docstring)
    and it is built in those: the cells below are read back as numerators
    over 2^(e-1) * (e-1)! (_numerators), Q and T multiply them by the split
    multiplicities only, and the integer terms stream into one dict
    (_accumulated), so no Fraction arithmetic runs per term.  The memoized
    cell holds one Fraction per stored term.  Its graphs are built in normal
    form (_normal_graph) and its sum unchecked (_cell_sum): the arguments
    were checked on entry, and every term has v vertices and the labels.

    The splits drop distributions leaving fewer than min_ends ends on a side.
    Cell (l, v-1) is built with the same min_ends; cell (l-1, v) lies below
    max_loops and is built with 0.  A merged cell is that sum's
    canonical_merge(), which takes the canonical form of each distinct
    ordered graph of the cell once (see _canonical_terms); a merged vacuum
    cell keeps stage 1 of the search on each of its classes in
    _CLASS_NUMBERINGS, for placing labels on it.

    A merged cell with labels and min_ends 0 runs no recursion of its own: it
    is the vacuum class cell (l, v) with the labels placed (see _placed and
    the module docstring), read as numerators over the same 2^e * e!, since
    labels add no edge.  A cell with labels and min_ends > 0, merged or not,
    runs the recursion; only omega and omega_classes under pruning
    GenOptions ask for one, while min_valence_classes asks only for vacuum
    cells.
    """
    key = (merged, l, v, externals, min_ends)
    result = _CELLS.get(key)
    if result is not None:
        return result
    e = l + v - 1
    if merged and externals.factors and not min_ends:
        vacuum = _numerators(_cell(True, l, v, ONE, 0), e)
        # _placed yields each form once: nothing to accumulate.
        numerators: Iterable[tuple[OrderedGraph, int]] = _placed(v, vacuum, externals.factors)
    else:
        if e == 0:
            terms: Iterable[tuple[OrderedGraph, int]] = [
                (_normal_graph(1, (), tuple([(lab, 1) for lab in externals.factors])), 1)]
        else:
            parts = []
            if v > 1:
                below = _numerators(_cell(merged, l, v - 1, externals, min_ends), e - 1)
                parts.append(_q_terms(range(1, v), below, min_ends))
            if l > 0:
                fewer = _numerators(_cell(merged, l - 1, v, externals, 0), e - 1)
                parts.append(_t_terms(range(1, v + 1), fewer))
            terms = itertools.chain(*parts)
        numerators = _accumulated(terms).items()
        if merged:
            classes = None if externals.factors else _CLASS_NUMBERINGS
            numerators = _accumulated(_canonical_terms(numerators, classes)).items()
    denominator = _cell_denominator(e)
    result = _cell_sum(v, {g: Fraction(n, denominator) for g, n in numerators})
    _CELLS[key] = result
    return result


def omega(
    l: int, v: int, externals: Monomial = ONE, opts: GenOptions = DEFAULT_OPTIONS
) -> GraphSum:
    """Weighted sum of all connected graphs with l loops, v vertices and the
    given external labels, vertex-ordered; after canonical merging each
    unordered graph carries weight 1/S, the inverse of its symmetry factor.

    The cell is built as one weighted sum,
    1/(l+v-1) * (sum_i Q_i omega(l, v-1) + sum_i T_i omega(l-1, v)):
    every operator term goes into a single GraphSum once (see _cell).
    With pruning on (see GenOptions), l above opts.max_loops raises
    ValueError.

    Results are memoized by (l, v, externals) and the cell's truncation
    threshold (see GenOptions) until clear_cache().
    """
    return _cell(False, l, v, externals, _min_ends(l, v, externals, opts))


def omega_classes(
    l: int, v: int, externals: Monomial = ONE, opts: GenOptions = DEFAULT_OPTIONS
) -> GraphSum:
    """omega(l, v, externals, opts).canonical_merge(), built class by class.

    The vacuum cell runs the same recursion on the canonically merged cells
    (l, v-1) and (l-1, v).  The terms it produces are merged into an ordered
    sum for that cell only, and each distinct ordered graph is canonicalized
    once into one GraphSum; the ordered sum is dropped once the cell is built.
    This is exact because summing Q_i and T_i over all vertices i commutes
    with renumbering the vertices.

    With external labels the cell is the vacuum class cell (l, v) with the
    labels placed on its vertices in every way, each placement canonicalized
    (see the module docstring).  A pruned cell with labels (see GenOptions)
    runs the recursion instead, since its dropped splits depend on where the
    labels sat at each split.
    Same input checks as omega; memoized like omega, in the same memo.
    """
    return _cell(True, l, v, externals, _min_ends(l, v, externals, opts))


def min_valence_classes(
    l: int, v: int, externals: Monomial, min_valence: int, max_loops: int | None
) -> GraphSum:
    """omega_classes(l, v, externals) restricted to the graphs whose every
    vertex has valence at least min_valence, with the same weights.

    A labelled class is a placement of the labels on a vacuum class, and it
    is kept exactly when the placement covers every vertex's deficit, so the
    cell is the vacuum class cell (l, v) with only those placements made
    (see _placed).  At l == max_loops the vacuum cell is pruned with the
    threshold t = max(0, min_valence - 1 - n), n being the number of labels;
    below it, it is not.  That is exact: at max_loops only vertex splits
    follow, and a split leaving j ends on one side leaves, at every later
    stage, some vertex of internal degree at most j + 1, while a kept
    labelled graph needs internal degree at least min_valence - n = t + 1 at
    every vertex.  So the pruning changes only vacuum classes with a vertex
    of internal degree at most t, whose deficits sum above n: none is placed.

    l above max_loops raises ValueError, as under pruned GenOptions; so do
    the input checks of omega.  Only the vacuum cells read are memoized.
    """
    _check_cell(l, v, externals, max_loops)
    labels = externals.factors
    t = max(0, min_valence - 1 - len(labels)) if l == max_loops else 0
    e = l + v - 1
    vacuum = _numerators(_cell(True, l, v, ONE, t), e)
    denominator = _cell_denominator(e)
    return _cell_sum(v, {g: Fraction(n, denominator)
                         for g, n in _placed(v, vacuum, labels, min_valence)})


def vertex_bound(n: int, m: int, a: int) -> int:
    """Largest vertex count a graph with n external edges, at most m loops and
    every vertex of valence at least a (a >= 3) can have: floor((n+2m-2)/(a-2)).
    """
    if a < 3:
        raise ValueError("minimum valence must be at least 3")
    return (n + 2 * m - 2) // (a - 2)
