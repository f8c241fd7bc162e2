"""The Hopf-algebra side of the generator, which generate and evaluate never run.

Tensor terms and weighted tensor sums of label monomials, the coproduct
family, the single operators T_i and Q_i, distribute (a graph sum times a
tensor sum of labels), the ordered labelled cells omega, the alternative
recursion omega_alt and the scalar recursion sigma_recursive.  omega is
distribute(omega(l, v), iterated_coproduct(m, v-1)) on the ordered vacuum
cells of recursion, GenOptions pruning it.  omega_alt builds a cell in one
pass over smaller omega cells: each glued graph, a smaller graph closed by
one more edge or two side by side joined by one edge, is built once by
OrderedGraph(...) into the one GraphSum it returns.  sigma_recursive splits
the external monomial by the coproduct and builds no graph.  verify's
alt-recursion suite, benchmark/run.py's check of evaluate's grades
(sigma_recursive) and the tests use them; no module on the path of generate
or evaluate imports this one.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, Iterator

from .algebra import ONE, ExactSum, Frozen, Monomial
from .evaluation import Model, Scalar, nu
from .graphs import OrderedGraph, _normal_graph
from .recursion import (
    GraphSum, _cell, _cell_sum, _check_cell, _covering_placements, _deficits, _split_vertex,
)

#: Prefix of the labels that omega_alt generates and binds internally.
#: Fresh names skip labels already in use, so user labels may share it.
BOUND_LABEL_PREFIX = "~"

HALF = Fraction(1, 2)


# ---------------------------------------------------------------------------
# tensor terms and the coproduct family


class TensorTerm(Frozen):
    """A basis element of the v-fold tensor power: one monomial per slot."""

    __slots__ = ("slots",)

    def __init__(self, slots: Iterable[Monomial]) -> None:
        slots = tuple(slots)
        if not slots:
            raise ValueError("tensor term needs at least one slot")
        object.__setattr__(self, "slots", slots)

    @classmethod
    def of(cls, *slots: Monomial) -> "TensorTerm":
        return cls(slots)

    @property
    def rank(self) -> int:
        return len(self.slots)

    def slotwise_product(self, other: "TensorTerm") -> "TensorTerm":
        if self.rank != other.rank:
            raise ValueError(f"rank mismatch: {self.rank} != {other.rank}")
        return TensorTerm(tuple(a * b for a, b in zip(self.slots, other.slots)))

    def __str__(self) -> str:
        return " (x) ".join(str(m) for m in self.slots)


class WeightedTensorSum(ExactSum):
    """Finite sum of tensor terms of a common rank with exact rational weights."""

    __slots__ = ()

    @property
    def rank(self) -> int:
        return self._grade

    def _checked(self, rank: int, items: Iterable[tuple]) -> Iterator[tuple]:
        if rank < 1:
            raise ValueError("rank must be positive")
        for term, coeff in items:
            if term.rank != rank:
                raise ValueError(f"term rank {term.rank} does not match sum rank {rank}")
            yield term, coeff

    def __repr__(self) -> str:
        body = " + ".join(f"{c}*({t})" for t, c in sorted(
            self._terms.items(), key=lambda kv: str(kv[0])))
        return body or "0"


def coproduct(m: Monomial) -> WeightedTensorSum:
    """Split a monomial into all ordered two-block partitions of its factors:
    iterated_coproduct(m, 1).

    For a monomial with n distinct factors this has exactly 2**n terms, each
    with coefficient 1; repeated factors merge into binomial coefficients.
    """
    return iterated_coproduct(m, 1)


def iterated_coproduct(m: Monomial, k: int) -> WeightedTensorSum:
    """Split a monomial into all ordered (k+1)-block partitions (rank k+1).

    The n copies of a factor go c_0, ..., c_k to the blocks in
    n!/(c_0! ... c_k!) ways, the coefficient of that choice; a term's
    coefficient is the product over the distinct factors.  k = 0 is the
    identity.  Coassociativity means any bracketing of repeated two-block
    splits gives the same result.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    slots = range(k + 1)
    per_factor = []
    for x, run in itertools.groupby(m.factors):
        n = len(list(run))
        choices = []
        for placed in itertools.combinations_with_replacement(slots, n):
            counts = [placed.count(j) for j in slots]
            ways = math.factorial(n) // math.prod(map(math.factorial, counts))
            choices.append((x, counts, ways))
        per_factor.append(choices)
    terms = []
    for choice in itertools.product(*per_factor):
        blocks: list[tuple[str, ...]] = [()] * (k + 1)
        coeff = 1
        for x, counts, ways in choice:
            blocks = [b + (x,) * c for b, c in zip(blocks, counts)]
            coeff *= ways
        terms.append((TensorTerm(tuple(Monomial(b) for b in blocks)), Fraction(coeff)))
    return WeightedTensorSum(k + 1, terms)


def tensor_multiply(a: WeightedTensorSum, b: WeightedTensorSum) -> WeightedTensorSum:
    """Bilinear slot-wise product of two equal-rank weighted tensor sums."""
    if a.rank != b.rank:
        raise ValueError(f"rank mismatch: {a.rank} != {b.rank}")
    return WeightedTensorSum(
        a.rank,
        ((ta.slotwise_product(tb), ca * cb) for ta, ca in a.items() for tb, cb in b.items()),
    )


# ---------------------------------------------------------------------------
# single operators and distribute


def apply_T(i: int, s: GraphSum) -> GraphSum:
    """Attach a self-loop at vertex i to every graph; halve every coefficient."""
    if not 1 <= i <= s.vertex_count:
        raise ValueError(f"vertex index {i} out of range 1..{s.vertex_count}")
    looped = [(OrderedGraph(g.vertex_count, g.edges + ((i, i),), g.externals), c * HALF)
              for g, c in s.items()]
    return GraphSum(s.vertex_count, looped)


def apply_Q(i: int, s: GraphSum) -> GraphSum:
    """Split vertex i in all ways and reconnect the halves with a new edge.

    Output has one more vertex (later vertices shift up by one) and every
    coefficient carries an overall factor 1/2.  The edges split as the
    engine splits a vacuum graph (recursion._split_vertex); each external
    label at i goes to i or to i+1, the coproduct of distinct labels.
    """
    if not 1 <= i <= s.vertex_count:
        raise ValueError(f"vertex index {i} out of range 1..{s.vertex_count}")
    terms = []
    for g, c in s.items():
        here = [lab for lab, vtx in g.externals if vtx == i]
        rest = [(lab, vtx + 1 if vtx > i else vtx) for lab, vtx in g.externals if vtx != i]
        for h, k in _split_vertex(OrderedGraph(g.vertex_count, g.edges), i):
            for sides in itertools.product((i, i + 1), repeat=len(here)):
                ext = rest + list(zip(here, sides))
                terms.append((OrderedGraph(h.vertex_count, h.edges, ext), c * k * HALF))
    return GraphSum(s.vertex_count + 1, terms)


def distribute(s: GraphSum, wts: WeightedTensorSum) -> GraphSum:
    """Attach each tensor slot's labels as externals of the matching vertex.

    Realizes the product of a graph sum with a rank-v weighted tensor sum of
    bare monomials; label sets must stay disjoint.
    """
    if s.vertex_count != wts.rank:
        raise ValueError("tensor rank must equal the vertex count")
    return GraphSum(
        s.vertex_count,
        ((OrderedGraph(g.vertex_count, g.edges, g.externals + tuple(
            (lab, slot + 1) for slot, mono in enumerate(term.slots) for lab in mono.factors)),
          cg * ct)
         for g, cg in s.items()
         for term, ct in wts.items()),
    )


# ---------------------------------------------------------------------------
# the ordered cells with their labels placed


class GenOptions(Frozen):
    """Options of pruned generation for the ordered cells of omega.

    With min_valence k > 0 and max_loops L set, cell (l, v) is pruned at
    (k + 1, 2(L - l)) (see the recursion module docstring): it holds the
    graphs of the unpruned cell whose deficit against k + 1 is at most
    2(L - l), with the same weights, so at l = L exactly the graphs of
    valence >= k + 1 remain.  l above L raises ValueError.  With k = 0 or L
    unset nothing is pruned.
    """

    __slots__ = ("min_valence", "max_loops")

    def __init__(self, min_valence: int = 0, max_loops: int | None = None) -> None:
        object.__setattr__(self, "min_valence", min_valence)
        object.__setattr__(self, "max_loops", max_loops)


DEFAULT_OPTIONS = GenOptions()


def omega(
    l: int, v: int, externals: Monomial = ONE, opts: GenOptions = DEFAULT_OPTIONS
) -> GraphSum:
    """Weighted sum of all connected graphs with l loops, v vertices and the
    given external labels, vertex-ordered; after canonical merging each
    unordered graph carries weight 1/S, the inverse of its symmetry factor.

    The vacuum cell is built as one weighted sum,
    1/(l+v-1) * (sum_i Q_i omega(l, v-1) + sum_i T_i omega(l-1, v)):
    every operator term goes into a single GraphSum once (see
    recursion._cell).  The n labels are then placed on each of its graphs in
    all v^n ways, each placement keeping the graph's coefficient (see the
    recursion module docstring).  Under pruning GenOptions, which set the
    cell's budget b, the vacuum cell is read at budget b + n and only the
    placements that leave a deficit of at most b are made; l above
    opts.max_loops then raises ValueError.

    The vacuum cell is memoized, by (l, v) and its budget, until
    clear_cache() and returned as it is when there are no labels; a labelled
    cell is placed afresh on each call.
    """
    pruning = opts.min_valence > 0 and opts.max_loops is not None
    _check_cell(l, v, externals, opts.max_loops if pruning else None)
    m, b = (opts.min_valence + 1, 2 * (opts.max_loops - l)) if pruning else (0, 0)
    labels = externals.factors
    if not labels:
        return _cell(False, l, v, m, b)
    vacuum = [(g, c, _deficits(g, m)) for g, c in _cell(False, l, v, m, b + len(labels)).items()]
    placements = {d: _covering_placements(d, len(labels), b) for d in {d for _, _, d in vacuum}}
    return _cell_sum(v, {_normal_graph(v, g.edges, tuple(zip(labels, a))): c
                         for g, c, d in vacuum for a in placements[d]})


# ---------------------------------------------------------------------------
# the glue recursion


def _fresh_bound_pair(externals: Monomial) -> tuple[str, str]:
    depth = 0
    while True:
        u, w = f"{BOUND_LABEL_PREFIX}u{depth}", f"{BOUND_LABEL_PREFIX}w{depth}"
        if u not in externals.factors and w not in externals.factors:
            return u, w
        depth += 1


def _unbound(
    label: str, externals: tuple[tuple[str, int], ...], by: int
) -> tuple[int, tuple[tuple[str, int], ...]]:
    """(vertex of label, the other externals), every vertex moved up by `by`."""
    ext = {lab: vtx + by for lab, vtx in externals}
    return ext.pop(label), tuple(ext.items())


def omega_alt(l: int, v: int, externals: Monomial = ONE) -> GraphSum:
    """Alternative recursion: build from smaller generators glued by one edge.

    The l-loop v-vertex sum is 1/(2(l+v-1)) times (a) the (l-1)-loop sum
    with two fresh bound labels u and w, which become one extra edge, plus
    (b) all ordered pairs of generators with totals (l, v), labels split by
    the coproduct, u on the left and w on the right: the right graph's
    vertices shift past the left's and the edge joins the vertices of u and
    w.  Each glued graph is built once, by OrderedGraph(...), into the one
    GraphSum returned.  Reads only smaller omega cells and the coproduct, so
    it is independent of the vertex split; agrees exactly with omega.
    """
    _check_cell(l, v, externals)
    if l == 0 and v == 1:
        return omega(0, 1, externals)
    u, w = _fresh_bound_pair(externals)
    weight = Fraction(1, 2 * (l + v - 1))

    def glued() -> Iterator[tuple[OrderedGraph, Fraction]]:
        if l > 0:
            for g, c in omega(l - 1, v, externals * Monomial.of(u, w)).items():
                ext = dict(g.externals)
                edge = (ext.pop(u), ext.pop(w))
                yield OrderedGraph(v, g.edges + (edge,), tuple(ext.items())), c * weight
        if v > 1:
            for term, pc in coproduct(externals).items():
                coeff = pc * weight
                left_m = term.slots[0] * Monomial.of(u)
                right_m = term.slots[1] * Monomial.of(w)
                for a in range(l + 1):
                    for b in range(1, v):
                        right = []  # each right graph with its vertices moved up by b
                        for g, c in omega(l - a, v - b, right_m).items():
                            y, ext = _unbound(w, g.externals, b)
                            right.append((tuple([(p + b, q + b) for p, q in g.edges]), y, ext, c))
                        for gl, cl in omega(a, b, left_m).items():
                            x, left_ext = _unbound(u, gl.externals, 0)
                            cl *= coeff
                            for edges, y, ext, cr in right:
                                yield (OrderedGraph(v, gl.edges + edges + ((x, y),),
                                                    left_ext + ext), cl * cr)

    return GraphSum(v, glued())


# ---------------------------------------------------------------------------
# the scalar recursion


def sigma_recursive(model: Model, l: int, v: int, externals: Monomial = ONE) -> Scalar:
    """Same grade as sigma_lv, computed by the scalar-level recursion that
    never builds graphs: self-loop closures and vertex splits act directly on
    monomials weighted by inverse-propagator values.  Each nonzero inverse
    propagator (x, y) adds, in one pass, its closing term (l > 0) and its
    gluing terms over the coproduct split of the externals (v > 1) to one
    total, divided by 2(l + v - 1)."""
    if v < 1:
        raise ValueError("vertex count must be at least 1")
    if l < 0:
        raise ValueError("loop number must be non-negative")
    key = (l, v, externals)
    cached = model._sigma_cache.get(key)
    if cached is not None:
        return cached
    if l == 0 and v == 1:
        result = nu(model, externals)
    else:
        split = list(coproduct(externals).items()) if v > 1 else []
        total: Scalar = Fraction(0)
        for (x, y), ginv in model.inverse_propagator.items():
            if not ginv:
                continue
            if l > 0:
                total = total + ginv * sigma_recursive(
                    model, l - 1, v, externals * Monomial.of(x, y))
            for term, pc in split:
                left, right = term.slots
                lx, ry = left * Monomial.of(x), right * Monomial.of(y)
                inner: Scalar = Fraction(0)
                for a in range(l + 1):
                    for b in range(1, v):
                        sl = sigma_recursive(model, a, b, lx)
                        if sl:
                            inner = inner + sl * sigma_recursive(model, l - a, v - b, ry)
                total = total + ginv * pc * inner
        result = total / (2 * (l + v - 1))
    model._sigma_cache[key] = result
    return result

