"""The Hopf-algebra side of the generator, which the cell-based engine never runs.

Tensor terms and weighted tensor sums of label monomials, the coproduct
family, the single operators T_i and Q_i, distribute (a graph sum times a
tensor sum of labels) and the alternative recursion omega_alt, which builds a
cell from smaller generators glued by one edge.  verify's alt-recursion suite,
evaluation.sigma_recursive (the coproduct) and the tests use them; no module
on the path of generate or evaluate imports this one.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, Iterator

from .algebra import ONE, ExactSum, Frozen, Monomial
from .graphs import OrderedGraph
from .recursion import GraphSum, _check_cell, _split_vertex, omega

#: Prefix of the labels that glue operations generate and bind internally.
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

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.slots == other.slots

    def __hash__(self) -> int:
        return hash((self.slots,))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(slots={self.slots!r})"

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
# the glue recursion


def concat(a: GraphSum, b: GraphSum) -> GraphSum:
    """Tensor concatenation: each pair of graphs side by side as one graph."""
    n = a.vertex_count
    return GraphSum(
        n + b.vertex_count,
        ((OrderedGraph(n + gb.vertex_count,
                       ga.edges + tuple((x + n, y + n) for x, y in gb.edges),
                       ga.externals + tuple((lab, vtx + n) for lab, vtx in gb.externals)),
          ca * cb)
         for ga, ca in a.items()
         for gb, cb in b.items()),
    )


def _glued(g: OrderedGraph, u: str, w: str) -> OrderedGraph:
    ext = g.externals_map
    if u not in ext or w not in ext:
        raise ValueError(f"bound labels {u!r}, {w!r} must appear in every term")
    a, b = ext.pop(u), ext.pop(w)
    return OrderedGraph(g.vertex_count, g.edges + ((a, b),), tuple(ext.items()))


def glue(s: GraphSum, u: str, w: str) -> GraphSum:
    """Contract the bound external labels u and w of every graph into one
    internal edge; coefficients are unchanged.  Two sums are joined by one
    edge as glue(concat(left, right), u, w), with u in left and w in right.
    """
    return GraphSum(s.vertex_count, ((_glued(g, u, w), c) for g, c in s.items()))


def _fresh_bound_pair(externals: Monomial, prefix: str) -> tuple[str, str]:
    depth = 0
    while True:
        u, w = f"{prefix}u{depth}", f"{prefix}w{depth}"
        if u not in externals.factors and w not in externals.factors:
            return u, w
        depth += 1


def omega_alt(l: int, v: int, externals: Monomial = ONE) -> GraphSum:
    """Alternative recursion: build from smaller generators glued by one edge.

    The l-loop v-vertex sum is 1/(2(l+v-1)) times (a) the (l-1)-loop sum with
    an extra edge glued in all ways plus (b) all ordered pairs of generators
    with totals (l, v), labels split by the coproduct, glued by one edge; each
    term enters one GraphSum once.  Independent of the vertex split; agrees
    exactly with omega.
    """
    _check_cell(l, v, externals)
    if l == 0 and v == 1:
        return omega(0, 1, externals)
    u, w = _fresh_bound_pair(externals, BOUND_LABEL_PREFIX)
    weight = Fraction(1, 2 * (l + v - 1))

    def glued_sums() -> Iterator[tuple[GraphSum, Fraction]]:
        if l > 0:
            yield glue(omega(l - 1, v, externals * Monomial.of(u, w)), u, w), weight
        if v > 1:
            for term, pc in coproduct(externals).items():
                left_m = term.slots[0] * Monomial.of(u)
                right_m = term.slots[1] * Monomial.of(w)
                for a in range(l + 1):
                    for b in range(1, v):
                        pair = concat(omega(a, b, left_m), omega(l - a, v - b, right_m))
                        yield glue(pair, u, w), pc * weight

    return GraphSum(v, ((g, c * coeff) for s, coeff in glued_sums() for g, c in s.items()))
