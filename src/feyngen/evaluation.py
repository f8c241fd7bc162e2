"""Finite-model Feynman rules: vertex functions, graph values and n-point grades.

A model is a finite label set with a symmetric propagator table, its kernel
inverse and a vertex-function table (per degree for the common phi^k case, or
per label multiset).  A graph's value is a finite sum over assignments of
model labels to its internal edge ends.  In a degree model the sum factors
edge by edge and the value is a closed form (_degree_closed_form); in a
multiset model it is computed by eliminating one vertex at a time
(_eliminate).  Rational models evaluate exactly.  An n-point grade (sigma_lv)
is the vacuum class cell evaluated with the external labels (model labels)
placed on its vertices in every way: in closed form in a degree model, else
one elimination per class, whose table also carries the labels still to
place; the vertex-free grade is the bare propagator.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction
from pathlib import Path
from typing import Collection, Mapping, Sequence, Union

from .algebra import ONE, ModelError, Monomial
from .graphs import OrderedGraph
from .recursion import GraphSum, _placement_sum, omega_classes

Scalar = Union[Fraction, float]

FLOAT_TOLERANCE = 1e-12


def _invert_symmetric(labels: Sequence[str], table: Mapping[tuple[str, str], Fraction]):
    """Invert the propagator matrix over the label set by Gauss-Jordan."""
    n = len(labels)
    a = [[table[(x, y)] for y in labels] for x in labels]
    inv = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col]), None)
        if pivot is None:
            raise ModelError("propagator matrix is singular")
        a[col], a[pivot] = a[pivot], a[col]
        inv[col], inv[pivot] = inv[pivot], inv[col]
        p = a[col][col]
        a[col] = [x / p for x in a[col]]
        inv[col] = [x / p for x in inv[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
                inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
    return {
        (x, y): inv[i][j] for i, x in enumerate(labels) for j, y in enumerate(labels)
    }


class Model:
    """Immutable finite field-theory model.

    vertex_by_degree maps arity -> value (absent arities count as zero,
    i.e. the coupling vanishes); vertex_by_multiset maps a sorted label tuple
    -> value and is strict: missing entries are model errors.  Exactly one of
    the two must be given.  The degree-0 vertex (the unit monomial) has
    unit_value, so neither table may hold an entry for it, nor for a label
    outside labels.
    """

    def __init__(
        self,
        labels: Sequence[str],
        propagator: Mapping[tuple[str, str], Scalar],
        *,
        vertex_by_degree: Mapping[int, Scalar] | None = None,
        vertex_by_multiset: Mapping[tuple[str, ...], Scalar] | None = None,
        inverse_propagator: Mapping[tuple[str, str], Scalar] | None = None,
        unit_value: Scalar = Fraction(0),
    ) -> None:
        if (vertex_by_degree is None) == (vertex_by_multiset is None):
            raise ModelError("give exactly one of vertex_by_degree / vertex_by_multiset")
        self.labels = tuple(labels)
        if len(set(self.labels)) != len(self.labels):
            raise ModelError("duplicate model labels")
        self.propagator = self._symmetrize(propagator)
        if inverse_propagator is None:
            if not all(isinstance(v, Fraction) for v in self.propagator.values()):
                raise ModelError("automatic inversion needs an exact rational propagator")
            self.inverse_propagator = _invert_symmetric(self.labels, self.propagator)
        else:
            self.inverse_propagator = self._symmetrize(inverse_propagator)
        self.vertex_by_degree = dict(vertex_by_degree) if vertex_by_degree is not None else None
        self.vertex_by_multiset = (
            {tuple(sorted(k)): v for k, v in vertex_by_multiset.items()}
            if vertex_by_multiset is not None
            else None
        )
        if len(self.vertex_by_multiset or ()) < len(vertex_by_multiset or ()):
            raise ModelError("two vertex entries name the same multiset")
        if min(self.vertex_by_degree or [1]) < 1:
            raise ModelError('vertex degrees start at 1: degree 0 takes "unit"')
        for key in self.vertex_by_multiset or ():
            if not key:
                raise ModelError('the empty vertex multiset takes "unit", not a vertex entry')
            if not set(key) <= set(self.labels):
                raise ModelError(f"vertex entry ({','.join(key)}) uses unknown labels")
        self.unit_value = unit_value
        self._sigma_cache: dict[tuple[int, int, Monomial], Scalar] = {}
        self._validate_inverse()
        self._integer_tables = self._scale_to_integers()

    def _symmetrize(self, table: Mapping[tuple[str, str], Scalar]):
        out: dict[tuple[str, str], Scalar] = {}
        for (x, y), value in table.items():
            if x not in self.labels or y not in self.labels:
                raise ModelError(f"table entry ({x},{y}) uses unknown labels")
            for key in ((x, y), (y, x)):
                if key in out and out[key] != value:
                    raise ModelError(f"asymmetric table entry at ({x},{y})")
                out[key] = value
        for x in self.labels:
            for y in self.labels:
                out.setdefault((x, y), Fraction(0))
        return out

    @property
    def is_exact(self) -> bool:
        """True iff every value of the model, unit value included, is a Fraction."""
        values = [self.unit_value, *self.propagator.values(), *self.inverse_propagator.values()]
        if self.vertex_by_degree:
            values += list(self.vertex_by_degree.values())
        if self.vertex_by_multiset:
            values += list(self.vertex_by_multiset.values())
        return all(isinstance(v, Fraction) for v in values)

    def _scale_to_integers(self):
        """(Dg, Dg * inverse propagator, Dv) for an exact model: Dg is the lcm
        of the denominators of the inverse-propagator values and Dv that of
        the vertex values, unit value included, so the scaled inverse
        propagator and Dv times every vertex value are integers.  None for
        any other model."""
        if not self.is_exact:
            return None
        vertex_table = (
            self.vertex_by_degree if self.vertex_by_degree is not None else self.vertex_by_multiset
        )
        vertex_values = [self.unit_value, *vertex_table.values()]  # type: ignore[union-attr]
        dg = math.lcm(*(x.denominator for x in self.inverse_propagator.values()))
        dv = math.lcm(*(x.denominator for x in vertex_values))
        inverse = {
            pair: x.numerator * (dg // x.denominator)
            for pair, x in self.inverse_propagator.items()
        }
        return dg, inverse, dv

    def _validate_inverse(self) -> None:
        exact = self.is_exact
        for x in self.labels:
            for z in self.labels:
                total = sum(
                    self.propagator[(x, y)] * self.inverse_propagator[(y, z)]
                    for y in self.labels
                )
                expected = 1 if x == z else 0
                if exact:
                    ok = total == expected
                else:
                    ok = abs(total - expected) <= FLOAT_TOLERANCE
                if not ok:
                    raise ModelError(
                        f"inverse-propagator identity fails at ({x},{z}): got {total}"
                    )


def _degree_value(model: Model, degree: int) -> Scalar:
    """Vertex value of a degree in a degree model: the unit value at 0, zero
    for a degree the model gives no value."""
    if not degree:
        return model.unit_value
    return model.vertex_by_degree.get(degree, Fraction(0))  # type: ignore[union-attr]


def nu(model: Model, m: Monomial) -> Scalar:
    """Vertex-function value of a monomial; the unit monomial maps to the
    model's degree-0 vertex value (default 0)."""
    if model.vertex_by_degree is not None:
        return _degree_value(model, m.degree)
    if m.is_unit:
        return model.unit_value
    assert model.vertex_by_multiset is not None
    try:
        return model.vertex_by_multiset[m.factors]
    except KeyError:
        raise ModelError(f"no vertex-function entry for {m}") from None


def _parse_scalar(value) -> Scalar:
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise ModelError(f"bad scalar {value!r}") from None
    if isinstance(value, bool):
        raise ModelError(f"bad scalar {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float) and math.isfinite(value):
        return value
    raise ModelError(f"bad scalar {value!r}")


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """json object_pairs_hook refusing a key given twice (json.load keeps the last)."""
    keys = [key for key, _ in pairs]
    twice = sorted({key for key in keys if keys.count(key) > 1})
    if twice:
        raise ModelError(f"keys given twice in one object: {', '.join(twice)}")
    return dict(pairs)


def load_model(source: Union[str, Path, Mapping]) -> Model:
    """Build a model from its JSON document (path or already-parsed mapping).

    Format: {"labels": [...], "propagator": {"x,y": "num/den"},
    "vertex": {"3": "num/den", ...} or {"x,x,y": ...}, optional
    "inverse_propagator" (computed by matrix inversion when absent) and "unit".
    Two vertex entries that name one vertex ("3" and "03", or "a,b" and
    "b,a"), and a key given twice in one object of a file, raise ModelError.
    """
    if isinstance(source, (str, Path)):
        with open(source) as fh:
            doc = json.load(fh, object_pairs_hook=_unique_keys)
    else:
        doc = source
    by_degree: dict[int, Scalar] = {}
    by_multiset: dict[tuple[str, ...], Scalar] = {}
    try:
        if isinstance(doc["labels"], str):
            raise ModelError(f"labels must be a list, got {doc['labels']!r}")
        labels = [str(x) for x in doc["labels"]]
        propagator = {
            tuple(key.split(",")): _parse_scalar(val)
            for key, val in doc["propagator"].items()
        }
        for key, val in doc.get("vertex", {}).items():
            parts = key.split(",")
            if len(parts) == 1 and parts[0].isdigit():
                if int(parts[0]) in by_degree:
                    raise ModelError(f"two vertex entries name degree {int(parts[0])}")
                by_degree[int(parts[0])] = _parse_scalar(val)
            else:
                by_multiset[tuple(parts) if key else ()] = _parse_scalar(val)
        inverse = doc.get("inverse_propagator")
        if inverse is not None:
            inverse = {tuple(k.split(",")): _parse_scalar(v) for k, v in inverse.items()}
        unit = _parse_scalar(doc.get("unit", 0))
    except (KeyError, TypeError, AttributeError) as exc:
        raise ModelError(f"malformed model document: {exc}") from exc
    if by_degree and by_multiset:
        raise ModelError("mix of degree and multiset vertex entries")
    if not by_multiset:
        # An empty vertex table is a free model; degree semantics (missing
        # degrees evaluate to zero) give it a meaning, multiset semantics
        # (strict lookup) would not.
        by_multiset = None  # type: ignore[assignment]
    bad = [pair for table in (propagator, inverse or {}) for pair in table if len(pair) != 2]
    if bad:
        raise ModelError(f"bad propagator keys: {bad}")
    return Model(
        labels,
        propagator,  # type: ignore[arg-type]
        vertex_by_degree=by_degree if by_multiset is None else None,
        vertex_by_multiset=by_multiset,
        inverse_propagator=inverse,  # type: ignore[arg-type]
        unit_value=unit,
    )


def evaluate_graph(model: Model, g: OrderedGraph, weight: Fraction = Fraction(1)) -> Scalar:
    """Value of one graph: sum over assignments of model labels to the internal
    edge ends of the product of one inverse propagator per internal edge and
    the vertex function of every vertex, times the weight.  An external edge
    carries its own name as its model label.  A degree model takes the
    closed form (_degree_closed_form); a multiset model runs _eliminate with
    the externals fixed at their vertices and no free labels."""
    bases: list[tuple[str, ...]] = [()] * g.vertex_count
    for name, vtx in g.externals:
        bases[vtx - 1] += (name,)
    if model.vertex_by_degree is not None:
        degrees = _valences(g.edges, map(len, bases))
        return _degree_closed_form(model, g.vertex_count, len(g.edges), 0, [(degrees, weight)])
    return _eliminate(model, g.vertex_count, g.edges, bases, weight)


def _eliminate(
    model: Model, v: int, edges: tuple[tuple[int, int], ...],
    bases: Sequence[tuple[str, ...]], weight: Fraction | int, free: tuple[str, ...] = (),
) -> Scalar:
    """Value in a multiset model of the graph with v vertices and these
    internal edges whose vertex k also carries the model labels bases[k-1],
    summed over the v^n placements of the n free labels on the vertices, times
    the weight.

    Vertices are eliminated in the order 1..v.  A table maps the labels on
    the placed ends of the edges still open (one end placed, the other at a
    later vertex) to the exact partial sum over everything chosen so far; there
    is one table per count of each distinct free label still to place.  Vertex
    k < v takes any sub-multiset j of the free labels left, in prod_x
    C(left_x, j_x) ways, and vertex v takes all that are left.  Vertex k
    chooses labels for its own ends only, so the work is the sum over k of the
    table sizes times |labels|^(ends at k), not |labels|^(2e) per placement.  A
    partial term is dropped only when one of its own factors is zero; entries
    whose terms cancel stay, and each j extends to a placement, so every
    vertex-function entry that the full enumeration of the placements
    (oracle.brute_force_evaluate_graph) looks up is looked up here too, and a
    missing one raises ModelError alike.

    In a model of Fractions the elimination runs on integers: each inverse
    propagator scaled by Dg and each vertex value by Dv (see
    Model._scale_to_integers), so the total is the value times Dg^e Dv^v and
    one Fraction is built at the end.  Other models keep their own scalars.
    """
    scaled = model._integer_tables
    labels = model.labels
    if scaled is None:
        # dv = 0: the vertex values are used as they are.
        inverse, zero, one, dv = model.inverse_propagator, Fraction(0), Fraction(1), 0
    else:
        dg, inverse, dv = scaled
        zero, one = 0, 1
    names = sorted(set(free))
    vertex_values: dict[tuple[str, ...], Scalar] = {}
    # far[p] is the vertex where the open edge at key position p closes.
    far: list[int] = []
    # tables[left]: the table of the terms that leave left[i] copies of names[i].
    tables: dict[tuple[int, ...], dict] = {tuple(map(free.count, names)): {(): one}}
    for k in range(1, v + 1):
        closing = [p for p, b in enumerate(far) if b == k]
        staying = [p for p, b in enumerate(far) if b != k]
        opening = [b for a, b in edges if a == k < b]
        loops = sum(1 for a, b in edges if a == b == k)
        # ends = labels at k of the closing edges, the opening edges, then
        # both ends of each self-loop.
        first_loop_end = len(closing) + len(opening)
        n_ends = first_loop_end + 2 * loops
        steps: dict[tuple[int, ...], dict] = {}
        for left, table in tables.items():
            # (labels at k, ways, table of the labels left after) per choice j.
            choices = []
            for j in [left] if k == v else itertools.product(*[range(c + 1) for c in left]):
                base = bases[k - 1] + tuple(itertools.chain(*[[x] * c for x, c in zip(names, j)]))
                choices.append((base, math.prod([math.comb(c, i) for c, i in zip(left, j)]),
                                steps.setdefault(tuple([c - i for c, i in zip(left, j)]), {})))
            for key, partial in table.items():
                closed_at = [key[p] for p in closing]
                kept = tuple(key[p] for p in staying)
                for (base, ways, step), ends in itertools.product(
                        choices, itertools.product(labels, repeat=n_ends)):
                    pairs = itertools.chain(
                        zip(closed_at, ends),
                        zip(ends[first_loop_end::2], ends[first_loop_end + 1::2]),
                    )
                    term = partial * ways
                    for pair in pairs:
                        factor = inverse[pair]
                        if not factor:
                            break
                        term = term * factor
                    else:
                        slot = tuple(sorted(base + ends))
                        value = vertex_values.get(slot)
                        if value is None:
                            value = nu(model, Monomial(slot))
                            if dv:
                                value = value.numerator * (dv // value.denominator)
                            vertex_values[slot] = value
                        if value:
                            new_key = kept + ends[len(closing):first_loop_end]
                            step[new_key] = step.get(new_key, zero) + term * value
        tables = steps
        far = [far[p] for p in staying] + opening
    total = tables.get((0,) * len(names), {}).get((), zero)
    if scaled is None:
        return weight * total
    return Fraction(total * weight.numerator, weight.denominator * dg ** len(edges) * dv ** v)


def evaluate_graph_sum(model: Model, s: GraphSum) -> Scalar:
    total: Scalar = Fraction(0)
    for g, c in s.items():
        total = total + evaluate_graph(model, g, c)
    return total


def _valences(edges: tuple[tuple[int, int], ...], labels_at) -> list[int]:
    """Valence of each vertex 1..v, v = len(labels_at): its internal edge ends
    (two for a self-loop) plus labels_at[k-1] labels, in one pass over the
    edges."""
    degree = [0, *labels_at]
    for a, b in edges:
        degree[a] += 1
        degree[b] += 1
    return degree[1:]


def _degree_closed_form(
    model: Model, v: int, e: int, n: int,
    graphs: Collection[tuple[Sequence[int], Fraction | int]],
) -> Scalar:
    """Sum over (degrees, weight) of weight times the value, summed over the
    v^n placements of n labels, of a graph with v vertices of these valences
    and e internal edges in a degree model.  A vertex value depends on the
    valence only, so the label sum factors edge by edge: prod_k nu(d_k) S^e,
    S the inverse propagator summed over ordered label pairs.  An exact model
    sums on its integer tables (Model._scale_to_integers) and builds one
    Fraction at the end; any other keeps its own scalars."""
    top = max([max(degrees) for degrees, _ in graphs]) + n
    values = [_degree_value(model, d) for d in range(top + 1)]
    scaled = model._integer_tables
    if scaled is not None:
        dg, inverse, dv = scaled
        values = [x.numerator * (dv // x.denominator) for x in values]
    total = sum([w * _placement_sum([values[d:] for d in degrees], n) for degrees, w in graphs])
    if scaled is None:
        return total * sum(model.inverse_propagator.values()) ** e
    return Fraction(total * sum(inverse.values()) ** e, dg**e * dv**v)


def planned_eliminations(model: Model, l: int, v: int, externals: Monomial = ONE) -> int:
    """The work sigma_lv(model, l, v, externals) eliminates, counted before any
    is done: none at v = 0 or in a degree model (_degree_closed_form), else
    the classes of the vacuum cell it reads, one elimination each, times the
    states of the labels left that its table keys carry, prod_x (k_x + 1) for
    a label x repeated k_x times."""
    if not v or model.vertex_by_degree is not None:
        return 0
    factors = externals.factors
    return len(omega_classes(l, v)) * math.prod([factors.count(x) + 1 for x in set(factors)])


def sigma_lv(model: Model, l: int, v: int, externals: Monomial = ONE) -> Scalar:
    """l-loop, v-vertex grade of the connected n-point function, the value of
    omega_classes(l, v, externals); the externals are model labels and may
    repeat (x*x is a 2-point function of a one-label model).  As omega(l, v,
    m) = distribute(omega(l, v), iterated_coproduct(m, v-1)) and renumbering
    keeps a graph's value, this is the sum over the vacuum classes (g, w) of
    w times g's value summed over the v^n placements of the labels on its
    vertices.  No labelled cell is built.

    The vertex-free grade (v = 0) has no graph: it is the bare propagator on
    two model labels at l = 0 (ModelError for other labels) and zero
    otherwise.

    In a degree model the classes' values and their sum over the placements
    are a closed form (_degree_closed_form) in the valences, so the classes
    with the same sorted valences are summed first and nothing is eliminated.
    A multiset model runs one elimination per class, which sums over the
    placements itself (_eliminate with the labels free)."""
    if v == 0:
        if l or externals.degree != 2:
            return Fraction(0)
        x, y = externals.factors
        if x not in model.labels or y not in model.labels:
            raise ModelError(
                f"the v=0 grade needs external labels that are model labels "
                f"({','.join(model.labels)}); got {x},{y}"
            )
        return model.propagator[(x, y)]
    if model.vertex_by_degree is not None:
        groups: dict[tuple[int, ...], Fraction] = {}
        for g, w in omega_classes(l, v).items():
            degrees = tuple(sorted(_valences(g.edges, [0] * v)))
            groups[degrees] = groups.get(degrees, 0) + w
        return _degree_closed_form(model, v, l + v - 1, externals.degree, groups.items())
    total: Scalar = Fraction(0)
    for g, w in omega_classes(l, v).items():
        total = total + _eliminate(model, v, g.edges, [()] * v, w, externals.factors)
    return total


def sigma_recursive(model: Model, l: int, v: int, externals: Monomial = ONE) -> Scalar:
    """Same grade as sigma_lv, computed by the scalar-level recursion that
    never builds graphs: self-loop closures and vertex splits act directly on
    monomials weighted by inverse-propagator values."""
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
        total: Scalar = Fraction(0)
        if l > 0:
            acc: Scalar = Fraction(0)
            for x in model.labels:
                for y in model.labels:
                    ginv = model.inverse_propagator[(x, y)]
                    if not ginv:
                        continue
                    acc = acc + ginv * sigma_recursive(
                        model, l - 1, v, externals * Monomial.of(x, y)
                    )
            total = total + acc / 2
        if v > 1:
            from .hopf import coproduct  # here, so that evaluate does not load hopf

            acc = Fraction(0)
            split = list(coproduct(externals).items())
            for x in model.labels:
                for y in model.labels:
                    ginv = model.inverse_propagator[(x, y)]
                    if not ginv:
                        continue
                    for term, pc in split:
                        left, right = term.slots
                        lx = left * Monomial.of(x)
                        ry = right * Monomial.of(y)
                        inner: Scalar = Fraction(0)
                        for a in range(l + 1):
                            for b in range(1, v):
                                sl = sigma_recursive(model, a, b, lx)
                                if not sl:
                                    continue
                                sr = sigma_recursive(model, l - a, v - b, ry)
                                inner = inner + sl * sr
                        acc = acc + ginv * pc * inner
            total = total + acc / 2
        result = total / (l + v - 1)
    model._sigma_cache[key] = result
    return result

