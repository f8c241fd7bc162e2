"""Finite-model Feynman rules: models, vertex functions and n-point grades.

A model is a finite label set with a symmetric propagator table, its kernel
inverse and a vertex-function table (per degree for the common phi^k case, or
per label multiset).  A graph's value is a finite sum over assignments of
model labels to its internal edge ends.  In a degree model the sum factors
edge by edge and the value is a closed form (_degree_closed_form); in a
multiset model it is computed by eliminating one vertex at a time
(elimination._eliminate).  Rational models evaluate exactly.  An n-point
grade (sigma_lv) is the vacuum class cell evaluated with the external labels
(model labels) placed on its vertices in every way: in closed form in a
degree model, else one elimination per class, whose table also carries the
labels still to place; the vertex-free grade is the bare propagator.

The elimination and the values of single graphs (evaluate_graph) are in
elimination, which a degree model's grades never load; the scalar recursion
sigma_recursive, which checks sigma_lv without graphs, is in hopf.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path
from typing import Collection, Mapping, Sequence, Union

from .algebra import ONE, ModelError, Monomial, _unique_keys
from .recursion import _placement_sum, _valences, omega_classes

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
            doc = json.load(fh, object_pairs_hook=_unique_keys(ModelError))
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
    placements itself (elimination._eliminate with the labels free).

    An inexact model's zero grade is the float 0.0, whatever zero its sum
    came to (a vertex value the model leaves out, a sum with no term, the
    vertex-free grade), so that its zero grades print as floats."""
    if v == 0 and not l and externals.degree == 2:
        x, y = externals.factors
        if x not in model.labels or y not in model.labels:
            raise ModelError(
                f"the v=0 grade needs external labels that are model labels "
                f"({','.join(model.labels)}); got {x},{y}"
            )
        value = model.propagator[(x, y)]
    elif v == 0:
        value = Fraction(0)
    elif model.vertex_by_degree is not None:
        groups: dict[tuple[int, ...], Fraction] = {}
        for g, w in omega_classes(l, v).items():
            degrees = tuple(sorted(_valences(g)))
            groups[degrees] = groups.get(degrees, 0) + w
        value = _degree_closed_form(model, v, l + v - 1, externals.degree, groups.items())
    else:
        from .elimination import _eliminate  # here, so that a degree model does not load it

        value = Fraction(0)
        for g, w in omega_classes(l, v).items():
            value = value + _eliminate(model, v, g.edges, [()] * v, w, externals.factors)
    if value or isinstance(value, float) or model._integer_tables is not None:
        return value
    return 0.0
