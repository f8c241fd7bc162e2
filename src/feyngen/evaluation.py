"""Finite-model Feynman rules: vertex functions, graph values and n-point grades.

A model is a finite label set with a symmetric propagator table, its kernel
inverse and a vertex-function table (per degree for the common phi^k case, or
per label multiset).  Evaluation is a finite sum over assignments of model
labels to internal edge ends.  Rational models evaluate exactly.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from pathlib import Path
from typing import Mapping, Sequence, Union

from .algebra import ONE, Monomial, coproduct
from .graphs import OrderedGraph
from .recursion import DEFAULT_OPTIONS, GenOptions, GraphSum, omega

Scalar = Union[Fraction, float]

FLOAT_TOLERANCE = 1e-12


class ModelError(ValueError):
    """Invalid model data (bad tables, failed inverse-propagator identity)."""


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
    the two must be given.
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
        self.unit_value = unit_value
        self._sigma_cache: dict[tuple[int, int, Monomial], Scalar] = {}
        self._validate_inverse()

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
        values = list(self.propagator.values()) + list(self.inverse_propagator.values())
        if self.vertex_by_degree:
            values += list(self.vertex_by_degree.values())
        if self.vertex_by_multiset:
            values += list(self.vertex_by_multiset.values())
        return all(isinstance(v, Fraction) for v in values)

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

    def propagator_value(self, x: str, y: str) -> Scalar:
        try:
            return self.propagator[(x, y)]
        except KeyError:
            raise ModelError(f"no propagator entry for ({x},{y})") from None

    def inverse_value(self, x: str, y: str) -> Scalar:
        try:
            return self.inverse_propagator[(x, y)]
        except KeyError:
            raise ModelError(f"no inverse-propagator entry for ({x},{y})") from None


def nu(model: Model, m: Monomial) -> Scalar:
    """Vertex-function value of a monomial; the unit monomial maps to the
    model's degree-0 vertex value (default 0)."""
    if m.is_unit:
        return model.unit_value
    if model.vertex_by_degree is not None:
        return model.vertex_by_degree.get(m.degree, Fraction(0))
    assert model.vertex_by_multiset is not None
    try:
        return model.vertex_by_multiset[m.factors]
    except KeyError:
        raise ModelError(f"no vertex-function entry for {m}") from None


def _parse_scalar(value) -> Scalar:
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, bool):
        raise ModelError(f"bad scalar {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return value
    raise ModelError(f"bad scalar {value!r}")


def load_model(source: Union[str, Path, Mapping]) -> Model:
    """Build a model from its JSON document (path or already-parsed mapping).

    Format: {"labels": [...], "propagator": {"x,y": "num/den"},
    "vertex": {"3": "num/den", ...} or {"x,x,y": ...}, optional
    "inverse_propagator" (computed by matrix inversion when absent) and "unit".
    """
    if isinstance(source, (str, Path)):
        with open(source) as fh:
            doc = json.load(fh)
    else:
        doc = source
    try:
        labels = [str(x) for x in doc["labels"]]
        propagator = {
            tuple(key.split(",")): _parse_scalar(val)
            for key, val in doc["propagator"].items()
        }
        vertex_raw = doc.get("vertex", {})
    except (KeyError, TypeError, AttributeError) as exc:
        raise ModelError(f"malformed model document: {exc}") from exc
    by_degree: dict[int, Scalar] = {}
    by_multiset: dict[tuple[str, ...], Scalar] = {}
    for key, val in vertex_raw.items():
        parts = key.split(",")
        if len(parts) == 1 and parts[0].isdigit():
            by_degree[int(parts[0])] = _parse_scalar(val)
        else:
            by_multiset[tuple(parts)] = _parse_scalar(val)
    if by_degree and by_multiset:
        raise ModelError("mix of degree and multiset vertex entries")
    if not by_multiset:
        # An empty vertex table is a free model; degree semantics (missing
        # degrees evaluate to zero) give it a meaning, multiset semantics
        # (strict lookup) would not.
        by_multiset = None  # type: ignore[assignment]
    inverse = doc.get("inverse_propagator")
    if inverse is not None:
        inverse = {tuple(k.split(",")): _parse_scalar(v) for k, v in inverse.items()}
    bad = [pair for pair in propagator if len(pair) != 2]
    if bad:
        raise ModelError(f"bad propagator keys: {bad}")
    return Model(
        labels,
        propagator,  # type: ignore[arg-type]
        vertex_by_degree=by_degree if by_multiset is None else None,
        vertex_by_multiset=by_multiset,
        inverse_propagator=inverse,  # type: ignore[arg-type]
        unit_value=_parse_scalar(doc.get("unit", 0)),
    )


def evaluate_graph(model: Model, g: OrderedGraph, weight: Fraction = Fraction(1)) -> Scalar:
    """Value of one graph: sum over internal label assignments of the product
    of vertex functions and one inverse propagator per internal edge, times
    the weight."""
    edges = g.edges
    base: list[list[str]] = [[] for _ in range(g.vertex_count)]
    for lab, vtx in g.externals:
        base[vtx - 1].append(lab)
    pair_choices = [
        [(x, y, model.inverse_value(x, y)) for x in model.labels for y in model.labels]
        for _ in edges
    ]
    total: Scalar = Fraction(0)
    for combo in itertools.product(*pair_choices):
        factor: Scalar = Fraction(1)
        for _, _, ginv in combo:
            factor = factor * ginv
        if not factor:
            continue
        slots = [list(b) for b in base]
        for (a, b), (x, y, _) in zip(edges, combo):
            slots[a - 1].append(x)
            slots[b - 1].append(y)
        for slot in slots:
            factor = factor * nu(model, Monomial(tuple(slot)))
            if not factor:
                break
        total = total + factor
    return weight * total


def evaluate_graph_sum(model: Model, s: GraphSum) -> Scalar:
    total: Scalar = Fraction(0)
    for g, c in s.items():
        total = total + evaluate_graph(model, g, c)
    return total


def sigma_lv(
    model: Model,
    l: int,
    v: int,
    externals: Monomial = ONE,
    opts: GenOptions = DEFAULT_OPTIONS,
) -> Scalar:
    """l-loop, v-vertex grade of the connected n-point function: apply the
    vertex functions to every slot of the generated graph sum."""
    return evaluate_graph_sum(model, omega(l, v, externals, opts).canonical_merge())


def sigma_zero_vertex(model: Model, l: int, externals: Monomial) -> Scalar:
    """Zero-vertex sector: the bare propagator on degree-2 monomials at l = 0,
    zero otherwise."""
    if l == 0 and externals.degree == 2:
        x, y = externals.factors
        return model.propagator_value(x, y)
    return Fraction(0)


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


class NPointTable:
    """Grades (l, v) of the connected n-point functions of one model,
    including the zero-vertex propagator sector."""

    def __init__(self, model: Model) -> None:
        self.model = model

    def value(self, l: int, v: int, externals: Monomial = ONE) -> Scalar:
        if v == 0:
            return sigma_zero_vertex(self.model, l, externals)
        return sigma_lv(self.model, l, v, externals)

    def loop_total(self, l: int, max_vertices: int, externals: Monomial = ONE) -> Scalar:
        total: Scalar = Fraction(0)
        for v in range(0, max_vertices + 1):
            total = total + self.value(l, v, externals)
        return total
