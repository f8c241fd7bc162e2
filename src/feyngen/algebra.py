"""Symmetric-algebra layer: label monomials and exact weighted sums.

The time-ordered product of field operators is commutative, so a product of
labeled operators is just a multiset of labels.  Everything here is exact:
coefficients are ``fractions.Fraction`` (or integers, see ExactSum) and all
values are immutable.  Tensor terms and the coproduct family live in hopf,
which the generator does not load.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Callable, Hashable, Iterable, Iterator, Mapping


# The package's two error classes, and the JSON hook that raises one of them,
# live in its lowest layer, so that the command line maps them to exit codes
# without importing evaluation or oracle.

class ModelError(ValueError):
    """Invalid model data (bad tables, failed inverse-propagator identity)."""


class ResourceLimitError(RuntimeError):
    """Requested enumeration exceeds the configured size limit."""


def _unique_keys(error: type[ValueError]) -> Callable[[list[tuple[str, object]]], dict]:
    """A json object_pairs_hook that raises error on a key given twice in one
    object (json.load keeps the last): ModelError for a model file,
    ValueError for a graph-sum file."""

    def hook(pairs: list[tuple[str, object]]) -> dict:
        keys = [key for key, _ in pairs]
        twice = sorted({key for key in keys if keys.count(key) > 1})
        if twice:
            raise error(f"keys given twice in one object: {', '.join(twice)}")
        return dict(pairs)

    return hook


class Frozen:
    """Base of the package's immutable value classes.

    Each subclass lists its fields in __slots__, in the order of its
    __init__ parameters, and sets each one once in __init__ through
    object.__setattr__.  __eq__, __hash__ and __repr__ here work over those
    fields; OrderedGraph and Monomial, which key every cell dict, spell
    theirs out, since the loop over __slots__ makes a hash several times
    slower.  Assigning or deleting an attribute raises AttributeError.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__slots__])
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        # Rebuild through __init__ (copy, pickle): there is no attribute to set.
        return type(self), self._fields()


class Monomial(Frozen):
    """Commutative product of field-operator labels, stored as a sorted multiset.

    The empty monomial is the unit of the algebra.
    """

    __slots__ = ("factors",)

    def __init__(self, factors: Iterable[str] = ()) -> None:
        object.__setattr__(self, "factors", tuple(sorted(factors)))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.factors == other.factors

    def __hash__(self) -> int:
        return hash((self.factors,))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(factors={self.factors!r})"

    @classmethod
    def of(cls, *labels: str) -> "Monomial":
        return cls(labels)

    @property
    def degree(self) -> int:
        return len(self.factors)

    @property
    def is_unit(self) -> bool:
        return not self.factors

    def has_distinct_factors(self) -> bool:
        return len(set(self.factors)) == len(self.factors)

    def __mul__(self, other: "Monomial") -> "Monomial":
        return Monomial(self.factors + other.factors)

    def __str__(self) -> str:
        return "*".join(self.factors) if self.factors else "1"


#: The unit monomial.
ONE = Monomial()

_ZERO = Fraction(0)


def _accumulated(terms: Iterable[tuple[Hashable, Fraction]]) -> dict:
    """The terms with equal terms' coefficients added and zero sums dropped.
    A term's first coefficient is stored as given, whatever its number type;
    coefficients are added only when the term is already present."""
    acc: dict = {}
    for term, coeff in terms:
        old = acc.get(term)
        if old is not None:
            coeff = old + coeff
        if coeff:
            acc[term] = coeff
        elif old is not None:
            del acc[term]
    return acc


class ExactSum:
    """Finite sum of hashable terms with exact rational weights, all of one grade.

    Equal terms merge by adding their coefficients and zero coefficients are
    never stored.  The first coefficient of a term is stored as given, so the
    sum keeps the number type of its input: the public sums hold Fractions,
    while a sum built from integer coefficients stays integer.  A subclass
    names the grade (a tensor rank, a vertex count) and checks it and every
    incoming term in ``_checked``.  Instances are immutable.
    """

    __slots__ = ("_grade", "_terms")

    def __init__(
        self,
        grade: int,
        terms: Mapping[Hashable, Fraction] | Iterable[tuple[Hashable, Fraction]] = (),
    ) -> None:
        items = terms.items() if isinstance(terms, Mapping) else terms
        self._grade = grade
        self._terms = _accumulated(self._checked(grade, items))

    def _checked(self, grade: int, items: Iterable[tuple]) -> Iterator[tuple]:
        """Validate the grade, then pass on the items, validating each one."""
        raise NotImplementedError

    def items(self) -> Iterator[tuple]:
        return iter(self._terms.items())

    def coefficient(self, term: Hashable) -> Fraction:
        return self._terms.get(term, _ZERO)

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._grade == other._grade and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self._grade, frozenset(self._terms.items())))

    def __add__(self, other: "ExactSum") -> "ExactSum":
        if self._grade != other._grade:
            raise ValueError(f"grade mismatch in sum: {self._grade} != {other._grade}")
        return type(self)(self._grade, itertools.chain(self.items(), other.items()))

    def scaled(self, factor: Fraction) -> "ExactSum":
        if not factor:
            return type(self)(self._grade)
        return type(self)(self._grade, ((t, c * factor) for t, c in self._terms.items()))
