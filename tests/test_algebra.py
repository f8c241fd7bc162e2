import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feyngen.algebra import ONE, Monomial
from feyngen.hopf import (
    TensorTerm,
    WeightedTensorSum,
    coproduct,
    iterated_coproduct,
    tensor_multiply,
)

LABELS = ["x1", "x2", "x3", "x4", "x5", "x6"]

distinct_monomials = st.integers(min_value=0, max_value=6).map(
    lambda n: Monomial(tuple(LABELS[:n]))
)


def term(*slot_labels):
    return TensorTerm(tuple(Monomial.of(*labels) for labels in slot_labels))


def test_monomial_is_order_insensitive():
    assert Monomial.of("y", "x") == Monomial.of("x", "y")
    assert Monomial.of("x") * Monomial.of("y", "x") == Monomial.of("x", "x", "y")
    assert ONE.is_unit and ONE.degree == 0


def test_coproduct_of_unit():
    assert coproduct(ONE) == WeightedTensorSum(2, {term((), ()): Fraction(1)})


def test_coproduct_of_single_label():
    got = coproduct(Monomial.of("x"))
    assert got == WeightedTensorSum(
        2, {term(("x",), ()): Fraction(1), term((), ("x",)): Fraction(1)}
    )


def test_coproduct_of_two_labels():
    got = coproduct(Monomial.of("x", "y"))
    expected = WeightedTensorSum(
        2,
        {
            term(("x", "y"), ()): Fraction(1),
            term(("x",), ("y",)): Fraction(1),
            term(("y",), ("x",)): Fraction(1),
            term((), ("x", "y")): Fraction(1),
        },
    )
    assert got == expected


@given(distinct_monomials)
def test_coproduct_term_count(m):
    assert len(coproduct(m)) == 2**m.degree


def test_iterated_coproduct_is_identity_at_zero():
    m = Monomial.of("x", "y")
    assert iterated_coproduct(m, 0) == WeightedTensorSum(1, {TensorTerm.of(m): Fraction(1)})


def test_iterated_coproduct_singleton_three_slots():
    got = iterated_coproduct(Monomial.of("x"), 2)
    expected = WeightedTensorSum(
        3,
        {
            term(("x",), (), ()): Fraction(1),
            term((), ("x",), ()): Fraction(1),
            term((), (), ("x",)): Fraction(1),
        },
    )
    assert got == expected


def test_iterated_coproduct_count_and_unit_coefficients():
    # 3^2 ordered placements of two distinguishable factors.
    got = iterated_coproduct(Monomial.of("x", "y"), 2)
    assert len(got) == 9
    assert all(c == 1 for _, c in got.items())


@given(distinct_monomials, st.integers(min_value=0, max_value=3))
@settings(max_examples=40, deadline=None)
def test_iterated_coproduct_counting(m, k):
    assert sum(c for _, c in iterated_coproduct(m, k).items()) == (k + 1) ** m.degree


@given(distinct_monomials)
@settings(max_examples=30, deadline=None)
def test_coassociativity(m):
    # Splitting the left slot again agrees with splitting the right slot again.
    base = coproduct(m)
    left: dict[TensorTerm, Fraction] = {}
    right: dict[TensorTerm, Fraction] = {}
    for t, c in base.items():
        for t2, c2 in coproduct(t.slots[0]).items():
            key = TensorTerm.of(t2.slots[0], t2.slots[1], t.slots[1])
            left[key] = left.get(key, Fraction(0)) + c * c2
        for t2, c2 in coproduct(t.slots[1]).items():
            key = TensorTerm.of(t.slots[0], t2.slots[0], t2.slots[1])
            right[key] = right.get(key, Fraction(0)) + c * c2
    assert WeightedTensorSum(3, left) == WeightedTensorSum(3, right)
    assert WeightedTensorSum(3, left) == iterated_coproduct(m, 2)


@given(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
)
@settings(max_examples=25, deadline=None)
def test_coproduct_is_multiplicative(n1, n2):
    m1 = Monomial(tuple(LABELS[:n1]))
    m2 = Monomial(tuple(LABELS[3 : 3 + n2]))
    assert coproduct(m1 * m2) == tensor_multiply(coproduct(m1), coproduct(m2))


def test_coproduct_merges_repeated_labels():
    got = coproduct(Monomial.of("x", "x"))
    assert got.coefficient(term(("x",), ("x",))) == 2
    assert got.coefficient(term(("x", "x"), ())) == 1


@pytest.mark.parametrize("factors", ["xxxxx", "xxy", "xyyzz", "xxxxyy"])
def test_iterated_coproduct_merges_every_placement(factors):
    # Repeated factors: the sum over every placement of the factors into the
    # k+1 blocks, one by one.
    m = Monomial(tuple(factors))
    for k in range(4):
        placements = []
        for placement in itertools.product(range(k + 1), repeat=m.degree):
            blocks = [[f for f, slot in zip(m.factors, placement) if slot == j]
                      for j in range(k + 1)]
            placements.append((TensorTerm(tuple(Monomial(tuple(b)) for b in blocks)), Fraction(1)))
        expected = WeightedTensorSum(k + 1, placements)
        assert iterated_coproduct(m, k) == expected, k


def test_tensor_multiply_examples():
    a = WeightedTensorSum(2, {term(("x",), ()): Fraction(1)})
    b = WeightedTensorSum(2, {term((), ("y",)): Fraction(1)})
    assert tensor_multiply(a, b) == WeightedTensorSum(2, {term(("x",), ("y",)): Fraction(1)})

    c = WeightedTensorSum(2, {term(("x",), ("y",)): Fraction(1)})
    d = WeightedTensorSum(2, {term(("z",), ()): Fraction(1)})
    assert tensor_multiply(c, d) == WeightedTensorSum(
        2, {term(("x", "z"), ("y",)): Fraction(1)}
    )

    e = WeightedTensorSum(2, {term(("x",), ()): Fraction(1, 2)})
    f = WeightedTensorSum(2, {term(("y",), ()): Fraction(1, 3)})
    assert tensor_multiply(e, f) == WeightedTensorSum(
        2, {term(("x", "y"), ()): Fraction(1, 6)}
    )


def test_tensor_multiply_rank_mismatch():
    a = WeightedTensorSum(2, {term((), ()): Fraction(1)})
    b = WeightedTensorSum(3, {term((), (), ()): Fraction(1)})
    with pytest.raises(ValueError):
        tensor_multiply(a, b)


def test_no_zero_coefficients_stored():
    t = term(("x",), ())
    s = WeightedTensorSum(2, [(t, Fraction(1)), (t, Fraction(-1))])
    assert len(s) == 0 and not s


def test_first_coefficient_of_a_term_is_stored_as_given():
    t, u = term(("x",), ()), term((), ("x",))
    s = WeightedTensorSum(2, [(t, 0), (t, 1), (t, -1), (t, 2)])
    assert s.coefficient(t) == 2 and len(s) == 1
    cancelled = WeightedTensorSum(2, [(t, Fraction(1, 2)), (u, 1), (t, Fraction(-1, 2))])
    assert cancelled.coefficient(t) == 0 and list(cancelled.items()) == [(u, 1)]
    ints = WeightedTensorSum(2, [(t, 1), (u, 2), (t, 3)])
    assert dict(ints.items()) == {t: 4, u: 2}
    assert all(type(c) is int for _, c in ints.items())
