from fractions import Fraction

import pytest

from feyngen import Model


@pytest.fixture(scope="session")
def phi3_model():
    g = Fraction(1, 3)
    lam = Fraction(5, 7)
    return Model(("x",), {("x", "x"): g}, vertex_by_degree={3: lam * g**3})


@pytest.fixture(scope="session")
def phi4_model():
    g = Fraction(2, 5)
    lam = Fraction(3)
    return Model(("x",), {("x", "x"): g}, vertex_by_degree={4: lam * g**4})


@pytest.fixture(scope="session")
def two_label_model():
    # Degree-symmetric vertices over a non-diagonal 2x2 propagator.
    prop = {
        ("a", "a"): Fraction(2),
        ("a", "b"): Fraction(1, 2),
        ("b", "b"): Fraction(1),
    }
    return Model(
        ("a", "b"),
        prop,
        vertex_by_degree={1: Fraction(1, 5), 3: Fraction(1, 2), 4: Fraction(2, 7)},
    )


@pytest.fixture(scope="session")
def multiset_vertex_table():
    # A label-dependent value for every multiset of a, b up to degree 10, the
    # largest vertex degree of the graphs and recursion cells the tests reach.
    return {
        ("a",) * i + ("b",) * (d - i): Fraction(1 + i, 2 + i + 2 * (d - i))
        for d in range(1, 11)
        for i in range(d + 1)
    }


@pytest.fixture(scope="session")
def multiset_model(multiset_vertex_table):
    prop = {
        ("a", "a"): Fraction(2),
        ("a", "b"): Fraction(1, 2),
        ("b", "b"): Fraction(1),
    }
    return Model(("a", "b"), prop, vertex_by_multiset=multiset_vertex_table)


@pytest.fixture(scope="session")
def partial_multiset_model(multiset_vertex_table):
    # a*a*b*b is missing and every entry with an odd number of b's is zero, so
    # some graphs raise ModelError and zero factors cut other lookups short.
    table = {
        k: (Fraction(0) if k.count("b") % 2 else c)
        for k, c in multiset_vertex_table.items()
        if k != ("a", "a", "b", "b")
    }
    prop = {("a", "a"): Fraction(2), ("a", "b"): Fraction(1, 2), ("b", "b"): Fraction(1)}
    return Model(("a", "b"), prop, vertex_by_multiset=table)


@pytest.fixture(scope="session")
def float_multiset_model(multiset_vertex_table):
    # Positive inverse propagator and vertex values: no cancellation, so two
    # summation orders agree to a relative tolerance.
    return Model(
        ("a", "b"),
        {("a", "a"): 4 / 7, ("a", "b"): -2 / 7, ("b", "b"): 8 / 7},
        inverse_propagator={("a", "a"): 2.0, ("a", "b"): 0.5, ("b", "b"): 1.0},
        vertex_by_multiset={k: float(c) for k, c in multiset_vertex_table.items()},
    )
