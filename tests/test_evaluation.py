import itertools
import math
from fractions import Fraction

import pytest

from feyngen import elimination, evaluation, recursion
from feyngen.algebra import ONE, Monomial
from feyngen.elimination import evaluate_graph
from feyngen.evaluation import (
    FLOAT_TOLERANCE,
    Model,
    ModelError,
    load_model,
    nu,
    planned_eliminations,
    sigma_lv,
)
from feyngen.graphs import OrderedGraph
from feyngen.hopf import iterated_coproduct, sigma_recursive
from feyngen.invariants import permute_vertices
from feyngen.oracle import brute_force_evaluate_graph

XY = Monomial.of("x1", "x2")

#: External labels per model for TestSigma.test_recursive_matches_graph_sum;
#: the multiset model's vertex values depend on the labels, so it checks how
#: the labels are placed on the vertices, repeated labels included; the
#: two-label model adds repeated-label 4- and 6-point grades.  Its float
#: twins take the same labels, the multiset twin model labels only.
RECURSION_EXTERNALS = {
    "phi3_model": ["", "x1", "x1,x2", "x,x", "x,x,x"],
    "two_label_model": ["", "x1", "x1,x2", "a,a,b,b", "a,b,a,b,a,b"],
    "multiset_model": ["", "a", "b", "a,a", "a,b", "b,b", "a,a,b"],
    "float_two_label_model": ["", "x1", "x1,x2", "a,a,b,b", "a,b,a,b,a,b"],
    "float_two_label_twin": ["", "a", "b", "a,a", "a,b", "b,b", "a,a,b", "a,a,b,b",
                             "a,b,a,b,a,b"],
}

#: External labels per degree model for TestDegreeClosedForm: 0-4 labels,
#: repeated ones included; the multiset twin needs model labels.
TWIN_EXTERNALS = {
    "phi3_model": ["", "x", "x,x", "x,x,x", "x,x,x,x"],
    "phi4_model": ["", "x", "x,x", "x,x,x", "x,x,x,x"],
    "two_label_model": ["", "a", "a,b", "b,b", "a,a,b", "a,a,b,b"],
}


def multiset_twin(model: Model, top: int) -> Model:
    """The multiset model with the degree model's labels, propagator and unit
    value that gives every multiset of up to top labels its degree's value,
    zero for a degree the degree model leaves out.  Its values are the degree
    model's, but it evaluates them by elimination."""
    table = {
        labels: nu(model, Monomial(labels))
        for d in range(1, top + 1)
        for labels in itertools.combinations_with_replacement(model.labels, d)
    }
    return Model(model.labels, model.propagator, vertex_by_multiset=table,
                 unit_value=model.unit_value)


def float_twin(model: Model) -> Model:
    """The model with every value, its inverse propagator included, as a float."""
    def floats(table):
        return {key: float(x) for key, x in table.items()}

    vertex = ({"vertex_by_degree": floats(model.vertex_by_degree)}
              if model.vertex_by_degree is not None
              else {"vertex_by_multiset": floats(model.vertex_by_multiset)})
    return Model(model.labels, floats(model.propagator),
                 inverse_propagator=floats(model.inverse_propagator),
                 unit_value=float(model.unit_value), **vertex)


@pytest.fixture(scope="module")
def float_two_label_model(two_label_model):
    """The float twin of two_label_model (benchmark/two_label_model.json,
    TWO_LABEL_FLOAT in test_cli)."""
    return float_twin(two_label_model)


@pytest.fixture(scope="module")
def float_two_label_twin(two_label_model):
    """The float multiset twin of two_label_model: every multiset of a, b up
    to degree 12, six labels on a 6-valent vertex, has its degree's value,
    zeros included."""
    return float_twin(multiset_twin(two_label_model, 12))


def sum_over_placements(model: Model, l: int, v: int, m: Monomial):
    """sigma_lv computed placement by placement: over the vacuum classes (g, w)
    and the terms (t, c) of the iterated coproduct of m into v slots, w c
    times g's value with the labels of slot k fixed at vertex k."""
    placements = list(iterated_coproduct(m, v - 1).items())
    total = Fraction(0)
    for g, w in recursion.omega_classes(l, v).items():
        for t, c in placements:
            bases = [slot.factors for slot in t.slots]
            total = total + w * c * elimination._eliminate(model, v, g.edges, bases, 1)
    return total


def value_or_error(evaluate, *args):
    try:
        return evaluate(*args)
    except ModelError:
        return ModelError


class TestModel:
    def test_computes_inverse_automatically(self, two_label_model):
        m = two_label_model
        for x in m.labels:
            for z in m.labels:
                total = sum(
                    m.propagator[(x, y)] * m.inverse_propagator[(y, z)] for y in m.labels
                )
                assert total == (1 if x == z else 0)

    def test_rejects_failed_inverse_identity(self):
        with pytest.raises(ModelError):
            Model(
                ("x",),
                {("x", "x"): Fraction(2)},
                inverse_propagator={("x", "x"): Fraction(1)},
                vertex_by_degree={3: Fraction(1)},
            )

    def test_rejects_singular_propagator(self):
        with pytest.raises(ModelError):
            Model(("x",), {("x", "x"): Fraction(0)}, vertex_by_degree={3: Fraction(1)})

    def test_rejects_asymmetric_table(self):
        with pytest.raises(ModelError):
            Model(
                ("a", "b"),
                {("a", "b"): Fraction(1), ("b", "a"): Fraction(2), ("a", "a"): Fraction(1), ("b", "b"): Fraction(1)},
                vertex_by_degree={3: Fraction(1)},
            )

    def test_float_tolerance(self):
        m = Model(
            ("x",),
            {("x", "x"): 0.5},
            inverse_propagator={("x", "x"): 2.0},
            vertex_by_degree={3: 1.0},
        )
        assert not m.is_exact

    def test_needs_exactly_one_vertex_table(self):
        prop = {("x", "x"): Fraction(1)}
        with pytest.raises(ModelError, match="exactly one"):
            Model(("x",), prop)
        with pytest.raises(ModelError, match="exactly one"):
            Model(("x",), prop, vertex_by_degree={3: Fraction(1)},
                  vertex_by_multiset={("x", "x", "x"): Fraction(1)})

    def test_float_unit_value_is_inexact(self):
        rational = {"labels": ["x"], "propagator": {"x,x": "1"}, "vertex": {"3": "1"}}
        models = [
            Model(("x",), {("x", "x"): Fraction(1)}, vertex_by_degree={3: Fraction(1)},
                  unit_value=0.5),
            load_model({**rational, "unit": 0.5}),
        ]
        for m in models:
            assert not m.is_exact and m._integer_tables is None
            assert sigma_lv(m, 0, 1) == 0.5
        assert load_model({**rational, "unit": "1/2"}).is_exact

    def test_loader_round_trip(self, tmp_path):
        doc = {
            "labels": ["x"],
            "propagator": {"x,x": "1/2"},
            "vertex": {"3": "3/8"},
        }
        path = tmp_path / "model.json"
        path.write_text(__import__("json").dumps(doc))
        m = load_model(path)
        assert m.inverse_propagator[("x", "x")] == 2
        assert m.vertex_by_degree == {3: Fraction(3, 8)}

    def test_refuses_a_degree_zero_vertex_entry(self):
        # Degree 0 reads the unit value, so a "0" entry would be ignored.
        doc = {"labels": ["a"], "propagator": {"a,a": "1/2"}, "vertex": {"3": "1/3", "0": "5"}}
        with pytest.raises(ModelError, match='"unit"'):
            load_model(doc)
        with pytest.raises(ModelError, match='"unit"'):
            Model(("a",), {("a", "a"): Fraction(1, 2)},
                  vertex_by_degree={3: Fraction(1, 3), 0: Fraction(5)})
        assert sigma_lv(load_model({**doc, "vertex": {"3": "1/3"}, "unit": "5"}), 0, 1) == 5

    def test_refuses_a_vertex_entry_with_an_unknown_label(self):
        doc = {"labels": ["a"], "propagator": {"a,a": "1"}, "vertex": {"a,a": "1", "a,q": "2"}}
        with pytest.raises(ModelError, match=r"\(a,q\) uses unknown labels"):
            load_model(doc)
        with pytest.raises(ModelError, match=r"\(a,q\) uses unknown labels"):
            Model(("a",), {("a", "a"): Fraction(1)},
                  vertex_by_multiset={("a", "a"): Fraction(1), ("q", "a"): Fraction(2)})

    def test_refuses_the_empty_vertex_multiset(self):
        # The unit monomial reads the unit value, so an empty key would be ignored.
        doc = {"labels": ["a"], "propagator": {"a,a": "1"}, "vertex": {"a,a": "1", "": "2"}}
        with pytest.raises(ModelError, match='"unit"'):
            load_model(doc)
        with pytest.raises(ModelError, match='"unit"'):
            Model(("a",), {("a", "a"): Fraction(1)},
                  vertex_by_multiset={("a", "a"): Fraction(1), (): Fraction(2)})

    def test_refuses_two_entries_for_one_vertex(self, tmp_path):
        # Each would silently keep one of the two values.
        with pytest.raises(ModelError, match="the same multiset"):
            Model(("a", "b"), {("a", "a"): Fraction(1), ("b", "b"): Fraction(1)},
                  vertex_by_multiset={("a", "b"): Fraction(1), ("b", "a"): Fraction(2)})
        doc = {"labels": ["a"], "propagator": {"a,a": "1"}, "vertex": {"3": "1", "03": "2"}}
        with pytest.raises(ModelError, match="degree 3"):
            load_model(doc)
        path = tmp_path / "model.json"
        text = '{"labels": ["a"], "propagator": {"a,a": "1"}, "vertex": {"3": "1", "3": "2"}}'
        path.write_text(text)
        with pytest.raises(ModelError, match="given twice in one object: 3"):
            load_model(path)
        path.write_text(text.replace(', "3": "2"', ""))
        assert load_model(path).vertex_by_degree == {3: 1}

    def test_loader_multiset_vertices(self):
        m = load_model(
            {
                "labels": ["a", "b"],
                "propagator": {"a,a": 1, "b,b": 1, "a,b": 0},
                "vertex": {"a,a": "1/3", "a,b": "1/4", "b,b": "1/5"},
            }
        )
        assert nu(m, Monomial.of("a", "b")) == Fraction(1, 4)
        with pytest.raises(ModelError):
            nu(m, Monomial.of("a", "a", "a"))


class TestNu:
    def test_degree_lookup(self, phi3_model):
        f3 = phi3_model.vertex_by_degree[3]
        assert nu(phi3_model, Monomial.of("x", "x", "x")) == f3
        assert nu(phi3_model, Monomial.of("p", "q", "r")) == f3  # degree-symmetric
        assert nu(phi3_model, Monomial.of("x", "x")) == 0

    def test_unit_default_and_override(self, phi3_model):
        assert nu(phi3_model, ONE) == 0
        m = Model(
            ("x",),
            {("x", "x"): Fraction(1)},
            vertex_by_degree={},
            unit_value=Fraction(7),
        )
        assert nu(m, ONE) == 7


class TestEvaluateGraph:
    def test_bare_vertex(self, phi4_model):
        g = OrderedGraph(1, (), {"x1": 1, "x2": 1})
        m = Model(("x",), {("x", "x"): Fraction(1)}, vertex_by_degree={2: Fraction(5)})
        assert evaluate_graph(m, g) == 5

    def test_self_loop_with_externals(self):
        g_val = Fraction(1, 3)
        m = Model(("x",), {("x", "x"): g_val}, vertex_by_degree={4: Fraction(7)})
        g = OrderedGraph(1, ((1, 1),), {"x1": 1, "x2": 1})
        assert evaluate_graph(m, g, Fraction(1, 2)) == Fraction(1, 2) * 7 / g_val

    def test_dumbbell_phi3(self, phi3_model):
        g_val = phi3_model.propagator[("x", "x")]
        f3 = phi3_model.vertex_by_degree[3]
        dumbbell = OrderedGraph(2, ((1, 1), (2, 2), (1, 2)))
        got = evaluate_graph(phi3_model, dumbbell, Fraction(1, 8))
        assert got == Fraction(1, 8) * f3**2 / g_val**3

    def test_invariant_under_vertex_permutation(self, two_label_model):
        g = OrderedGraph(3, ((1, 1), (1, 2), (2, 3)), {"a": 2, "b": 3})
        base = evaluate_graph(two_label_model, g)
        for perm in [(2, 1, 3), (3, 2, 1), (2, 3, 1)]:
            assert evaluate_graph(two_label_model, permute_vertices(g, perm)) == base


class TestSigma:
    def test_single_term(self):
        m = Model(("x",), {("x", "x"): Fraction(1)}, vertex_by_degree={2: Fraction(5)})
        assert sigma_lv(m, 0, 1, XY) == 5

    def test_phi4_two_point_one_loop(self, phi4_model):
        g_val = phi4_model.propagator[("x", "x")]
        lam = phi4_model.vertex_by_degree[4] / g_val**4
        assert sigma_lv(phi4_model, 1, 1, XY) == Fraction(1, 2) * lam * g_val**3

    def test_phi3_vacuum_two_loop(self, phi3_model):
        g_val = phi3_model.propagator[("x", "x")]
        lam = phi3_model.vertex_by_degree[3] / g_val**3
        assert sigma_lv(phi3_model, 2, 2) == Fraction(5, 24) * lam**2 * g_val**3

    def test_recursive_base_cases(self, phi3_model):
        g_val = phi3_model.propagator[("x", "x")]
        f2 = Fraction(0)  # no 2-valent coupling in the phi3 model
        assert sigma_recursive(phi3_model, 1, 1, ONE) == f2
        m = Model(("x",), {("x", "x"): g_val}, vertex_by_degree={2: Fraction(9)})
        assert sigma_recursive(m, 1, 1, ONE) == Fraction(1, 2) * 9 / g_val

    @pytest.mark.parametrize("fixture", list(RECURSION_EXTERNALS))
    def test_recursive_matches_graph_sum(self, fixture, request):
        # The two sides add a float model's terms in different orders, so
        # there they agree to FLOAT_TOLERANCE.
        model = request.getfixturevalue(fixture)
        for text in RECURSION_EXTERNALS[fixture]:
            m = Monomial(tuple(text.split(","))) if text else ONE
            for e in range(0, 4):
                for v in range(1, e + 2):
                    l = e - v + 1
                    got, want = sigma_recursive(model, l, v, m), sigma_lv(model, l, v, m)
                    if model.is_exact:
                        assert got == want, (l, v, m)
                    else:
                        assert math.isclose(got, want, rel_tol=FLOAT_TOLERANCE), (l, v, m)

    def test_takes_no_generation_options(self, two_label_model):
        # Pruned generation drops graphs by valence, so its sum is no n-point grade.
        from feyngen.hopf import GenOptions

        with pytest.raises(TypeError):
            sigma_lv(two_label_model, 2, 3, Monomial.of("a", "b"), GenOptions(2, 2))
        with pytest.raises(TypeError):
            sigma_lv(two_label_model, 2, 3, Monomial.of("a", "b"), opts=GenOptions(2, 2))

    def test_builds_no_labelled_cell(self, multiset_model):
        # A labelled grade is evaluated on the vacuum classes with the labels
        # placed: no labelled cell is memoized and no class gets a placement.
        recursion.clear_cache()
        recursion.reset_stats()
        try:
            for text in ("a,b", "a,a,b", "a,b,a,b"):
                m = Monomial(tuple(text.split(",")))
                for l, v in ((0, 1), (1, 2), (2, 2), (1, 3)):
                    sigma_lv(multiset_model, l, v, m)
            assert recursion._CELLS
            assert all(not g.externals for cell in recursion._CELLS.values()
                       for g, _ in cell.items())
            assert recursion.placement_count() == 0
        finally:
            recursion.clear_cache()

    @pytest.mark.parametrize(
        "fixture", ["multiset_model", "partial_multiset_model", "float_multiset_model"])
    def test_folded_placements_equal_the_sum_over_placements(self, fixture, request):
        # One elimination per class with the labels free against one per class
        # and placement: same grade, and a ModelError on one side exactly
        # when on the other (the partial model lacks a*a*b*b).
        model = request.getfixturevalue(fixture)
        outcomes = []
        for text in ("a,a,b", "a,b,b,a"):
            m = Monomial(tuple(text.split(",")))
            for e in range(4):
                for v in range(1, e + 2):
                    got = value_or_error(sigma_lv, model, e - v + 1, v, m)
                    want = value_or_error(sum_over_placements, model, e - v + 1, v, m)
                    if model.is_exact or ModelError in (got, want):
                        assert got == want, (e, v, m)
                    else:
                        assert math.isclose(got, want, rel_tol=FLOAT_TOLERANCE), (e, v, m)
                    outcomes.append(got)
        assert any(value is not ModelError and value != 0 for value in outcomes)
        if fixture == "partial_multiset_model":
            assert ModelError in outcomes

    def test_placeholder_shaped_label_keeps_its_meaning(self):
        # "a#1" is a model label here, not a placeholder for a second copy of a.
        m = Model(
            ("a", "a#1"),
            {("a", "a"): Fraction(1), ("a#1", "a#1"): Fraction(1)},
            vertex_by_multiset={("a", "a"): Fraction(2), ("a", "a#1"): Fraction(3),
                                ("a#1", "a#1"): Fraction(5)},
        )
        assert sigma_lv(m, 0, 1, Monomial.of("a", "a")) == 2
        assert sigma_lv(m, 0, 1, Monomial.of("a", "a#1")) == 3
        assert sigma_lv(m, 0, 1, Monomial.of("a#1", "a#1")) == 5

    def test_linearity_in_weights(self, phi3_model):
        from feyngen.recursion import GraphSum

        g1 = OrderedGraph(2, ((1, 2), (1, 2), (1, 2)))
        g2 = OrderedGraph(2, ((1, 1), (2, 2), (1, 2)))
        s = GraphSum(2, {g1: Fraction(1, 12), g2: Fraction(1, 8)})
        from feyngen.elimination import evaluate_graph_sum

        total = evaluate_graph_sum(phi3_model, s)
        assert total == evaluate_graph(phi3_model, g1, Fraction(1, 12)) + evaluate_graph(
            phi3_model, g2, Fraction(1, 8)
        )


class TestDegreeClosedForm:
    @pytest.mark.parametrize("fixture", list(TWIN_EXTERNALS))
    def test_equals_the_elimination_on_the_multiset_twin(self, fixture, request):
        model = request.getfixturevalue(fixture)
        # 13 = the largest valence of the cells (3, 4) plus four labels.
        twin = multiset_twin(model, 13)
        for text in TWIN_EXTERNALS[fixture]:
            m = Monomial(tuple(text.split(","))) if text else ONE
            for l in range(4):
                for v in range(1, 5):
                    assert sigma_lv(model, l, v, m) == sigma_lv(twin, l, v, m), (l, v, m)

    def test_exact_degree_model_makes_no_elimination(self, two_label_model, monkeypatch):
        expected = [
            (g, c, brute_force_evaluate_graph(two_label_model, g, c))
            for g, c in recursion.omega_classes(2, 3, Monomial.of("a", "b")).items()
        ]
        made = []
        eliminate = elimination._eliminate
        monkeypatch.setattr(elimination, "_eliminate", lambda *a: made.append(a) or eliminate(*a))
        for l, v in ((0, 1), (2, 2), (3, 3)):
            sigma_lv(two_label_model, l, v, Monomial.of("a", "a", "b"))
            assert planned_eliminations(two_label_model, l, v, Monomial.of("a", "a", "b")) == 0
        assert not made
        # The elimination looks its vertex values up through nu; the closed
        # form reads the degree table, so evaluate_graph needs no nu either.
        monkeypatch.setattr(evaluation, "nu", None)
        monkeypatch.setattr(elimination, "nu", None)
        for g, c, value in expected:
            assert evaluate_graph(two_label_model, g, c) == value

    def test_float_degree_model_makes_no_elimination(self, two_label_model, monkeypatch):
        # The float twin of the exact model: every grade, and every graph of
        # the labelled cells, in closed form; _eliminate is never reached.
        model = Model(
            two_label_model.labels,
            {pair: float(x) for pair, x in two_label_model.propagator.items()},
            inverse_propagator={
                pair: float(x) for pair, x in two_label_model.inverse_propagator.items()
            },
            vertex_by_degree={d: float(x) for d, x in two_label_model.vertex_by_degree.items()},
        )

        def refuse(*args):
            raise AssertionError("a degree model reached _eliminate")

        monkeypatch.setattr(elimination, "_eliminate", refuse)
        for text in TWIN_EXTERNALS["two_label_model"]:
            m = Monomial(tuple(text.split(","))) if text else ONE
            for l in range(4):
                for v in range(1, 5):
                    assert planned_eliminations(model, l, v, m) == 0
                    got = sigma_lv(model, l, v, m)
                    want = sigma_lv(two_label_model, l, v, m)
                    assert isinstance(got, float), (l, v, m)
                    assert math.isclose(got, want, rel_tol=FLOAT_TOLERANCE), (l, v, m)
                    if len(set(m.factors)) < m.degree:
                        continue  # omega_classes places distinct labels only
                    for g, c in recursion.omega_classes(l, v, m).items():
                        got = evaluate_graph(model, g, c)
                        want = evaluate_graph(two_label_model, g, c)
                        assert math.isclose(got, want, rel_tol=FLOAT_TOLERANCE), g


def class_cell_by_valences(l: int, v: int) -> dict[tuple[int, ...], Fraction]:
    """The classes of omega_classes(l, v) summed by sorted valences."""
    summed: dict[tuple[int, ...], Fraction] = {}
    for g, w in recursion.omega_classes(l, v).items():
        degrees = tuple(sorted(recursion._valences(g)))
        summed[degrees] = summed.get(degrees, 0) + w
    return summed


#: Every cell (l, v) with at most 8 edges, the cells evaluate admits.
CELLS_UP_TO_8_EDGES = [(e - v + 1, v) for e in range(9) for v in range(1, e + 2)]


class TestProfileCell:
    """evaluation._profiles, the vacuum class cells summed by valences."""

    def test_equals_the_class_cells_summed_by_valences(self):
        assert len(CELLS_UP_TO_8_EDGES) == 45
        for l, v in CELLS_UP_TO_8_EDGES:
            assert evaluation._profiles(l, v) == class_cell_by_valences(l, v), (l, v)

    def test_refuses_what_omega_classes_refuses(self, two_label_model):
        for l, v in ((-1, 1), (-1, 3), (0, -1), (2, 0)):
            with pytest.raises(ValueError):
                recursion.omega_classes(l, v)
            with pytest.raises(ValueError):
                evaluation._profiles(l, v)
        with pytest.raises(ValueError):
            sigma_lv(two_label_model, -1, 2, Monomial.of("a", "b"))

    def test_float_grades_stay_close_to_the_exact_ones(self, two_label_model,
                                                      float_two_label_model):
        # The float twin sums the profiles in their own order: its grades
        # agree with the exact ones to FLOAT_TOLERANCE on every admitted cell.
        for text in ("", "a", "a,b", "a,a,b,b"):
            m = Monomial(tuple(text.split(","))) if text else ONE
            for l, v in CELLS_UP_TO_8_EDGES:
                got = sigma_lv(float_two_label_model, l, v, m)
                want = sigma_lv(two_label_model, l, v, m)
                assert isinstance(got, float), (l, v, m)
                assert math.isclose(got, want, rel_tol=FLOAT_TOLERANCE), (l, v, m)


class TestZeroVertexSector:
    """sigma_lv at v = 0, the grade with no graph."""

    def test_propagator_on_degree_two(self, two_label_model, multiset_model):
        for model in (two_label_model, multiset_model):
            for x, y in itertools.product(model.labels, repeat=2):
                got = sigma_lv(model, 0, 0, Monomial.of(x, y))
                assert got == model.propagator[(x, y)]
        assert sigma_lv(two_label_model, 0, 0, Monomial.of("a", "b")) == Fraction(1, 2)

    def test_zero_elsewhere(self, two_label_model):
        ab = Monomial.of("a", "b")
        for l in (1, 2, 5):
            assert sigma_lv(two_label_model, l, 0, ab) == 0
        for m in (ONE, Monomial.of("a"), Monomial.of("a", "a", "b")):
            got = sigma_lv(two_label_model, 0, 0, m)
            assert got == 0 and isinstance(got, Fraction)
        # Beyond l = 0 the labels are not read.
        assert sigma_lv(two_label_model, 1, 0, Monomial.of("x1", "x2")) == 0

    @pytest.mark.parametrize("labels", [("x1", "x2"), ("a", "q"), ("q", "a")],
                             ids=["neither", "second", "first"])
    def test_needs_model_labels(self, two_label_model, labels):
        with pytest.raises(ModelError, match="v=0 grade needs external labels"):
            sigma_lv(two_label_model, 0, 0, Monomial.of(*labels))

    def test_plans_no_elimination(self, two_label_model, multiset_model):
        for model in (two_label_model, multiset_model):
            for l in (0, 1, 3):
                for m in (ONE, Monomial.of("a", "b"), Monomial.of("a", "a", "b")):
                    assert planned_eliminations(model, l, 0, m) == 0
