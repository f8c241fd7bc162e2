import ast
import itertools
import math
from fractions import Fraction
from pathlib import Path

import pytest

from feyngen.algebra import ONE, Monomial
from feyngen.elimination import evaluate_graph
from feyngen.evaluation import FLOAT_TOLERANCE, Model, ModelError
from feyngen.graphs import OrderedGraph
from feyngen.invariants import is_connected, permute_vertices
from feyngen.oracle import (
    ResourceLimitError,
    brute_force_edge_symmetry_factor,
    brute_force_canonicalize,
    brute_force_evaluate_graph,
    brute_force_symmetry_factor,
    compare,
    double_factorial,
    enumerate_connected,
    perfect_matching_count,
    zero_dim_log_z,
)
from feyngen.hopf import omega
from feyngen.recursion import GraphSum, omega_classes

SRC = Path(__file__).resolve().parent.parent / "src"


class TestBruteForceSymmetry:
    def test_known_graphs(self):
        assert brute_force_symmetry_factor(OrderedGraph(1, ((1, 1),))) == 2
        assert brute_force_symmetry_factor(OrderedGraph(2, ((1, 2),) * 3)) == 12
        assert brute_force_symmetry_factor(OrderedGraph(2, ((1, 1), (2, 2), (1, 2)))) == 8
        assert brute_force_symmetry_factor(OrderedGraph(2, ((1, 2),), {"x": 1, "y": 2})) == 1

    def test_edge_only_count_holds_vertices_fixed(self):
        dumbbell = OrderedGraph(2, ((1, 1), (2, 2), (1, 2)))
        assert brute_force_edge_symmetry_factor(dumbbell) == 4


def _graphs_up_to_four_edges():
    """Every canonical graph with at most 4 edges and the externals (), a, a*b
    or a*"a#0"; a#0 is no model label of the test models, and evaluates as
    its own name, as the full enumeration takes it."""
    for e in range(0, 5):
        for v in range(1, e + 2):
            for labels in ((), ("a",), ("a", "b"), ("a", "a#0")):
                cell = omega(e - v + 1, v, Monomial(labels)).canonical_merge()
                yield from cell.items()


def _value_or_error(evaluate, model, g, weight):
    try:
        return evaluate(model, g, weight)
    except ModelError:
        return ModelError


@pytest.fixture(scope="module")
def zero_inverse_model(multiset_vertex_table):
    # Inverse propagator [[0, 1], [1, -2]]: the (a, a) entry is zero.
    prop = {("a", "a"): Fraction(2), ("a", "b"): Fraction(1), ("b", "b"): Fraction(0)}
    model = Model(("a", "b"), prop, vertex_by_multiset=multiset_vertex_table)
    assert model.inverse_propagator[("a", "a")] == 0
    return model


@pytest.fixture(scope="module")
def zero_degree_value_model():
    # Degree 3 has a zero value, degrees 2 and 4 none, and the degree-0 unit
    # value is not zero: a graph with a vertex of degree 2, 3 or 4 is zero.
    prop = {("a", "a"): Fraction(2), ("a", "b"): Fraction(1, 2), ("b", "b"): Fraction(1)}
    return Model(
        ("a", "b"),
        prop,
        vertex_by_degree={1: Fraction(1, 5), 3: Fraction(0), 5: Fraction(2, 7)},
        unit_value=Fraction(3, 4),
    )


class TestBruteForceEvaluation:
    @pytest.mark.parametrize(
        "fixture",
        [
            "phi3_model",
            "two_label_model",
            "zero_degree_value_model",
            "partial_multiset_model",
            "zero_inverse_model",
        ],
    )
    def test_matches_elimination(self, fixture, request):
        model = request.getfixturevalue(fixture)
        outcomes = []
        for g, c in _graphs_up_to_four_edges():
            got = _value_or_error(evaluate_graph, model, g, c)
            want = _value_or_error(brute_force_evaluate_graph, model, g, c)
            assert got == want, g
            outcomes.append(got)
        if fixture == "partial_multiset_model":
            assert ModelError in outcomes
        if fixture in ("partial_multiset_model", "zero_degree_value_model"):
            assert any(value is not ModelError and value != 0 for value in outcomes)

    def test_cancelled_partial_sum_keeps_its_lookups(self):
        # Diagonal inverse propagator diag(2, 4).  At vertex 1 of the graph
        # below, the edge label b gets 2 * nu(a,a,b) + 4 * nu(b,b,b) = 0, and
        # only that label reaches nu(b) at vertex 2.  The full enumeration
        # looks nu(b) up, so an entry that sums to zero must stay in the table.
        table = {
            ("a", "a", "a"): Fraction(1),
            ("a", "b", "b"): Fraction(1),
            ("a", "a", "b"): Fraction(2),
            ("b", "b", "b"): Fraction(-1),
            ("a",): Fraction(1),
        }
        prop = {("a", "a"): Fraction(1, 2), ("b", "b"): Fraction(1, 4)}
        g = OrderedGraph(2, ((1, 1), (1, 2)))
        missing = Model(("a", "b"), prop, vertex_by_multiset=table)
        for evaluate in (brute_force_evaluate_graph, evaluate_graph):
            with pytest.raises(ModelError):
                evaluate(missing, g)
        complete = Model(("a", "b"), prop, vertex_by_multiset={**table, ("b",): Fraction(5)})
        assert evaluate_graph(complete, g) == brute_force_evaluate_graph(complete, g) == 12

    def test_float_model_matches_elimination(self, float_multiset_model):
        model = float_multiset_model
        for g, c in _graphs_up_to_four_edges():
            got = _value_or_error(evaluate_graph, model, g, c)
            want = _value_or_error(brute_force_evaluate_graph, model, g, c)
            if ModelError in (got, want):
                assert got is want, g
            else:
                assert math.isclose(got, want, rel_tol=FLOAT_TOLERANCE), g

    def test_integer_elimination_with_coprime_denominators(self, multiset_vertex_table):
        # The inverse propagator [[2/3, 1/3], [1/3, 2/3]] has denominator 3,
        # the signed vertex values 7 and 49: the elimination scales by 3 and 49.
        table = {
            k: Fraction((-1) ** len(k) * (1 + k.count("b")), 7 ** (1 + len(k) % 2))
            for k in multiset_vertex_table
        }
        prop = {("a", "a"): Fraction(2), ("a", "b"): Fraction(-1), ("b", "b"): Fraction(2)}
        model = Model(("a", "b"), prop, vertex_by_multiset=table, unit_value=Fraction(2, 7))
        dg, _, dv = model._integer_tables
        assert (dg, dv) == (3, 49)
        for g, c in _graphs_up_to_four_edges():
            got = _value_or_error(evaluate_graph, model, g, c)
            assert got == _value_or_error(brute_force_evaluate_graph, model, g, c), g

    def test_float_model_keeps_its_summation_order(self):
        # The elimination's float, pinned bit for bit: the full enumeration
        # adds the same terms in another order and gets 0.0038400000000000005
        # (the degree model with these values by degree, in closed form,
        # 0.0038399999999999992).
        by_degree = {1: 0.2, 2: 0.0, 3: 1 / 3, 4: 0.1}
        model = Model(
            ("a", "b"),
            {("a", "a"): 3.5, ("a", "b"): -0.5, ("b", "b"): 1.5},
            inverse_propagator={("a", "a"): 0.3, ("a", "b"): 0.1, ("b", "b"): 0.7},
            vertex_by_multiset={
                labels: value
                for d, value in by_degree.items()
                for labels in itertools.combinations_with_replacement("ab", d)
            },
        )
        g = OrderedGraph(3, ((1, 2), (1, 2), (1, 2), (1, 3)), {"a": 3, "b": 3})
        assert model._integer_tables is None
        assert evaluate_graph(model, g, Fraction(1, 6)) == 0.0038399999999999997


class TestEnumeration:
    def test_single_edge_vacuum(self):
        got = enumerate_connected(0, 2)
        assert got == GraphSum(2, {OrderedGraph(2, ((1, 2),)): Fraction(1, 2)})

    def test_self_loop(self):
        got = enumerate_connected(1, 1)
        assert got == GraphSum(1, {OrderedGraph(1, ((1, 1),)): Fraction(1, 2)})

    def test_two_loop_two_vertex_cell(self):
        got = enumerate_connected(2, 2)
        expected = GraphSum(
            2,
            {
                OrderedGraph(2, ((1, 2),) * 3): Fraction(1, 12),
                OrderedGraph(2, ((1, 1), (2, 2), (1, 2))): Fraction(1, 8),
                OrderedGraph(2, ((1, 1), (1, 2), (1, 2))): Fraction(1, 4),
                OrderedGraph(2, ((1, 1), (1, 1), (1, 2))): Fraction(1, 8),
            },
        )
        assert got == expected

    def test_vacuum_graph_counts_up_to_three_edges(self):
        # Hand-checked unordered connected multigraph counts per (l, v) cell.
        expected = {
            (0, 1): 1, (0, 2): 1, (1, 1): 1,
            (0, 3): 1, (1, 2): 2, (2, 1): 1,
            (0, 4): 2, (1, 3): 4, (2, 2): 4, (3, 1): 1,
        }
        for (l, v), count in expected.items():
            assert len(enumerate_connected(l, v)) == count, (l, v)

    def test_count_nondecreasing_in_edge_number(self):
        totals = []
        for e in range(0, 4):
            total = sum(len(enumerate_connected(e - v + 1, v)) for v in range(1, e + 2))
            totals.append(total)
        assert totals == sorted(totals)

    def test_edge_limit(self):
        with pytest.raises(ResourceLimitError):
            enumerate_connected(6, 1)

    def test_orderly_generation_is_the_every_multiset_enumeration(self):
        # Written out here: every connected edge multiset with every placement
        # of the labels, each graph brute-force canonicalized.  The oracle
        # places labels only on the multisets that are their own canonical
        # form and must meet the same classes with the same weights.
        for e in range(0, 4):
            for v in range(1, e + 2):
                slots = list(itertools.combinations_with_replacement(range(1, v + 1), 2))
                for n in range(0, 3):
                    labels = ("x1", "x2")[:n]
                    every = {}
                    for edges in itertools.combinations_with_replacement(slots, e):
                        if not is_connected(OrderedGraph(v, edges)):
                            continue
                        for placement in itertools.product(range(1, v + 1), repeat=n):
                            g = OrderedGraph(v, edges, tuple(zip(labels, placement)))
                            canon = brute_force_canonicalize(g)
                            every[canon] = Fraction(1, brute_force_symmetry_factor(canon))
                    got = enumerate_connected(e - v + 1, v, Monomial(labels))
                    assert got == GraphSum(v, every), (e, v, n)


class TestSeriesOracle:
    def test_gaussian_moments_match_pairings(self):
        for k in range(0, 7):
            assert double_factorial(2 * k - 1) == perfect_matching_count(2 * k)

    def test_free_two_point(self):
        g = Fraction(1, 3)
        series = zero_dim_log_z({3: Fraction(0)}, g, max_sources=4, max_vertices=2, max_edges=2)
        assert series[(2, 0, 0)] == g
        # Higher connected free correlators vanish.
        assert series[(4, -1, 0)] == 0

    def test_phi3_vacuum(self):
        lam, g = Fraction(5, 7), Fraction(1, 3)
        series = zero_dim_log_z({3: lam}, g, max_sources=0, max_vertices=2, max_edges=3)
        assert series[(0, 2, 2)] == Fraction(5, 24) * lam**2 * g**3

    def test_phi4_one_loop_two_point(self):
        lam, g = Fraction(3), Fraction(2, 5)
        series = zero_dim_log_z({4: lam}, g, max_sources=2, max_vertices=1, max_edges=1)
        assert series[(2, 1, 1)] == Fraction(1, 2) * lam * g**3

    def test_truncation_enforced(self):
        series = zero_dim_log_z({3: Fraction(1)}, Fraction(1), max_sources=2, max_vertices=2,
                                max_edges=3)
        # Every grade inside the truncation is a key, zeros included: from
        # the fewest edges, -n/2 at v = 0, up to max_edges.
        assert set(series) == {
            (n, e - v + 1, v) for n in range(3) for v in range(3) for e in range(-(n // 2), 4)
        }
        assert series[(0, 0, 1)] == 0 and series[(1, 1, 1)] != 0
        # A grade beyond it is no key: more sources, vertices or edges.
        for grade in ((3, 1, 1), (0, 0, 3), (0, 3, 2), (2, 4, 1)):
            with pytest.raises(KeyError):
                series[grade]
        with pytest.raises(ValueError):
            zero_dim_log_z({0: Fraction(1)}, Fraction(1), 2, 2, 3)

    def test_agrees_with_graph_oracle(self, phi3_model):
        # Self-consistency of the two oracles, via graph evaluation, in the
        # cubic model and in a model with a coupling at every degree.
        from feyngen.elimination import evaluate_graph_sum

        g_val = phi3_model.propagator[("x", "x")]
        lam = phi3_model.vertex_by_degree[3] / g_val**3
        every_degree = {d: Fraction(d * d + 1, 7 * d + 3) for d in range(1, 11)}
        values = {d: c * g_val**d for d, c in every_degree.items()}
        all_degree_model = Model(("x",), {("x", "x"): g_val}, vertex_by_degree=values)
        checks = [
            (model, zero_dim_log_z(couplings, g_val, max_sources=2, max_vertices=5, max_edges=4))
            for model, couplings in ((phi3_model, {3: lam}), (all_degree_model, every_degree))
        ]
        for e in range(0, 5):
            for v in range(1, e + 2):
                l = e - v + 1
                for n in range(0, 3):
                    m = Monomial(tuple(f"x{i}" for i in range(n)))
                    graphs = enumerate_connected(l, v, m)
                    for model, series in checks:
                        assert evaluate_graph_sum(model, graphs) == series[(n, l, v)], (l, v, n)


class TestSigmaSuite:
    def test_reports_a_wrong_weight_at_a_valence_the_cubic_quartic_model_zeroes(self):
        # The class of cell (3, 1) with three self-loops has one vertex of
        # valence 6, so it is worth 0 in phi^3 + phi^4: only the all-degree
        # model sees its weight.  Every cell the suite reads is memoized
        # first, so that no cell is built from the wrong one.
        from feyngen import oracle, recursion

        for e in range(5):
            for v in range(1, e + 2):
                omega_classes(e - v + 1, v)
        key = (True, 3, 1, 0, 0)
        cell = recursion._CELLS[key]
        lines: list[str] = []
        try:
            recursion._CELLS[key] = GraphSum(1, {
                g: 2 * c if g.edges == ((1, 1),) * 3 else c for g, c in cell.items()
            })
            assert not oracle.verify_sigma(0, 4, lines)
        finally:
            recursion.clear_cache()
        for n in range(3):
            at = lines.index(f"sigma l=3 v=1 n={n}: MISMATCH")
            assert lines[at + 1].startswith("1 mismatch(es):\n  all-degree value: ")

    def test_reports_a_wrong_weight_in_the_profile_cell(self):
        # The same weight doubled on the other side: profile (6,) of cell
        # (3, 1), read by sigma_lv.  Every profile cell the suite reads is
        # memoized first, so that no cell is built from the wrong one.
        from feyngen import evaluation, oracle

        for e in range(5):
            for v in range(1, e + 2):
                evaluation._profiles(e - v + 1, v)
        cell = evaluation._PROFILES[(3, 1)]
        lines: list[str] = []
        try:
            evaluation._PROFILES[(3, 1)] = {
                p: 2 * w if p == (6,) else w for p, w in cell.items()
            }
            assert not oracle.verify_sigma(0, 4, lines)
        finally:
            evaluation._PROFILES.clear()
        for n in range(3):
            at = lines.index(f"sigma l=3 v=1 n={n}: MISMATCH")
            assert lines[at + 1].startswith("1 mismatch(es):\n  all-degree value: ")
            assert lines[at + 1].partition(" oracle=")[0].endswith(" (profile cell)")
        assert sum(line.endswith("MISMATCH") for line in lines) == 3


def test_the_oracle_imports_no_engine_code_above_the_suites():
    # The references check the engine, so at module level the oracle takes
    # from the package only value classes, the model tables and nu, and
    # is_connected; engine functions are imported inside verify's suites.
    allowed = {
        "algebra": None,
        "evaluation": {"Model", "Scalar", "nu"},
        "graphs": {"OrderedGraph"},
        "invariants": {"is_connected"},
        "recursion": {"GraphSum"},
    }
    tree = ast.parse((SRC / "feyngen" / "oracle.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level:
            names = {alias.name for alias in node.names}
            assert node.module in allowed, node.module
            assert allowed[node.module] is None or names <= allowed[node.module], names
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            modules = [node.module] if isinstance(node, ast.ImportFrom) else [
                alias.name for alias in node.names]
            assert all(m.partition(".")[0] != "feyngen" for m in modules), modules
    suites = {node.name for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name.startswith("verify_")}
    assert suites == {"verify_graph_oracle", "verify_alt_recursion", "verify_sigma"}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in suites:
            assert not any(isinstance(inner, (ast.Import, ast.ImportFrom))
                           for inner in ast.walk(node)), node.name


class TestCompare:
    def test_equal_graph_sums(self):
        assert compare(omega(1, 2), enumerate_connected(1, 2)).ok

    def test_scalar_equality(self):
        assert compare(Fraction(1, 2), Fraction(1, 2)).ok
        assert not compare(Fraction(1, 2), Fraction(1, 3)).ok

    def test_equal_sums_are_not_merged(self, monkeypatch):
        from feyngen import oracle

        def no_merge(s):
            raise AssertionError("equal sums need no merge")

        monkeypatch.setattr(oracle, "_brute_force_merge", no_merge)
        m = Monomial.of("x1", "x2")
        assert compare(omega_classes(2, 2, m), enumerate_connected(2, 2, m)).ok
        assert compare(omega(1, 3), omega(1, 3)).ok
        assert compare(GraphSum(2), GraphSum(2)).ok

    def test_renumbered_sums_compare_by_their_classes(self):
        good = enumerate_connected(1, 3, Monomial.of("x"))
        renumbered = GraphSum(3, ((permute_vertices(g, (3, 1, 2)), c) for g, c in good.items()))
        assert renumbered != good
        assert compare(renumbered, good).ok
        assert compare(omega(1, 3, Monomial.of("x")), good).ok

    def test_perturbed_weight_is_reported(self):
        good = enumerate_connected(1, 2)
        bad_terms = {
            g: (c if g.edges != ((1, 2), (1, 2)) else c * 2) for g, c in good.items()
        }
        report = compare(GraphSum(2, bad_terms), good)
        assert not report.ok
        assert len(report.diffs) == 1
        assert "(1, 2), (1, 2)" in report.diffs[0][0]
        assert "mismatch" in report.describe()
