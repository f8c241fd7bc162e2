import itertools
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feyngen.algebra import ONE, Monomial
from feyngen import graphs
from feyngen.graphs import (
    OrderedGraph,
    _max_vector_numberings,
    _renumbered_edges,
    canonicalize,
)
from feyngen.invariants import (
    _lex_min_numbering,
    edge_symmetry_factor,
    is_connected,
    loop_number,
    permute_vertices,
    symmetry_factor,
    vertex_symmetry_factor,
)
from feyngen.oracle import (
    brute_force_canonicalize,
    brute_force_edge_symmetry_factor,
    brute_force_symmetry_factor,
)
from feyngen.hopf import omega
from feyngen.records import graph_from_dict, graph_to_dict, to_dot
from feyngen.recursion import clear_cache, omega_classes

SELF_LOOP = OrderedGraph(1, ((1, 1),))
THETA = OrderedGraph(2, ((1, 2), (1, 2), (1, 2)))
DUMBBELL = OrderedGraph(2, ((1, 1), (2, 2), (1, 2)))


@st.composite
def small_graphs(draw):
    v = draw(st.integers(min_value=1, max_value=6))
    n_edges = draw(st.integers(min_value=0, max_value=7))
    edges = tuple(
        (draw(st.integers(1, v)), draw(st.integers(1, v))) for _ in range(n_edges)
    )
    n_ext = draw(st.integers(min_value=0, max_value=2))
    externals = tuple((f"x{i}", draw(st.integers(1, v))) for i in range(n_ext))
    return OrderedGraph(v, edges, externals)


def test_graph_normalization_and_validation():
    g = OrderedGraph(2, ((2, 1),), {"x": 2})
    assert g.edges == ((1, 2),)
    assert g.externals == (("x", 2),)
    # Edges as lists, externals as a dict or a list, in any order.
    h = OrderedGraph(2, [[2, 1], [2, 2], [1, 1]], {"y": 1, "x": 2})
    assert h.edges == ((1, 1), (1, 2), (2, 2))
    assert h.externals == (("x", 2), ("y", 1))
    assert OrderedGraph(2, h.edges, [("y", 1), ("x", 2)]) == h
    with pytest.raises(ValueError, match="at least one vertex"):
        OrderedGraph(0)
    with pytest.raises(ValueError, match=r"edge \(1,3\) outside vertex range 1\.\.2"):
        OrderedGraph(2, ((1, 3),))
    with pytest.raises(ValueError, match=r"edge \(1,3\) outside vertex range 1\.\.2"):
        OrderedGraph(2, ((1, 2), (3, 1)))
    with pytest.raises(ValueError, match=r"edge \(0,1\) outside vertex range 1\.\.2"):
        OrderedGraph(2, ((1, 2), (0, 1)))
    with pytest.raises(ValueError, match="pairwise distinct"):
        OrderedGraph(2, (), (("x", 1), ("x", 2)))
    with pytest.raises(ValueError, match="pairwise distinct"):
        OrderedGraph(2, (), [("x", 1), ("y", 2), ("x", 1)])
    with pytest.raises(ValueError, match="'x' attached to invalid vertex 0"):
        OrderedGraph(2, ((1, 2),), {"x": 0})
    with pytest.raises(ValueError, match="'y' attached to invalid vertex 3"):
        OrderedGraph(2, ((1, 2),), [("y", 3), ("x", 1)])


def test_is_connected():
    assert is_connected(OrderedGraph(2, ((1, 2),)))
    assert not is_connected(OrderedGraph(2))
    assert is_connected(OrderedGraph(3, ((1, 2), (1, 3))))
    assert is_connected(OrderedGraph(1))


def test_loop_number():
    assert loop_number(SELF_LOOP) == 1
    assert loop_number(THETA) == 2
    assert loop_number(OrderedGraph(4, ((1, 2), (2, 3), (3, 4)))) == 0
    with pytest.raises(ValueError):
        loop_number(OrderedGraph(2))


def test_edge_symmetry_factor():
    assert edge_symmetry_factor(OrderedGraph(1, ((1, 1), (1, 1)))) == 8
    assert edge_symmetry_factor(THETA) == 6
    assert edge_symmetry_factor(DUMBBELL) == 4


def test_edge_symmetry_factor_matches_brute_force():
    for g in (SELF_LOOP, THETA, DUMBBELL, OrderedGraph(3, ((1, 2), (2, 3), (1, 3)))):
        assert edge_symmetry_factor(g) == brute_force_edge_symmetry_factor(g)


def test_vertex_symmetry_factor():
    assert vertex_symmetry_factor(OrderedGraph(2, ((1, 2),))) == 2
    assert vertex_symmetry_factor(OrderedGraph(2, ((1, 2),), {"x": 1, "y": 2})) == 1
    assert vertex_symmetry_factor(THETA) == 2


def test_symmetry_factor():
    assert symmetry_factor(SELF_LOOP) == 2
    assert symmetry_factor(THETA) == 12
    assert symmetry_factor(DUMBBELL) == 8


def test_symmetry_factor_matches_joint_brute_force():
    for g in (SELF_LOOP, THETA, DUMBBELL, OrderedGraph(3, ((1, 2), (2, 3)))):
        assert symmetry_factor(g) == brute_force_symmetry_factor(g)


def test_canonicalize_identifies_renumberings():
    a = OrderedGraph(2, ((1, 2),), {"x": 2})
    b = OrderedGraph(2, ((1, 2),), {"x": 1})
    assert canonicalize(a) == canonicalize(b)


def test_canonicalize_idempotent_on_minimal_graph():
    g = canonicalize(DUMBBELL)
    assert canonicalize(g) == g


@given(small_graphs())
@settings(max_examples=60, deadline=None)
def test_canonicalize_permutation_invariant(g):
    canon = canonicalize(g)
    for perm in itertools.permutations(range(1, g.vertex_count + 1)):
        assert canonicalize(permute_vertices(g, perm)) == canon


@given(small_graphs())
@settings(max_examples=60, deadline=None)
def test_canonical_form_and_vertex_factor_match_all_renumberings(g):
    assert canonicalize(g) == brute_force_canonicalize(g)
    assert vertex_symmetry_factor(g) == fixing_renumbering_count(g)


def fixing_renumbering_count(g):
    return sum(
        permute_vertices(g, perm) == g
        for perm in itertools.permutations(range(1, g.vertex_count + 1))
    )


def _doubled_cycle(n, doubled):
    return [(k, k % n + 1) for k in range(1, n + 1) for _ in range(1 + doubled[k - 1])]


#: Graphs whose vertices tie in many rows of the canonical search.
TIED_GRAPHS = {
    "K4": (4, list(itertools.combinations(range(1, 5), 2))),
    "prism": (6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6), (1, 4), (2, 5), (3, 6)]),
    "K3,3": (6, [(a, b) for a in range(1, 4) for b in range(4, 7)]),
}


@st.composite
def tie_rich_graphs(draw):
    """A random renumbering of a graph whose rows tie: a cycle with some edges
    doubled, K4, the triangular prism or K3,3, with the same number of
    self-loops on a random set of vertices and 0-2 random externals."""
    family = draw(st.sampled_from(["cycle", *TIED_GRAPHS]))
    if family == "cycle":
        v = draw(st.integers(2, 6))
        edges = _doubled_cycle(v, draw(st.lists(st.booleans(), min_size=v, max_size=v)))
    else:
        v, edges = TIED_GRAPHS[family]
    looped = draw(st.sets(st.integers(1, v)))
    edges = edges + [(x, x) for x in sorted(looped)] * draw(st.integers(1, 2))
    n_ext = draw(st.integers(min_value=0, max_value=2))
    externals = tuple((f"x{i}", draw(st.integers(1, v))) for i in range(n_ext))
    perm = draw(st.permutations(range(1, v + 1)))
    return permute_vertices(OrderedGraph(v, tuple(edges), externals), perm)


@given(tie_rich_graphs())
@settings(max_examples=100, deadline=None)
def test_canonical_search_on_tie_rich_graphs(g):
    # Tied candidates that are not automorphic can differ in later rows, and
    # a better prefix found late must discard the leaves found before it.
    assert canonicalize(g) == brute_force_canonicalize(g)
    assert vertex_symmetry_factor(g) == fixing_renumbering_count(g)


def test_rows_tied_at_one_step_can_differ_later():
    # Numbering vertex 1 or vertex 2 first gives the same rows 1 and 2; only
    # row 3 tells the branches apart, so a search that stops comparing rows
    # after a tie and compares only externals at the leaves gets this wrong.
    g = OrderedGraph(4, ((1, 1), (1, 2), (1, 4), (2, 2), (2, 3), (3, 3)))
    canon = canonicalize(g)
    assert canon.edges == ((1, 1), (1, 2), (1, 3), (2, 2), (2, 4), (3, 3))
    assert canon == brute_force_canonicalize(g)
    assert vertex_symmetry_factor(g) == fixing_renumbering_count(g)


def _cube():
    # Vertices 1..8 are 3-bit words; words one bit apart are joined.
    return [(a + 1, b + 1) for a in range(8) for b in range(a + 1, 8) if bin(a ^ b).count("1") == 1]


#: Graphs with 7 and 8 vertices whose rows tie: the search numbers 3 or 4 of
#: their vertices, with ties to branch on, before a table finishes the rest,
#: itself with ties in the star and the complete bipartite graphs.
LARGE_TIED_GRAPHS = {
    "cube": OrderedGraph(8, _cube()),
    "cube-looped-labelled": OrderedGraph(8, _cube() + [(2, 2), (7, 7)], {"x0": 4, "x1": 6}),
    "7-cycle-doubled": OrderedGraph(7, _doubled_cycle(7, [1, 0, 1, 0, 0, 1, 0])),
    "7-cycle-doubled-looped": OrderedGraph(
        7, _doubled_cycle(7, [0, 1, 0, 0, 1, 0, 0]) + [(3, 3), (6, 6)], {"x0": 5}),
    "7-cycle-looped-labelled": OrderedGraph(
        7, _doubled_cycle(7, [0] * 7) + [(1, 1), (3, 3), (5, 5)], {"x0": 1, "x1": 4}),
    "star-7-looped-labelled": OrderedGraph(
        7, [(1, k) for k in range(2, 8)] + [(3, 3), (6, 6)], {"x0": 5, "x1": 6}),
    "K2,5": OrderedGraph(7, [(a, b) for a in (4, 6) for b in (1, 2, 3, 5, 7)]),
    "K4,4-labelled": OrderedGraph(
        8, [(a, b) for a in (1, 3, 5, 7) for b in (2, 4, 6, 8)], {"x0": 2}),
}


@pytest.mark.parametrize("g", [
    *LARGE_TIED_GRAPHS.values(), *[OrderedGraph(v, edges) for v, edges in TIED_GRAPHS.values()],
], ids=[*LARGE_TIED_GRAPHS, *TIED_GRAPHS])
def test_stage_one_returns_every_least_renumbering_in_order(g):
    # Stage 1 returns every renumbering giving the least edge tuple, ordered
    # by the old vertices they number 1, 2, ..., v, as the search reaches
    # them; the table orders its ties the same way.
    v = g.vertex_count
    renumbered = {perm: _renumbered_edges(g.edges, perm)
                  for perm in itertools.permutations(range(1, v + 1))}
    least = min(renumbered.values())
    reaching = sorted([perm for perm, edges in renumbered.items() if edges == least],
                      key=lambda perm: sorted(range(1, v + 1), key=lambda old: perm[old - 1]))
    assert _max_vector_numberings(v, g.edges) == (least, [list(perm) for perm in reaching])
    assert canonicalize(g) == brute_force_canonicalize(g)
    fixing = sum(edges == g.edges and all(perm[vtx - 1] == vtx for _, vtx in g.externals)
                 for perm, edges in renumbered.items())
    assert vertex_symmetry_factor(g) == fixing


def test_vacuum_3_6_finishes_from_tables_of_at_most_four_positions():
    clear_cache()
    try:
        omega_classes(3, 6)
        assert graphs._FINISHES
        for sizes in graphs._FINISHES:
            assert sum(sizes) <= graphs._TABLE_VERTICES and max(sizes) >= 2, sizes
    finally:
        clear_cache()


def test_import_builds_no_table():
    code = "import feyngen.graphs as g; print(len(g._FINISHES))"
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=60, check=True)
    assert result.stdout.strip() == "0"


def test_canonical_search_on_the_generated_grid():
    """Every ordered graph of the omega cells with e <= 5 and n <= 2 labels, and
    of the vacuum cells (3, 3) and (3, 4): the search behind canonicalize and
    vertex_symmetry_factor gives the exhaustive minimum and the number of
    fixing renumberings.  Both are taken once per class and looked up for
    every renumbering in it; the search runs once per graph."""
    cells = [
        (e - v + 1, v, Monomial(("a", "b")[:n]))
        for e in range(6) for v in range(1, e + 2) for n in range(3)
    ] + [(3, 3, ONE), (3, 4, ONE)]
    for l, v, m in cells:
        perms = list(itertools.permutations(range(1, v + 1)))
        expected: dict[OrderedGraph, tuple[OrderedGraph, int]] = {}
        for g, _ in omega(l, v, m).items():
            if g not in expected:
                canon = brute_force_canonicalize(g)
                renumberings = [permute_vertices(canon, perm) for perm in perms]
                fixing = renumberings.count(canon)
                expected.update((h, (canon, fixing)) for h in renumberings)
            perm, count = _lex_min_numbering(g)
            assert (permute_vertices(g, perm), count) == expected[g], g


@given(small_graphs())
@settings(max_examples=40, deadline=None)
def test_loop_number_is_permutation_invariant(g):
    if not is_connected(g):
        return
    l = loop_number(g)
    assert loop_number(canonicalize(g)) == l
    for perm in itertools.permutations(range(1, g.vertex_count + 1)):
        assert loop_number(permute_vertices(g, perm)) == l


def test_json_round_trip():
    g = OrderedGraph(2, ((1, 1), (1, 2)), {"x": 2})
    doc = graph_to_dict(g, Fraction(1, 2))
    g2, w = graph_from_dict(doc)
    assert g2 == g and w == Fraction(1, 2)


def test_dot_export_mentions_all_parts():
    text = to_dot(OrderedGraph(2, ((1, 1), (1, 2)), {"x": 2}), Fraction(1, 4))
    assert "v1 -- v1" in text
    assert "v1 -- v2" in text
    assert '"x" [shape=diamond]' in text
    assert "// weight 1/4" in text


def test_dot_quotes_labels_with_quotes_and_backslashes():
    text = to_dot(OrderedGraph(2, ((1, 2),), {'a"b': 1, "a\\b": 2, "c\\": 2}))
    assert '  "a\\"b" [shape=diamond];\n  "a\\"b" -- v1;' in text
    assert '  "a\\\\b" [shape=diamond];\n  "a\\\\b" -- v2;' in text
    # A trailing backslash must not escape the closing quote.
    assert '  "c\\\\" -- v2;' in text


def test_dot_label_spelled_like_a_vertex_gets_a_fresh_node_id():
    # "v1" and v1 are one DOT ID; "ext0" is taken by another label.
    text = to_dot(OrderedGraph(2, ((1, 2),), {"v1": 2, "ext0": 1, "v3": 1}))
    assert '  "ext1" [shape=diamond, label="v1"];\n  "ext1" -- v2;' in text
    assert '  "ext0" [shape=diamond];\n  "ext0" -- v1;' in text
    # v3 names no vertex of this graph, so it keeps its own ID.
    assert '  "v3" [shape=diamond];\n  "v3" -- v1;' in text
    assert '"v1" --' not in text
