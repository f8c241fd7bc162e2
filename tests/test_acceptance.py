"""Acceptance suite.

Each test checks one release criterion end to end and prints a single
PASS/FAIL line (visible with ``pytest tests/test_acceptance.py -s``).
All comparisons are exact rational unless stated otherwise.
"""

import functools
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from feyngen.algebra import ONE, Monomial
from feyngen.evaluation import Model, sigma_lv
from feyngen.graphs import OrderedGraph
from feyngen.hopf import (
    GenOptions,
    distribute,
    iterated_coproduct,
    omega,
    omega_alt,
    sigma_recursive,
)
from feyngen.invariants import is_connected, symmetry_factor
from feyngen.oracle import (
    brute_force_symmetry_factor,
    enumerate_connected,
    zero_dim_log_z,
)
from feyngen.records import graph_from_dict, graph_to_dict
from feyngen.recursion import (
    GraphSum,
    clear_cache,
    reset_stats,
    split_term_count,
    vertex_bound,
)

LABELS = ("x0", "x1", "x2", "x3")


def criterion(number, title):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.monotonic()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number}: FAIL  {title}", flush=True)
                raise
            elapsed = time.monotonic() - start
            print(f"criterion {number}: PASS  {title}  ({elapsed:.1f}s)", flush=True)

        return wrapper

    return deco


def cells(max_edges):
    """All (l, v) with 1 <= v and l >= 0 and l + v - 1 <= max_edges."""
    for e in range(0, max_edges + 1):
        for v in range(1, e + 2):
            yield e - v + 1, v


@criterion(1, "generator weights equal inverse automorphism counts (e<=4, n<=3)")
def test_generator_matches_brute_force_enumeration():
    for l, v in cells(4):
        for n in range(0, 4):
            m = Monomial(LABELS[:n])
            assert omega(l, v, m).canonical_merge() == enumerate_connected(l, v, m), (l, v, n)


@criterion(2, "vacuum table up to three edges, with spot-checked weights")
def test_vacuum_weight_table():
    for l, v in cells(3):
        got = omega(l, v).canonical_merge()
        assert got == enumerate_connected(l, v), (l, v)
        for g, w in got.items():
            assert w == Fraction(1, brute_force_symmetry_factor(g)), g
    spot = {
        OrderedGraph(1, ((1, 1),)): Fraction(1, 2),
        OrderedGraph(1, ((1, 1), (1, 1))): Fraction(1, 8),
        OrderedGraph(2, ((1, 2),) * 3): Fraction(1, 12),
        OrderedGraph(2, ((1, 1), (2, 2), (1, 2))): Fraction(1, 8),
        OrderedGraph(2, ((1, 2), (1, 2))): Fraction(1, 4),
    }
    for g, w in spot.items():
        cell = omega(loop_number_of(g), g.vertex_count).canonical_merge()
        assert cell.coefficient(g) == w, g


def loop_number_of(g):
    return len(g.edges) - g.vertex_count + 1


@criterion(3, "split-vertex and glue recursions agree (e<=4, n<=3)")
def test_alternative_recursion_agrees():
    for l, v in cells(4):
        for n in range(0, 4):
            m = Monomial(LABELS[:n])
            assert omega_alt(l, v, m) == omega(l, v, m), (l, v, n)


@criterion(4, "scalar recursion matches graph-sum evaluation on two models (e<=4, n<=3)")
def test_scalar_recursion_matches_graph_evaluation():
    one_label = Model(
        ("x",),
        {("x", "x"): Fraction(1, 3)},
        vertex_by_degree={3: Fraction(5, 7), 4: Fraction(2, 9)},
    )
    two_label = Model(
        ("a", "b"),
        {("a", "a"): Fraction(2), ("a", "b"): Fraction(1, 2), ("b", "b"): Fraction(1)},
        vertex_by_degree={1: Fraction(1, 5), 3: Fraction(1, 2), 4: Fraction(2, 7)},
    )
    for model in (one_label, two_label):
        for l, v in cells(4):
            for n in range(0, 4):
                m = Monomial(LABELS[:n])
                assert sigma_recursive(model, l, v, m) == sigma_lv(model, l, v, m), (l, v, n)


@criterion(5, "zero-dimensional models reproduce the log Z power series (v<=4, n<=4, l<=3)")
def test_zero_dimensional_physics():
    g3, lam3 = Fraction(1, 3), Fraction(5, 7)
    g4, lam4 = Fraction(2, 5), Fraction(3)
    phi3 = Model(("x",), {("x", "x"): g3}, vertex_by_degree={3: lam3 * g3**3})
    phi4 = Model(("x",), {("x", "x"): g4}, vertex_by_degree={4: lam4 * g4**4})

    # Named spot values.
    assert sigma_lv(phi3, 2, 2) == Fraction(5, 24) * lam3**2 * g3**3
    assert sigma_lv(phi4, 1, 1, Monomial.of("x1", "x2")) == Fraction(1, 2) * lam4 * g4**3

    # Full grade grid against the independent series oracle.  The scalar
    # recursion covers the whole grid; the graph-level pipeline is spot
    # checked on the e<=4 subgrid (and tied to the scalar recursion by
    # criterion 4).
    for model, arity, lam, g in ((phi3, 3, lam3, g3), (phi4, 4, lam4, g4)):
        series = zero_dim_log_z({arity: lam}, g, max_sources=4, max_vertices=4, max_edges=6)
        for v in range(1, 5):
            for l in range(0, 4):
                for n in range(0, 5):
                    m = Monomial(LABELS[:n])
                    want = series[(n, l, v)]
                    assert sigma_recursive(model, l, v, m) == want, (arity, l, v, n)
                    if l + v - 1 <= 4 and n <= 3:
                        assert sigma_lv(model, l, v, m) == want, (arity, l, v, n)


@criterion(6, "symmetry factor splits into vertex and edge parts (exhaustive e<=4, 500 random)")
def test_symmetry_factor_factorization():
    checked = 0
    for l, v in cells(4):
        for g, _ in omega(l, v).canonical_merge().items():
            assert brute_force_symmetry_factor(g) == symmetry_factor(g), g
            checked += 1
    rng = random.Random(20240817)
    samples = 0
    while samples < 500:
        v = rng.randint(1, 5)
        e = rng.randint(0, 5)
        edges = tuple(
            tuple(sorted((rng.randint(1, v), rng.randint(1, v)))) for _ in range(e)
        )
        externals = {
            f"y{i}": rng.randint(1, v) for i in range(rng.randint(0, 2))
        }
        g = OrderedGraph(v, edges, externals)
        if not is_connected(g):
            continue
        assert brute_force_symmetry_factor(g) == symmetry_factor(g), g
        samples += 1
    assert checked > 0 and samples == 500


@criterion(7, "extra external labels distribute over vertices by the coproduct (e<=3)")
def test_external_label_factorization():
    pairs = [
        (ONE, ONE),
        (Monomial.of("x0"), Monomial.of("y0")),
        (Monomial.of("x0", "x1"), Monomial.of("y0")),
        (Monomial.of("x0"), Monomial.of("y0", "y1")),
        (Monomial.of("x0", "x1"), Monomial.of("y0", "y1")),
    ]
    for l, v in cells(3):
        for m1, m2 in pairs:
            lhs = omega(l, v, m1 * m2)
            rhs = distribute(omega(l, v, m1), iterated_coproduct(m2, v - 1))
            assert lhs == rhs, (l, v, m1, m2)


@criterion(8, "pruned generation is sound and visits strictly fewer terms")
def test_pruning_soundness():
    opts = GenOptions(min_valence=2, max_loops=2)

    def compliant(g):
        return all(g.valence(i) >= 3 for i in range(1, g.vertex_count + 1))

    for l in (1, 2):
        for v in range(1, 6 - l):  # e = l + v - 1 <= 4
            for n in range(0, 3):
                m = Monomial(LABELS[:n])
                pruned = omega(l, v, m, opts).canonical_merge().restricted(compliant)
                full = omega(l, v, m).canonical_merge().restricted(compliant)
                assert pruned == full, (l, v, n)

    clear_cache()
    reset_stats()
    omega(2, 3, ONE)
    full_count = split_term_count()
    clear_cache()
    reset_stats()
    omega(2, 3, ONE, opts)
    pruned_count = split_term_count()
    clear_cache()
    print(f"  split terms visited: pruned {pruned_count} vs full {full_count}", flush=True)
    assert 0 < pruned_count < full_count


@criterion(9, "deterministic output and lossless JSON round-trips")
def test_determinism_and_round_trip():
    args = [
        sys.executable, "-m", "feyngen.cli",
        "generate", "--loops", "0-2", "--vertices", "1-3",
        "--externals", "x0,x1", "--format", "json",
    ]
    # The child finds the package in the checkout, as the tests do.
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    runs = [subprocess.run(args, capture_output=True, check=True, env=env) for _ in range(2)]
    assert runs[0].stdout == runs[1].stdout and runs[0].stdout

    for l, v in cells(4):
        for n in range(0, 4):
            cell = omega(l, v, Monomial(LABELS[:n])).canonical_merge()
            docs = json.loads(json.dumps([graph_to_dict(g, w) for g, w in cell.items()]))
            loaded = GraphSum(v, [graph_from_dict(d) for d in docs])
            assert loaded == cell, (l, v, n)
