"""Independent ground-truth generators for the graph engine.

Two unrelated oracles: exhaustive connected-multigraph enumeration, one
representative per class taken as the minimum over all v! renumberings and
weighted by a direct automorphism count over joint vertex/edge-end
renumberings, and a series oracle that reads the connected n-point grades
off log Z of the zero-dimensional model with numeric couplings.  Neither
shares code paths with the recursion engine, its canonical-form search or
the closed-form symmetry formulas it uses; compare merges graph sums by the
brute-force canonical form too.  A reference graph evaluator enumerates every
assignment of labels to edge ends; it shares only the vertex function and the
model tables with elimination.evaluate_graph.  verify's three suites, at the
end, compare the engine with these references.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial
from typing import Callable, Mapping

from .algebra import ONE, Frozen, Monomial, ResourceLimitError
from .evaluation import Model, Scalar, nu
from .graphs import OrderedGraph
from .invariants import is_connected
from .recursion import GraphSum

DEFAULT_EDGE_LIMIT = 5


# ---------------------------------------------------------------------------
# brute-force symmetry counting


def _end_bijection_count(source: list[tuple[int, int]], target: list[tuple[int, int]]) -> int:
    """Count bijections of edges with an end orientation each, mapping the
    source edge list onto the target edge multiset end-by-end."""
    e = len(source)
    used = [False] * e
    count = 0

    def backtrack(k: int) -> None:
        nonlocal count
        if k == e:
            count += 1
            return
        a, b = source[k]
        for idx in range(e):
            if used[idx]:
                continue
            ta, tb = target[idx]
            for x, y in ((ta, tb), (tb, ta)):
                if (a, b) == (x, y):
                    used[idx] = True
                    backtrack(k + 1)
                    used[idx] = False

    backtrack(0)
    return count


def brute_force_symmetry_factor(g: OrderedGraph) -> int:
    """Count joint renumberings of vertices and edge ends fixing the graph.

    Pure search: every vertex permutation that fixes the external assignment
    is combined with an explicit count of edge/end bijections.
    """
    edges = list(g.edges)
    total = 0
    for perm in itertools.permutations(range(1, g.vertex_count + 1)):
        if any(perm[vtx - 1] != vtx for _, vtx in g.externals):
            continue
        mapped = [(perm[a - 1], perm[b - 1]) for a, b in edges]
        total += _end_bijection_count(mapped, edges)
    return total


def brute_force_edge_symmetry_factor(g: OrderedGraph) -> int:
    """Edge-end renumberings fixing the graph with the vertex order held fixed."""
    edges = list(g.edges)
    return _end_bijection_count(edges, edges)


# ---------------------------------------------------------------------------
# brute-force canonical form


def brute_force_canonicalize(g: OrderedGraph) -> OrderedGraph:
    """Minimal renumbering of the graph keyed by (edges, externals), taken over
    all v! vertex permutations."""

    def renumbered(perm: tuple[int, ...]) -> tuple[tuple, tuple]:
        new = (0, *perm)
        edges = sorted((new[a], new[b]) if new[a] <= new[b] else (new[b], new[a]) for a, b in g.edges)
        # The externals stay sorted: they are sorted by label and the labels are distinct.
        return tuple(edges), tuple((lab, new[vtx]) for lab, vtx in g.externals)

    keys = map(renumbered, itertools.permutations(range(1, g.vertex_count + 1)))
    return OrderedGraph(g.vertex_count, *min(keys))


def _brute_force_merge(s: GraphSum) -> GraphSum:
    return GraphSum(s.vertex_count, ((brute_force_canonicalize(g), c) for g, c in s.items()))


# ---------------------------------------------------------------------------
# brute-force graph evaluation


def brute_force_evaluate_graph(
    model: Model, g: OrderedGraph, weight: Fraction = Fraction(1)
) -> Scalar:
    """Value of one graph: sum over internal label assignments of the product
    of vertex functions and one inverse propagator per internal edge, times
    the weight.

    Enumerates all |labels|^(2e) assignments to the edge ends.  External
    names are used as model labels as they stand.
    """
    edges = g.edges
    base: list[list[str]] = [[] for _ in range(g.vertex_count)]
    for lab, vtx in g.externals:
        base[vtx - 1].append(lab)
    pair_choices = [
        [(x, y, model.inverse_propagator[(x, y)]) for x in model.labels for y in model.labels]
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


# ---------------------------------------------------------------------------
# exhaustive connected enumeration


def enumerate_connected(l: int, v: int, externals: Monomial = ONE) -> GraphSum:
    """All connected graphs with l loops, v vertices and the given external
    labels, one canonical representative each, weighted by the inverse of the
    brute-force automorphism count; at most DEFAULT_EDGE_LIMIT edges.

    Orderly generation (R. C. Read, 1978): the labels are placed in every way
    on each edge multiset that is its own brute-force canonical form, which
    every class of skeletons (graphs without labels) has exactly one of."""
    if v < 1:
        raise ValueError("vertex count must be at least 1")
    if l < 0:
        raise ValueError("loop number must be non-negative")
    if not externals.has_distinct_factors():
        raise ValueError("external labels must be pairwise distinct")
    e = l + v - 1
    if e > DEFAULT_EDGE_LIMIT:
        raise ResourceLimitError(f"edge count {e} exceeds limit {DEFAULT_EDGE_LIMIT}")
    slots = [(i, j) for i in range(1, v + 1) for j in range(i, v + 1)]
    labels = externals.factors
    acc: dict[OrderedGraph, Fraction] = {}
    for edge_multiset in itertools.combinations_with_replacement(slots, e):
        skeleton = OrderedGraph(v, edge_multiset)
        if not is_connected(skeleton) or brute_force_canonicalize(skeleton) != skeleton:
            continue
        for assignment in itertools.product(range(1, v + 1), repeat=len(labels)):
            g = OrderedGraph(v, edge_multiset, tuple(zip(labels, assignment)))
            canon = brute_force_canonicalize(g)
            if canon not in acc:
                acc[canon] = Fraction(1, brute_force_symmetry_factor(canon))
    return GraphSum(v, acc)


# ---------------------------------------------------------------------------
# zero-dimensional series oracle


def perfect_matching_count(points: int) -> int:
    """Number of perfect matchings of a set of points, by explicit pairing."""
    if points % 2:
        return 0

    def count(rest: tuple[int, ...]) -> int:
        if not rest:
            return 1
        first, *others = rest
        total = 0
        for i in range(len(others)):
            total += count(tuple(others[:i] + others[i + 1:]))
        return total

    return count(tuple(range(points)))


def double_factorial(n: int) -> int:
    result = 1
    while n > 1:
        result *= n
        n -= 2
    return result


def zero_dim_log_z(couplings: Mapping[int, Fraction], covariance: Fraction, max_sources: int,
                   max_vertices: int, max_edges: int) -> dict[tuple[int, int, int], Fraction]:
    """Connected grades of the zero-dimensional model, read off log Z.

    Z is the Gaussian expectation, with moments <phi^H> = (H-1)!!
    covariance^(H/2), of exp(source * phi) exp(sum_d lambda_d phi^d / d!)
    for the numeric couplings {d: lambda_d}.  Its terms are tracked by the
    source power n, the vertex count v and the vertex half-edges h, and
    truncated at n <= max_sources, v <= max_vertices and e = (h - n)/2 <=
    max_edges internal edges.  The result maps every grade (n, l, v) inside
    the truncation, l = e - v + 1, zeros included, to n! times its
    coefficient in log Z: the connected n-point grade.  A grade outside it
    is no key.
    """
    if min(couplings, default=1) < 1:
        raise ValueError("coupling degrees must be at least 1")
    top = 2 * max_edges + max_sources  # the most half-edges a kept grade has
    vertex = {d: Fraction(c) / factorial(d) for d, c in couplings.items() if d <= top}
    # rows[v][h]: the coefficient of phi^h in (sum_d lambda_d phi^d / d!)^v / v!
    rows = [{0: Fraction(1)}]
    for v in range(1, max_vertices + 1):
        row: dict[int, Fraction] = {}
        for h, c in rows[-1].items():
            for d, a in vertex.items():
                if h + d <= top:
                    row[h + d] = row.get(h + d, 0) + c * a / v
        rows.append(row)
    # the terms of Z, with the moments and the 1/n! of exp(source * phi)
    z = {
        (n, v, h): c * double_factorial(h + n - 1) * covariance ** ((h + n) // 2) / factorial(n)
        for n in range(max_sources + 1)
        for v, row in enumerate(rows)
        for h, c in row.items()
        if (h + n) % 2 == 0
    }
    # log Z term by term, skipping the 1 at (0, 0, 0), in the order of
    # t = n + v: from Z' = Z (log Z)' in t, t L[k] = t Z[k] minus the sum of
    # t1 L[k1] Z[k - k1] over the terms k1 of L before k, t1 the t of k1
    log_z: dict[tuple[int, int, int], Fraction] = {}
    for n, v, h in sorted(z, key=lambda key: key[0] + key[1])[1:]:
        total = (n + v) * z[(n, v, h)]
        for (n1, v1, h1), c1 in log_z.items():
            rest = z.get((n - n1, v - v1, h - h1))
            if rest:
                total -= (n1 + v1) * c1 * rest
        log_z[(n, v, h)] = total / (n + v)
    grades = {(n, e - v + 1, v): Fraction(0) for n in range(max_sources + 1)
              for v in range(max_vertices + 1) for e in range(-(n // 2), max_edges + 1)}
    for (n, v, h), c in log_z.items():
        e = (h - n) // 2
        if e <= max_edges:
            grades[(n, e - v + 1, v)] += c * factorial(n)
    return grades


# ---------------------------------------------------------------------------
# comparison reports


class ComparisonReport(Frozen):
    __slots__ = ("ok", "diffs")

    def __init__(self, ok: bool, diffs: tuple[tuple[str, object, object], ...] = ()) -> None:
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "diffs", diffs)

    def __bool__(self) -> bool:
        return self.ok

    def describe(self) -> str:
        if self.ok:
            return "equal"
        lines = [f"{len(self.diffs)} mismatch(es):"]
        for key, left, right in self.diffs:
            lines.append(f"  {key}: engine={left} oracle={right}")
        return "\n".join(lines)


def compare(engine_output, oracle_output) -> ComparisonReport:
    """Exact equality report with per-item diffs.

    Graph sums are compared class by class, merged by brute_force_canonicalize.
    Sums equal as ordered sums are reported equal without merging: equal
    ordered sums have equal merges.
    """
    if isinstance(engine_output, GraphSum) and isinstance(oracle_output, GraphSum):
        if engine_output == oracle_output:
            return ComparisonReport(True)
        left = _brute_force_merge(engine_output)
        right = _brute_force_merge(oracle_output)
        diffs = []
        keys = {g for g, _ in left.items()} | {g for g, _ in right.items()}
        for g in sorted(keys, key=lambda g: (g.edges, g.externals)):
            cl, cr = left.coefficient(g), right.coefficient(g)
            if cl != cr:
                diffs.append((f"v={g.vertex_count} edges={g.edges} ext={g.externals}", cl, cr))
        return ComparisonReport(not diffs, tuple(diffs))
    if engine_output - oracle_output == 0:
        return ComparisonReport(True)
    return ComparisonReport(False, (("value", engine_output, oracle_output),))


# ---------------------------------------------------------------------------
# verify's suites: the engine against the references above
#
# Only these functions call the engine.  Each imports the engine code it
# checks, so nothing above imports it.


def _verify_suite(
    suite: str,
    first_edges: int,
    max_edges: int,
    compare_cell: Callable[[int, int, int], ComparisonReport],
    report_lines: list[str],
) -> bool:
    """Compare every cell (l, v, n) with first_edges <= l+v-1 <= max_edges
    and n <= 2 external labels; one status line per cell."""
    ok = True
    for e in range(first_edges, max_edges + 1):
        for v in range(1, e + 2):
            l = e - v + 1
            for n in range(0, 3):
                result = compare_cell(l, v, n)
                report_lines.append(f"{suite} l={l} v={v} n={n}: {'ok' if result else 'MISMATCH'}")
                if not result:
                    report_lines.append(result.describe())
                    ok = False
    return ok


def verify_graph_oracle(first_edges: int, max_edges: int, report_lines: list[str]) -> bool:
    """verify's graph-oracle suite: omega_classes against enumerate_connected."""
    from .recursion import omega_classes

    def cell(l: int, v: int, n: int) -> ComparisonReport:
        m = Monomial(("x1", "x2")[:n])
        return compare(omega_classes(l, v, m), enumerate_connected(l, v, m))

    return _verify_suite("graph-oracle", first_edges, max_edges, cell, report_lines)


def verify_alt_recursion(first_edges: int, max_edges: int, report_lines: list[str]) -> bool:
    """verify's alt-recursion suite: hopf.omega_alt against hopf.omega."""
    from .hopf import omega, omega_alt

    def cell(l: int, v: int, n: int) -> ComparisonReport:
        m = Monomial(("x1", "x2")[:n])
        return compare(omega_alt(l, v, m), omega(l, v, m))

    return _verify_suite("alt-recursion", first_edges, max_edges, cell, report_lines)


def verify_sigma(first_edges: int, max_edges: int, report_lines: list[str]) -> bool:
    """verify's sigma suite: sigma_lv against the grades of zero_dim_log_z
    in two one-label models with covariance g = 1/2 and vertex values
    lambda_d g^d: phi^3 + phi^4 with lambda_3 = lambda_4 = 3, in which a
    graph with a vertex of valence 1, 2 or at least 5 is worth 0, and the
    all-degree model, lambda_d = (d^2 + 1)/(7d + 3) up to the largest
    valence, 2 max_edges + 2.  There each degree profile of a cell has its
    own monomial in the lambda_d, so a wrong weight shows unless this point
    is a root of the error polynomial (J. T. Schwartz, J. ACM 27, 1980).  A
    cell is ok when both models agree; its report names the model that
    differs."""
    from .evaluation import sigma_lv

    g = Fraction(1, 2)
    models = {
        "phi^3 + phi^4": {3: Fraction(3), 4: Fraction(3)},
        "all-degree": {d: Fraction(d * d + 1, 7 * d + 3) for d in range(1, 2 * max_edges + 3)},
    }
    checks = []
    for name, couplings in models.items():
        model = Model(("x",), {("x", "x"): g},
                      vertex_by_degree={d: c * g**d for d, c in couplings.items()})
        series = zero_dim_log_z(couplings, g, 2, max_edges + 1, max_edges)
        checks.append((name, model, series))

    def cell(l: int, v: int, n: int) -> ComparisonReport:
        m = Monomial(tuple(f"x{i}" for i in range(n)))
        diffs = tuple(
            (f"{name} {key}", engine, oracle)
            for name, model, series in checks
            for key, engine, oracle in compare(sigma_lv(model, l, v, m), series[(n, l, v)]).diffs
        )
        return ComparisonReport(not diffs, diffs)

    return _verify_suite("sigma", first_edges, max_edges, cell, report_lines)
