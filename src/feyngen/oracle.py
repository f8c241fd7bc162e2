"""Independent ground-truth generators for the graph engine.

Two unrelated oracles: exhaustive connected-multigraph enumeration, one
representative per class taken as the minimum over all v! renumberings and
weighted by a direct automorphism count over joint vertex/edge-end
renumberings, and a formal power-series oracle that reads connected n-point
coefficients off log Z of the zero-dimensional model.  Neither shares code
paths with the recursion engine, its canonical-form search or the
closed-form symmetry formulas it uses; compare merges graph sums by the
brute-force canonical form too.  A reference graph evaluator enumerates every
assignment of labels to edge ends; it shares only the vertex function and the
model tables with evaluation.evaluate_graph.  verify's three suites, at the
end, compare the engine with these references.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial
from typing import Callable, Iterable, Mapping, Sequence

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


class SeriesEntry(Frozen):
    __slots__ = ("coefficient", "covariance_power")

    def __init__(self, coefficient: Fraction, covariance_power: int) -> None:
        object.__setattr__(self, "coefficient", coefficient)
        object.__setattr__(self, "covariance_power", covariance_power)


class SeriesTable:
    """Connected coefficients of the zero-dimensional model, from log Z.

    Keys are (source count n, per-arity vertex counts); the value carries the
    exact rational coefficient of the corresponding coupling monomial and the
    implied power of the covariance symbol.
    """

    def __init__(
        self,
        arities: tuple[int, ...],
        max_sources: int,
        max_vertices: int,
        entries: Mapping[tuple[int, tuple[int, ...]], SeriesEntry],
    ) -> None:
        self.arities = arities
        self.max_sources = max_sources
        self.max_vertices = max_vertices
        self._entries = dict(entries)

    def coefficient(self, n: int, vertex_counts: Mapping[int, int]) -> SeriesEntry:
        """Connected n-point coefficient for the given number of vertices of
        each arity (n-factorial normalization already applied)."""
        if n > self.max_sources:
            raise ResourceLimitError(f"source count {n} beyond truncation {self.max_sources}")
        vec = tuple(vertex_counts.get(k, 0) for k in self.arities)
        extra = set(vertex_counts) - set(self.arities)
        if extra:
            raise ValueError(f"unknown arities {sorted(extra)}")
        if sum(vec) > self.max_vertices:
            raise ResourceLimitError("vertex count beyond truncation")
        return self._entries.get((n, vec), SeriesEntry(Fraction(0), 0))

    def connected_value(
        self,
        n: int,
        l: int,
        v: int,
        couplings: Mapping[int, Fraction],
        covariance: Fraction,
    ) -> Fraction:
        """Numeric l-loop, v-vertex connected n-point value: sum the stored
        coefficients over arity splits compatible with (l, v, n)."""
        if n > self.max_sources or v > self.max_vertices:
            raise ResourceLimitError("grade beyond truncation")
        total = Fraction(0)
        for (nn, vec), entry in self._entries.items():
            if nn != n or sum(vec) != v:
                continue
            half_edges = sum(k * c for k, c in zip(self.arities, vec))
            if (half_edges - n) % 2:
                continue
            internal_edges = (half_edges - n) // 2
            if internal_edges - v + 1 != l:
                continue
            value = entry.coefficient * covariance**entry.covariance_power
            for k, c in zip(self.arities, vec):
                value *= couplings.get(k, Fraction(0)) ** c
            total += value
        return total


def zero_dim_log_z(
    arities: Iterable[int], max_sources: int, max_vertices: int
) -> SeriesTable:
    """Formal log of the zero-dimensional partition function.

    Z is the Gaussian expectation of exp(sum_k coupling_k phi^k / k!) times
    exp(source * phi); moments are (2k-1)!! covariance^k.  The logarithm is
    taken as a truncated multivariate series with exact coefficients.
    """
    arities = tuple(sorted(set(arities)))
    if any(k < 1 for k in arities):
        raise ValueError("coupling arities must be at least 1")
    # Series terms are keyed by (source power n, per-arity vertex counts,
    # covariance power); coefficients are exact rationals and include the
    # 1/n! of the source exponential.
    Zero = Fraction(0)
    z: dict[tuple[int, tuple[int, ...], int], Fraction] = {}
    vertex_ranges = [range(max_vertices + 1) for _ in arities]
    for vec in itertools.product(*vertex_ranges):
        if sum(vec) > max_vertices:
            continue
        for n in range(max_sources + 1):
            half_edges = n + sum(k * c for k, c in zip(arities, vec))
            if half_edges % 2:
                continue
            coeff = Fraction(double_factorial(half_edges - 1), factorial(n))
            for k, c in zip(arities, vec):
                coeff /= factorial(c) * factorial(k) ** c
            z[(n, vec, half_edges // 2)] = coeff

    def truncated_product(a, b):
        out: dict[tuple[int, tuple[int, ...], int], Fraction] = {}
        for (n1, v1, g1), c1 in a.items():
            for (n2, v2, g2), c2 in b.items():
                n = n1 + n2
                vec = tuple(x + y for x, y in zip(v1, v2))
                if n > max_sources or sum(vec) > max_vertices:
                    continue
                key = (n, vec, g1 + g2)
                c = out.get(key, Zero) + c1 * c2
                if c:
                    out[key] = c
                else:
                    out.pop(key, None)
        return out

    zero_vec = tuple(0 for _ in arities)
    w = dict(z)
    w[(0, zero_vec, 0)] = w.get((0, zero_vec, 0), Zero) - 1
    w = {k: c for k, c in w.items() if c}
    log_z: dict[tuple[int, tuple[int, ...], int], Fraction] = {}
    power = dict(w)
    max_order = max_sources + max_vertices
    for m in range(1, max_order + 1):
        sign = Fraction((-1) ** (m + 1), m)
        for key, c in power.items():
            val = log_z.get(key, Zero) + sign * c
            if val:
                log_z[key] = val
            else:
                log_z.pop(key, None)
        if m < max_order:
            power = truncated_product(power, w)
            if not power:
                break

    entries: dict[tuple[int, tuple[int, ...]], SeriesEntry] = {}
    for (n, vec, gpow), coeff in log_z.items():
        value = coeff * factorial(n)
        if value:
            entries[(n, vec)] = SeriesEntry(value, gpow)
    return SeriesTable(arities, max_sources, max_vertices, entries)


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
    """verify's alt-recursion suite: hopf.omega_alt against recursion.omega."""
    from .hopf import omega_alt
    from .recursion import omega

    def cell(l: int, v: int, n: int) -> ComparisonReport:
        m = Monomial(("x1", "x2")[:n])
        return compare(omega_alt(l, v, m), omega(l, v, m))

    return _verify_suite("alt-recursion", first_edges, max_edges, cell, report_lines)


def verify_sigma(first_edges: int, max_edges: int, report_lines: list[str]) -> bool:
    """verify's sigma suite: sigma_lv in the zero-dimensional phi^3 + phi^4
    model against the connected coefficients of zero_dim_log_z."""
    from .evaluation import sigma_lv

    g = Fraction(1, 2)
    lam = Fraction(3)
    model = Model(
        ("x",),
        {("x", "x"): g},
        vertex_by_degree={3: lam * g**3, 4: lam * g**4},
    )
    series = zero_dim_log_z((3, 4), max_sources=2, max_vertices=max_edges + 1)
    couplings = {3: lam, 4: lam}

    def cell(l: int, v: int, n: int) -> ComparisonReport:
        m = Monomial(tuple(f"x{i}" for i in range(n)))
        return compare(sigma_lv(model, l, v, m), series.connected_value(n, l, v, couplings, g))

    return _verify_suite("sigma", first_edges, max_edges, cell, report_lines)
