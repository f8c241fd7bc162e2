"""Graph values in a finite model, and the multiset model's vertex elimination.

A graph's value is a finite sum over assignments of model labels to its
internal edge ends.  evaluate_graph takes the closed form of
evaluation._degree_closed_form in a degree model; in a multiset model the
value, and an n-point grade's sum over the placements of its labels
(evaluation.sigma_lv), is computed by eliminating one vertex at a time
(_eliminate).  A degree model's grades never run this module, so evaluate
loads it only for a multiset model.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Sequence

from .algebra import Monomial
from .evaluation import Model, Scalar, _degree_closed_form, nu
from .graphs import OrderedGraph
from .recursion import GraphSum, _valences


def evaluate_graph(model: Model, g: OrderedGraph, weight: Fraction = Fraction(1)) -> Scalar:
    """Value of one graph: sum over assignments of model labels to the internal
    edge ends of the product of one inverse propagator per internal edge and
    the vertex function of every vertex, times the weight.  An external edge
    carries its own name as its model label.  A degree model takes the
    closed form (_degree_closed_form); a multiset model runs _eliminate with
    the externals fixed at their vertices and no free labels."""
    bases: list[tuple[str, ...]] = [()] * g.vertex_count
    for name, vtx in g.externals:
        bases[vtx - 1] += (name,)
    if model.vertex_by_degree is not None:
        degrees = [d + len(base) for d, base in zip(_valences(g), bases)]
        return _degree_closed_form(model, g.vertex_count, len(g.edges), 0, [(degrees, weight)])
    return _eliminate(model, g.vertex_count, g.edges, bases, weight)


def _eliminate(
    model: Model, v: int, edges: tuple[tuple[int, int], ...],
    bases: Sequence[tuple[str, ...]], weight: Fraction | int, free: tuple[str, ...] = (),
) -> Scalar:
    """Value in a multiset model of the graph with v vertices and these
    internal edges whose vertex k also carries the model labels bases[k-1],
    summed over the v^n placements of the n free labels on the vertices, times
    the weight.

    Vertices are eliminated in the order 1..v.  A table maps the labels on
    the placed ends of the edges still open (one end placed, the other at a
    later vertex) to the exact partial sum over everything chosen so far; there
    is one table per count of each distinct free label still to place.  Vertex
    k < v takes any sub-multiset j of the free labels left, in prod_x
    C(left_x, j_x) ways, and vertex v takes all that are left.  Vertex k
    chooses labels for its own ends only, so the work is the sum over k of the
    table sizes times |labels|^(ends at k), not |labels|^(2e) per placement.  A
    partial term is dropped only when one of its own factors is zero; entries
    whose terms cancel stay, and each j extends to a placement, so every
    vertex-function entry that the full enumeration of the placements
    (oracle.brute_force_evaluate_graph) looks up is looked up here too, and a
    missing one raises ModelError alike.

    In a model of Fractions the elimination runs on integers: each inverse
    propagator scaled by Dg and each vertex value by Dv (see
    Model._scale_to_integers), so the total is the value times Dg^e Dv^v and
    one Fraction is built at the end.  Other models keep their own scalars.
    """
    scaled = model._integer_tables
    labels = model.labels
    if scaled is None:
        # dv = 0: the vertex values are used as they are.
        inverse, zero, one, dv = model.inverse_propagator, Fraction(0), Fraction(1), 0
    else:
        dg, inverse, dv = scaled
        zero, one = 0, 1
    names = sorted(set(free))
    vertex_values: dict[tuple[str, ...], Scalar] = {}
    # far[p] is the vertex where the open edge at key position p closes.
    far: list[int] = []
    # tables[left]: the table of the terms that leave left[i] copies of names[i].
    tables: dict[tuple[int, ...], dict] = {tuple(map(free.count, names)): {(): one}}
    for k in range(1, v + 1):
        closing = [p for p, b in enumerate(far) if b == k]
        staying = [p for p, b in enumerate(far) if b != k]
        opening = [b for a, b in edges if a == k < b]
        loops = sum(1 for a, b in edges if a == b == k)
        # ends = labels at k of the closing edges, the opening edges, then
        # both ends of each self-loop.
        first_loop_end = len(closing) + len(opening)
        n_ends = first_loop_end + 2 * loops
        steps: dict[tuple[int, ...], dict] = {}
        for left, table in tables.items():
            # (labels at k, ways, table of the labels left after) per choice j.
            choices = []
            for j in [left] if k == v else itertools.product(*[range(c + 1) for c in left]):
                base = bases[k - 1] + tuple(itertools.chain(*[[x] * c for x, c in zip(names, j)]))
                choices.append((base, math.prod([math.comb(c, i) for c, i in zip(left, j)]),
                                steps.setdefault(tuple([c - i for c, i in zip(left, j)]), {})))
            for key, partial in table.items():
                closed_at = [key[p] for p in closing]
                kept = tuple(key[p] for p in staying)
                for (base, ways, step), ends in itertools.product(
                        choices, itertools.product(labels, repeat=n_ends)):
                    pairs = itertools.chain(
                        zip(closed_at, ends),
                        zip(ends[first_loop_end::2], ends[first_loop_end + 1::2]),
                    )
                    term = partial * ways
                    for pair in pairs:
                        factor = inverse[pair]
                        if not factor:
                            break
                        term = term * factor
                    else:
                        slot = tuple(sorted(base + ends))
                        value = vertex_values.get(slot)
                        if value is None:
                            value = nu(model, Monomial(slot))
                            if dv:
                                value = value.numerator * (dv // value.denominator)
                            vertex_values[slot] = value
                        if value:
                            new_key = kept + ends[len(closing):first_loop_end]
                            step[new_key] = step.get(new_key, zero) + term * value
        tables = steps
        far = [far[p] for p in staying] + opening
    total = tables.get((0,) * len(names), {}).get((), zero)
    if scaled is None:
        return weight * total
    return Fraction(total * weight.numerator, weight.denominator * dg ** len(edges) * dv ** v)


def evaluate_graph_sum(model: Model, s: GraphSum) -> Scalar:
    total: Scalar = Fraction(0)
    for g, c in s.items():
        total = total + evaluate_graph(model, g, c)
    return total
