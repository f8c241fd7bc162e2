import gc
import itertools
from fractions import Fraction
from math import factorial

import pytest

from feyngen.algebra import ONE, Monomial
from feyngen.graphs import OrderedGraph, _max_vector_numberings, canonicalize
from feyngen.hopf import (
    GenOptions,
    apply_Q,
    apply_T,
    coproduct,
    distribute,
    iterated_coproduct,
    omega,
    omega_alt,
)
from feyngen.invariants import is_connected, loop_number, vertex_symmetry_factor
from feyngen.oracle import enumerate_connected
from feyngen.recursion import (
    GraphSum,
    _covering_count,
    _covering_placements,
    _split_vertex,
    canonical_form_count,
    clear_cache,
    edge_search_count,
    min_valence_classes,
    omega_classes,
    placement_count,
    reset_stats,
    split_term_count,
    vertex_bound,
)
from feyngen import recursion

XY = Monomial.of("x", "y")
BARE = OrderedGraph(1)
SELF_LOOP = OrderedGraph(1, ((1, 1),))


def unit_sum(g, coeff=Fraction(1)):
    return GraphSum(g.vertex_count, {g: coeff})


class TestGraphSum:
    def test_merges_and_drops_zeros(self):
        s = GraphSum(1, [(BARE, Fraction(1, 2)), (BARE, Fraction(-1, 2))])
        assert len(s) == 0

    def test_rejects_mixed_external_sets(self):
        a = OrderedGraph(1, (), {"x": 1})
        b = OrderedGraph(1, (), {"y": 1})
        with pytest.raises(ValueError):
            GraphSum(1, [(a, Fraction(1)), (b, Fraction(1))])

    def test_rejects_mixed_vertex_counts(self):
        with pytest.raises(ValueError):
            GraphSum(2, {BARE: Fraction(1)})


class TestApplyT:
    def test_adds_self_loop_and_halves(self):
        got = apply_T(1, unit_sum(BARE))
        assert got == unit_sum(SELF_LOOP, Fraction(1, 2))

    def test_iterates(self):
        got = apply_T(1, unit_sum(SELF_LOOP, Fraction(1, 2)))
        assert got == unit_sum(OrderedGraph(1, ((1, 1), (1, 1))), Fraction(1, 4))

    def test_on_chosen_vertex(self):
        g = OrderedGraph(2, ((1, 2),), {"x": 1})
        got = apply_T(2, unit_sum(g))
        assert got == unit_sum(OrderedGraph(2, ((1, 2), (2, 2)), {"x": 1}), Fraction(1, 2))

    def test_index_range(self):
        with pytest.raises(ValueError):
            apply_T(2, unit_sum(BARE))


class TestApplyQ:
    def test_splits_external_labels(self):
        got = apply_Q(1, unit_sum(OrderedGraph(1, (), {"x": 1, "y": 1})))
        edge = ((1, 2),)
        expected = GraphSum(
            2,
            {
                OrderedGraph(2, edge, {"x": 1, "y": 1}): Fraction(1, 2),
                OrderedGraph(2, edge, {"x": 1, "y": 2}): Fraction(1, 2),
                OrderedGraph(2, edge, {"x": 2, "y": 1}): Fraction(1, 2),
                OrderedGraph(2, edge, {"x": 2, "y": 2}): Fraction(1, 2),
            },
        )
        assert got == expected

    def test_expands_self_loop(self):
        # The three end distributions of one self-loop: loop left, split
        # (multiplicity 2, the ends being distinguishable), loop right.
        got = apply_Q(1, unit_sum(SELF_LOOP))
        expected = GraphSum(
            2,
            {
                OrderedGraph(2, ((1, 1), (1, 2))): Fraction(1, 2),
                OrderedGraph(2, ((1, 2), (1, 2))): Fraction(1),
                OrderedGraph(2, ((1, 2), (2, 2))): Fraction(1, 2),
            },
        )
        assert got == expected

    def test_bare_vertex_split(self):
        got = apply_Q(1, unit_sum(BARE))
        assert got == unit_sum(OrderedGraph(2, ((1, 2),)), Fraction(1, 2))

    def test_shifts_later_vertices(self):
        g = OrderedGraph(2, ((1, 2),), {"x": 2})
        got = apply_Q(1, unit_sum(g))
        expected = GraphSum(
            3,
            {
                OrderedGraph(3, ((1, 2), (1, 3)), {"x": 3}): Fraction(1, 2),
                OrderedGraph(3, ((1, 2), (2, 3)), {"x": 3}): Fraction(1, 2),
            },
        )
        assert got == expected

    def test_index_range(self):
        with pytest.raises(ValueError):
            apply_Q(0, unit_sum(BARE))

    def test_split_multiplicities_are_the_coproduct_of_the_ends(self):
        # Write the ends at vertex i as a monomial: each external label, one
        # factor per end towards a neighbour (named by the neighbour) and two
        # "~loop" factors per self-loop.  Summed by the factors each split puts
        # on either side, the split multiplicities are the coproduct of that
        # monomial: those of _split_vertex on a vacuum graph, and on a
        # labelled graph twice the coefficients of apply_Q, which halves.
        expected: dict[Monomial, dict] = {}
        for e in range(0, 5):
            for v in range(1, e + 2):
                for n in range(0, 3):
                    for g, _ in omega(e - v + 1, v, Monomial(("x1", "x2")[:n])).items():
                        for i in range(1, v + 1):
                            ends = Monomial(end_factors(g, i))
                            if ends not in expected:
                                expected[ends] = {tuple(m.factors for m in t.slots): c
                                                  for t, c in coproduct(ends).items()}
                            if n:
                                splits = [(h, 2 * c) for h, c in apply_Q(i, unit_sum(g)).items()]
                            else:
                                splits = list(_split_vertex(g, i))
                            assert sum(k for _, k in splits) == 2**ends.degree
                            assert split_sides(splits, i) == expected[ends], (g, i)


def end_factors(g, i):
    """The ends at vertex i as monomial factors: each external label, one
    "~y" per end towards a neighbour y and two "~loop" per self-loop."""
    factors = [lab for lab, vtx in g.externals if vtx == i]
    for a, b in g.edges:
        if a == b == i:
            factors += ["~loop", "~loop"]
        elif i in (a, b):
            factors.append(f"~{a + b - i}")
    return factors


def split_sides(splits, i):
    """The splits (h, multiplicity) of vertex i into i and j = i+1, summed by
    their (left, right) end factors in the numbering before the split: a
    neighbour y > j was y-1, and each edge (i, j) but the new one is a split
    self-loop, one "~loop" end on each side."""
    j = i + 1
    total: dict[tuple, int] = {}
    for h, k in splits:
        sides = {i: [], j: []}
        for lab, vtx in h.externals:
            if vtx in sides:
                sides[vtx].append(lab)
        split_loops = -1  # the new edge
        for a, b in h.edges:
            if (a, b) == (i, j):
                split_loops += 1
            elif a == b and a in sides:
                sides[a] += ["~loop", "~loop"]
            elif a in sides or b in sides:
                near, far = (a, b) if a in sides else (b, a)
                sides[near].append(f"~{far - 1 if far > j else far}")
        key = tuple(tuple(sorted(sides[x] + ["~loop"] * split_loops)) for x in (i, j))
        total[key] = total.get(key, 0) + k
    return total


class TestOmega:
    def test_base_case(self):
        got = omega(0, 1, XY)
        assert got == unit_sum(OrderedGraph(1, (), {"x": 1, "y": 1}))

    def test_one_loop_one_vertex(self):
        assert omega(1, 1) == unit_sum(SELF_LOOP, Fraction(1, 2))

    def test_one_loop_two_vertices_merged(self):
        got = omega(1, 2).canonical_merge()
        expected = GraphSum(
            2,
            {
                OrderedGraph(2, ((1, 1), (1, 2))): Fraction(1, 2),
                OrderedGraph(2, ((1, 2), (1, 2))): Fraction(1, 4),
            },
        )
        assert got == expected

    def test_two_loop_two_vertices_merged(self):
        got = omega(2, 2).canonical_merge()
        expected = GraphSum(
            2,
            {
                OrderedGraph(2, ((1, 2),) * 3): Fraction(1, 12),          # theta
                OrderedGraph(2, ((1, 1), (2, 2), (1, 2))): Fraction(1, 8),  # dumbbell
                OrderedGraph(2, ((1, 1), (1, 2), (1, 2))): Fraction(1, 4),
                OrderedGraph(2, ((1, 1), (1, 1), (1, 2))): Fraction(1, 8),
            },
        )
        assert got == expected

    def test_all_terms_connected_with_right_grades(self):
        for l, v, m in [(2, 2, ONE), (1, 2, XY), (0, 3, Monomial.of("x"))]:
            for g, c in omega(l, v, m).items():
                assert c > 0
                assert is_connected(g)
                assert loop_number(g) == l
                assert g.vertex_count == v

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            omega(0, 0)
        with pytest.raises(ValueError):
            omega(-1, 1)
        with pytest.raises(ValueError):
            omega(0, 1, Monomial.of("x", "x"))

    def test_memoized(self):
        assert omega(2, 2) is omega(2, 2)

    @pytest.mark.parametrize("min_valence", [0, 2], ids=["unpruned", "pruned"])
    def test_is_the_recursion_over_the_public_operators(self, min_valence):
        # omega(l, v) = 1/(l+v-1) * (sum_i Q_i omega(l, v-1) + sum_i T_i omega(l-1, v));
        # pruned under GenOptions(2, L), the same recursion over the pruned
        # cells below, filtered to deficit <= 2(L - l) against valence 3.
        for e in range(1, 5):
            for v in range(1, e + 2):
                l = e - v + 1
                for top in (l, l + 1):
                    opts = GenOptions(min_valence, top) if min_valence else GenOptions()
                    for n in range(0, 3):
                        m = Monomial(("x1", "x2")[:n])
                        total = GraphSum(v)
                        if v > 1:
                            below = omega(l, v - 1, m, opts)
                            for i in range(1, v):
                                total = total + apply_Q(i, below)
                        if l > 0:
                            fewer = omega(l - 1, v, m, opts)
                            for i in range(1, v + 1):
                                total = total + apply_T(i, fewer)
                        expected = total.scaled(Fraction(1, l + v - 1))
                        if min_valence:
                            expected = expected.restricted(within_budget(3, 2 * (top - l)))
                        assert omega(l, v, m, opts) == expected, (l, v, n, top)


class TestOmegaClasses:
    @pytest.mark.parametrize("setting", ["unpruned", "max_loops_l", "max_loops_2"])
    def test_is_omega_canonically_merged(self, setting):
        # Unpruned, the class cell is the ordered cell merged.  Under
        # GenOptions(2, L) the ordered cell merged is the vacuum class cell
        # pruned at (3, 2(L - l)), and restricted to valence >= 3 it is
        # min_valence_classes at max_loops L; above L both refuse.
        for e in range(0, 5):
            for v in range(1, e + 2):
                l = e - v + 1
                top = {"unpruned": None, "max_loops_l": l, "max_loops_2": 2}[setting]
                for n in range(0, 4):
                    m = Monomial(("x1", "x2", "x3")[:n])
                    if top is None:
                        expected = omega(l, v, m).canonical_merge()
                        assert omega_classes(l, v, m) == expected, (l, v, n)
                        continue
                    if l > top:
                        with pytest.raises(ValueError, match="max_loops"):
                            omega(l, v, m, GenOptions(2, top))
                        with pytest.raises(ValueError, match="max_loops"):
                            min_valence_classes(l, v, m, 3, top)
                        continue
                    expected = omega(l, v, m, GenOptions(2, top)).canonical_merge()
                    if not n:
                        assert recursion._cell(True, l, v, 3, 2 * (top - l)) == expected
                    got = min_valence_classes(l, v, m, 3, top)
                    assert got == expected.restricted(compliant(3)), (l, v, n)

    def test_visits_fewer_split_terms_than_the_ordered_path(self):
        # The cells of `feyngen generate --loops 0-2 --vertices 1-4 --externals x1,x2`.
        m = Monomial.of("x1", "x2")
        counts = []
        for cell in (omega, omega_classes):
            clear_cache()
            reset_stats()
            for l in range(0, 3):
                for v in range(1, 5):
                    cell(l, v, m)
            counts.append(split_term_count())
        clear_cache()
        ordered_count, class_count = counts
        assert ordered_count == 1_257
        assert 0 < class_count < ordered_count

    def test_canonicalizes_each_distinct_ordered_graph_once_per_cell(self):
        # The cells of `feyngen generate --loops 0-2 --vertices 1-4 --externals x1,x2`.
        # Only their vacuum counterparts run the recursion: 286 distinct
        # ordered graphs produced within those cells, plus the base cell, each
        # canonicalized once and each with an edge tuple of its own; each
        # split term is one distribution of groups of equal ends.  The
        # labelled cells place x1, x2 on the 71 vacuum classes with the edge
        # search kept from the merge that found each class: no further
        # search, and one placement per class and vertex pair.
        m = Monomial.of("x1", "x2")
        clear_cache()
        reset_stats()
        for l in range(0, 3):
            for v in range(1, 5):
                omega_classes(l, v, m)
        assert canonical_form_count() == 287
        assert edge_search_count() == 287
        assert split_term_count() == 335
        assert placement_count() == 895
        reset_stats()
        assert canonical_form_count() == 0
        assert edge_search_count() == 0
        assert split_term_count() == 0
        assert placement_count() == 0
        clear_cache()

    def test_labelled_weights_are_the_vacuum_weights_times_the_placements(self):
        # Delta^(v-1) puts each of n distinct labels on each of v vertices, so
        # the labelled classes of a cell weigh v^n times its vacuum classes.
        for e in range(0, 6):
            for v in range(1, e + 2):
                l = e - v + 1
                vacuum = sum(c for _, c in omega_classes(l, v).items())
                for n in range(1, 4):
                    m = Monomial(("x1", "x2", "x3")[:n])
                    total = sum(c for _, c in omega_classes(l, v, m).items())
                    assert total == v**n * vacuum, (l, v, n)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            omega_classes(0, 0)
        with pytest.raises(ValueError):
            omega_classes(-1, 1)
        with pytest.raises(ValueError):
            omega_classes(0, 1, Monomial.of("x", "x"))

    def test_options_that_prune_no_graph_share_the_memo(self):
        # max_loops without min_valence prunes nothing, nor does a budget no
        # graph of the cell can exceed (vacuum (0, 1) at budget 4 against
        # valence 3); a budget that drops graphs keeps a cell of its own, the
        # unpruned cell filtered.  The vacuum budgets are those that two
        # labels under GenOptions(2, 2) read, 2 + 2(2 - l).  A labelled cell
        # is placed afresh on the shared vacuum cell and adds no memo key.
        m = Monomial.of("a", "b")
        assert omega(0, 2, ONE, GenOptions(0, 5)) is omega(0, 2)
        labelled = omega(0, 2, m)
        keys = set(recursion._CELLS)
        assert omega(0, 2, m, GenOptions(0, 5)) == labelled
        assert set(recursion._CELLS) == keys
        assert recursion._cell(True, 0, 1, 3, 4) is omega_classes(0, 1)
        for l in (1, 2):
            pruned = recursion._cell(True, l, 4, 3, 2 + 2 * (2 - l))
            full = omega_classes(l, 4)
            assert pruned is not full
            assert pruned == full.restricted(within_budget(3, 2 + 2 * (2 - l)))
            assert 0 < len(pruned) < len(full)

    @pytest.mark.parametrize("m", [ONE, Monomial.of("a", "b")], ids=["vacuum", "labelled"])
    def test_memoized_until_clear_cache(self, m):
        # The vacuum cell is the memoized cell itself; a labelled cell is
        # placed on it afresh, equal each time, and adds no memo key.
        omega_classes(2, 2)
        keys = set(recursion._CELLS)
        first = omega_classes(2, 2, m)
        second = omega_classes(2, 2, m)
        assert set(recursion._CELLS) == keys
        assert second == first
        assert (second is first) == (m == ONE)
        clear_cache()
        again = omega_classes(2, 2, m)
        assert again is not first
        assert again == first


class TestCellDenominators:
    # Every step of the recursion multiplies by 1/(2e), so a cell with e edges
    # has coefficients over 2^e * e!; cells are built in those integers.

    @pytest.mark.parametrize("pruned", [False, True], ids=["unpruned", "pruned"])
    def test_cell_coefficients_are_fractions_over_2e_e_factorial(self, pruned):
        # Pruned: the ordered cells under GenOptions(2, l), the vacuum class
        # cells at the budgets n labels read and the labelled class cells at
        # valence 3.
        for e in range(0, 6):
            for v in range(1, e + 2):
                l = e - v + 1
                for n in range(0, 3):
                    m = Monomial(("x1", "x2")[:n])
                    if pruned:
                        cells = [omega(l, v, m, GenOptions(2, l)),
                                 recursion._cell(True, l, v, 3, n),
                                 min_valence_classes(l, v, m, 3, l)]
                    else:
                        cells = [omega(l, v, m), omega_classes(l, v, m)]
                    for cell in cells:
                        for g, c in cell.items():
                            assert type(c) is Fraction, (l, v, n, g)
                            assert (c * 2**e * factorial(e)).denominator == 1, (l, v, n, g)

    def test_operators_return_fractions(self):
        sums = [omega(1, 2, XY), GraphSum(1, {SELF_LOOP: 1}), GraphSum(1, {BARE: 3})]
        for s in sums:
            for i in range(1, s.vertex_count + 1):
                for out in (apply_Q(i, s), apply_T(i, s)):
                    assert out and all(type(c) is Fraction for _, c in out.items())

    @pytest.mark.parametrize(
        "cell, reads",
        [
            (omega, [(1, 2, ONE), (2, 1, ONE)]),
            (omega, [(1, 2, Monomial.of("x1")), (2, 1, Monomial.of("x1"))]),
            (omega_classes, [(1, 2, ONE), (2, 1, ONE)]),
            (omega_classes, [(1, 1, Monomial.of("x1")), (1, 2, Monomial.of("x1"))]),
        ],
        ids=["omega", "omega_placed", "omega_classes", "omega_classes_placed"],
    )
    def test_cell_off_its_denominator_is_refused(self, cell, reads):
        # A cell below whose coefficients are not over 2^e * e! has no integer
        # numerators; reading it must fail, never floor.  A labelled cell
        # reads the vacuum cell it places its labels on.
        clear_cache()
        cell(1, 1)
        key = (cell is omega_classes, 1, 1, 0, 0)  # (merged, l, v, m, b)
        recursion._CELLS[key] = recursion._CELLS[key].scaled(Fraction(1, 3))
        try:
            for l, v, m in reads:
                with pytest.raises(ValueError, match="not over"):
                    cell(l, v, m)
        finally:
            clear_cache()  # the corrupted cell


def build_cells_up_to_six_edges() -> None:
    """From an empty memo: every vacuum cell up to six edges with labels
    placed on it, the min_valence_classes cells, vacuum cells pruned at
    (3, 2) and ordered labelled cells up to four edges."""
    clear_cache()
    m = Monomial.of("x1", "x2")
    for e in range(0, 7):
        for v in range(1, e + 2):
            l = e - v + 1
            omega_classes(l, v)
            omega_classes(l, v, m)
            min_valence_classes(l, v, m, 4, l)  # its vacuum cell pruned at (4, 2)
            recursion._cell(True, l, v, 3, 2)
            if e <= 4:
                omega(l, v, m)


def memoized_vacuum_classes() -> set[OrderedGraph]:
    return {g for key, cell in recursion._CELLS.items() if key[0] for g, _ in cell.items()}


class TestLeanConstruction:
    def test_memo_graphs_are_in_normal_form(self):
        # The engine builds its graphs without OrderedGraph's sorting and
        # checks; each must equal its rebuild through that constructor.  The
        # memo holds vacuum cells only; the ordered labelled cells placed on
        # them are checked as they are returned.
        build_cells_up_to_six_edges()
        kinds = {(merged, m > 0) for merged, _, _, m, _ in recursion._CELLS}
        assert kinds == {(True, False), (True, True), (False, False)}
        m = Monomial.of("x1", "x2")
        placed = [(("placed", e - v + 1, v), omega(e - v + 1, v, m))
                  for e in range(0, 5) for v in range(1, e + 2)]
        try:
            assert all(not g.externals for cell in recursion._CELLS.values()
                       for g, _ in cell.items())
            for key, cell in [*recursion._CELLS.items(), *placed]:
                assert type(cell) is GraphSum
                for g, c in cell.items():
                    assert type(g.edges) is tuple and type(g.externals) is tuple, (key, g)
                    assert g == OrderedGraph(g.vertex_count, g.edges, g.externals), (key, g)
                    assert g.vertex_count == cell.vertex_count and c > 0, (key, g)
                assert GraphSum(cell.vertex_count, cell.items()) == cell, key
        finally:
            clear_cache()

    def test_kept_class_searches_are_the_search(self):
        # Placing labels reads each vacuum class's stage-1 numberings, derived
        # from the search on the ordered graph that first met the class.
        build_cells_up_to_six_edges()
        try:
            classes = memoized_vacuum_classes()
            assert set(recursion._CLASS_NUMBERINGS) == classes
            for g in classes:
                edges, perms = _max_vector_numberings(g.vertex_count, g.edges)
                assert edges == g.edges, g
                assert sorted(recursion._CLASS_NUMBERINGS[g]) == sorted(perms), g
        finally:
            clear_cache()

    def test_canonical_merge_keeps_no_class_search(self):
        clear_cache()
        omega(2, 3).canonical_merge()
        assert recursion._CELLS and not recursion._CLASS_NUMBERINGS
        omega_classes(2, 3)
        assert recursion._CLASS_NUMBERINGS
        clear_cache()
        assert not recursion._CLASS_NUMBERINGS


def test_cells_and_searches_leave_no_reference_cycles():
    # Stage 1 and the covering placements keep their state in locals, so
    # nothing they build waits for the cyclic collector.
    clear_cache()
    gc.collect()
    gc.disable()
    try:
        m = Monomial.of("a", "b")
        omega_classes(2, 4, m)
        min_valence_classes(2, 4, m, 3, 2)
        omega(1, 3, m)
        for g in (OrderedGraph(7, ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (1, 7))),
                  OrderedGraph(5, ((1, 1), (1, 2), (2, 3), (3, 4), (4, 5), (1, 5)), {"x": 3})):
            canonicalize(g)
            vertex_symmetry_factor(g)
        assert gc.collect() == 0
    finally:
        gc.enable()
        clear_cache()


class TestOmegaAlt:
    def test_matches_named_cases(self):
        assert omega_alt(1, 1) == omega(1, 1)
        assert omega_alt(0, 2, XY) == omega(0, 2, XY)
        assert omega_alt(2, 2) == omega(2, 2)

    def test_matches_omega_up_to_three_edges(self):
        labels = ("x", "y", "z")
        for e in range(1, 4):
            for v in range(1, e + 2):
                l = e - v + 1
                for n in range(0, 4):
                    m = Monomial(labels[:n])
                    assert omega_alt(l, v, m) == omega(l, v, m), (l, v, n)

    @pytest.mark.parametrize("labels", ["~u0", "~u0,~w0", "~u0,x", "~w0,~u1,~w1"])
    def test_user_labels_that_look_bound(self, labels):
        # The bound pair skips labels in use, so these glue as any others do.
        m = Monomial(labels.split(","))
        for e in range(1, 4):
            for v in range(1, e + 2):
                l = e - v + 1
                assert omega_alt(l, v, m) == omega(l, v, m), (l, v)


def test_vertex_bound():
    assert vertex_bound(2, 1, 3) == 2
    assert vertex_bound(4, 1, 4) == 2
    assert vertex_bound(3, 0, 3) == 1
    with pytest.raises(ValueError):
        vertex_bound(2, 1, 2)


def test_factorization_property():
    # Adding external labels commutes with generation: the extra labels are
    # distributed over vertices by the (v-1)-fold coproduct.
    m1 = Monomial.of("x1", "x2")
    m2 = Monomial.of("y1", "y2")
    for l, v in [(0, 2), (1, 1), (1, 2), (0, 3), (2, 1)]:
        lhs = omega(l, v, m1 * m2)
        rhs = distribute(omega(l, v, m1), iterated_coproduct(m2, v - 1))
        assert lhs == rhs, (l, v)


class TestPruning:
    def test_pruned_matches_unpruned_on_compliant_graphs(self):
        opts = GenOptions(min_valence=2, max_loops=2)

        def compliant(g):
            return all(g.valence(i) >= 3 for i in range(1, g.vertex_count + 1))

        for v in (1, 2, 3):
            l = 2
            pruned = omega(l, v, ONE, opts).canonical_merge().restricted(compliant)
            full = omega(l, v, ONE).canonical_merge().restricted(compliant)
            assert pruned == full, v

    def test_loop_number_above_max_loops_rejected(self):
        # Above max_loops, self-loops would land on graphs already pruned.
        opts = GenOptions(min_valence=2, max_loops=1)
        for v in (1, 2, 3):
            with pytest.raises(ValueError, match="max_loops"):
                omega(2, v, Monomial.of("a", "b"), opts)
        assert omega(1, 2, Monomial.of("a", "b"), opts)

    def test_pruned_visits_fewer_split_terms(self):
        opts = GenOptions(min_valence=2, max_loops=2)
        clear_cache()
        reset_stats()
        omega(2, 3, ONE)
        full_count = split_term_count()
        clear_cache()
        reset_stats()
        omega(2, 3, ONE, opts)
        pruned_count = split_term_count()
        clear_cache()
        assert 0 < pruned_count < full_count


def compliant(min_valence):
    return lambda g: all(g.valence(i) >= min_valence for i in range(1, g.vertex_count + 1))


def deficit_total(g, min_valence):
    return sum(max(0, min_valence - g.valence(i)) for i in range(1, g.vertex_count + 1))


def within_budget(min_valence, budget):
    return lambda g: deficit_total(g, min_valence) <= budget


class TestDeficitBudget:
    def test_pruned_cells_are_the_unpruned_cells_filtered(self):
        # GenOptions(k, L) keeps the graphs of deficit at most 2(L - l)
        # against valence k + 1, with their unpruned weights; above L it
        # refuses.  Ordered cells up to four edges.  Class cells up to five:
        # the vacuum cell at the budget 2(L - l) + n that n labels read, and
        # the labelled cell at valence k + 1, which keeps deficit 0.
        for e in range(0, 6):
            for v in range(1, e + 2):
                l = e - v + 1
                vacuum = omega_classes(l, v)
                for n in range(0, 3):
                    m = Monomial(("x1", "x2")[:n])
                    ordered = omega(l, v, m) if e <= 4 else None
                    labelled = omega_classes(l, v, m)
                    for k in (1, 2, 3):
                        for top in (l, l + 1, l + 2):
                            budget = 2 * (top - l)
                            if ordered is not None:
                                got = omega(l, v, m, GenOptions(k, top))
                                expected = ordered.restricted(within_budget(k + 1, budget))
                                assert got == expected, ("omega", l, v, n, k, top)
                            got = recursion._cell(True, l, v, k + 1, budget + n)
                            expected = vacuum.restricted(within_budget(k + 1, budget + n))
                            assert got == expected, ("vacuum", l, v, n, k, top)
                            got = min_valence_classes(l, v, m, k + 1, top)
                            expected = labelled.restricted(within_budget(k + 1, 0))
                            assert got == expected, ("labelled", l, v, n, k, top)
                        if l:
                            with pytest.raises(ValueError, match="max_loops"):
                                omega(l, v, m, GenOptions(k, l - 1))
                            with pytest.raises(ValueError, match="max_loops"):
                                min_valence_classes(l, v, m, k + 1, l - 1)

    def test_every_memoized_pruned_cell_is_its_unpruned_cell_filtered(self):
        # The memo invariant: a cell keyed (m, b) holds exactly the graphs of
        # the unpruned cell with deficit at most b against m.
        build_cells_up_to_six_edges()
        try:
            pruned = [(key, cell) for key, cell in recursion._CELLS.items() if key[3]]
            dropping = 0
            for (merged, l, v, m, b), cell in pruned:
                full = (omega_classes if merged else omega)(l, v)
                assert cell == full.restricted(within_budget(m, b)), (merged, l, v, m, b)
                dropping += len(cell) < len(full)
            assert dropping
        finally:
            clear_cache()


class TestMinValenceClasses:
    @pytest.mark.parametrize("min_valence", [1, 2, 3, 4])
    def test_is_omega_classes_restricted(self, min_valence):
        # Every cell with e <= 5 and 0-3 labels, at max_loops = l, where the
        # vacuum cell is read at budget n, and one loop below it (budget
        # n + 2).  The unpruned restriction must agree, and the pruned vacuum
        # cell read at budget n is the unpruned one filtered.  Against
        # valence 1 nothing is pruned: splitting a bare vertex lowers its
        # deficit.
        keep = compliant(min_valence)
        for e in range(0, 6):
            denominator = 2**e * factorial(e)
            for v in range(1, e + 2):
                l = e - v + 1
                vacuum = omega_classes(l, v)
                for n in range(0, 4):
                    m = Monomial(("x1", "x2", "x3")[:n])
                    got = min_valence_classes(l, v, m, min_valence, l)
                    expected = omega_classes(l, v, m).restricted(keep)
                    assert got == expected, (l, v, n)
                    pruned = recursion._cell(True, l, v, min_valence, n)
                    if min_valence > 1:
                        assert pruned == vacuum.restricted(within_budget(min_valence, n))
                    else:
                        assert pruned is vacuum
                    assert min_valence_classes(l, v, m, min_valence, l + 1) == expected
                    for g, c in got.items():
                        assert type(c) is Fraction, (l, v, n, g)
                        assert (c * denominator).denominator == 1, (l, v, n, g)
                        assert keep(g), (l, v, n, g)

    def test_pruned_vacuum_cell_visits_fewer_split_terms(self):
        # One label at valence 3: the vacuum cell is read at budget 1 at
        # max_loops and at budget 3 one loop below it.
        m = Monomial.of("x1")
        counts, results = [], []
        for max_loops in (2, 3):
            clear_cache()
            reset_stats()
            results.append(min_valence_classes(2, 4, m, 3, max_loops))
            counts.append(split_term_count())
        clear_cache()
        assert results[0] == results[1]
        assert 0 < counts[0] < counts[1]

    def test_classes_beyond_the_budget_are_never_canonicalized(self):
        # Two labels at valence 3 up to max_loops 3: each memoized vacuum cell
        # pruned at (3, b) canonicalizes only the distinct ordered graphs of
        # deficit <= b that Q and T make from the cells below, which are the
        # unpruned cells filtered to b and b + 2; an unpruned cell, all of
        # them.  Placing the labels runs no further edge search.
        clear_cache()
        reset_stats()
        m = Monomial.of("a", "b")
        got = min_valence_classes(3, 4, m, 3, 3)
        forms, searches = canonical_form_count(), edge_search_count()
        placements = placement_count()
        built = list(recursion._CELLS)
        expected = dropped = 0
        for _, l, v, mv, b in built:
            keep = within_budget(mv, b) if mv else (lambda g: True)
            produced: set[OrderedGraph] = {BARE} if l + v == 1 else set()
            if v > 1:
                below = omega_classes(l, v - 1).restricted(keep)
                for i in range(1, v):
                    produced.update(g for g, _ in apply_Q(i, below).items())
            if l > 0:
                fewer = omega_classes(l - 1, v)
                if mv:
                    fewer = fewer.restricted(within_budget(mv, b + 2))
                for i in range(1, v + 1):
                    produced.update(g for g, _ in apply_T(i, fewer).items())
            kept = [g for g in produced if keep(g)]
            expected += len(kept)
            dropped += len(produced) - len(kept)
        assert all(not g.externals for key in built for g, _ in recursion._CELLS[key].items())
        assert forms == searches == expected
        assert dropped > 0
        vacuum = omega_classes(3, 4).restricted(within_budget(3, 2))
        assert placements == sum(
            1 for g, _ in vacuum.items() for a in itertools.product((1, 2, 3, 4), repeat=2)
            if all(g.valence(i) + a.count(i) >= 3 for i in (1, 2, 3, 4)))
        assert got == omega_classes(3, 4, m).restricted(compliant(3))
        # A tree edge with one label: deficits 2 + 2 > 1, no class to place.
        clear_cache()
        reset_stats()
        assert not min_valence_classes(0, 2, Monomial.of("a"), 3, 0)
        assert placement_count() == 0
        clear_cache()

    def test_matches_the_graph_oracle(self):
        # The brute-force enumeration, restricted to valence >= min_valence,
        # on the graph-oracle grid: e <= 5, up to two labels, max_loops l and
        # l + 1.  The valences of a graph sum to 2e + n, so below
        # min_valence * v the restriction is empty without enumerating.
        for e in range(0, 6):
            for v in range(1, e + 2):
                l = e - v + 1
                for n in range(0, 3):
                    m = Monomial(("x1", "x2")[:n])
                    every = enumerate_connected(l, v, m) if 2 * e + n >= 3 * v else GraphSum(v)
                    for min_valence in (3, 4):
                        expected = every.restricted(compliant(min_valence))
                        for top in (l, l + 1):
                            got = min_valence_classes(l, v, m, min_valence, top)
                            assert got == expected, (min_valence, l, v, n, top)

    def test_covering_placements_are_the_product_filtered(self):
        for deficits in [(0, 0, 0), (1, 0, 2), (0, 3), (2, 2), (1, 1, 1, 0), (0,)]:
            for n in range(0, 5):
                every = itertools.product(range(1, len(deficits) + 1), repeat=n)
                expected = [a for a in every
                            if all(a.count(i + 1) >= d for i, d in enumerate(deficits))]
                assert _covering_placements(deficits, n) == expected, (deficits, n)
                assert _covering_count(deficits, n) == len(expected), (deficits, n)

    def test_rejects_bad_input(self):
        m = Monomial.of("a", "b")
        with pytest.raises(ValueError, match="max_loops"):
            min_valence_classes(2, 3, m, 3, 1)
        with pytest.raises(ValueError):
            min_valence_classes(0, 0, m, 3, 0)
        with pytest.raises(ValueError):
            min_valence_classes(-1, 1, m, 3, 0)
        with pytest.raises(ValueError):
            min_valence_classes(0, 1, Monomial.of("x", "x"), 3, 0)
