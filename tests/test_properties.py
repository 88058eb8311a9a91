from itertools import product

import pytest

from uninorms import (
    associativity_witness,
    bisymmetry_witness,
    find_neutral_conservative,
    find_neutral_element,
    find_neutral_via_sections,
    fixture,
    is_associative,
    is_associative_conservative_rect,
    is_bisymmetric,
    is_conservative,
    is_conservative_via_contour,
    is_idempotent,
    is_nondecreasing,
    is_symmetric,
    isolated_points,
    make_operation,
    rect_associativity_witness,
    rectangle_count,
    rectangles,
)
from uninorms.oracle import enumerate_conservative, enumerate_nondecreasing

from test_core import max_op, min_op


def all_tables(n):
    rng = range(1, n + 1)
    for values in product(rng, repeat=n * n):
        yield make_operation(
            n, [values[i * n:(i + 1) * n] for i in range(n)]
        )


class TestSinglePropertyExamples:
    def test_idempotent(self):
        assert is_idempotent(min_op(4))
        assert not is_idempotent(fixture("fig1"))
        assert is_idempotent(fixture("fig2"))

    def test_conservative(self):
        assert is_conservative(max_op(4))
        assert not is_conservative(fixture("fig2"))
        assert not is_conservative(fixture("fig9"))

    def test_conservative_via_contour(self):
        assert is_conservative_via_contour(max_op(3))
        assert not is_conservative_via_contour(fixture("fig3"))
        assert not is_conservative_via_contour(fixture("fig4"))

    def test_symmetric(self):
        assert is_symmetric(min_op(3))
        assert not is_symmetric(fixture("fig8"))
        assert not is_symmetric(make_operation(2, [[1, 1], [2, 2]]))

    def test_nondecreasing(self):
        assert is_nondecreasing(max_op(3))
        assert not is_nondecreasing(fixture("fig7"))
        # the left-projection is monotone even though it is not symmetric
        assert is_nondecreasing(make_operation(2, [[1, 1], [2, 2]]))

    def test_associative(self):
        assert is_associative(min_op(3))
        assert not is_associative(fixture("fig2"))
        assert is_associative(fixture("fig12"))

    def test_bisymmetric(self):
        assert is_bisymmetric(max_op(3))
        assert not is_bisymmetric(fixture("fig13"))

    def test_fig13_quadruple_from_the_worked_example(self):
        op = fixture("fig13")
        lhs = op(op(1, 2), op(3, 2))
        rhs = op(op(1, 3), op(2, 2))
        assert lhs != rhs
        x, y, u, v = 1, 2, 3, 2
        assert op(op(x, y), op(u, v)) != op(op(x, u), op(y, v))
        assert bisymmetry_witness(op) is not None


class TestNeutralElements:
    def test_find_neutral(self):
        assert find_neutral_element(max_op(3)) == 1
        assert find_neutral_element(make_operation(2, [[1, 1], [2, 2]])) is None
        assert find_neutral_element(fixture("fig3")) == 2

    def test_sections(self):
        found = find_neutral_via_sections(fixture("fig3"))
        assert found.e == 2
        assert found.vertical == ((2, 1), (2, 2), (2, 3))
        assert found.horizontal == ((1, 2), (2, 2), (3, 2))
        assert find_neutral_via_sections(fixture("fig2")) is None
        assert find_neutral_via_sections(make_operation(1, [[1]])).e == 1

    def test_neutral_conservative(self):
        assert find_neutral_conservative(max_op(3)) == 1
        assert find_neutral_conservative(fixture("fig14")) == 3
        assert find_neutral_conservative(make_operation(2, [[1, 1], [2, 2]])) is None

    def test_neutral_conservative_rejects_nonconservative(self):
        with pytest.raises(ValueError, match="not conservative"):
            find_neutral_conservative(fixture("fig2"))


class TestIsolatedPoints:
    def test_examples(self):
        assert isolated_points(fixture("fig4")) == ((1, 1), (3, 3))
        assert isolated_points(max_op(3)) == ((1, 1),)
        assert isolated_points(fixture("fig3")) == ()

    def test_diagonal_check(self):
        for op in (fixture("fig2"), min_op(4)):
            assert all(x == y for (x, y) in isolated_points(op))
        # fig1 has an off-diagonal isolated point, possible only without idempotency
        assert not is_idempotent(fixture("fig1"))
        assert any(x != y for (x, y) in isolated_points(fixture("fig1")))


class TestRectangles:
    def test_counts(self):
        assert rectangle_count(3, symmetric=False) == 6
        assert rectangle_count(3, symmetric=True) == 1
        assert rectangle_count(2, symmetric=False) == 0
        assert rectangle_count(2, symmetric=True) == 0

    @pytest.mark.parametrize("n", range(1, 11))
    def test_iterator_matches_closed_form(self, n):
        assert sum(1 for _ in rectangles(n)) == n * (n - 1) * (n - 2)
        assert sum(1 for _ in rectangles(n, symmetric=True)) == rectangle_count(n, True)

    def test_vertices(self):
        rect = next(iter(rectangles(3)))
        a, b, c = rect
        assert rect.vertices == ((a, c), (b, c), (b, b), (a, b))

    def test_rect_witness_on_fig7(self):
        op = fixture("fig7")
        assert not is_associative_conservative_rect(op)
        w = rect_associativity_witness(op)
        va, vb, vc = w.values
        assert len({va, vb, vc}) == 3
        # the worked example's rectangle (2,2),(3,2),(3,1),(2,1) is also a witness
        assert len({op(3, 2), op(3, 1), op(2, 1)}) == 3

    def test_rect_test_examples(self):
        assert is_associative_conservative_rect(fixture("fig12"))
        assert is_associative_conservative_rect(min_op(3))

    def test_rect_test_requires_conservative(self):
        with pytest.raises(ValueError, match="not conservative"):
            is_associative_conservative_rect(fixture("fig9"))

    def test_rect_test_is_the_witness_test(self):
        # the bool skips the witness object, but must answer and refuse as
        # the witness does
        for op in enumerate_conservative(4):
            assert is_associative_conservative_rect(op) == (rect_associativity_witness(op) is None)
        with pytest.raises(ValueError) as bool_error:
            is_associative_conservative_rect(fixture("fig9"))
        with pytest.raises(ValueError) as witness_error:
            rect_associativity_witness(fixture("fig9"))
        assert str(bool_error.value) == str(witness_error.value)


class TestExhaustiveEquivalences:
    """Definitional checkers against their structural twins, swept over
    complete table families at small chain sizes."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_conservative_equals_contour_version(self, n):
        for op in all_tables(n):
            assert is_conservative(op) == is_conservative_via_contour(op)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_sections_equal_definition(self, n):
        for op in all_tables(n):
            found = find_neutral_via_sections(op)
            assert (found.e if found else None) == find_neutral_element(op)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_rectangle_test_equals_triple_loop(self, n):
        for op in enumerate_conservative(n):
            assert is_associative(op) == is_associative_conservative_rect(op)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_bisymmetric_via_rect_on_symmetric_conservative(self, n):
        # for conservative symmetric operations bisymmetry is associativity,
        # so the rectangle test decides it
        for op in enumerate_conservative(n):
            if is_symmetric(op):
                assert is_bisymmetric(op) == is_associative_conservative_rect(op)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_conservative_neutral_rules(self, n):
        for op in enumerate_conservative(n):
            iso = isolated_points(op)
            assert len(iso) <= 1
            assert all(x == y for (x, y) in iso)
            assert find_neutral_conservative(op) == find_neutral_element(op)

    def test_conservativeness_implies_idempotency(self):
        for op in all_tables(3):
            if is_conservative(op):
                assert is_idempotent(op)

    def test_isolated_points_of_idempotent_tables_lie_on_diagonal(self):
        for op in all_tables(3):
            if is_idempotent(op):
                assert all(x == y for (x, y) in isolated_points(op))


class TestBisymmetryLemma:
    """The three implications tying bisymmetry to associativity and symmetry,
    exhaustively on the 3-chain. Larger sizes run through the verification
    engine (see test_oracle): conservative tables at size 4 for the third,
    fixed-seed samples at sizes 4 and 5 for the first two."""

    def test_exhaustive_on_three_chain(self):
        for op in all_tables(3):
            neutral = find_neutral_element(op) is not None
            assoc = is_associative(op)
            symm = is_symmetric(op)
            cons = is_conservative(op)
            if not (neutral or cons or (assoc and symm)):
                continue  # no implication applies; skip the quartic check
            bis = is_bisymmetric(op)
            if bis and neutral:
                assert assoc and symm
            if assoc and symm:
                assert bis
            if bis and cons:
                assert assoc


class TestMinMaxBlocks:
    """Idempotent nondecreasing tables with a neutral element act as min below
    it and max above it."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_blocks(self, n):
        seen = 0
        for op in enumerate_nondecreasing(n):
            if not is_idempotent(op):
                continue
            e = find_neutral_element(op)
            if e is None:
                continue
            seen += 1
            for x in range(1, e + 1):
                for y in range(1, e + 1):
                    assert op(x, y) == min(x, y)
            for x in range(e, n + 1):
                for y in range(e, n + 1):
                    assert op(x, y) == max(x, y)
        assert seen > 0


class TestWitnesses:
    def test_first_witness_is_lexicographic(self):
        op = fixture("fig2")
        w = associativity_witness(op)
        assert w is not None
        x, y, z = w
        assert op(op(x, y), z) != op(x, op(y, z))
        # nothing lexicographically earlier is a witness
        for cand in product(range(1, 4), repeat=3):
            if cand >= (x, y, z):
                break
            a, b, c = cand
            assert op(op(a, b), c) == op(a, op(b, c))
