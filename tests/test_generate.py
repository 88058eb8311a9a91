import sys

import pytest
from hypothesis import given, strategies as st

from uninorms import (
    BinaryOperation,
    FiniteChain,
    GSpec,
    count_uninorms,
    count_uninorms_by_neutral,
    enumerate_gspecs,
    enumerate_single_peaked,
    find_neutral_conservative,
    find_neutral_element,
    fixture,
    generate_all_uninorms_gc,
    gspec_collision_report,
    is_associative,
    is_conservative,
    is_nondecreasing,
    is_symmetric,
    make_gbar,
    order_to_uninorm,
    uninorm_from_gspec,
    verify_theorem,
)

from uninorms.generate import _contour_keys, _gspec_key
from uninorms.oracle import _key

from test_core import max_op, min_op


def gc_tables(n):
    return {op.table for op in generate_all_uninorms_gc(n)}


random_gspec = st.integers(min_value=1, max_value=9).flatmap(
    lambda n: st.integers(1, n).flatmap(
        lambda e: st.lists(st.integers(e, n), min_size=e - 1, max_size=e - 1).map(
            lambda head: GSpec(FiniteChain(n), e, tuple(sorted(head, reverse=True)) + (e,))
        )
    )
)


class TestContourAlgorithm:
    def test_two_chain_yields_both_uninorms(self):
        assert gc_tables(2) == {fixture("fig5a").table, fixture("fig5b").table}

    def test_three_chain_yields_all_four(self):
        assert gc_tables(3) == {
            fixture("fig6a").table, fixture("fig6b").table,
            fixture("fig6c").table, fixture("fig6d").table,
        }

    def test_four_chain(self):
        tables = gc_tables(4)
        assert len(tables) == 8
        assert fixture("fig11a").table in tables
        assert fixture("fig11b").table in tables

    @pytest.mark.parametrize("n", range(1, 11))
    def test_distinct_count(self, n):
        ops = list(generate_all_uninorms_gc(n))
        assert len(ops) == 2 ** (n - 1)
        assert len({op.table for op in ops}) == len(ops)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_every_yield_satisfies_all_axioms(self, n):
        for op in generate_all_uninorms_gc(n):
            assert is_conservative(op)
            assert is_symmetric(op)
            assert is_nondecreasing(op)
            assert is_associative(op)
            assert find_neutral_element(op) is not None

    def test_first_table_past_the_recursion_limit(self):
        # the walk goes one shell deeper per element; its first leaf grows
        # the interval up from 1, which lays the maximum
        n = 1200
        assert n > sys.getrecursionlimit()
        first = next(generate_all_uninorms_gc(n))
        assert first.table == tuple((x,) * x + tuple(range(x + 1, n + 1)) for x in range(1, n + 1))

    def test_emission_order_mirrors_the_order_enumerator(self):
        for n in range(1, 7):
            orders = list(enumerate_single_peaked(n))
            ops = list(generate_all_uninorms_gc(n))
            assert [order_to_uninorm(o).table for o in orders] == [op.table for op in ops]


class TestCounting:
    @pytest.mark.parametrize("n,count", [(1, 1), (3, 4), (6, 32)])
    def test_totals(self, n, count):
        assert count_uninorms(n) == count

    def test_total_verification_mode(self):
        # the closed form against the generator, through its claim
        report = verify_theorem("main2n", 9)
        assert report["ok"] and report["distinct"] == 256 == count_uninorms(9)

    @pytest.mark.parametrize("n,e,count", [(3, 2, 2), (4, 1, 1), (7, 1, 1), (5, 3, 6)])
    def test_by_neutral(self, n, e, count):
        assert count_uninorms_by_neutral(n, e) == count

    @pytest.mark.parametrize("n", range(1, 9))
    def test_by_neutral_verification_mode(self, n):
        # the binomials against the generator, through their claim
        report = verify_theorem("gc", n)
        assert report["ok"]
        assert report["by_neutral"] == {
            str(e): count_uninorms_by_neutral(n, e) for e in range(1, n + 1)}

    def test_by_neutral_range_check(self):
        with pytest.raises(ValueError):
            count_uninorms_by_neutral(3, 4)

    @pytest.mark.parametrize("e", [0, 4, True, 2.0])
    def test_by_neutral_rejects_e_as_gspec_does(self, e):
        with pytest.raises(ValueError) as error:
            count_uninorms_by_neutral(3, e)
        assert str(error.value) == f"neutral element {e!r} is not an integer in 1..3"

    def test_per_neutral_counts_sum_to_total(self):
        for n in range(1, 13):
            total = sum(count_uninorms_by_neutral(n, e) for e in range(1, n + 1))
            assert total == count_uninorms(n)


class TestPatchworkExtension:
    def test_all_min(self):
        spec = GSpec(FiniteChain(4), 4, (4, 4, 4, 4))
        assert make_gbar(spec) == (4, 4, 4, 4)

    def test_all_max(self):
        spec = GSpec(FiniteChain(4), 1, (1,))
        assert make_gbar(spec) == (1, 1, 1, 1)

    def test_three_branch_example(self):
        spec = GSpec(FiniteChain(4), 2, (3, 2))
        assert make_gbar(spec) == (3, 2, 1, 1)

    @given(random_gspec)
    def test_extension_is_total_nonincreasing_and_consistent(self, spec):
        gbar = make_gbar(spec)
        n = spec.chain.n
        assert len(gbar) == n
        assert all(1 <= v <= n for v in gbar)
        assert all(a >= b for a, b in zip(gbar, gbar[1:]))
        assert gbar[:spec.e] == spec.g
        assert gbar[spec.e - 1] == spec.e

    @given(random_gspec)
    def test_branches_agree_at_the_neutral_element(self, spec):
        # x = e lies in both the "copy g" and the "largest preimage" branches
        e = spec.e
        via_preimage = max(z for z in range(1, e + 1) if spec.g[z - 1] >= e)
        assert spec.g[e - 1] == via_preimage == e


class TestPatchworkOperation:
    def test_extremes(self):
        assert uninorm_from_gspec(GSpec(FiniteChain(3), 3, (3, 3, 3))).table == min_op(3).table
        assert uninorm_from_gspec(GSpec(FiniteChain(3), 1, (1,))).table == max_op(3).table

    def test_fig6c_parameters(self):
        op = uninorm_from_gspec(GSpec(FiniteChain(3), 2, (3, 2)))
        assert op.table == fixture("fig6c").table
        assert op(1, 3) == 1 and find_neutral_element(op) == 2

    @given(random_gspec)
    def test_neutral_element_is_e(self, spec):
        op = uninorm_from_gspec(spec)
        assert find_neutral_element(op) == spec.e
        assert is_conservative(op) and is_symmetric(op) and is_nondecreasing(op)
        assert is_associative(op)


class TestGSpecEnumeration:
    def test_one_chain(self):
        specs = list(enumerate_gspecs(1))
        assert len(specs) == 1 and specs[0].e == 1 and specs[0].g == (1,)

    def test_two_chain_image(self):
        specs = list(enumerate_gspecs(2))
        assert [(s.e, s.g) for s in specs] == [(1, (1,)), (2, (2, 2))]
        image = {uninorm_from_gspec(s).table for s in specs}
        assert image == gc_tables(2)

    def test_three_chain_image(self):
        image = {uninorm_from_gspec(s).table for s in enumerate_gspecs(3)}
        assert image == gc_tables(3)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_parameter_count(self, n):
        assert sum(1 for _ in enumerate_gspecs(n)) == 2 ** (n - 1)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_no_collisions_observed(self, n):
        # pinned observation: the parameterization happens to be injective
        # (parameter count equals image size); not assumed anywhere
        report = gspec_collision_report(n)
        assert report["specs"] == 2 ** (n - 1)
        assert report["distinct_operations"] == report["specs"]
        assert report["collisions"] == []


class TestConstructionsAgree:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_three_routes_one_set(self, n):
        via_gc = gc_tables(n)
        via_orders = {order_to_uninorm(o).table for o in enumerate_single_peaked(n)}
        via_gspecs = {uninorm_from_gspec(s).table for s in enumerate_gspecs(n)}
        assert via_gc == via_orders == via_gspecs

    @pytest.mark.parametrize("n", range(2, 7))
    def test_grouping_by_neutral(self, n):
        groups = {}
        for op in generate_all_uninorms_gc(n):
            e = find_neutral_conservative(op)
            groups[e] = groups.get(e, 0) + 1
        assert groups == {
            e: count_uninorms_by_neutral(n, e) for e in range(1, n + 1)
        }


# References for the contour algorithm and the patchwork, written cell by
# cell: the tables must come out equal and in the same order. The order
# maximum's reference is in test_single_peaked.

def ref_contour_algorithm(n):
    """The contour algorithm with a fresh copy of the table per shell."""
    def lay(table, a, lo, hi):
        out = [row[:] for row in table]
        for v in range(lo, hi + 1):
            out[a - 1][v - 1] = a
            out[v - 1][a - 1] = a
        return out

    def rec(lo, hi, table):
        if hi - lo + 1 == n:
            yield tuple(tuple(row) for row in table)
            return
        if lo > 1:
            yield from rec(lo - 1, hi, lay(table, lo - 1, lo - 1, hi))
        if hi < n:
            yield from rec(lo, hi + 1, lay(table, hi + 1, lo, hi + 1))

    for e in range(1, n + 1):
        table = [[0] * n for _ in range(n)]
        table[e - 1][e - 1] = e
        yield from rec(e, e, table)


def ref_gbar(spec):
    n, e, g = spec.chain.n, spec.e, spec.g
    return tuple(
        g[x - 1] if x <= e
        else max(z for z in range(1, e + 1) if g[z - 1] >= x) if x <= g[0]
        else 1
        for x in range(1, n + 1))


def ref_patchwork(spec):
    """min(x, y) where y <= gbar(x) and x <= gbar(1), max(x, y) elsewhere."""
    n = spec.chain.n
    gbar = ref_gbar(spec)
    return tuple(
        tuple(min(x, y) if y <= gbar[x - 1] and x <= gbar[0] else max(x, y)
              for y in range(1, n + 1))
        for x in range(1, n + 1))


def _checked(op):
    # the constructions wrap without a check; the public constructor must
    # accept each table, on the chain of the right size
    assert BinaryOperation(FiniteChain(op.n), op.table) == op
    return op.table


class TestConstructionsMatchTheirReferences:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_contour_algorithm(self, n):
        assert [_checked(op) for op in generate_all_uninorms_gc(n)] == list(
            ref_contour_algorithm(n))

    @pytest.mark.parametrize("n", range(1, 11))
    def test_patchwork(self, n):
        specs = list(enumerate_gspecs(n))
        assert [make_gbar(s) for s in specs] == [ref_gbar(s) for s in specs]
        assert [_checked(uninorm_from_gspec(s)) for s in specs] == [
            ref_patchwork(s) for s in specs]


class TestKeyStreams:
    """The contour algorithm and the patchwork, built as bytes keys from one
    walk or one row helper, give the ``_key`` of each public table, in the
    public order."""

    @pytest.mark.parametrize("n", range(1, 13))
    def test_contour_keys_are_the_generated_tables_keys(self, n):
        assert list(_contour_keys(n)) == [_key(op.table) for op in generate_all_uninorms_gc(n)]

    @pytest.mark.parametrize("n", range(1, 10))
    def test_gspec_key_is_the_patchwork_tables_key(self, n):
        for spec in enumerate_gspecs(n):
            assert _gspec_key(spec) == _key(uninorm_from_gspec(spec).table)

    def test_an_entry_past_255_raises_as_the_key_does(self):
        with pytest.raises(ValueError):
            next(_contour_keys(256))
        with pytest.raises(ValueError):
            _gspec_key(GSpec(FiniteChain(256), 1, (1,)))
