import sys
from itertools import permutations

import pytest
from hypothesis import given, strategies as st

from uninorms import (
    BinaryOperation,
    FiniteChain,
    LinearOrder,
    enumerate_single_peaked,
    fixture,
    is_conservative,
    is_nondecreasing,
    is_single_peaked,
    is_symmetric,
    local_maxima,
    order_to_uninorm,
    parse_order,
    profile_heights,
    single_peakedness_witness,
    uninorm_to_order,
)

from test_core import max_op, min_op


def order(*seq):
    return LinearOrder(FiniteChain(len(seq)), seq)


random_single_peaked = st.integers(min_value=1, max_value=9).flatmap(
    lambda n: st.tuples(st.integers(1, n), st.lists(st.booleans(), min_size=n, max_size=n))
).map(lambda args: _build_order(*args))


def _build_order(start, downs):
    n = len(downs)
    lo = hi = start
    seq = [start]
    for down in downs[1:]:
        if (down and lo > 1) or hi == n:
            lo -= 1
            seq.append(lo)
        else:
            hi += 1
            seq.append(hi)
    return order(*seq)


def definitional_witness(order):
    """First triple a < b < c whose middle element is ranked after both, by
    the triple loop over every triple."""
    n = order.n
    rank = {v: k for k, v in enumerate(order.seq)}
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            for c in range(b + 1, n + 1):
                if rank[b] > rank[a] and rank[b] > rank[c]:
                    return (a, b, c)
    return None


class TestRecognition:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_witness_matches_the_triple_loop(self, n):
        for seq in permutations(range(1, n + 1)):
            assert single_peakedness_witness(order(*seq)) == definitional_witness(order(*seq))

    @pytest.mark.parametrize("n", range(1, 8))
    def test_walk_matches_the_witness(self, n):
        # is_single_peaked walks the ordering once instead of asking for a
        # triple; the witness it must agree with is pinned by the test above
        verdicts = [is_single_peaked(order(*seq)) for seq in permutations(range(1, n + 1))]
        assert verdicts == [single_peakedness_witness(order(*seq)) is None
                            for seq in permutations(range(1, n + 1))]
        assert sum(verdicts) == 2 ** (n - 1)

    def test_known_single_peaked(self):
        assert is_single_peaked(order(2, 3, 4, 1, 5))

    def test_known_not_single_peaked(self):
        assert not is_single_peaked(order(5, 2, 1, 3, 4))
        assert single_peakedness_witness(order(5, 2, 1, 3, 4)) is not None

    def test_natural_order(self):
        assert is_single_peaked(order(1, 2, 3, 4))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_profile_version_agrees_exhaustively(self, n):
        chain = FiniteChain(n)
        from uninorms import is_single_peaked_via_profile
        for seq in permutations(range(1, n + 1)):
            o = LinearOrder(chain, seq)
            assert is_single_peaked(o) == is_single_peaked_via_profile(o)

    def test_profile_shapes(self):
        assert profile_heights(order(2, 3, 4, 1, 5)) == (2, 5, 4, 3, 1)
        assert local_maxima((2, 5, 4, 3, 1)) == (2,)
        assert profile_heights(order(5, 2, 1, 3, 4)) == (3, 4, 2, 1, 5)
        assert local_maxima((3, 4, 2, 1, 5)) == (2, 5)

    def test_boundary_peak_counts(self):
        # a monotone profile peaks at its endpoint
        assert local_maxima(profile_heights(order(1, 2, 3))) == (1,)


class TestEnumeration:
    @pytest.mark.parametrize("n,count", [(1, 1), (3, 4), (10, 512)])
    def test_counts(self, n, count):
        assert sum(1 for _ in enumerate_single_peaked(n)) == count

    @pytest.mark.parametrize("n", range(1, 17))
    def test_count_formula(self, n):
        assert sum(1 for _ in enumerate_single_peaked(n)) == 2 ** (n - 1)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_factorial_filter(self, n):
        chain = FiniteChain(n)
        brute = sorted(
            seq for seq in permutations(range(1, n + 1))
            if is_single_peaked(LinearOrder(chain, seq))
        )
        assert sorted(o.seq for o in enumerate_single_peaked(n)) == brute

    @pytest.mark.parametrize("n", range(1, 9))
    def test_last_element_is_an_endpoint(self, n):
        for o in enumerate_single_peaked(n):
            assert o.seq[-1] in (1, n)

    def test_downward_extension_comes_first(self):
        seqs = [o.seq for o in enumerate_single_peaked(3)]
        assert seqs == [(1, 2, 3), (2, 1, 3), (2, 3, 1), (3, 2, 1)]

    @pytest.mark.parametrize("n", range(1, 13))
    def test_emission_order_is_the_recursive_walk(self, n):
        # every interval extended down before up, one call per element
        def walk(lo, hi, prefix):
            if len(prefix) == n:
                yield prefix
            if lo > 1:
                yield from walk(lo - 1, hi, prefix + (lo - 1,))
            if hi < n:
                yield from walk(lo, hi + 1, prefix + (hi + 1,))

        expected = [seq for start in range(1, n + 1) for seq in walk(start, start, (start,))]
        assert [o.seq for o in enumerate_single_peaked(n)] == expected

    def test_first_order_past_the_recursion_limit(self):
        n = 1200
        assert n > sys.getrecursionlimit()
        assert next(enumerate_single_peaked(n)).seq == tuple(range(1, n + 1))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            list(enumerate_single_peaked(0))


class TestOrderToUninorm:
    def test_natural_order_gives_max(self):
        assert order_to_uninorm(order(1, 2, 3, 4)).table == max_op(4).table

    def test_reversed_order_gives_min(self):
        assert order_to_uninorm(order(4, 3, 2, 1)).table == min_op(4).table

    def test_order_231(self):
        op = order_to_uninorm(order(2, 3, 1))
        assert op.table == fixture("fig6c").table
        assert op(2, 3) == 3 and op(1, 3) == 1 and op(1, 2) == 1

    def test_rejects_non_single_peaked(self):
        with pytest.raises(ValueError, match="single-peaked"):
            order_to_uninorm(order(1, 3, 2))

    @given(random_single_peaked)
    def test_output_satisfies_the_axioms(self, o):
        op = order_to_uninorm(o)
        assert is_conservative(op)
        assert is_symmetric(op)
        assert is_nondecreasing(op)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_tables_pass_the_public_constructor(self, n):
        # order_to_uninorm skips the table check, so check each table here
        # against the definition: F(x, y) is whichever of x, y ranks higher
        for o in enumerate_single_peaked(n):
            op = order_to_uninorm(o)
            checked = BinaryOperation(FiniteChain(n), op.table)
            expected = tuple(
                tuple(y if o.precedes(x, y) else x for y in range(1, n + 1))
                for x in range(1, n + 1)
            )
            assert checked.table == expected
            assert op.chain == FiniteChain(n)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_permutation_gives_the_reference_result_or_error(self, n):
        def ref(o):
            w = definitional_witness(o)
            if w is not None:
                return f"ordering is not single-peaked, witness triple {w}"
            rank = {v: k for k, v in enumerate(o.seq)}
            return tuple(tuple(y if rank[x] <= rank[y] else x for y in range(1, n + 1))
                         for x in range(1, n + 1))

        def got(o):
            try:
                return order_to_uninorm(o).table
            except ValueError as exc:
                return str(exc)

        orders = [order(*seq) for seq in permutations(range(1, n + 1))]
        results = [got(o) for o in orders]
        assert results == [ref(o) for o in orders]
        assert sum(isinstance(r, tuple) for r in results) == 2 ** (n - 1)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_matches_the_pointer_walk(self, n):
        def pointer_walk(o):
            # row x: each element ranked at or below x points at the last
            # slot of src, which holds x
            src = list(range(1, n + 2))
            index = list(range(n))
            rows = [()] * n
            for x in o.seq:
                index[x - 1] = n
                src[n] = x
                rows[x - 1] = tuple(map(src.__getitem__, index))
            return tuple(rows)

        for o in enumerate_single_peaked(n):
            assert order_to_uninorm(o).table == pointer_walk(o), o.seq


class TestUninormToOrder:
    def test_max_gives_natural_order(self):
        assert uninorm_to_order(max_op(5)).seq == (1, 2, 3, 4, 5)

    def test_min_gives_reversed_order(self):
        assert uninorm_to_order(min_op(5)).seq == (5, 4, 3, 2, 1)

    def test_fig11a(self):
        assert uninorm_to_order(fixture("fig11a")).seq == (3, 2, 4, 1)

    @pytest.mark.parametrize("bad", ["fig7", "fig8", "fig9"])
    def test_rejects_non_uninorms(self, bad):
        with pytest.raises(ValueError):
            uninorm_to_order(fixture(bad))

    @pytest.mark.parametrize("n", range(1, 8))
    def test_round_trips(self, n):
        for o in enumerate_single_peaked(n):
            assert uninorm_to_order(order_to_uninorm(o)).seq == o.seq

    @given(random_single_peaked)
    def test_round_trip_property(self, o):
        assert uninorm_to_order(order_to_uninorm(o)).seq == o.seq

    def test_order_text_format(self):
        assert parse_order("2 3 4 1 5").seq == (2, 3, 4, 1, 5)
