import json

import pytest
from hypothesis import given, strategies as st

from uninorms import (
    FiniteChain,
    GSpec,
    LinearOrder,
    contour_partition,
    fixture,
    format_table,
    make_operation,
    parse_order,
    parse_table,
    parse_table_auto,
    restrict,
    table_from_json_dict,
    table_to_json_dict,
)
from uninorms.oracle import enumerate_conservative


def max_op(n):
    return make_operation(n, [[max(x, y) for y in range(1, n + 1)]
                              for x in range(1, n + 1)])


def min_op(n):
    return make_operation(n, [[min(x, y) for y in range(1, n + 1)]
                              for x in range(1, n + 1)])


tables = st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(1, n), min_size=n, max_size=n),
        min_size=n, max_size=n,
    ).map(lambda rows: make_operation(n, rows))
)


class TestFiniteChain:
    def test_elements(self):
        assert list(FiniteChain(3).elements()) == [1, 2, 3]

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            FiniteChain(0)

    def test_rejects_bool(self):
        with pytest.raises(ValueError):
            FiniteChain(True)


class TestMakeOperation:
    def test_one_element_chain(self):
        op = make_operation(1, [[1]])
        assert op(1, 1) == 1

    def test_max_table(self):
        assert max_op(3)(2, 3) == 3

    def test_projection_is_valid(self):
        op = make_operation(2, [[1, 1], [2, 2]])
        assert op(1, 2) == 1 and op(2, 1) == 2

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            make_operation(3, [[1, 2], [2, 2]])

    def test_entry_out_of_range(self):
        with pytest.raises(ValueError):
            make_operation(2, [[1, 3], [2, 2]])

    def test_bool_entry(self):
        with pytest.raises(ValueError, match="not an integer"):
            make_operation(2, [[True, 2], [2, 2]])


class TestContourPartition:
    def test_fig1_classes(self):
        part = contour_partition(fixture("fig1"))
        assert part.values == (1, 2)
        assert part.classes == (((1, 2),), ((1, 1), (2, 1), (2, 2)))
        assert part.isolated() == ((1, 2),)

    def test_one_element_chain(self):
        part = contour_partition(make_operation(1, [[1]]))
        assert part.classes == (((1, 1),),)

    def test_min_level_sets(self):
        part = contour_partition(min_op(3))
        assert part.values == (1, 2, 3)
        assert part.classes[0] == ((1, 1), (1, 2), (1, 3), (2, 1), (3, 1))
        assert part.classes[1] == ((2, 2), (2, 3), (3, 2))
        assert part.classes[2] == ((3, 3),)
        assert part.isolated() == ((3, 3),)

    @given(tables)
    def test_partition_invariants(self, op):
        part = contour_partition(op)
        points = [p for cls in part.classes for p in cls]
        assert sorted(points) == [(x, y) for x in range(1, op.n + 1)
                                  for y in range(1, op.n + 1)]
        assert len(points) == len(set(points))
        assert list(part.values) == sorted(part.values)
        for cls, value in zip(part.classes, part.values):
            assert list(cls) == sorted(cls)
            assert all(op(x, y) == value for (x, y) in cls)


class TestRestrict:
    def test_max_restricts_to_max(self):
        sub, elements = restrict(max_op(3), {2, 3})
        assert elements == (2, 3)
        assert sub.table == max_op(2).table

    def test_closure_violation(self):
        with pytest.raises(ValueError, match="not closed"):
            restrict(fixture("fig2"), {1, 3})

    def test_empty_subset(self):
        with pytest.raises(ValueError):
            restrict(max_op(2), set())

    def test_conservative_always_restricts(self):
        # closure under every nonempty subset characterizes conservativeness,
        # and the restriction evaluates like the relabeled original
        for op in enumerate_conservative(3):
            for mask in range(1, 8):
                subset = {v for v in (1, 2, 3) if mask >> (v - 1) & 1}
                sub, elements = restrict(op, subset)
                relabel = {v: i + 1 for i, v in enumerate(elements)}
                for x in elements:
                    for y in elements:
                        assert sub(relabel[x], relabel[y]) == relabel[op(x, y)]

    def test_restrict_rejects_foreign_elements(self):
        with pytest.raises(ValueError, match="outside"):
            restrict(max_op(3), {2, 5})

    def test_restrict_commutes_with_evaluation(self):
        op = fixture("fig11a")
        sub, elements = restrict(op, {1, 2, 3})
        relabel = {v: i + 1 for i, v in enumerate(elements)}
        for x in elements:
            for y in elements:
                assert sub(relabel[x], relabel[y]) == relabel[op(x, y)]


class TestTableFormats:
    def test_projection_text_pins_the_convention(self):
        op = make_operation(2, [[1, 1], [2, 2]])  # F(x, y) = x
        assert format_table(op) == "2\n1 2\n1 2\n"

    def test_text_round_trip_is_asymmetric_safe(self):
        op = fixture("fig8")
        assert parse_table(format_table(op)).table == op.table

    def test_comments_and_blank_lines_skipped(self):
        op = parse_table("# comment\n\n2\n1 2\n\n2 2\n")
        assert op.table == max_op(2).table

    def test_json_round_trip(self):
        op = fixture("fig14")
        assert table_from_json_dict(table_to_json_dict(op)).table == op.table

    def test_auto_detects_json(self):
        op = fixture("fig13")
        text = json.dumps(table_to_json_dict(op))
        assert parse_table_auto(text).table == op.table

    @given(tables)
    def test_round_trips(self, op):
        assert parse_table(format_table(op)).table == op.table
        assert table_from_json_dict(table_to_json_dict(op)).table == op.table

    @pytest.mark.parametrize("text", [
        "",
        "x\n1",
        "2\n1 2\n1",
        "2\n1 2\n1 2 2\n",
        "2\n1 a\n1 2\n",
        "3\n1 2\n",
        "{\"n\": 2}",
        "{bad json",
    ])
    def test_parse_errors(self, text):
        with pytest.raises(ValueError):
            parse_table_auto(text)


class TestOrders:
    def test_order_round_trip(self):
        order = parse_order("2 3 4 1 5")
        assert order.seq == (2, 3, 4, 1, 5)
        assert order.rank(2) == 1 and order.rank(5) == 5
        assert order.precedes(4, 1) and not order.precedes(5, 2)

    def test_non_permutation_rejected(self):
        with pytest.raises(ValueError):
            LinearOrder(FiniteChain(3), (1, 2, 2))
        with pytest.raises(ValueError):
            parse_order("1 2 2")


class TestGSpec:
    def test_valid(self):
        GSpec(FiniteChain(4), 2, (3, 2))

    def test_rejects_increasing(self):
        with pytest.raises(ValueError):
            GSpec(FiniteChain(4), 2, (2, 3))

    def test_rejects_wrong_endpoint(self):
        with pytest.raises(ValueError):
            GSpec(FiniteChain(4), 2, (3, 3))

    def test_rejects_out_of_band_values(self):
        with pytest.raises(ValueError):
            GSpec(FiniteChain(4), 3, (2, 3, 3))
