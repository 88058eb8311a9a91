"""The per-cell checkers read table rows; each must return exactly what its
definition returns, first witness included. The references below are the
definitions written as plain ``op(x, y)`` loops in lexicographic order, and
every table of the small spaces is compared."""
from __future__ import annotations

from functools import lru_cache

import pytest

from uninorms import oracle
from uninorms.core import (
    BinaryOperation,
    ContourPartition,
    contour_partition,
    format_table,
    table_to_json_dict,
)
from uninorms.generate import generate_all_uninorms_gc
from uninorms.properties import (
    conservativeness_witness,
    contour_conservativeness_witness,
    find_neutral_element,
    idempotency_witness,
    monotonicity_witness,
)
from uninorms.render import render_contour_text
from uninorms.single_peaked import enumerate_single_peaked, order_to_uninorm, uninorm_to_order

_SPACES = {
    "full3": lambda: oracle.full_space(3),
    "idempotent3": lambda: oracle.idempotent_space(3),
    "conservative4": lambda: oracle.conservative_space(4),
}


@lru_cache(maxsize=None)
def _operations(space: str) -> tuple[BinaryOperation, ...]:
    s = _SPACES[space]()
    return tuple(oracle._wrap(len(t), t) for t in s)


def _cells(op):
    n = op.n
    return ((x, y) for x in range(1, n + 1) for y in range(1, n + 1))


def ref_idempotency_witness(op):
    for x in range(1, op.n + 1):
        if op(x, x) != x:
            return x
    return None


def ref_conservativeness_witness(op):
    for x, y in _cells(op):
        if op(x, y) != x and op(x, y) != y:
            return (x, y)
    return None


def ref_monotonicity_witness(op):
    n = op.n
    for x, y in _cells(op):
        if x < n and op(x, y) > op(x + 1, y):
            return ((x, y), (x + 1, y))
        if y < n and op(x, y) > op(x, y + 1):
            return ((x, y), (x, y + 1))
    return None


def ref_find_neutral_element(op):
    n = op.n
    for e in range(1, n + 1):
        if all(op(x, e) == x and op(e, x) == x for x in range(1, n + 1)):
            return e
    return None


def ref_contour_partition(op):
    by_value = {}
    for x, y in _cells(op):
        by_value.setdefault(op(x, y), []).append((x, y))
    values = tuple(sorted(by_value))
    return ContourPartition(op.chain, tuple(tuple(sorted(by_value[v])) for v in values), values)


def ref_contour_conservativeness_witness(op):
    x = ref_idempotency_witness(op)
    if x is not None:
        return (x, x)
    index = {p: i for i, cls in enumerate(ref_contour_partition(op).classes) for p in cls}
    for x, y in _cells(op):
        if x != y and index[(x, y)] not in (index[(x, x)], index[(y, y)]):
            return (x, y)
    return None


def ref_closed_under_all_subsets(op, n):
    for mask in range(1, 1 << n):
        members = [v for v in range(1, n + 1) if mask >> (v - 1) & 1]
        for x in members:
            for y in members:
                if not mask >> (op(x, y) - 1) & 1:
                    return False
    return True


def ref_membership_traceable(op, n):
    for mask in range(1, 1 << n):
        for x, y in _cells(op):
            if mask >> (op(x, y) - 1) & 1 and not (mask >> (x - 1) & 1 or mask >> (y - 1) & 1):
                return False
    return True


def ref_format_table(op):
    n = op.n
    lines = [str(n)] + [" ".join(str(op(x, y)) for x in range(1, n + 1))
                        for y in range(1, n + 1)]
    return "\n".join(lines) + "\n"


def ref_json_rows(op):
    n = op.n
    return [[op(x, y) for x in range(1, n + 1)] for y in range(1, n + 1)]


def ref_render_contour_text(op, witness=None):
    n = op.n
    marked = set(witness or ())
    isolated = {cls[0] for cls in ref_contour_partition(op).classes if len(cls) == 1}
    cells = {}
    for x, y in _cells(op):
        text = str(op(x, y)) + ("*" if (x, y) in isolated else "")
        cells[(x, y)] = f"[{text}]" if (x, y) in marked else text
    width = max(map(len, cells.values()))
    return "\n".join(" ".join(cells[(x, y)].rjust(width) for x in range(1, n + 1))
                     for y in range(n, 0, -1)) + "\n"


# name: (the package function, its reference), both called with the operation
_KERNELS = {
    "idempotency_witness": (idempotency_witness, ref_idempotency_witness),
    "conservativeness_witness": (conservativeness_witness, ref_conservativeness_witness),
    "monotonicity_witness": (monotonicity_witness, ref_monotonicity_witness),
    "find_neutral_element": (find_neutral_element, ref_find_neutral_element),
    "contour_conservativeness_witness": (contour_conservativeness_witness,
                                         ref_contour_conservativeness_witness),
    "contour_partition": (lambda op: _classes_and_values(contour_partition(op)),
                          lambda op: _classes_and_values(ref_contour_partition(op))),
    "closed_under_all_subsets": (lambda op: oracle._closed_under_all_subsets(op, op.n),
                                 lambda op: ref_closed_under_all_subsets(op, op.n)),
    "membership_traceable": (lambda op: oracle._membership_traceable(op, op.n),
                             lambda op: ref_membership_traceable(op, op.n)),
    "format_table": (format_table, ref_format_table),
    "table_to_json_dict": (lambda op: table_to_json_dict(op)["table"], ref_json_rows),
    # two marked cells, so that one grid holds marked and unmarked ones
    "render_contour_text": (lambda op: render_contour_text(op, [(op.n, 1), (1, 2)]),
                            lambda op: ref_render_contour_text(op, [(op.n, 1), (1, 2)])),
}


def _classes_and_values(part):
    return part.classes, part.values


@pytest.mark.parametrize("space", sorted(_SPACES))
@pytest.mark.parametrize("kernel", sorted(_KERNELS))
def test_kernel_matches_its_definition(kernel, space):
    fast, ref = _KERNELS[kernel]
    mismatches = [op.table for op in _operations(space) if fast(op) != ref(op)]
    assert mismatches == []


def test_the_kernels_see_both_answers():
    # the spaces hold tables on both sides of every check, so the comparison
    # above is not between two constant answers
    ops = _operations("full3")[::50] + _operations("conservative4")[::20]
    for kernel, (fast, _) in _KERNELS.items():
        assert len({repr(fast(op)) for op in ops}) > 1, kernel


def test_prel34_check_matches_its_definition():
    def ref(op):
        n = op.n
        if ref_idempotency_witness(op) is not None:
            return (), None
        e = ref_find_neutral_element(op)
        for x in range(1, e + 1):
            for y in range(1, e + 1):
                if op(x, y) != min(x, y):
                    return ("candidate",), f"below the neutral element F({x},{y}) != min"
        for x in range(e, n + 1):
            for y in range(e, n + 1):
                if op(x, y) != max(x, y):
                    return ("candidate",), f"above the neutral element F({x},{y}) != max"
        return ("candidate",), None

    ops = [oracle._wrap(4, t) for t in oracle._nondecreasing_neutral(4)[1]] + [
        op for op in (oracle._wrap(3, t) for t in oracle.idempotent_space(3))
        if ref_find_neutral_element(op)]
    results = [oracle._check_prel34(op) for op in ops]
    assert results == [ref(op) for op in ops]
    assert {bad is None for _, bad in results} == {True, False}


@pytest.mark.parametrize("n", range(1, 9))
def test_uninorm_to_order_recovers_every_generated_uninorms_order(n):
    order_of = {order_to_uninorm(order).table: order.seq for order in enumerate_single_peaked(n)}
    generated = list(generate_all_uninorms_gc(n))
    assert len(generated) == len(order_of) == 2 ** (n - 1)
    for op in generated:
        assert uninorm_to_order(op).seq == order_of[op.table]
