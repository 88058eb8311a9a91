"""The per-cell checkers read table rows; each must return exactly what its
definition returns, first witness included. The references below are the
definitions written as plain ``op(x, y)`` loops in lexicographic order, and
every table of the small spaces is compared."""
from __future__ import annotations

import random
from functools import lru_cache
from operator import itemgetter

import pytest

from uninorms import oracle, properties
from uninorms.core import (
    BinaryOperation,
    ContourPartition,
    _unchecked_operation,
    contour_partition,
    format_table,
    table_to_json_dict,
)
from uninorms.generate import generate_all_uninorms_gc
from uninorms.properties import (
    NeutralSections,
    associativity_witness,
    bisymmetry_witness,
    conservativeness_witness,
    contour_conservativeness_witness,
    find_neutral_element,
    find_neutral_via_sections,
    idempotency_witness,
    isolated_points,
    monotonicity_witness,
    symmetry_witness,
)
from uninorms.render import render_contour_text
from uninorms.single_peaked import enumerate_single_peaked, order_to_uninorm, uninorm_to_order

_SPACES = {
    "full3": lambda: oracle.full_space(3),
    "idempotent3": lambda: oracle._space(3, oracle._idempotent(oracle._full(3))),
    "conservative4": lambda: oracle.conservative_space(4),
}


@lru_cache(maxsize=None)
def _operations(space: str) -> tuple[BinaryOperation, ...]:
    s = _SPACES[space]()
    return tuple(_unchecked_operation(len(t), t) for t in s)


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


def ref_symmetry_witness(op):
    for x, y in _cells(op):
        if x < y and op(x, y) != op(y, x):
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


def ref_associativity_witness(op):
    rng = range(1, op.n + 1)
    for x in rng:
        for y in rng:
            for z in rng:
                if op(op(x, y), z) != op(x, op(y, z)):
                    return (x, y, z)
    return None


def ref_bisymmetry_witness(op):
    # every quadruple, u <= y included
    rng = range(1, op.n + 1)
    for x in rng:
        for y in rng:
            for u in rng:
                for v in rng:
                    if op(op(x, y), op(u, v)) != op(op(x, u), op(y, v)):
                        return (x, y, u, v)
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


def ref_find_neutral_via_sections(op):
    """Every level set at once: e qualifies when the level set of each value
    x holds both (x, e) and (e, x)."""
    n = op.n
    part = ref_contour_partition(op)
    level = dict(zip(part.values, part.classes))
    for e in range(1, n + 1):
        if all((x, e) in level.get(x, ()) and (e, x) in level.get(x, ())
               for x in range(1, n + 1)):
            return NeutralSections(e, tuple((e, y) for y in range(1, n + 1)),
                                   tuple((x, e) for x in range(1, n + 1)))
    return None


def ref_isolated_points(op):
    return tuple(cls[0] for cls in ref_contour_partition(op).classes if len(cls) == 1)


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
    isolated = set(ref_isolated_points(op))
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
    "symmetry_witness": (symmetry_witness, ref_symmetry_witness),
    "monotonicity_witness": (monotonicity_witness, ref_monotonicity_witness),
    "associativity_witness": (associativity_witness, ref_associativity_witness),
    "bisymmetry_witness": (bisymmetry_witness, ref_bisymmetry_witness),
    "find_neutral_element": (find_neutral_element, ref_find_neutral_element),
    "contour_conservativeness_witness": (contour_conservativeness_witness,
                                         ref_contour_conservativeness_witness),
    "contour_partition": (lambda op: _classes_and_values(contour_partition(op)),
                          lambda op: _classes_and_values(ref_contour_partition(op))),
    "find_neutral_via_sections": (find_neutral_via_sections, ref_find_neutral_via_sections),
    "isolated_points": (isolated_points, ref_isolated_points),
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


_UNINORMS = [op for n in range(1, 9) for op in generate_all_uninorms_gc(n)]


@pytest.mark.parametrize("kernel", ["contour_partition", "find_neutral_via_sections",
                                    "isolated_points"])
def test_level_set_kernels_on_generated_uninorms(kernel):
    # n up to 8, beyond the small spaces' sizes; each uninorm has one
    # isolated point, its neutral element, so no table takes the early return
    # of isolated_points, and find_neutral_via_sections reads every level set
    fast, ref = _KERNELS[kernel]
    mismatches = [op.table for op in _UNINORMS if fast(op) != ref(op)]
    assert mismatches == []


def test_prel34_check_matches_its_definition():
    def ref(op):
        n = op.n
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

    # prel34's class at n = 4, then the idempotent tables with a neutral
    # element at n = 3, nondecreasing or not, so that some fail
    found = oracle._searched(4, oracle._idempotent_neutral_parts(4), nondecreasing=True)[1]
    ops = [_unchecked_operation(4, t) for t in found] + [
        op for op in (_unchecked_operation(3, t) for t in _SPACES["idempotent3"]())
        if ref_find_neutral_element(op)]
    results = [oracle._check_prel34(op) for op in ops]
    assert results == [ref(op) for op in ops]
    assert {bad is None for _, bad in results} == {True, False}


def ref_uninorm_to_order(op):
    """The input check by the three witnesses, then each element's rank as
    the number of elements it absorbs."""
    problems = [name for name, witness in (("conservative", conservativeness_witness),
                                           ("symmetric", symmetry_witness),
                                           ("nondecreasing", monotonicity_witness))
                if witness(op) is not None]
    if problems:
        raise ValueError(f"operation is not {', '.join(problems)}")
    n = op.n
    ranks = [sum(op(u, v) == v for u in range(1, n + 1)) for v in range(1, n + 1)]
    if sorted(ranks) != list(range(1, n + 1)):
        raise RuntimeError("induced relation is not a linear order; checker inconsistency")
    return tuple(sorted(range(1, n + 1), key=lambda v: ranks[v - 1]))


def _order_or_error(to_order, op):
    try:
        return "order", to_order(op)
    except (ValueError, RuntimeError) as exc:
        return type(exc).__name__, str(exc)


def _changed(op):
    """The table with each cell in turn moved to the next value, cyclically;
    then with each cell above the diagonal and its mirror image moved
    together, so that the table stays symmetric and the other checks decide."""
    n = op.n
    rows = [list(row) for row in op.table]
    for x in range(n):
        for y in range(n):
            changes = [[(x, y)]] + ([[(x, y), (y, x)]] if x < y else [])
            for cells in changes:
                for i, j in cells:
                    rows[i][j] = op.table[i][j] % n + 1
                yield BinaryOperation(op.chain, tuple(map(tuple, rows)))
                for i, j in cells:
                    rows[i][j] = op.table[i][j]


@pytest.mark.parametrize("kernel", ["associativity_witness", "bisymmetry_witness"])
def test_identity_kernels_on_generated_uninorms_and_their_changes(kernel):
    # every generated uninorm for n <= 6 holds both identities; each with one
    # cell changed (or a cell and its mirror image) mostly fails them, with
    # first witnesses past x = 1 and, for bisymmetry, with u far above y
    fast, ref = _KERNELS[kernel]
    uninorms = [op for op in _UNINORMS if op.n <= 6]
    ops = uninorms + [changed for op in uninorms for changed in _changed(op)]
    got = [fast(op) for op in ops]
    assert got == [ref(op) for op in ops]
    witnesses = [w for w in got if w is not None]
    assert None in got and max(w[0] for w in witnesses) >= 5
    if kernel == "bisymmetry_witness":
        assert max(u - y for _, y, u, _ in witnesses) >= 4


@pytest.mark.parametrize("n", [1, 2])
def test_bisymmetry_witness_on_the_full_spaces_at_n_1_and_2(n, monkeypatch):
    # an itemgetter of one index returns a scalar, not a row: at n = 1, where
    # no u > y exists, the kernel builds none
    built = []

    def spy(*indices):
        built.append(indices)
        return itemgetter(*indices)

    monkeypatch.setattr(properties, "itemgetter", spy)
    ops = [_unchecked_operation(n, t) for t in oracle.full_space(n)]
    got = [bisymmetry_witness(op) for op in ops]
    assert got == [ref_bisymmetry_witness(op) for op in ops]
    assert len(ops) == n ** (n * n) and None in got
    if n == 1:
        assert built == []
    else:
        assert len(set(got)) > 2 and {len(indices) for indices in built} == {2}


def test_bisymmetry_witness_keeps_no_composition_row_between_calls():
    # a bisymmetric table, then the same table with one cell changed, then the
    # other way round: each answer is its own table's
    op = next(op for op in _UNINORMS if op.n == 5)
    calls = [table for changed in _changed(op) for table in (op, changed, changed, op)]
    got = [bisymmetry_witness(table) for table in calls]
    assert got == [ref_bisymmetry_witness(table) for table in calls]
    assert got[::4] == got[3::4] == [None] * (len(calls) // 4)
    assert sum(w is not None for w in got[1::4]) > len(calls) // 8


def _bisymmetry_tables(tables: str) -> list[BinaryOperation]:
    if tables == "uninorms-7-9":
        return [op for n in (7, 8, 9) for op in generate_all_uninorms_gc(n)]
    if tables == "uninorms-7-changed":
        return [changed for op in generate_all_uninorms_gc(7) for changed in _changed(op)]
    if tables == "random":
        # n = 4..10 with uniform entries, as in the request stream
        rng = random.Random(23)
        return [_unchecked_operation(n, tuple(tuple(rng.randint(1, n) for _ in range(n))
                                              for _ in range(n)))
                for n in (rng.randint(4, 10) for _ in range(200))]
    found = oracle._searched(5, oracle._neutral_parts(5), nondecreasing=True)[1]
    return [_unchecked_operation(5, t) for t in found]


@pytest.mark.parametrize("tables", ["uninorms-7-9", "uninorms-7-changed", "random", "mainb-5"])
def test_bisymmetry_witness_at_scale(tables):
    # full passes that reuse many composition rows (the uninorms), witnesses
    # past x = 1 after such reuse (their changes), and early exits (random
    # tables, and mainb's class at n = 5, most of it failing at (1, 1, u, v))
    ops = _bisymmetry_tables(tables)
    got = [bisymmetry_witness(op) for op in ops]
    assert got == [ref_bisymmetry_witness(op) for op in ops]
    witnesses = [w for w in got if w is not None]
    if tables == "uninorms-7-9":
        assert len(ops) == 64 + 128 + 256 and witnesses == []
    elif tables == "uninorms-7-changed":
        assert None in got and max(w[0] for w in witnesses) == 7
    elif tables == "random":
        assert len(witnesses) == 200 and {op.n for op in ops} == set(range(4, 11))
    else:
        assert len(ops) == 40088 and len(witnesses) == 40088 - 92
        assert sum(w[:2] == (1, 1) for w in witnesses) > len(witnesses) // 2


@pytest.mark.parametrize("tables", ["full3", "conservative4", "uninorms", "uninorms-changed"])
def test_uninorm_to_order_checks_its_input_as_the_witnesses_do(tables):
    ops = (_operations(tables) if tables in _SPACES
           else _UNINORMS if tables == "uninorms"
           else [changed for op in _UNINORMS for changed in _changed(op)])
    got = [_order_or_error(lambda op: uninorm_to_order(op).seq, op) for op in ops]
    assert got == [_order_or_error(ref_uninorm_to_order, op) for op in ops]
    # every generated uninorm has its order; the other sets hold both kinds
    outcomes = {"order"} if tables == "uninorms" else {"order", "ValueError"}
    assert {kind for kind, _ in got} == outcomes


@pytest.mark.parametrize("n", range(1, 9))
def test_uninorm_to_order_recovers_every_generated_uninorms_order(n):
    order_of = {order_to_uninorm(order).table: order.seq for order in enumerate_single_peaked(n)}
    generated = list(generate_all_uninorms_gc(n))
    assert len(generated) == len(order_of) == 2 ** (n - 1)
    for op in generated:
        assert uninorm_to_order(op).seq == order_of[op.table]
