"""Decision procedures for the axioms of interest: idempotency, conservativeness,
symmetry, monotonicity, associativity, bisymmetry, neutral elements.

Most properties come in two flavors: the naive definitional check and a
structural check that reads the contour plot instead (connectedness of level
sets, isolated points, sections, rectangles). The two flavors are equivalent
on their stated input classes; the test suite verifies this exhaustively at
small chain sizes.

Checks iterate in lexicographic order, so the *_witness functions always
return the same (first) counterexample for a given table.

The bisymmetry witness skips the quadruples with u <= y and is still the
first. Exchanging y and u in F(F(x,y),F(u,v)) = F(F(x,u),F(y,v)) gives the
same equation with its two sides swapped, so (x, y, u, v) fails exactly when
(x, u, y, v) fails; and when y = u both sides are the same term. So for every
failing quadruple with u < y, the one with y and u exchanged fails too and
comes first in lexicographic order: the first failing quadruple has y < u.
The associativity loop reads each row it needs once, outside the innermost
loop. The bisymmetry loop has no loop over v: the row F(p, F(u, .)) depends on
p and u only, so it is built once, on first use, and compared whole. For each
x, y and u > y the quadruples (x, y, u, .) all hold exactly when the rows
F(F(x,y), F(u, .)) and F(F(x,u), F(y, .)) are equal. The triples are still
taken in lexicographic order, and the first differing entry of the first
unequal pair is the smallest failing v, so the witness is still the first.
The tests compare both loops with plain ``op(x, y)`` loops.
"""
from __future__ import annotations

from itertools import chain, combinations, permutations
from operator import eq, itemgetter
from typing import Iterator, NamedTuple, Optional

from .core import BinaryOperation, FiniteChain, _cells, contour_partition, isolated_points


def idempotency_witness(op: BinaryOperation) -> Optional[int]:
    for x, row in enumerate(op.table, 1):
        if row[x - 1] != x:
            return x
    return None


def is_idempotent(op: BinaryOperation) -> bool:
    return idempotency_witness(op) is None


def conservativeness_witness(op: BinaryOperation) -> Optional[tuple[int, int]]:
    """First (x, y) with F(x,y) outside {x, y}, if any."""
    for x, row in enumerate(op.table, 1):
        for y, v in enumerate(row, 1):
            if v != x and v != y:
                return (x, y)
    return None


def is_conservative(op: BinaryOperation) -> bool:
    return conservativeness_witness(op) is None


def contour_conservativeness_witness(op: BinaryOperation) -> Optional[tuple[int, int]]:
    """Structural version: the operation is conservative iff it is idempotent
    and every off-diagonal point is connected to one of the two diagonal
    points below it, i.e. shares its level set with (x,x) or (y,y)."""
    x = idempotency_witness(op)
    if x is not None:
        return (x, x)
    n = op.n
    level = [[0] * n for _ in range(n)]  # level[x-1][y-1]: the class of (x, y)
    for i, cls in enumerate(contour_partition(op).classes):
        for x, y in cls:
            level[x - 1][y - 1] = i
    for x, row in enumerate(level, 1):
        for y, i in enumerate(row, 1):
            if x != y and i != row[x - 1] and i != level[y - 1][y - 1]:
                return (x, y)
    return None


def is_conservative_via_contour(op: BinaryOperation) -> bool:
    return contour_conservativeness_witness(op) is None


def symmetry_witness(op: BinaryOperation) -> Optional[tuple[int, int]]:
    """First (x, y), x < y, with F(x,y) != F(y,x)."""
    n = op.n
    t = op.table
    for i in range(n):
        for j in range(i + 1, n):
            if t[i][j] != t[j][i]:
                return (i + 1, j + 1)
    return None


def is_symmetric(op: BinaryOperation) -> bool:
    return symmetry_witness(op) is None


def monotonicity_witness(op: BinaryOperation) -> Optional[tuple[tuple[int, int], tuple[int, int]]]:
    """First adjacent pair of points where the value strictly drops.

    Checking unit steps in each coordinate is enough by transitivity.
    """
    t = op.table
    n = len(t)
    for x, row in enumerate(t, 1):
        next_row = t[x] if x < n else None  # F(x + 1, .)
        for y, v in enumerate(row, 1):
            if next_row is not None and v > next_row[y - 1]:
                return ((x, y), (x + 1, y))
            if y < n and v > row[y]:
                return ((x, y), (x, y + 1))
    return None


def is_nondecreasing(op: BinaryOperation) -> bool:
    return monotonicity_witness(op) is None


def associativity_witness(op: BinaryOperation) -> Optional[tuple[int, int, int]]:
    """First (x, y, z) with F(F(x,y),z) != F(x,F(y,z))."""
    t = op.table
    n = len(t)
    for x, rx in enumerate(t, 1):
        for y, txy in enumerate(rx, 1):
            a = t[txy - 1]  # F(F(x,y), .)
            ty = t[y - 1]
            for z in range(n):
                if a[z] != rx[ty[z] - 1]:
                    return (x, y, z + 1)
    return None


def is_associative(op: BinaryOperation) -> bool:
    return associativity_witness(op) is None


def bisymmetry_witness(op: BinaryOperation) -> Optional[tuple[int, int, int, int]]:
    """First (x, y, u, v) with F(F(x,y),F(u,v)) != F(F(x,u),F(y,v)).

    Only u > y is tried, and every v at once, by one comparison of two
    composition rows: the module docstring says why the witness is still the
    first. The row F(p, F(u, .)) is row p with a 0 in front, read by an
    ``itemgetter`` of the indices F(u, 1..n). Each row and each getter is
    built on first use and kept until the call returns. A getter of one index
    would return a scalar, but at n = 1 no u > y exists and none is built."""
    t = op.table
    n = len(t)
    comps = [None] * (n * n + n + 1)  # comps[p*n + u]: the row F(p, F(u, .))
    getters = [None] * (n + 1)  # getters[u] reads the row F(p, F(u, .)) off row p
    for x, rx in enumerate(t, 1):
        for y in range(1, n + 1):
            fxy = rx[y - 1]
            base = fxy * n
            for u in range(y + 1, n + 1):
                a = comps[base + u]  # F(F(x,y), F(u, .))
                if a is None:
                    g = getters[u]
                    if g is None:
                        g = getters[u] = itemgetter(*t[u - 1])
                    a = comps[base + u] = g((0,) + t[fxy - 1])
                fxu = rx[u - 1]
                b = comps[fxu * n + y]  # F(F(x,u), F(y, .))
                if b is None:
                    g = getters[y]
                    if g is None:
                        g = getters[y] = itemgetter(*t[y - 1])
                    b = comps[fxu * n + y] = g((0,) + t[fxu - 1])
                if a != b:
                    return (x, y, u, list(map(eq, a, b)).index(False) + 1)
    return None


def is_bisymmetric(op: BinaryOperation) -> bool:
    return bisymmetry_witness(op) is None


# ---------------------------------------------------------------------------
# rectangles: the graphical associativity test for conservative operations

class Rectangle(NamedTuple):
    """A rectangle with one vertex on the diagonal, determined by a triple of
    pairwise distinct elements: vertices (a,c), (b,c), (b,b), (a,b)."""

    a: int
    b: int
    c: int

    @property
    def vertices(self) -> tuple[tuple[int, int], ...]:
        a, b, c = self
        return ((a, c), (b, c), (b, b), (a, b))


class RectWitness(NamedTuple):
    triple: tuple[int, int, int]
    rectangle: Rectangle
    values: tuple[int, int, int]


def rectangles(n: int, symmetric: bool = False) -> Iterator[Rectangle]:
    """All test rectangles on the n-chain in lexicographic triple order.

    With ``symmetric=True`` only one rectangle per 3-element subset is
    produced, which suffices for symmetric operations. The chain size is
    checked when the first rectangle is asked for.
    """
    FiniteChain(n)
    if symmetric:
        for a, b, c in combinations(range(1, n + 1), 3):
            yield Rectangle(a, b, c)
    else:
        for a, b, c in permutations(range(1, n + 1), 3):
            yield Rectangle(a, b, c)


def rectangle_count(n: int, symmetric: bool = False) -> int:
    """The number of rectangles ``rectangles(n, symmetric)`` yields."""
    FiniteChain(n)
    if symmetric:
        return n * (n - 1) * (n - 2) // 6
    return n * (n - 1) * (n - 2)


def rect_associativity_witness(op: BinaryOperation) -> Optional[RectWitness]:
    """Rectangle test: a conservative operation fails associativity exactly
    when some pairwise distinct a, b, c give pairwise distinct values
    F(a,b), F(a,c), F(b,c)."""
    _require_conservative(op)
    triple = _table_rect_witness(op.table)
    if triple is None:
        return None
    a, b, c = triple
    return RectWitness(triple, Rectangle(a, b, c), (op(a, b), op(a, c), op(b, c)))


def is_associative_conservative_rect(op: BinaryOperation) -> bool:
    """Whether the rectangle test finds no witness: the guard and the answer
    of ``rect_associativity_witness``, without building the witness."""
    _require_conservative(op)
    return _table_rect_witness(op.table) is None


def _table_rect_witness(t) -> Optional[tuple[int, int, int]]:
    """First pairwise distinct (a, b, c), in the order of ``rectangles``,
    whose values F(a,b), F(a,c), F(b,c) in a raw table (``t[x-1][y-1]`` is
    F(x,y)) are pairwise distinct.

    Assumes a conservative table: only then does such a triple decide that
    the operation is not associative.
    """
    n = len(t)
    for a in range(n):
        for b in range(n):
            if b == a:
                continue
            vab = t[a][b]
            for c in range(n):
                if c == a or c == b:
                    continue
                vac = t[a][c]
                if vac == vab:
                    continue
                vbc = t[b][c]
                if vbc != vab and vbc != vac:
                    return (a + 1, b + 1, c + 1)
    return None


# ---------------------------------------------------------------------------
# neutral elements and isolated points

def find_neutral_element(op: BinaryOperation) -> Optional[int]:
    """The unique e with F(x,e) = F(e,x) = x for all x, or None."""
    t = op.table
    identity = tuple(range(1, len(t) + 1))
    for e, row in enumerate(t, 1):
        # row e is F(e, .); column e is read off every row
        if row == identity and all(r[e - 1] == x for x, r in enumerate(t, 1)):
            return e
    return None


class NeutralSections(NamedTuple):
    e: int
    vertical: tuple[tuple[int, int], ...]
    horizontal: tuple[tuple[int, int], ...]


def find_neutral_via_sections(op: BinaryOperation) -> Optional[NeutralSections]:
    """Graphical version: look for a vertical and a horizontal section meeting
    on the diagonal on which the operation restricts to the identity. The
    crossing point of the two sections is the neutral element.

    It reads the level sets, not the table: e qualifies when, for every x,
    the level set of value x contains both (x, e) and (e, x). One pass over
    the cells sorts them into their level sets; the sets are then read one
    at a time, for x = 1, 2, ..., each keeping the candidates e that it
    holds both points of; the first level set that leaves no candidate ends
    the test. A neutral element is unique, so at most one candidate is left
    after the last level set."""
    n = op.n
    levels: list[list[tuple[int, int]]] = [[] for _ in range(n + 1)]
    for p, v in zip(_cells(n), chain.from_iterable(op.table)):
        levels[v].append(p)
    candidates = range(1, n + 1)
    for x in range(1, n + 1):
        level = levels[x]
        candidates = [e for e in candidates if (x, e) in level and (e, x) in level]
        if not candidates:
            return None
    (e,) = candidates
    vertical = tuple((e, y) for y in range(1, n + 1))
    horizontal = tuple((x, e) for x in range(1, n + 1))
    return NeutralSections(e, vertical, horizontal)


def find_neutral_conservative(op: BinaryOperation) -> Optional[int]:
    """For conservative operations the neutral element is the diagonal point
    whose level set is a singleton; there is at most one isolated point."""
    _require_conservative(op)
    isolated = isolated_points(op)
    if not isolated:
        return None
    (x, y) = isolated[0]
    return x if x == y else None


def _require_conservative(op: BinaryOperation) -> None:
    w = conservativeness_witness(op)
    if w is not None:
        raise ValueError(f"operation is not conservative: F{w} = {op(*w)}")
