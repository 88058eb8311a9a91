"""The three constructions of idempotent discrete uninorms, plus counting.

1. The contour algorithm: pick the neutral element, then grow an interval of
   the chain one endpoint at a time, laying down the L-shaped shell of new
   points with the newly added element as the common value.
2. The min/max patchwork: a neutral element e and a nonincreasing map g on
   {1..e} determine where the operation is min and where it is max.
3. The order route (see single_peaked): the maximum with respect to a
   single-peaked linear ordering.

All three produce the same set of 2^(n-1) operations; the test suite checks
the set equality exhaustively.

Each construction writes its table a shell or a row at a time and wraps it
without the public constructor's check: every entry is one of the cell's two
arguments, so it lies in 1..n.
"""
from __future__ import annotations

from bisect import bisect_left
from itertools import combinations_with_replacement
from math import comb
from typing import Iterator

from .core import BinaryOperation, FiniteChain, GSpec, _ints_in, _unchecked_operation


def generate_all_uninorms_gc(n: int) -> Iterator[BinaryOperation]:
    """Every idempotent discrete uninorm on the n-chain, built shell by shell.

    The shells are laid into one working table, depth first with an explicit
    stack of the intervals still to visit, so the depth is not bounded by
    the recursion limit. Each interval's shell is laid when it is popped,
    after the whole subtree of its elder sibling, which writes only outside
    their parent's square. Along each path from a neutral element to a leaf
    the shells partition the square, so every cell is written exactly once
    before the leaf snapshots the table, and no shell needs undoing when the
    search backs up. Every entry is the shell's new element, one of the
    cell's two arguments, so the snapshots are wrapped without a check.

    The emission order matches enumerate_single_peaked: start elements
    ascending, downward extension explored before upward. The chain size is
    checked when the first table is asked for.
    """
    FiniteChain(n)
    table = [[0] * n for _ in range(n)]
    # (a, lo, hi): the interval [lo, hi] reached by adding a, whose shell of
    # new points has the common value a; a neutral element e is [e, e]
    stack = [(e, e, e) for e in range(n, 0, -1)]
    while stack:
        a, lo, hi = stack.pop()
        _lay_shell(table, a, lo, hi)
        if hi - lo + 1 == n:
            yield _unchecked_operation(n, tuple(map(tuple, table)))
            continue
        if hi < n:
            stack.append((hi + 1, lo, hi + 1))
        if lo > 1:
            stack.append((lo - 1, lo - 1, hi))


def _lay_shell(table: list[list[int]], a: int, lo: int, hi: int) -> None:
    """Write the shell of new points with common value a into the table: the
    row and column of a over the extended interval [lo, hi]."""
    table[a - 1][lo - 1:hi] = [a] * (hi - lo + 1)
    for row in table[lo - 1:hi]:
        row[a - 1] = a


def count_uninorms(n: int) -> int:
    """Number of idempotent discrete uninorms on the n-chain: 2^(n-1).

    The closed form is checked against the generator by the ``main2n``
    claim. Counts are exact arbitrary-precision integers, so no overflow is
    possible.
    """
    return 2 ** (FiniteChain(n).n - 1)


def count_uninorms_by_neutral(n: int, e: int) -> int:
    """Number of idempotent discrete uninorms on the n-chain with neutral
    element e: the binomial C(n-1, e-1), checked against the generator by
    the ``gc`` claim. Both n and e are checked as ``GSpec`` checks them."""
    _ints_in((e,), 1, FiniteChain(n).n, "neutral element")
    return comb(n - 1, e - 1)


def make_gbar(spec: GSpec) -> tuple[int, ...]:
    """Extend g to a total map on the whole chain (index x-1 holds the value
    at x):

    * below the neutral element, the extension is g itself;
    * between e and g(1), it is the largest z <= e with g(z) >= x;
    * above g(1), it collapses to 1.

    At x = e the first two branches agree because g(e) = e.
    """
    n, e, g = spec.chain.n, spec.e, spec.g
    # g is nonincreasing, so the z with g(z) >= x are 1..m, and the largest
    # is their count m: e minus the number of values below x
    rising = g[::-1]
    middle = tuple(e - bisect_left(rising, x) for x in range(e + 1, g[0] + 1))
    return g + middle + (1,) * (n - g[0])


def uninorm_from_gspec(spec: GSpec) -> BinaryOperation:
    """The min/max patchwork operation of a parameter choice: min below the
    extended boundary, max everywhere else.

    Row x is min(x, y) for y <= gbar(x) when x <= gbar(1), and max(x, y)
    otherwise. Either way it is the identity row with a run of x between x
    and the row's boundary (gbar(x), or 0 where the row is all max). Every
    entry is the min or max of its two arguments, so the table is wrapped
    without a check.
    """
    n = spec.chain.n
    gbar = make_gbar(spec)
    ids = tuple(range(1, n + 1))
    rows = []
    for x, k in enumerate(gbar, 1):
        if x > gbar[0]:
            k = 0
        lo, hi = (x, k) if x <= k else (k, x)
        rows.append(ids[:lo] + (x,) * (hi - lo) + ids[hi:])
    return _unchecked_operation(n, tuple(rows))


def enumerate_gspecs(n: int) -> Iterator[GSpec]:
    """All valid parameter choices (e, g): e in 1..n and g nonincreasing from
    {1..e} into {e..n} with g(e) = e, in lexicographic order of (e, g).
    The chain size is checked when the first parameter choice is asked for."""
    chain = FiniteChain(n)
    for e in range(1, n + 1):
        for head in combinations_with_replacement(range(e, n + 1), e - 1):
            yield GSpec(chain, e, tuple(reversed(head)) + (e,))


def gspec_collision_report(n: int) -> dict:
    """Map the whole parameter space through the patchwork construction and
    report whether distinct parameters ever produce the same operation.

    The parameterization is not assumed injective; this measures it.
    """
    sources, collisions = _gspec_sources(n)
    return {
        "n": n,
        "specs": sum(len(v) for v in sources.values()),
        "distinct_operations": len(sources),
        "colliding_operations": len(collisions),
        "collisions": collisions,
    }


def _gspec_sources(n: int) -> tuple[dict, list]:
    """Each table of the patchwork construction mapped to the parameters
    (e, g) that produce it, in parameter order, and the sorted parameter
    lists of the tables produced more than once."""
    sources: dict[tuple, list[tuple[int, tuple[int, ...]]]] = {}
    for spec in enumerate_gspecs(n):
        sources.setdefault(uninorm_from_gspec(spec).table, []).append((spec.e, spec.g))
    return sources, sorted(v for v in sources.values() if len(v) > 1)
