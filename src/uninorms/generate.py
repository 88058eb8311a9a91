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
"""
from __future__ import annotations

from itertools import combinations_with_replacement
from math import comb
from typing import Iterator

from .core import BinaryOperation, FiniteChain, GSpec, make_operation


def generate_all_uninorms_gc(n: int) -> Iterator[BinaryOperation]:
    """Every idempotent discrete uninorm on the n-chain, built shell by shell.

    The emission order matches enumerate_single_peaked: start elements
    ascending, downward extension explored before upward.
    """
    if n < 1:
        raise ValueError("n must be positive")
    chain = FiniteChain(n)

    def rec(lo: int, hi: int, table: list[list[int]]) -> Iterator[BinaryOperation]:
        if hi - lo + 1 == n:
            yield BinaryOperation(chain, tuple(tuple(row) for row in table))
            return
        if lo > 1:
            yield from rec(lo - 1, hi, _lay_shell(table, lo - 1, lo - 1, hi))
        if hi < n:
            yield from rec(lo, hi + 1, _lay_shell(table, hi + 1, lo, hi + 1))

    for e in range(1, n + 1):
        table = [[0] * n for _ in range(n)]
        table[e - 1][e - 1] = e
        yield from rec(e, e, table)


def _lay_shell(table: list[list[int]], a: int, lo: int, hi: int) -> list[list[int]]:
    """Copy the table and connect the shell of new points with common value a:
    the row and column of a over the extended interval [lo, hi]."""
    out = [row[:] for row in table]
    for v in range(lo, hi + 1):
        out[a - 1][v - 1] = a
        out[v - 1][a - 1] = a
    return out


def count_uninorms(n: int) -> int:
    """Number of idempotent discrete uninorms on the n-chain: 2^(n-1).

    The closed form is checked against the generator by the ``main2n``
    claim. Counts are exact arbitrary-precision integers, so no overflow is
    possible.
    """
    if n < 1:
        raise ValueError("n must be positive")
    return 2 ** (n - 1)


def count_uninorms_by_neutral(n: int, e: int) -> int:
    """Number of idempotent discrete uninorms on the n-chain with neutral
    element e: the binomial C(n-1, e-1), checked against the generator by
    the ``gc`` claim."""
    if n < 1:
        raise ValueError("n must be positive")
    if not 1 <= e <= n:
        raise ValueError(f"neutral element {e} outside 1..{n}")
    return comb(n - 1, e - 1)


def make_gbar(spec: GSpec) -> tuple[int, ...]:
    """Extend g to a total map on the whole chain (index x-1 holds the value
    at x):

    * below the neutral element, the extension is g itself;
    * between e and g(1), it is the largest z <= e with g(z) >= x;
    * above g(1), it collapses to 1.

    At x = e the first two branches agree because g(e) = e.
    """
    n = spec.chain.n
    e = spec.e
    g1 = spec.g[0]
    out = []
    for x in range(1, n + 1):
        if x <= e:
            out.append(spec.g[x - 1])
        elif x <= g1:
            out.append(max(z for z in range(1, e + 1) if spec.g[z - 1] >= x))
        else:
            out.append(1)
    return tuple(out)


def uninorm_from_gspec(spec: GSpec) -> BinaryOperation:
    """The min/max patchwork operation of a parameter choice: min below the
    extended boundary, max everywhere else."""
    n = spec.chain.n
    gbar = make_gbar(spec)
    gbar1 = gbar[0]
    table = [
        [
            min(x, y) if y <= gbar[x - 1] and x <= gbar1 else max(x, y)
            for y in range(1, n + 1)
        ]
        for x in range(1, n + 1)
    ]
    return make_operation(n, table)


def enumerate_gspecs(n: int) -> Iterator[GSpec]:
    """All valid parameter choices (e, g): e in 1..n and g nonincreasing from
    {1..e} into {e..n} with g(e) = e, in lexicographic order of (e, g)."""
    if n < 1:
        raise ValueError("n must be positive")
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
