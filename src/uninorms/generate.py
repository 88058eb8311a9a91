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

The first two constructions each build their tables in one place and hand
them out two ways. The contour algorithm is one walk, ``_contour_walk``,
with two snapshots: ``generate_all_uninorms_gc`` snapshots list rows as an
operation over row tuples, and ``_contour_keys`` snapshots bytearray rows as
one bytes string. The patchwork's rows come from ``_gspec_rows``, as tuples
for ``uninorm_from_gspec`` and as bytes for ``_gspec_key``. The bytes form
is the oracle's ``_key`` of the table, which the construction claims index
and count, so they build no row tuple only to join it.
"""
from __future__ import annotations

from bisect import bisect_left
from itertools import combinations_with_replacement
from math import comb
from typing import Iterator

from .core import BinaryOperation, FiniteChain, GSpec, _ints_in, _unchecked_operation


def generate_all_uninorms_gc(n: int) -> Iterator[BinaryOperation]:
    """Every idempotent discrete uninorm on the n-chain, built shell by shell
    by ``_contour_walk`` into list rows, each snapshot a tuple of row tuples.
    Every entry is the shell's new element, one of the cell's two arguments,
    so the snapshots are wrapped without a check.

    The emission order matches enumerate_single_peaked: start elements
    ascending, downward extension explored before upward. The chain size is
    checked when the first table is asked for.
    """
    FiniteChain(n)
    for table in _contour_walk(n, [[0] * n for _ in range(n)]):
        yield _unchecked_operation(n, tuple(map(tuple, table)))


def _contour_keys(n: int) -> Iterator[bytes]:
    """The tables of ``generate_all_uninorms_gc``, in its order, each as the
    bytes of its rows run together (the oracle's ``_key``): the same walk
    into bytearray rows, each snapshot one join, with no row tuples built.
    An entry past 255 raises ValueError, as ``_key`` does."""
    FiniteChain(n)
    for table in _contour_walk(n, [bytearray(n) for _ in range(n)]):
        yield b"".join(table)


def _contour_walk(n: int, table: list) -> Iterator[list]:
    """Lay the shells of the contour algorithm into ``table``, n rows of n
    entries, and yield it each time it holds a complete uninorm; the caller
    snapshots it before asking for the next.

    The shells are laid depth first with an explicit stack of the intervals
    still to visit, so the depth is not bounded by the recursion limit. Each
    interval's shell is laid when it is popped, after the whole subtree of
    its elder sibling, which writes only outside their parent's square.
    Along each path from a neutral element to a leaf the shells partition
    the square, so every cell is written exactly once before the leaf is
    yielded, and no shell needs undoing when the search backs up.
    """
    # (a, lo, hi): the interval [lo, hi] reached by adding a, whose shell of
    # new points has the common value a; a neutral element e is [e, e]
    stack = [(e, e, e) for e in range(n, 0, -1)]
    while stack:
        a, lo, hi = stack.pop()
        # the shell: the row and column of a over the interval [lo, hi]
        table[a - 1][lo - 1:hi] = [a] * (hi - lo + 1)
        for row in table[lo - 1:hi]:
            row[a - 1] = a
        if hi - lo + 1 == n:
            yield table
            continue
        if hi < n:
            stack.append((hi + 1, lo, hi + 1))
        if lo > 1:
            stack.append((lo - 1, lo - 1, hi))


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
    extended boundary, max everywhere else. Every entry is the min or max of
    its two arguments, so the table is wrapped without a check."""
    n = spec.chain.n
    return _unchecked_operation(n, tuple(_gspec_rows(spec, tuple(range(1, n + 1)))))


def _gspec_key(spec: GSpec) -> bytes:
    """The table of ``uninorm_from_gspec(spec)`` as the bytes of its rows run
    together (the oracle's ``_key``), built from bytes rows with no row
    tuples. An entry past 255 raises ValueError, as ``_key`` does."""
    return b"".join(_gspec_rows(spec, bytes(range(1, spec.chain.n + 1))))


def _gspec_rows(spec: GSpec, ids):
    """The rows of the patchwork table, each a slice of ``ids``, the
    identity row 1..n as a tuple or as bytes, with the run pasted in.

    Row x is min(x, y) for y <= gbar(x) when x <= gbar(1), and max(x, y)
    otherwise. Either way it is the identity row with a run of x between x
    and the row's boundary (gbar(x), or 0 where the row is all max).
    """
    gbar = make_gbar(spec)
    top = gbar[0]
    rows = []
    for x, k in enumerate(gbar, 1):
        if x > top:
            k = 0
        lo, hi = (x, k) if x <= k else (k, x)
        rows.append(ids[:lo] + ids[x - 1:x] * (hi - lo) + ids[hi:])
    return rows


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
