"""Single-peaked linear orderings and their correspondence with idempotent
discrete uninorms.

An ordering of 1..n is single-peaked when among any three elements a < b < c
the middle one is never ranked last. Such orderings are exactly the ones whose
chosen prefix always forms an interval of the chain, so they can be generated
by picking a start element and repeatedly extending the interval by one step
down or up. Taking the maximum with respect to a single-peaked ordering gives
an idempotent discrete uninorm, and every such uninorm arises this way from
exactly one ordering.
"""
from __future__ import annotations

from typing import Iterator, Optional

from .core import BinaryOperation, FiniteChain, LinearOrder, make_operation
from .properties import (
    conservativeness_witness,
    monotonicity_witness,
    symmetry_witness,
)


def single_peakedness_witness(order: LinearOrder) -> Optional[tuple[int, int, int]]:
    """First triple a < b < c whose middle element is ranked after both."""
    n = order.n
    pos = _positions(order)
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            for c in range(b + 1, n + 1):
                if pos[b] > pos[a] and pos[b] > pos[c]:
                    return (a, b, c)
    return None


def is_single_peaked(order: LinearOrder) -> bool:
    return single_peakedness_witness(order) is None


def profile_heights(order: LinearOrder) -> tuple[int, ...]:
    """Height chart of the ordering over the chain: element x is drawn at
    height n+1-rank(x), so the bottom-ranked element sits lowest."""
    n = order.n
    pos = _positions(order)
    return tuple(n - pos[x] for x in range(1, n + 1))


def local_maxima(heights: tuple[int, ...]) -> tuple[int, ...]:
    """1-based positions of local maxima, with one-sided comparison at the
    two endpoints of the chart."""
    n = len(heights)
    out = []
    for i in range(n):
        left_ok = i == 0 or heights[i] > heights[i - 1]
        right_ok = i == n - 1 or heights[i] > heights[i + 1]
        if left_ok and right_ok:
            out.append(i + 1)
    return tuple(out)


def is_single_peaked_via_profile(order: LinearOrder) -> bool:
    """Graphical version: the height chart has exactly one local maximum."""
    return len(local_maxima(profile_heights(order))) == 1


def enumerate_single_peaked(n: int) -> Iterator[LinearOrder]:
    """All single-peaked orderings of 1..n, each exactly once (2^(n-1) total).

    The chosen prefix is maintained as an interval [lo, hi]; at every step the
    downward extension is emitted before the upward one, which fixes the
    stream order.
    """
    if n < 1:
        raise ValueError("n must be positive")
    chain = FiniteChain(n)
    for seq in _extend_interval(n):
        yield LinearOrder(chain, seq)


def _extend_interval(n: int) -> Iterator[tuple[int, ...]]:
    def rec(lo: int, hi: int, prefix: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        if len(prefix) == n:
            yield prefix
            return
        if lo > 1:
            yield from rec(lo - 1, hi, prefix + (lo - 1,))
        if hi < n:
            yield from rec(lo, hi + 1, prefix + (hi + 1,))

    for start in range(1, n + 1):
        yield from rec(start, start, (start,))


def order_to_uninorm(order: LinearOrder) -> BinaryOperation:
    """The maximum operation with respect to a single-peaked ordering.

    F(x, y) is whichever of x, y is ranked higher. Rejects orderings that are
    not single-peaked, since the resulting maximum would not be nondecreasing.
    """
    w = single_peakedness_witness(order)
    if w is not None:
        raise ValueError(f"ordering is not single-peaked, witness triple {w}")
    n = order.n
    pos = _positions(order)
    table = [
        [y if pos[x] <= pos[y] else x for y in range(1, n + 1)]
        for x in range(1, n + 1)
    ]
    return make_operation(n, table)


def uninorm_to_order(op: BinaryOperation) -> LinearOrder:
    """Recover the unique ordering with x below y exactly when F(x,y) = y.

    The input must be conservative, symmetric, and nondecreasing. The rank of
    an element is then the number of elements it absorbs (itself included);
    if those ranks fail to form a permutation the induced relation was not a
    linear order, which means a checker bug rather than bad input.
    """
    problems = []
    if conservativeness_witness(op) is not None:
        problems.append("conservative")
    if symmetry_witness(op) is not None:
        problems.append("symmetric")
    if monotonicity_witness(op) is not None:
        problems.append("nondecreasing")
    if problems:
        raise ValueError(f"operation is not {', '.join(problems)}")
    n = op.n
    seq: list[int] = [0] * n
    for v in range(1, n + 1):
        rank = [row[v - 1] for row in op.table].count(v)  # the u with F(u, v) = v
        if seq[rank - 1]:
            raise RuntimeError(
                "induced relation is not a linear order; checker inconsistency"
            )
        seq[rank - 1] = v
    return LinearOrder(op.chain, tuple(seq))


def _positions(order: LinearOrder) -> dict[int, int]:
    return {v: i for i, v in enumerate(order.seq)}
