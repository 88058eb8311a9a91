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

from itertools import combinations
from typing import Iterator, Optional

from .core import BinaryOperation, FiniteChain, LinearOrder, _unchecked_operation
from .properties import (
    conservativeness_witness,
    monotonicity_witness,
    symmetry_witness,
)


def single_peakedness_witness(order: LinearOrder) -> Optional[tuple[int, int, int]]:
    """First triple a < b < c whose middle element is ranked after both: the
    triple definition itself, read over every triple in lexicographic
    order; ``is_single_peaked`` decides by the interval walk instead."""
    pos = _positions(order)
    for a, b, c in combinations(range(1, order.n + 1), 3):
        if pos[b] > pos[a] and pos[b] > pos[c]:
            return (a, b, c)
    return None


def is_single_peaked(order: LinearOrder) -> bool:
    """One walk up the ordering: every prefix must be an interval [lo, hi] of
    the chain, so each next element is lo - 1 or hi + 1. A prefix with a gap
    leaves out some b between two of its elements, and b is ranked after
    both; so the walk fails exactly when the witness finds a triple."""
    seq = order.seq
    lo = hi = seq[0]
    for x in seq[1:]:
        if x == lo - 1:
            lo = x
        elif x == hi + 1:
            hi = x
        else:
            return False
    return True


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
    stream order. The chain size is checked when the first ordering is asked
    for.
    """
    chain = FiniteChain(n)
    for seq in _extend_interval(n):
        yield LinearOrder(chain, seq)


def _extend_interval(n: int) -> Iterator[tuple[int, ...]]:
    # From start the walk takes start - 1 steps down and n - start up, so a
    # walk is the set of its downward steps among the n - 1; the
    # lexicographic order of those sets tries each step down before up.
    for start in range(1, n + 1):
        for downs in combinations(range(n - 1), start - 1):
            steps = set(downs)
            lo = hi = start
            seq = [start]
            for s in range(n - 1):
                if s in steps:
                    lo -= 1
                    seq.append(lo)
                else:
                    hi += 1
                    seq.append(hi)
            yield tuple(seq)


def order_to_uninorm(order: LinearOrder) -> BinaryOperation:
    """The maximum operation with respect to a single-peaked ordering.

    F(x, y) is whichever of x, y is ranked higher. Rejects orderings that are
    not single-peaked, since the resulting maximum would not be nondecreasing.
    """
    if not is_single_peaked(order):
        w = single_peakedness_witness(order)
        raise ValueError(f"ordering is not single-peaked, witness triple {w}")
    n = order.n
    # Row x is the identity row with x written at the elements ranked at or
    # below x: the prefix of the ordering that ends at x, which is an
    # interval [lo, hi] of the chain since the ordering is single-peaked.
    # Every entry is x or y in 1..n, so the table needs no check.
    ids = tuple(range(1, n + 1))
    rows: list[tuple[int, ...]] = [()] * n
    lo = hi = order.seq[0]
    for x in order.seq:
        if x < lo:
            lo = x
        elif x > hi:
            hi = x
        rows[x - 1] = ids[:lo - 1] + (x,) * (hi - lo + 1) + ids[hi:]
    return _unchecked_operation(n, tuple(rows))


def uninorm_to_order(op: BinaryOperation) -> LinearOrder:
    """Recover the unique ordering with x below y exactly when F(x,y) = y.

    The input must be conservative, symmetric, and nondecreasing. The rank of
    an element is then the number of elements it absorbs (itself included);
    if those ranks fail to form a permutation the induced relation was not a
    linear order, which means a checker bug rather than bad input.
    """
    t = op.table
    cols = tuple(zip(*t))
    # once the table equals its transpose, sorted rows mean sorted columns too
    if not (t == cols and _rows_sorted(t) and conservativeness_witness(op) is None):
        # name every property that fails, as the witnesses decide it
        problems = []
        if conservativeness_witness(op) is not None:
            problems.append("conservative")
        if symmetry_witness(op) is not None:
            problems.append("symmetric")
        if monotonicity_witness(op) is not None:
            problems.append("nondecreasing")
        if problems:
            raise ValueError(f"operation is not {', '.join(problems)}")
    seq: list[int] = [0] * op.n
    for v, col in enumerate(cols, 1):
        rank = col.count(v)  # the u with F(u, v) = v
        if seq[rank - 1]:
            raise RuntimeError(
                "induced relation is not a linear order; checker inconsistency"
            )
        seq[rank - 1] = v
    return LinearOrder(op.chain, tuple(seq))


def _rows_sorted(t: tuple[tuple[int, ...], ...]) -> bool:
    return all(list(row) == sorted(row) for row in t)


def _positions(order: LinearOrder) -> dict[int, int]:
    return {v: i for i, v in enumerate(order.seq)}
