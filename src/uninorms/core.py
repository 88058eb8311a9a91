"""Core value types: finite chains, operations as Cayley tables, linear orders,
and the level-set ("contour") partition of an operation.

Conventions used throughout the package:

* Chain elements are the integers 1..n with the usual order.
* An operation table is addressed ``table[x-1][y-1] == F(x, y)``.
* The text interchange format is transposed relative to that: line y of the
  file holds ``F(1,y) ... F(n,y)`` so that files read like the contour plots
  (bottom row of the plot is the first line).

All types are immutable after construction and safe to share between workers.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence


@dataclass(frozen=True)
class FiniteChain:
    """The carrier {1, ..., n} with its natural order."""

    n: int

    def __post_init__(self) -> None:
        if type(self.n) is not int or self.n < 1:
            raise ValueError(f"chain size must be a positive integer, got {self.n!r}")

    def elements(self) -> range:
        return range(1, self.n + 1)


@dataclass(frozen=True)
class BinaryOperation:
    """A total binary operation on a finite chain, stored as a dense table.

    ``table[x-1][y-1]`` is the value F(x, y); every entry must be an int
    (not a bool) in 1..n.
    """

    chain: FiniteChain
    table: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = self.chain.n
        if len(self.table) != n or any(len(row) != n for row in self.table):
            raise ValueError(f"table must be {n}x{n}")
        for row in self.table:
            for v in row:
                if type(v) is not int or not 1 <= v <= n:
                    raise ValueError(f"table entry {v!r} is not an integer in 1..{n}")

    @property
    def n(self) -> int:
        return self.chain.n

    def __call__(self, x: int, y: int) -> int:
        return self.table[x - 1][y - 1]


@dataclass(frozen=True)
class LinearOrder:
    """A linear ordering of 1..n, as the sequence from smallest to largest.

    ``seq[k]`` is the element ranked k+1 from the bottom; the associated
    permutation sends rank to element.
    """

    chain: FiniteChain
    seq: tuple[int, ...]

    def __post_init__(self) -> None:
        n = self.chain.n
        if sorted(self.seq) != list(range(1, n + 1)):
            raise ValueError(f"seq must be a permutation of 1..{n}, got {self.seq!r}")

    @property
    def n(self) -> int:
        return self.chain.n

    def rank(self, v: int) -> int:
        """1-based position of v in the ordering (1 = smallest)."""
        return self.seq.index(v) + 1

    def precedes(self, u: int, v: int) -> bool:
        """True iff u comes no later than v (u is ordered below-or-equal v)."""
        return self.seq.index(u) <= self.seq.index(v)


@dataclass(frozen=True)
class ContourPartition:
    """Level sets of an operation: the classes of the "same value" relation.

    Classes are listed in ascending order of their common value; points inside
    a class are sorted lexicographically. A point is isolated exactly when its
    class is a singleton.
    """

    chain: FiniteChain
    classes: tuple[tuple[tuple[int, int], ...], ...]
    values: tuple[int, ...]

    def class_of(self, point: tuple[int, int]) -> int:
        """Index into ``classes`` of the class containing the point."""
        for i, cls in enumerate(self.classes):
            if point in cls:
                return i
        raise KeyError(point)

    def isolated(self) -> tuple[tuple[int, int], ...]:
        return tuple(cls[0] for cls in self.classes if len(cls) == 1)


@dataclass(frozen=True)
class GSpec:
    """Parameters of the min/max patchwork representation of an idempotent
    discrete uninorm: a neutral element e and a nonincreasing map
    g: {1..e} -> {e..n} with g(e) = e.  ``g[k-1]`` stores g(k).
    """

    chain: FiniteChain
    e: int
    g: tuple[int, ...]

    def __post_init__(self) -> None:
        n = self.chain.n
        if not 1 <= self.e <= n:
            raise ValueError(f"neutral element {self.e} outside 1..{n}")
        if len(self.g) != self.e:
            raise ValueError(f"g must be defined on 1..{self.e}")
        for v in self.g:
            if not self.e <= v <= n:
                raise ValueError(f"g value {v} outside {self.e}..{n}")
        if any(a < b for a, b in zip(self.g, self.g[1:])):
            raise ValueError(f"g must be nonincreasing, got {self.g!r}")
        if self.g[-1] != self.e:
            raise ValueError(f"g({self.e}) must equal {self.e}, got {self.g[-1]}")


class Restriction(NamedTuple):
    """An operation restricted to a subchain, relabeled to 1..|S|.

    ``elements[k-1]`` is the original chain element behind new label k.
    """

    operation: BinaryOperation
    elements: tuple[int, ...]


def make_operation(chain: FiniteChain | int, table: Sequence[Sequence[int]]) -> BinaryOperation:
    """Build an operation from an n x n table with ``table[x-1][y-1] = F(x,y)``."""
    if isinstance(chain, int):
        chain = FiniteChain(chain)
    return BinaryOperation(chain, tuple(tuple(row) for row in table))


def contour_partition(op: BinaryOperation) -> ContourPartition:
    """Group the points of the square into the level sets of the operation."""
    n = op.n
    by_value: list[list[tuple[int, int]]] = [[] for _ in range(n + 1)]
    # cells arrive in lexicographic order, so each class is already sorted
    for x, row in enumerate(op.table, 1):
        for y, v in enumerate(row, 1):
            by_value[v].append((x, y))
    values = tuple(v for v in range(1, n + 1) if by_value[v])
    classes = tuple(tuple(by_value[v]) for v in values)
    return ContourPartition(op.chain, classes, values)


def restrict(op: BinaryOperation, subset: Iterable[int]) -> Restriction:
    """Restrict the operation to a subchain, relabeling elements to 1..|S|.

    Fails if the subset is empty or not closed under the operation.
    """
    elements = tuple(sorted(set(subset)))
    if not elements:
        raise ValueError("subset must be nonempty")
    for v in elements:
        if not 1 <= v <= op.n:
            raise ValueError(f"subset element {v} outside 1..{op.n}")
    members = set(elements)
    for x in elements:
        for y in elements:
            if op(x, y) not in members:
                raise ValueError(
                    f"subset not closed: F({x},{y}) = {op(x, y)} is outside the subset"
                )
    relabel = {v: i + 1 for i, v in enumerate(elements)}
    k = len(elements)
    table = tuple(
        tuple(relabel[op(elements[i], elements[j])] for j in range(k))
        for i in range(k)
    )
    return Restriction(BinaryOperation(FiniteChain(k), table), elements)


# ---------------------------------------------------------------------------
# interchange formats

def format_table(op: BinaryOperation) -> str:
    """Text format: first line n, then line y holds F(1,y) .. F(n,y)."""
    lines = [str(op.n)]
    for line in zip(*op.table):  # line y: F(1,y) .. F(n,y)
        lines.append(" ".join(map(str, line)))
    return "\n".join(lines) + "\n"


def parse_table(text: str) -> BinaryOperation:
    """Parse the text table format; blank lines and '#' comments are skipped."""
    tokens = _data_lines(text)
    if not tokens:
        raise ValueError("empty table input")
    try:
        n = int(tokens[0][0])
    except ValueError:
        raise ValueError(f"first value must be the chain size, got {tokens[0][0]!r}")
    if len(tokens[0]) != 1:
        raise ValueError("first line must contain the chain size only")
    rows = tokens[1:]
    if len(rows) != n:
        raise ValueError(f"expected {n} table lines, found {len(rows)}")
    by_y = []
    for line in rows:
        if len(line) != n:
            raise ValueError(f"expected {n} entries per line, found {len(line)}")
        try:
            by_y.append([int(s) for s in line])
        except ValueError:
            raise ValueError(f"non-integer table entry in line {line!r}")
    # file lines are indexed by y; transpose into table[x][y]
    table = [[by_y[y][x] for y in range(n)] for x in range(n)]
    return make_operation(n, table)


def table_to_json_dict(op: BinaryOperation) -> dict:
    """JSON form ``{"n": n, "table": rows}`` with the text format's line order."""
    return {"n": op.n, "table": [list(line) for line in zip(*op.table)]}


def table_from_json_dict(data: dict) -> BinaryOperation:
    """Inverse of ``table_to_json_dict``; any malformed input raises
    ``ValueError``. JSON booleans are not accepted as integers."""
    try:
        n = data["n"]
        rows = data["table"]
    except (KeyError, TypeError):
        raise ValueError("JSON table must have 'n' and 'table' keys")
    if type(n) is not int:
        raise ValueError(f"JSON 'n' must be an integer, got {json.dumps(n)}")
    if (not isinstance(rows, list) or len(rows) != n
            or any(not isinstance(r, list) or len(r) != n for r in rows)):
        raise ValueError(f"JSON table must be {n}x{n}")
    for r in rows:
        for v in r:
            if type(v) is not int:
                raise ValueError(f"JSON table entry {json.dumps(v)} is not an integer")
    table = [[rows[y][x] for y in range(n)] for x in range(n)]
    return make_operation(n, table)


def parse_table_auto(text: str) -> BinaryOperation:
    """Accept either the text format or the one-object JSON format."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            data = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
            raise ValueError(f"invalid JSON table: {exc}")
        return table_from_json_dict(data)
    return parse_table(text)


def format_order(order: LinearOrder) -> str:
    return " ".join(str(v) for v in order.seq) + "\n"


def parse_order(text: str) -> LinearOrder:
    """Parse a space-separated permutation of 1..n (one line)."""
    tokens = _data_lines(text)
    if len(tokens) != 1:
        raise ValueError("order input must be a single line of elements")
    try:
        seq = tuple(int(s) for s in tokens[0])
    except ValueError:
        raise ValueError(f"non-integer order entry in {tokens[0]!r}")
    return LinearOrder(FiniteChain(len(seq)), seq)


def _data_lines(text: str) -> list[list[str]]:
    out = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        out.append(line.split())
    return out
