"""Core value types: finite chains, operations as Cayley tables, linear orders,
and the level-set ("contour") partition of an operation.

Conventions used throughout the package:

* Chain elements are the integers 1..n with the usual order.
* An operation table is addressed ``table[x-1][y-1] == F(x, y)``.
* The text interchange format is transposed relative to that: line y of the
  file holds ``F(1,y) ... F(n,y)`` so that files read like the contour plots
  (bottom row of the plot is the first line).

The value types are immutable named tuples, safe to share between workers:
their fields are read by name, they compare and hash by their fields, and
assigning an attribute raises ``AttributeError``. ``FiniteChain``,
``BinaryOperation``, ``LinearOrder`` and ``GSpec`` check their fields when
they are built (the named-tuple helpers ``_make`` and ``_replace`` do not),
and store every sequence field as a tuple, so an operation built from a
list of lists equals and hashes as the one built from tuples. Being tuples,
instances can also be iterated and unpacked, and one equals the plain tuple
of its fields: ``FiniteChain(3) == (3,)``.

One rule checks a chain size, ``FiniteChain``, and one a chain element,
``_ints_in``: a table entry, an entry of an ordering, a neutral element, a
value of g, an element of a subset and a cell value of a scanned class must
each be an int, not a bool, in its range, or get
``<what> <value> is not an integer in <lo>..<hi>``.
"""
from __future__ import annotations

import json
from collections import namedtuple
from functools import cache
from itertools import chain, compress, product, repeat
from typing import Iterable, Iterator, NamedTuple, Sequence


class FiniteChain(namedtuple("FiniteChain", "n")):
    """The carrier {1, ..., n} with its natural order.

    The constructor is the one check of a chain size: every public function
    that takes a size n builds ``FiniteChain(n)`` before it builds anything
    else, so a size that is not an int, or is a bool, or is below 1 gets
    this one error wherever it enters the package.
    """

    __slots__ = ()

    def __new__(cls, n: int) -> FiniteChain:
        if type(n) is not int or n < 1:
            raise ValueError(f"chain size must be a positive integer, got {n!r}")
        return super().__new__(cls, n)


class BinaryOperation(namedtuple("BinaryOperation", "chain table")):
    """A total binary operation on a finite chain, stored as a dense table:
    an immutable named tuple ``(chain, table)``.

    ``table[x-1][y-1]`` is the value F(x, y); every entry must be an int
    (not a bool) in 1..n. The public constructor checks this for every
    table it is given, after its shape, and stores the rows as tuples.
    ``_unchecked_operation`` does not: it trusts its
    caller, a table source that checked its cell domains once for all the
    tables it makes, or a construction whose every entry is one of its two
    arguments. The three constructions of idempotent discrete uninorms are
    of that kind: the contour algorithm writes each cell as its shell's new
    element, the patchwork writes min(x, y) or max(x, y), and the order
    maximum writes x or y.
    """

    __slots__ = ()

    def __new__(cls, chain: FiniteChain, table: Sequence[Sequence[int]]) -> BinaryOperation:
        n = chain.n
        if len(table) != n or any(len(row) != n for row in table):
            raise ValueError(f"table must be {n}x{n}")
        rows = tuple([_ints_in(row, 1, n, "table entry") for row in table])
        return super().__new__(cls, chain, rows)

    @property
    def n(self) -> int:
        return self.chain.n

    def __call__(self, x: int, y: int) -> int:
        return self.table[x - 1][y - 1]


def _ints_in(values: Iterable[int], lo: int, hi: int, what: str) -> tuple[int, ...]:
    """The values as a tuple, once each is an int, not a bool, in lo..hi:
    the one check of a chain element given to the package."""
    values = tuple(values)
    for v in values:
        if type(v) is not int or not lo <= v <= hi:
            raise ValueError(f"{what} {v!r} is not an integer in {lo}..{hi}")
    return values


@cache
def _shared_chain(n: int) -> FiniteChain:
    return FiniteChain(n)


@cache
def _cells(n: int) -> tuple[tuple[int, int], ...]:
    """The points (x, y) of the n x n square in lexicographic order, which is
    the order of the cells of a flattened table."""
    return tuple(product(range(1, n + 1), repeat=2))


def _unchecked_operation(n: int, table: tuple[tuple[int, ...], ...]) -> BinaryOperation:
    """The operation ``BinaryOperation(FiniteChain(n), table)``, built without
    checking the table and on one chain shared by every table of size n.

    The caller must guarantee what the public constructor would check:
    ``table`` is a tuple of n tuples of n ints (not bools), each in 1..n.
    The result is the same immutable named tuple as a checked one, equal to
    it and with the same hash.
    """
    return tuple.__new__(BinaryOperation, (_shared_chain(n), table))


def _unchecked_operations(n: int, tables: Iterable) -> Iterator[BinaryOperation]:
    """``_unchecked_operation(n, t)`` for each of ``tables`` in turn, built
    by builtins alone, with no Python call per table."""
    return map(tuple.__new__, repeat(BinaryOperation), zip(repeat(_shared_chain(n)), tables))


class LinearOrder(namedtuple("LinearOrder", "chain seq")):
    """A linear ordering of 1..n, as the sequence from smallest to largest.

    ``seq[k]`` is the element ranked k+1 from the bottom; the associated
    permutation sends rank to element. Every entry must be an int, not a
    bool, in 1..n, each once; the sequence is stored as a tuple.
    """

    __slots__ = ()

    def __new__(cls, chain: FiniteChain, seq: Iterable[int]) -> LinearOrder:
        n = chain.n
        seq = _ints_in(seq, 1, n, "seq entry")
        if len(seq) != n or len(set(seq)) != n:
            raise ValueError(f"seq must be a permutation of 1..{n}, got {seq!r}")
        return super().__new__(cls, chain, seq)

    @property
    def n(self) -> int:
        return self.chain.n


class ContourPartition(NamedTuple):
    """Level sets of an operation: the classes of the "same value" relation.

    Classes are listed in ascending order of their common value; points inside
    a class are sorted lexicographically. A point is isolated exactly when its
    class is a singleton.
    """

    chain: FiniteChain
    classes: tuple[tuple[tuple[int, int], ...], ...]
    values: tuple[int, ...]


class GSpec(namedtuple("GSpec", "chain e g")):
    """Parameters of the min/max patchwork representation of an idempotent
    discrete uninorm: a neutral element e and a nonincreasing map
    g: {1..e} -> {e..n} with g(e) = e.  ``g[k-1]`` stores g(k), as a
    tuple; e and every value of g are ints, not bools.
    """

    __slots__ = ()

    def __new__(cls, chain: FiniteChain, e: int, g: Sequence[int]) -> GSpec:
        n = chain.n
        _ints_in((e,), 1, n, "neutral element")
        if len(g) != e:
            raise ValueError(f"g must be defined on 1..{e}")
        g = _ints_in(g, e, n, "g value")
        if any(a < b for a, b in zip(g, g[1:])):
            raise ValueError(f"g must be nonincreasing, got {g!r}")
        if g[-1] != e:
            raise ValueError(f"g({e}) must equal {e}, got {g[-1]}")
        return super().__new__(cls, chain, e, g)


class Restriction(NamedTuple):
    """An operation restricted to a subchain, relabeled to 1..|S|.

    ``elements[k-1]`` is the original chain element behind new label k.
    """

    operation: BinaryOperation
    elements: tuple[int, ...]


def make_operation(chain: FiniteChain | int, table: Sequence[Sequence[int]]) -> BinaryOperation:
    """Build an operation from an n x n table with ``table[x-1][y-1] = F(x,y)``;
    the chain may be given by its size."""
    if isinstance(chain, int):
        chain = FiniteChain(chain)
    return BinaryOperation(chain, table)


def contour_partition(op: BinaryOperation) -> ContourPartition:
    """Group the points of the square into the level sets of the operation,
    in one pass over the cells in lexicographic order, so that each class
    comes out sorted."""
    n = op.n
    by_value: list[list[tuple[int, int]]] = [[] for _ in range(n + 1)]
    for p, v in zip(_cells(n), chain.from_iterable(op.table)):
        by_value[v].append(p)
    # by_value[0] stays empty: the values are 1..n
    return ContourPartition(op.chain, tuple(map(tuple, filter(None, by_value))),
                            tuple(compress(range(n + 1), by_value)))


def isolated_points(op: BinaryOperation) -> tuple[tuple[int, int], ...]:
    """Points connected to no other point: the singleton level sets, in the
    order of their values. They are the cells of the values that occur
    exactly once, so one count of the values finds them without building
    the other level sets."""
    n = op.n
    flat = tuple(chain.from_iterable(op.table))
    counts = [0] * (n + 1)
    for v in flat:
        counts[v] += 1
    if 1 not in counts:
        return ()  # no singleton level set
    cells = _cells(n)
    return tuple(cells[flat.index(v)] for v in compress(range(n + 1), map((1).__eq__, counts)))


def restrict(op: BinaryOperation, subset: Iterable[int]) -> Restriction:
    """Restrict the operation to a subchain, relabeling elements to 1..|S|.

    Fails if the subset is empty, holds a value that is not an element of
    the chain, or is not closed under the operation.
    """
    elements = tuple(sorted(set(_ints_in(subset, 1, op.n, "subset element"))))
    if not elements:
        raise ValueError("subset must be nonempty")
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
    """Parse the text table format; blank lines and '#' comments are skipped.

    The size and the entries are numerals of ASCII digits; the size may
    carry a minus sign, so that a negative size gets the chain size error.
    """
    tokens = _data_lines(text)
    if not tokens:
        raise ValueError("empty table input")
    head = tokens[0][0]
    if not _numerals([head.removeprefix("-")]):
        raise ValueError(f"first value must be the chain size, got {head!r}")
    if len(tokens[0]) != 1:
        raise ValueError("first line must contain the chain size only")
    chain = FiniteChain(int(head))
    n = chain.n
    rows = tokens[1:]
    if len(rows) != n:
        raise ValueError(f"expected {n} table lines, found {len(rows)}")
    by_y = []
    for line in rows:
        if len(line) != n:
            raise ValueError(f"expected {n} entries per line, found {len(line)}")
        if not _numerals(line):
            raise ValueError(f"table entries must be runs of at most {_MAX_DIGITS} "
                             f"digits 0-9, got line {line!r}")
        by_y.append(list(map(int, line)))
    # file lines are indexed by y; transpose into table[x][y]
    return make_operation(chain, tuple(zip(*by_y)))


def table_to_json_dict(op: BinaryOperation) -> dict:
    """JSON form ``{"n": n, "table": rows}`` with the text format's line order."""
    return {"n": op.n, "table": _json_rows(op.table)}


def _json_rows(table: tuple[tuple[int, ...], ...]) -> list[list[int]]:
    """The rows of the JSON form, in the text format's line order: line y
    holds F(1,y) .. F(n,y)."""
    return [list(line) for line in zip(*table)]


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
    chain = FiniteChain(n)
    if (not isinstance(rows, list) or len(rows) != n
            or any(not isinstance(r, list) or len(r) != n for r in rows)):
        raise ValueError(f"JSON table must be {n}x{n}")
    for r in rows:
        for v in r:
            if type(v) is not int:
                raise ValueError(f"JSON table entry {json.dumps(v)} is not an integer")
    table = [[rows[y][x] for y in range(n)] for x in range(n)]
    return make_operation(chain, table)


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
    if not _numerals(tokens[0]):
        raise ValueError(f"order entries must be runs of at most {_MAX_DIGITS} "
                         f"digits 0-9, got {tokens[0]!r}")
    seq = tuple(map(int, tokens[0]))
    return LinearOrder(FiniteChain(len(seq)), seq)


def _data_lines(text: str) -> list[list[str]]:
    out = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        out.append(line.split())
    return out


# int() refuses numerals longer than sys.get_int_max_str_digits(), which can
# be set as low as 640; no chain size or table entry needs that many digits
_MAX_DIGITS = 640


def _numerals(tokens: list[str]) -> bool:
    """Whether every token is a run of at most _MAX_DIGITS ASCII digits:
    ``int`` alone would also take a sign, underscores and the digits of
    other scripts. The tokens are tested joined, since split never makes an
    empty one, and measured one by one only when the line is that long."""
    joined = "".join(tokens)
    return (joined.isascii() and joined.isdigit()
            and (len(joined) <= _MAX_DIGITS or max(map(len, tokens)) <= _MAX_DIGITS))
