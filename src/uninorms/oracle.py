"""Brute-force enumeration engines and exhaustive verification of every
characterization at desk scale.

Enumeration classes live behind hard feasibility bounds; exceeding a bound is
an error rather than a silent sample. A whole space is an indexed
``TableSpace``. A class narrower than a whole space, the symmetric tables
included, is found by one pruned search over partial tables, ``_search``,
which keeps the tables that meet the class's identities and decides every
other table of the space by pruning the subtree it lies in (at n = 5 it
visits 12,391 nodes to decide all 2^20 conservative tables and keep the 1,182
associative ones). The search yields each table it keeps as soon as the
table is complete, and returns the number of tables decided: an enumerator
streams the tables, and a claim streams them into its check, keeping none,
and reads the number decided at the end. A search runs in the calling process
whatever the worker count; ``--jobs`` splits only the whole-space scans,
one contiguous index range per worker, whose results merge in range order,
so every report is the one a single process makes.

A claim's hypothesis class is declared once, as its parts plus its
constraints: disjoint parts, each the cell domains of one search, such as
one per neutral element, all searched under the same ``_search`` keywords
(mirror, identities, monotonicity). The claim's check then tests only the
conclusion on the tables kept, and the tables decided are its candidates.
A class with no constraints has nothing to prune: it is the whole space of
its one part, and every table of it is scanned. Sampling is left only for
``bis-a`` and ``bis-b`` at n = 5, where no search of their classes fits a
desk budget: each draws, in the calling process, the tables of its parts
that ``SAMPLE_SIZE`` uniform draws with one fixed seed keep, and checks
those that its constraints accept. Part (c) of the open-questions probe is
searched up to n = 4 and not run at n = 5.

Each source of tables, a space, a search or a sample, is validated once: it
checks its cell domains (every value an int, not a bool, in 1..n) before it
makes a table. The scan driver then wraps each table once with
``core._unchecked_operation``, which skips ``BinaryOperation``'s per-table
check and shares one chain per n, and hands the operation to the check.

The construction claims (``main``, ``main2n``, ``qob``) compare tables by
one bytes ``_key`` each. The contour algorithm and the patchwork make their
tables as keys from the start (``generate._contour_keys`` and
``generate._gspec_key``: one walk or one row helper, whose other snapshot is
the public generators' tuples), so no row tuple is built only to be joined;
the order maxima and the search's tables are keyed as they stream past.

``verify_theorem`` is the single entry point: it looks up a named claim in
the catalog, whose runner scans or searches the relevant candidate class,
and builds the report of every claim: the number of candidates checked plus
the first ``_MAX_COUNTEREXAMPLES`` counterexamples found (there must be
none).
"""
from __future__ import annotations

import os
import random
import time
from functools import cache
from itertools import chain, permutations, product, repeat
from math import comb, prod
from typing import Generator, Iterator, NamedTuple, Optional

from .core import (
    BinaryOperation,
    FiniteChain,
    LinearOrder,
    _ints_in,
    _json_rows,
    _unchecked_operation,
)
# bench/run.py's traced run wraps gspec_collision_report and
# uninorm_from_gspec here, so both stay imported though no claim calls them
from .generate import (
    _contour_keys,
    _gspec_key,
    enumerate_gspecs,
    generate_all_uninorms_gc,
    gspec_collision_report,
    uninorm_from_gspec,
)
from .properties import (
    find_neutral_conservative,
    find_neutral_element,
    find_neutral_via_sections,
    is_associative,
    is_associative_conservative_rect,
    is_bisymmetric,
    is_conservative,
    is_conservative_via_contour,
    is_idempotent,
    is_nondecreasing,
    is_symmetric,
    isolated_points,
    rectangle_count,
    rectangles,
)
from .single_peaked import (
    enumerate_single_peaked,
    order_to_uninorm,
    single_peakedness_witness,
    uninorm_to_order,
)

SAMPLE_SIZE = 100_000
_MAX_COUNTEREXAMPLES = 20


class PropertyProfile(NamedTuple):
    """All property flags of one operation, each from its own checker."""

    idempotent: bool
    conservative: bool
    symmetric: bool
    nondecreasing: bool
    associative: bool
    bisymmetric: bool
    neutral: Optional[int]
    isolated: tuple[tuple[int, int], ...]

    def to_dict(self) -> dict:
        """The fields by name, each isolated point as a list."""
        return {**self._asdict(), "isolated": [list(p) for p in self.isolated]}


def profile(op: BinaryOperation) -> PropertyProfile:
    return PropertyProfile(
        idempotent=is_idempotent(op),
        conservative=is_conservative(op),
        symmetric=is_symmetric(op),
        nondecreasing=is_nondecreasing(op),
        associative=is_associative(op),
        bisymmetric=is_bisymmetric(op),
        neutral=find_neutral_element(op),
        isolated=isolated_points(op),
    )


# ---------------------------------------------------------------------------
# indexed table spaces
#
# A space is a product of row choices: a table is one pick per row, indexed
# lexicographically by its picks with the last row changing fastest. The
# index doubles as the work-partitioning key for parallel scans. iter_range,
# the one way to a table, cuts an index range into blocks of fixed leading
# picks times every pick of the other rows, each read off itertools.product.

class TableSpace:
    def __init__(self, rows: list):
        self.rows = rows
        # _sizes[k]: the number of tables the rows k.. span together
        self._sizes = [prod(map(len, rows[k:])) for k in range(len(rows) + 1)]
        self.size = self._sizes[0]

    def decode(self, index: int) -> tuple[tuple[int, ...], ...]:
        return next(self.iter_range(index, index + 1))

    def iter_range(self, start: int, stop: int) -> Iterator[tuple[tuple[int, ...], ...]]:
        """Tables start..stop-1 in index order."""
        if not 0 <= start <= stop <= self.size:
            raise IndexError(f"index range {start}..{stop} outside 0..{self.size}")
        return chain.from_iterable(product(*pools) for pools in self._blocks(start, stop))

    def _blocks(self, start: int, stop: int, k: int = 0, fixed: tuple = ()):
        # per-row pools whose products are tables start..stop-1 of the rows
        # k.., each after the fixed picks of the rows before k
        if start == 0 and stop == self._sizes[k]:
            yield (*fixed, *self.rows[k:])
        elif start < stop:
            block = self._sizes[k + 1]
            for p in range(start // block, (stop - 1) // block + 1):
                yield from self._blocks(max(start - p * block, 0), min(stop - p * block, block),
                                        k + 1, (*fixed, (self.rows[k][p],)))

    def __iter__(self):
        return self.iter_range(0, self.size)


def _domains(n: int, values, cells) -> list[tuple[int, ...]]:
    """``values(i, j)`` for each of ``cells``, checked once for every table
    built from them: each value is an int, not a bool, in 1..n."""
    return [_ints_in(values(i, j), 1, n, "cell value") for i, j in cells]


def _space(n: int, values) -> TableSpace:
    """The tables whose cell (i, j) takes each of ``values(i, j)`` (0-based,
    ascending)."""
    domains = _domains(n, values, [(i, j) for i in range(n) for j in range(n)])
    return TableSpace([list(product(*domains[i * n:(i + 1) * n])) for i in range(n)])


def _full(n: int):
    return lambda i, j: range(1, n + 1)


def _neutral(n: int, e: int):
    """The cell domains of the tables with neutral element e: row and column
    e are the identity, F(e, y) = y and F(x, e) = x."""
    return lambda i, j: (j + 1,) if i == e - 1 else (i + 1,) if j == e - 1 else range(1, n + 1)


# full_space and conservative_space stay public: bench/layers.py samples them
def full_space(n: int) -> TableSpace:
    return _space(n, _full(n))


def _idempotent(values):
    """``values`` with the diagonal fixed to F(x, x) = x."""
    return lambda i, j: (i + 1,) if i == j else values(i, j)


def _conservative(i: int, j: int) -> list[int]:
    return sorted({i + 1, j + 1})


def conservative_space(n: int) -> TableSpace:
    return _space(n, _conservative)


# ---------------------------------------------------------------------------
# pruned search
#
# A search fills the cells of a space one at a time, in the space's order:
# row by row, each row's cells left to right (in a mirrored search only the
# cells j >= i, each also setting (j, i)), each cell's values ascending. So
# it yields the tables of the space that it keeps in the order TableSpace
# iterates them, each as soon as its last cell is set. After each assignment
# it checks only what the new cell can decide: its four neighbours for
# monotonicity, and the identity instances parked on it. An instance is
# parked on the first unknown cell it reads; once that cell is set the
# instance is read again, and it holds, fails (which prunes every table below
# the node) or parks on its next unknown cell, which comes later in the order.

# an identity is a pair of terms over the variables 0, 1, ...; a term is a
# variable or a pair of terms (l, r), read as F(l, r)
_ASSOCIATIVITY = (((0, 1), 2), (0, (1, 2)))
_BISYMMETRY = (((0, 1), (2, 3)), ((0, 2), (1, 3)))


def _arity(term) -> int:
    return term + 1 if isinstance(term, int) else max(map(_arity, term))


def _ground(term, env):
    # the term with each variable replaced by its value in env
    return env[term] if isinstance(term, int) else (_ground(term[0], env), _ground(term[1], env))


def _compile(term, arity: int, steps: list) -> int:
    # appends (a, b, out) reads, slot out = F(slot a, slot b), after those of
    # the subterms; slots 0..arity-1 hold the variables. Returns term's slot.
    if isinstance(term, int):
        return term
    a = _compile(term[0], arity, steps)
    b = _compile(term[1], arity, steps)
    steps.append((a, b, arity + len(steps)))
    return steps[-1][2]


def _search(n: int, values, mirror: bool = False, identities=(),
            nondecreasing: bool = False) -> Generator[tuple, None, int]:
    """The tables of ``_space(n, values)`` that satisfy every one of
    ``identities`` for all values of their variables, and are nondecreasing
    in both arguments if asked, in the space's order. A mirrored search
    searches the symmetric tables instead: it reads ``values(i, j)`` for the
    cells j >= i only and copies each (i, j) into (j, i), so its space holds
    one table per choice of the cells on and above the diagonal, row by row,
    the last cell changing fastest.

    Yields each table kept as soon as it is complete, and returns decided: the
    number of tables found plus the size of every pruned subtree, summed as
    the search goes, so it equals the size of the space only if the search
    accounted for every table."""
    cells = [(i, j) for i in range(n) for j in range(i if mirror else 0, n)]
    domains = [[v - 1 for v in domain] for domain in _domains(n, values, cells)]
    # below[k]: the tables under one assignment of the cells before k
    below = [prod(map(len, domains[k:])) for k in range(len(cells) + 1)]
    order = [0] * (n * n)  # cell x * n + y -> the position that sets it
    for k, (i, j) in enumerate(cells):
        order[i * n + j] = k
        if mirror:
            order[j * n + i] = k
    tab = [-1] * (n * n)  # 0-based values, -1 while unknown

    # Each equation is watched once: an instance whose two sides are the same
    # ground term cannot fail, and one whose sides, swapped, are those of an
    # instance already watched (bisymmetry at (x, z, y, w) after (x, y, z, w))
    # fails exactly when that one does. An instance is first parked on the
    # cell of its first read, which reads two variables: every cell is
    # unknown before the search starts.
    watch = [[] for _ in cells]  # position -> the instances parked on it
    watched = set()  # the (left, right) ground terms of the instances watched
    for lhs, rhs in identities:
        arity = _arity((lhs, rhs))
        steps: list = []
        left, right = _compile(lhs, arity, steps), _compile(rhs, arity, steps)
        for env in product(range(n), repeat=arity):
            sides = (_ground(lhs, env), _ground(rhs, env))
            if sides[0] == sides[1] or sides[::-1] in watched:
                continue
            watched.add(sides)
            a, b, _ = steps[0]
            watch[order[env[a] * n + env[b]]].append((steps, left, right,
                                                      [*env, *[0] * len(steps)]))

    def monotone(i: int, j: int, v: int) -> bool:
        # unknown neighbours read -1, which never exceeds v
        return not ((i > 0 and tab[(i - 1) * n + j] > v)
                    or (j > 0 and tab[i * n + j - 1] > v)
                    or (i < n - 1 and 0 <= tab[(i + 1) * n + j] < v)
                    or (j < n - 1 and 0 <= tab[i * n + j + 1] < v))

    def settle(k: int, parked: list) -> bool:
        # Reads each instance parked on k again: it holds, fails, or parks
        # on its first cell still unknown. Newest first, which meets a
        # failing instance after fewer reads in the catalog's searches; the
        # order of reads changes neither which instances are parked on k nor
        # whether one of them fails.
        for instance in reversed(watch[k]):
            steps, lhs, rhs, slots = instance
            for a, b, out in steps:
                cell = slots[a] * n + slots[b]
                v = tab[cell]
                if v < 0:
                    q = order[cell]
                    watch[q].append(instance)
                    parked.append(q)
                    break
                slots[out] = v
            else:
                if slots[lhs] != slots[rhs]:
                    return False
        return True

    def extend() -> Generator[tuple, None, int]:
        # Depth first with an explicit stack, so that every table is yielded
        # from this one frame. k is the cell being set, tried[k] the number
        # of its values tried, parked[k] the positions its current value
        # parked instances on. Returns the tables decided.
        last = len(cells) - 1
        tried = [0] * len(cells)
        parked: list[list] = [[] for _ in cells]
        decided = 0
        k = 0
        while k >= 0:
            undo = parked[k]
            if undo:
                for q in undo:
                    watch[q].pop()
                undo.clear()
            i, j = cells[k]
            p = tried[k]
            if p == len(domains[k]):
                tried[k] = 0
                tab[i * n + j] = -1
                if mirror:
                    tab[j * n + i] = -1
                k -= 1
                continue
            tried[k] = p + 1
            v = domains[k][p]
            tab[i * n + j] = v
            if mirror:
                tab[j * n + i] = v
            if (not nondecreasing or monotone(i, j, v)) and settle(k, undo):
                if k < last:
                    k += 1
                    continue
                decided += 1
                yield tuple(tuple(v + 1 for v in tab[x * n:(x + 1) * n]) for x in range(n))
            else:
                decided += below[k + 1]
        return decided

    return extend()


# ---------------------------------------------------------------------------
# public enumerators (hard feasibility bounds)

def enumerate_conservative(n: int) -> Iterator[BinaryOperation]:
    """All conservative tables (diagonal forced, each off-diagonal cell one of
    its two coordinates), lexicographic by table entries: 2^(n^2-n) of them,
    n <= 5."""
    _feasible(n, 5, "conservative operations", "2^(n^2-n)")
    for t in conservative_space(n):
        yield _unchecked_operation(n, t)


def enumerate_nondecreasing(n: int) -> Iterator[BinaryOperation]:
    """All tables nondecreasing in both coordinates (24696 tables at n = 4),
    lexicographic by table entries; n <= 4."""
    _feasible(n, 4, "nondecreasing operations", "box plane partition numbers")
    for t in _search(n, _full(n), nondecreasing=True):
        yield _unchecked_operation(n, t)


def _feasible(n: int, cap: int, what: str, growth: str) -> None:
    FiniteChain(n)
    if n > cap:
        raise ValueError(
            f"exhaustive enumeration of {what} grows as {growth}; "
            f"n = {n} exceeds the supported bound {cap}"
        )


# ---------------------------------------------------------------------------
# the scan driver
#
# A check takes an operation and returns (stats flags to count, failure
# reason or None). A whole space is scanned in one contiguous index range per
# worker, merged in range order, which keeps every report independent of the
# number of workers.

def _tally(tables, check, n: int) -> dict:
    stats: dict[str, int] = {}
    cex: list[dict] = []
    checked = 0
    for checked, t in enumerate(tables, 1):
        op = _unchecked_operation(n, t)
        delta, bad = check(op)
        for k in delta:
            stats[k] = stats.get(k, 0) + 1
        if bad is not None and len(cex) < _MAX_COUNTEREXAMPLES:
            cex.append({"table": _json_rows(op.table), "reason": bad})
    return {"checked": checked, "stats": stats, "counterexamples": cex}


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one (a cpuset container allows fewer CPUs than the host has), else
    the host's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _worker_count(jobs: int, tables: int) -> int:
    """Processes a scan starts: no more than it has tables or the process
    may use CPUs, since a process pool starts every worker it is asked for."""
    return max(1, min(jobs, tables, _usable_cpus()))


def _merge_scans(parts: list[dict]) -> dict:
    merged: dict = {"checked": 0, "stats": {}, "counterexamples": []}
    for p in parts:
        merged["checked"] += p["checked"]
        for k, v in p["stats"].items():
            merged["stats"][k] = merged["stats"].get(k, 0) + v
        merged["counterexamples"].extend(p["counterexamples"])
    return merged


def _ranges(size: int, workers: int) -> list[tuple[int, int]]:
    """``range(size)`` cut into one contiguous index range per worker."""
    cuts = [size * k // workers for k in range(workers + 1)]
    return list(zip(cuts, cuts[1:]))


def _scan_range(args) -> dict:
    check, n, rows, start, stop = args
    return _tally(TableSpace(rows).iter_range(start, stop), check, n)


def _sweep(check, space: TableSpace, n: int, jobs: int = 1) -> dict:
    """Tally ``check`` over the tables of ``space``: in this process with one
    worker, else one index range per worker, each rebuilt there from the
    space's rows. The ranges merge in index order, each with the first
    counterexamples of its range, so the first ``_MAX_COUNTEREXAMPLES`` of
    the merge, all that a report lists, are the one-worker result's.

    The pool module is imported here, when the first scan starts workers,
    so that ``import uninorms`` does not load ``multiprocessing``."""
    workers = _worker_count(jobs, space.size)
    if workers == 1:
        return _tally(space, check, n)
    from concurrent.futures import ProcessPoolExecutor

    tasks = [(check, n, space.rows, start, stop) for start, stop in _ranges(space.size, workers)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return _merge_scans(list(pool.map(_scan_range, tasks)))


# ---------------------------------------------------------------------------
# hypothesis classes and their fixed-seed samples
#
# A class is given as disjoint parts, each the cell domains of one search,
# and the constraints (the _search keywords, mirror among them) that every
# part is searched under; a class with no constraints is one part, scanned
# whole by _sweep. A uniform draw over all n^(n^2) tables lands in the parts
# with probability p = |parts| / n^(n^2), and one that does is uniform on
# them. So a sample runs SAMPLE_SIZE Bernoulli(p) trials, then draws each
# table it keeps cell by cell, from a part picked in proportion to its size.

def _neutral_parts(n: int) -> list:
    """The tables with neutral element e, for each e; no table has two."""
    return [_neutral(n, e) for e in range(1, n + 1)]


def _idempotent_neutral_parts(n: int) -> list:
    """The idempotent tables with neutral element e, for each e."""
    return [_idempotent(values) for values in _neutral_parts(n)]


class _SearchStream:
    """The tables that a search of each of ``parts`` in turn keeps, as one
    stream in search order, for one pass that holds no table past its turn;
    once the pass ends, ``decided`` is the number of tables the searches
    decided, which is ``size``, the number of tables in the parts, when no
    table was skipped."""

    def __init__(self, n: int, parts, **constraints):
        self.n, self.parts, self.constraints = n, parts, constraints
        self.decided = 0

    def __iter__(self) -> Iterator[tuple]:
        for values in self.parts:
            self.decided += yield from _search(self.n, values, **self.constraints)

    @property
    def size(self) -> int:
        return sum(size for size, _, _ in _sized(self.n, self.parts,
                                                 self.constraints.get("mirror", False)))

    def shortfall(self) -> list[dict]:
        """After the pass, one counterexample if the searches did not decide
        every table of the parts, else none."""
        if self.decided == self.size:
            return []
        return [{"reason": f"searches decided {self.decided} of {self.size} tables"}]


def _sized(n: int, parts, mirror: bool) -> Iterator[tuple[int, list, list]]:
    """(size, cells, domains) of each of ``parts``, its domains checked; the
    cells of mirrored parts are those with j >= i."""
    cells = [(i, j) for i in range(n) for j in range(i if mirror else 0, n)]
    for values in parts:
        domains = _domains(n, values, cells)
        yield prod(map(len, domains)), cells, domains


def _draw(parts, n: int, seed: int, mirror: bool) -> list:
    """The tables of ``parts`` (mirrored, if asked) that SAMPLE_SIZE uniform
    draws over all n^(n^2) tables keep, each drawn by one
    random.Random(seed)."""
    rng = random.Random(seed)
    sized = list(_sized(n, parts, mirror))
    sizes = [size for size, _, _ in sized]
    p = sum(sizes) / n ** (n * n)
    draw = rng.random
    kept = len([None for _ in repeat(None, SAMPLE_SIZE) if draw() < p])
    tables = []
    for _, cells, domains in rng.choices(sized, sizes, k=kept):
        cell = dict(zip(cells, map(rng.choice, domains)))  # a mirrored part: j >= i only
        tables.append(tuple(tuple(cell.get((i, j), cell.get((j, i))) for j in range(n))
                            for i in range(n)))
    return tables


# ---------------------------------------------------------------------------
# per-table checks

def _check_mainb(op: BinaryOperation):
    # the search yields nondecreasing tables with a neutral element only
    lhs = is_bisymmetric(op)
    rhs = is_associative(op) and is_symmetric(op)
    delta = ["candidate"]
    if lhs:
        delta.append("bisymmetric_side")
    if rhs:
        delta.append("uninorm_side")
    if lhs != rhs:
        return delta, f"bisymmetric={lhs} but associative-and-symmetric={rhs}"
    return delta, None


def _check_corollary_mainb(op: BinaryOperation):
    # the search yields nondecreasing tables with a neutral element only
    idem = is_idempotent(op)
    cons = is_conservative(op)
    bis = is_bisymmetric(op)
    rhs = idem and is_associative(op) and is_symmetric(op)
    delta = ["candidate"]
    if rhs:
        delta.append("idempotent_uninorms")
    if (idem and bis) != rhs:
        return delta, f"idempotent+bisymmetric={idem and bis} but idempotent uninorm={rhs}"
    if (cons and bis) != rhs:
        return delta, f"conservative+bisymmetric={cons and bis} but idempotent uninorm={rhs}"
    return delta, None


def _check_bis_a(op: BinaryOperation):
    # the search yields bisymmetric tables with a neutral element only
    if not (is_associative(op) and is_symmetric(op)):
        return ("antecedent",), "bisymmetric with neutral element but not associative+symmetric"
    return ("antecedent",), None


def _check_bis_b(op: BinaryOperation):
    # the search yields associative symmetric tables only
    if not is_bisymmetric(op):
        return ("antecedent",), "associative and symmetric but not bisymmetric"
    return ("antecedent",), None


def _check_bis_c(op: BinaryOperation):
    # the search yields conservative bisymmetric tables only
    if not is_associative(op):
        return ("antecedent",), "conservative and bisymmetric but not associative"
    return ("antecedent",), None


def _check_idis(op: BinaryOperation):
    bad = [p for p in isolated_points(op) if p[0] != p[1]]
    if bad:
        return (), f"idempotent operation with off-diagonal isolated point {bad[0]}"
    return (), None


def _check_ee(op: BinaryOperation):
    iso = isolated_points(op)
    if len(iso) > 1:
        return (), f"conservative operation with {len(iso)} isolated points"
    if iso and iso[0][0] != iso[0][1]:
        return (), f"conservative operation with off-diagonal isolated point {iso[0]}"
    via_iso = iso[0][0] if iso else None
    naive = find_neutral_element(op)
    if via_iso != naive:
        return (), f"isolated-point rule gives {via_iso}, definition gives {naive}"
    delta = ("has_neutral",) if naive is not None else ()
    return delta, None


def _check_tcons(op: BinaryOperation):
    naive = is_conservative(op)
    structural = is_conservative_via_contour(op)
    if naive != structural:
        return (), f"definition says {naive}, contour test says {structural}"
    return (("conservative",) if naive else ()), None


def _check_te3(op: BinaryOperation):
    sections = find_neutral_via_sections(op)
    naive = find_neutral_element(op)
    found = sections.e if sections is not None else None
    if found != naive:
        return (), f"section test gives {found}, definition gives {naive}"
    return (("has_neutral",) if naive is not None else ()), None


def _check_testca(op: BinaryOperation):
    naive = is_associative(op)
    rect = is_associative_conservative_rect(op)
    if naive != rect:
        return (), f"triple loop says {naive}, rectangle test says {rect}"
    return (("associative",) if naive else ()), None


def _check_consj(op: BinaryOperation):
    cons = is_conservative(op)
    closed = _closed_under_all_subsets(op, op.n)
    traceable = _membership_traceable(op, op.n)
    if not (cons == closed == traceable):
        return (), (
            f"conservative={cons}, closed-under-subsets={closed}, "
            f"membership-traceable={traceable}"
        )
    return (("conservative",) if cons else ()), None


# a subset S of the chain is a bit mask, element x its bit x - 1; row i of
# the table holds F(i + 1, .)

@cache
def _subsets(n: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """(mask, its rows) for every nonempty subset of the chain."""
    return tuple((mask, tuple(i for i in range(n) if mask >> i & 1))
                 for mask in range(1, 1 << n))


def _closed_under_all_subsets(op: BinaryOperation, n: int) -> bool:
    t = op.table
    for mask, members in _subsets(n):
        for i in members:
            row = t[i]
            for j in members:
                if not mask >> (row[j] - 1) & 1:
                    return False
    return True


def _membership_traceable(op: BinaryOperation, n: int) -> bool:
    # if a value lands in S, one of its arguments must already be in S
    for mask in range(1, 1 << n):
        for i, row in enumerate(op.table):
            if mask >> i & 1:
                continue  # x in S traces every F(x, y)
            for j, v in enumerate(row):
                if mask >> (v - 1) & 1 and not mask >> j & 1:
                    return False
    return True


def _check_main3(op: BinaryOperation):
    # the search yields conservative symmetric nondecreasing tables only
    if not is_associative(op):
        return ("candidate",), "conservative symmetric nondecreasing but not associative"
    if find_neutral_element(op) is None:
        return ("candidate",), "conservative symmetric nondecreasing but no neutral element"
    return ("candidate",), None


def _check_prel34(op: BinaryOperation):
    # the search yields idempotent nondecreasing tables with a neutral element only
    e = find_neutral_element(op)
    for x, row in enumerate(op.table[:e], 1):
        for y, v in enumerate(row[:e], 1):
            if v != min(x, y):
                return ("candidate",), f"below the neutral element F({x},{y}) != min"
    for x, row in enumerate(op.table[e - 1:], e):
        for y, v in enumerate(row[e - 1:], e):
            if v != max(x, y):
                return ("candidate",), f"above the neutral element F({x},{y}) != max"
    return ("candidate",), None


def _check_probe_c(op: BinaryOperation):
    # the search yields symmetric bisymmetric tables only
    delta, finding = ["bisymmetric_symmetric"], None
    if not is_associative(op):
        delta.append("lacking_associativity")
        finding = "bisymmetric and symmetric, not associative"
    if find_neutral_element(op) is None:
        delta.append("lacking_neutral")
        finding = finding or "bisymmetric and symmetric, no neutral element"
    return delta, finding


# ---------------------------------------------------------------------------
# theorem runners
#
# A runner takes (n, seed, jobs) and returns (candidates, counterexamples,
# extras); verify_theorem builds the report from them.

def _scan(check, parts, sampled: bool = False, uninorm_stat: Optional[str] = None,
          **constraints):
    """Runner that tallies ``check`` over the class ``parts(n)``, each part
    the cell domains of one search under ``constraints`` (the ``_search``
    keywords, ``mirror`` among them), whose tables decided are the
    candidates. The searches of the parts stream their tables into the
    tally as one stream, in order, and no table is kept past its check. A
    class with no constraints is the whole space of its one part instead,
    swept over ``jobs`` workers. A sampled class is drawn past chain size 4:
    the draws of its parts that the constraints accept, each searched as a
    space of one table, are tallied. In a searched class whose stat named
    ``uninorm_stat`` counts the idempotent discrete uninorms, the report
    fails, with that reason first, unless the count is their closed form
    2^(n-1)."""
    def run(n: int, seed: int, jobs: int) -> tuple[int, list, dict]:
        if not constraints:
            [values] = parts(n)
            merged = _sweep(check, _space(n, values), n, jobs)
            return merged["checked"], merged["counterexamples"], {"stats": merged["stats"]}
        if sampled and n > 4:
            drawn = _draw(parts(n), n, seed, constraints.get("mirror", False))
            kept = (t for t in drawn
                    if next(_search(n, lambda i, j: (t[i][j],), **constraints), None) is not None)
            part = _tally(kept, check, n)
            return SAMPLE_SIZE, part["counterexamples"], {
                "stats": {"prefiltered": len(drawn), **part["stats"]}, "seed": seed}
        tables = _SearchStream(n, parts(n), **constraints)
        part = _tally(tables, check, n)
        cex = tables.shortfall() + part["counterexamples"]
        if uninorm_stat is not None:
            got, want = part["stats"].get(uninorm_stat, 0), 2 ** (n - 1)
            if got != want:
                cex.insert(0, {"reason": f"{got} tables counted as {uninorm_stat}, "
                                         f"expected 2^(n-1) = {want}"})
        return tables.decided, cex, {"stats": part["stats"]}
    return run


def _key(table) -> bytes:
    """One bytes string for a table, its rows run together. At n = 12 it
    takes about 180 B where the tuple of row tuples takes about 2 KB, its
    hash is cached, and keys of one chain size sort as their tables do. An
    entry past 255 raises ValueError rather than wrap. Joining the rows'
    bytes is the faster way measured: 2.3 µs per table at n = 12, against
    2.8 µs for bytes of the chained entries. The contour algorithm and the
    patchwork make this key themselves, as ``generate._contour_keys`` and
    ``generate._gspec_key``, from rows that are bytes from the start."""
    return b"".join(map(bytes, table))


def _unkey(n: int, key: bytes) -> tuple[tuple[int, ...], ...]:
    """The table of an n-chain whose ``_key`` is ``key``."""
    return tuple(tuple(key[i:i + n]) for i in range(0, n * n, n))


def _verify_main(n: int, seed: int, jobs: int) -> tuple[int, list, dict]:
    index = _contour_index(n)
    found = _SearchStream(n, [_conservative], mirror=True, nondecreasing=True)
    counts, strays = _count_against(index, map(_key, found))
    cex = found.shortfall()
    # found tables that are never generated, in search order, then generated
    # tables that the search did not find, in table order
    for key in strays:
        cex.append({"table": _json_rows(_unkey(n, key)),
                    "reason": "passes the axioms but is never generated"})
    for key in sorted(key for key, i in index.items() if not counts[i]):
        op = _unchecked_operation(n, _unkey(n, key))
        fails = not (is_conservative(op) and is_symmetric(op) and is_nondecreasing(op))
        cex.append({"table": _json_rows(op.table),
                    "reason": "generated but fails the axioms" if fails
                    else "generated and passes the axioms, but the search did not find it"})
    return found.decided, cex, {"brute_force_count": sum(counts) + sum(strays.values()),
                                "generated_count": len(index)}


def _verify_main2n(n: int, seed: int, jobs: int) -> tuple[int, list, dict]:
    keys = set()
    generated = 0
    for key in _contour_keys(n):
        generated += 1
        keys.add(key)
    distinct = len(keys)
    expected = 2 ** (n - 1)
    cex = []
    if generated != expected or distinct != expected:
        cex.append({"reason": f"generator yielded {generated} tables "
                              f"({distinct} distinct), expected {expected}"})
    return generated, cex, {"generated": generated, "distinct": distinct, "expected": expected}


def _verify_gc(n: int, seed: int, jobs: int) -> tuple[int, list, dict]:
    by_neutral: dict[int, int] = {}
    total = 0
    cex = []
    for op in generate_all_uninorms_gc(n):
        total += 1
        e = find_neutral_conservative(op)
        if e is None:
            cex.append({"table": _json_rows(op.table),
                        "reason": "generated table has no neutral element"})
            continue
        by_neutral[e] = by_neutral.get(e, 0) + 1
    # the C(n-1, e-1) sum to 2^(n-1), so these checks also fix the total
    for e in range(1, n + 1):
        want = comb(n - 1, e - 1)
        got = by_neutral.get(e, 0)
        if got != want:
            cex.append({"reason": f"neutral element {e}: {got} tables, expected {want}"})
    return total, cex, {"by_neutral": {str(e): c for e, c in sorted(by_neutral.items())}}


def _verify_qob(n: int, seed: int, jobs: int) -> tuple[int, list, dict]:
    # One index of the contour algorithm's tables, each by its _key, against
    # which the other two constructions stream: each indexed table keeps only
    # how often a stream made it, and the tables a stream makes outside the
    # index are counted apart (there are none when the claim holds). No round
    # trip from the generated side: once every indexed table is made by some
    # order and no order's table falls outside, each generated table is the
    # table of some order, whose round trip is checked below, so a generated
    # table's round trip cannot fail on its own.
    index = _contour_index(n)
    cex = []
    seqs = []  # kept only for the n! filter

    def order_keys():
        for order in enumerate_single_peaked(n):
            if n <= 8:
                seqs.append(order.seq)
            if order.seq[-1] not in (1, n):
                cex.append({"reason": f"ordering {order.seq} ends in {order.seq[-1]}"})
            op = order_to_uninorm(order)
            back = uninorm_to_order(op)
            if back.seq != order.seq:
                cex.append({"reason": f"round trip changed {order.seq} into {back.seq}"})
            yield _key(op.table)

    by_order, order_strays = _count_against(index, order_keys())
    if order_strays or 0 in by_order:
        cex.append({"reason": "order-maximum tables differ from the contour algorithm's"})
    by_spec, spec_strays = _count_against(index, map(_gspec_key, enumerate_gspecs(n)))
    if spec_strays or 0 in by_spec:
        cex.append({"reason": "patchwork construction image differs from the contour algorithm's"})
    made = [c for c in by_spec if c] + list(spec_strays.values())
    extras = {
        "orders": sum(by_order) + sum(order_strays.values()),  # one table per order
        "distinct_operations": len(index),
        "gspec_image": len(made),
        "gspec_collisions": sum(c > 1 for c in made),
    }
    if n <= 8:
        chain = FiniteChain(n)
        # the triple definition, not is_single_peaked's interval walk: the
        # enumeration is built on that walk's characterization
        filtered = [
            seq for seq in permutations(range(1, n + 1))
            if single_peakedness_witness(LinearOrder(chain, seq)) is None
        ]
        extras["factorial_filtered"] = len(filtered)
        if sorted(seqs) != sorted(filtered):
            cex.append({"reason": "incremental enumeration disagrees with the n! filter"})
    return extras["orders"], cex, extras


def _contour_index(n: int) -> dict[bytes, int]:
    """The ``_key`` of each table of the contour algorithm, mapped to its
    slot: the order in which the key was first made."""
    index: dict[bytes, int] = {}
    for key in _contour_keys(n):
        index.setdefault(key, len(index))
    return index


def _count_against(index: dict, keys: Iterator[bytes]) -> tuple[list[int], dict]:
    """How often a stream of table ``_key``s makes each table of ``index``,
    which maps the key of each table to its slot, by slot, and how often it
    makes each table outside the index, by key: the strays are only
    counted."""
    counts = [0] * len(index)
    strays: dict[bytes, int] = {}
    for key in keys:
        i = index.get(key)
        if i is None:
            strays[key] = strays.get(key, 0) + 1
        else:
            counts[i] += 1
    return counts, strays


def _verify_rec8n(n: int, seed: int, jobs: int) -> tuple[int, list, dict]:
    cex = []
    seen = set()
    count = 0
    for rect in rectangles(n, symmetric=False):
        count += 1
        a, b, c = rect
        if len({a, b, c}) != 3:
            cex.append({"reason": f"triple {rect} is not pairwise distinct"})
        (p, q, r, s) = rect.vertices
        if r[0] != r[1]:
            cex.append({"reason": f"rectangle {rect} has no vertex on the diagonal"})
        for v in (p, q, s):
            if v[0] == v[1]:
                cex.append({"reason": f"rectangle {rect} vertex {v} on the diagonal"})
        seen.add((a, b, c))
    expected = rectangle_count(n, symmetric=False)
    if count != expected or len(seen) != expected:
        cex.append({"reason": f"iterator yielded {count} rectangles "
                              f"({len(seen)} distinct), expected {expected}"})
    sym_count = sum(1 for _ in rectangles(n, symmetric=True))
    sym_expected = rectangle_count(n, symmetric=True)
    if sym_count != sym_expected:
        cex.append({"reason": f"symmetric iterator yielded {sym_count}, "
                              f"expected {sym_expected}"})
    return count, cex, {"expected": expected, "symmetric_expected": sym_expected}


def _verify_open_questions(n: int, seed: int, jobs: int) -> tuple[int, list, dict]:
    report = probe_open_questions(n)
    return report["a"]["conservative"], [], {"probe": report}


# name: (max n, summary, runner(n, seed, jobs) -> (candidates, counterexamples, extras))
_CATALOG = {
    "main": (6, "the three axioms characterize the generated uninorms", _verify_main),
    "main2n": (12, "there are exactly 2^(n-1) idempotent discrete uninorms", _verify_main2n),
    "main3": (5, "the three axioms imply associativity and a neutral element",
              _scan(_check_main3, lambda n: [_conservative], uninorm_stat="candidate",
                    mirror=True, nondecreasing=True)),
    "gc": (12, "uninorms with neutral element e number C(n-1, e-1)", _verify_gc),
    "qob": (12, "single-peaked maxima, contour algorithm, and patchwork agree", _verify_qob),
    "mainb": (5, "bisymmetry + monotonicity + neutral element = discrete uninorm",
              _scan(_check_mainb, _neutral_parts, nondecreasing=True)),
    "corollary-mainb": (5, "adding idempotency or conservativeness yields the idempotent ones",
                        _scan(_check_corollary_mainb, _neutral_parts,
                              uninorm_stat="idempotent_uninorms", nondecreasing=True)),
    "bis-a": (5, "bisymmetric with neutral element implies associative and symmetric",
              _scan(_check_bis_a, _neutral_parts, sampled=True, identities=(_BISYMMETRY,))),
    "bis-b": (5, "associative and symmetric implies bisymmetric",
              _scan(_check_bis_b, lambda n: [_full(n)], sampled=True, mirror=True,
                    identities=(_ASSOCIATIVITY,))),
    "bis-c": (5, "bisymmetric and conservative implies associative",
              _scan(_check_bis_c, lambda n: [_conservative], identities=(_BISYMMETRY,))),
    "idis": (3, "isolated points of idempotent operations lie on the diagonal",
             _scan(_check_idis, lambda n: [_idempotent(_full(n))])),
    "ee": (4, "for conservative operations, neutral = unique isolated diagonal point",
           _scan(_check_ee, lambda n: [_conservative])),
    "tcons": (3, "conservativeness = idempotency + diagonal-connected contour",
              _scan(_check_tcons, lambda n: [_full(n)])),
    "te3": (3, "neutral elements = identity sections crossing on the diagonal",
            _scan(_check_te3, lambda n: [_full(n)])),
    "testca": (4, "rectangle test decides associativity of conservative operations",
               _scan(_check_testca, lambda n: [_conservative])),
    "rec8n": (10, "there are n(n-1)(n-2) test rectangles, C(n,3) up to symmetry", _verify_rec8n),
    "prel34": (5, "idempotent nondecreasing with neutral e: min below e, max above",
               _scan(_check_prel34, _idempotent_neutral_parts, nondecreasing=True)),
    "consj": (3, "conservativeness = closure under every subset",
              _scan(_check_consj, lambda n: [_full(n)])),
    "open-questions": (5, "empirical probes, no assertion made", _verify_open_questions),
}


def theorem_names() -> list[str]:
    return sorted(_CATALOG)


def theorem_bound(name: str) -> int:
    if name not in _CATALOG:
        raise ValueError(f"unknown claim {name!r}; known: {', '.join(theorem_names())}")
    return _CATALOG[name][0]


def verify_theorem(name: str, n: int, seed: int = 0, jobs: int = 1) -> dict:
    """Check one named claim at chain size n and report candidates checked
    plus the first ``_MAX_COUNTEREXAMPLES`` counterexamples, which
    ``counterexample_count`` counts; ``ok`` is true only if there are none.
    This is the one place a report is built, for every claim. Every class is
    decided exhaustively, by a scan or a pruned search, except those of
    ``bis-a`` and ``bis-b`` at n = 5, which are fixed-seed samples drawn in
    this process from the cell domains of the class: ``seed`` reaches only
    those. ``jobs`` splits only the whole-space scans, one index range per
    worker process. No claim holds its tables: a scan or a search streams
    each table into the check, and the construction claims (``main``,
    ``main2n``, ``qob``) keep one ``_key`` per generated table, not the
    table; the contour algorithm and the patchwork build each of their
    tables as that key, from one walk or one row helper that also serves
    their public generators, so no row tuple is built only to be joined.
    The report is deterministic for fixed (name, n, seed),
    regardless of the number of workers. ``name`` must be a str, ``n`` a
    chain size that ``FiniteChain`` accepts, and ``seed`` and ``jobs`` ints,
    not bools."""
    if not isinstance(name, str):
        raise ValueError(f"name must be a string, got {name!r}")
    key = name.lower()
    cap = theorem_bound(key)
    FiniteChain(n)
    for arg, value in (("seed", seed), ("jobs", jobs)):
        if type(value) is not int:
            raise ValueError(f"{arg} must be an integer, got {value!r}")
    if n > cap:
        raise ValueError(f"claim {key!r} is only checkable up to n = {cap}")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    _, summary, runner = _CATALOG[key]
    start = time.perf_counter()
    candidates, counterexamples, extras = runner(n, seed, jobs)
    listed = counterexamples[:_MAX_COUNTEREXAMPLES]
    return {
        "theorem": key,
        "n": n,
        "candidates": candidates,
        "counterexamples": listed,
        "counterexample_count": len(listed),
        "ok": not listed,
        **extras,
        "summary": summary,
        "runtime_seconds": time.perf_counter() - start,
    }


def probe_open_questions(n: int) -> dict:
    """Gather empirical evidence on the open enumeration and implication
    questions. Findings are reported as data; nothing is asserted.

    * counts of conservative / conservative+associative tables, and of
      conservative+symmetric / conservative+symmetric+associative tables
      (exact): a pruned search of each space keeps the associative tables,
      which are counted and not kept, and decides every other table by
      pruning, and the space counts are the tables it decided, not a
      formula;
    * symmetric bisymmetric tables lacking associativity or a neutral
      element, the first ``_MAX_COUNTEREXAMPLES`` of them listed: a pruned
      search decides every symmetric table up to n = 4 and streams the
      tables it keeps into the check. At n = 5 this part is not run, and
      ``c`` says so.
    """
    _feasible(n, 5, "conservative operations", "2^(n^2-n)")
    cons = _SearchStream(n, [_conservative], identities=(_ASSOCIATIVITY,))
    cons_assoc = sum(1 for _ in cons)
    sym = _SearchStream(n, [_conservative], mirror=True, identities=(_ASSOCIATIVITY,))
    sym_assoc = sum(1 for _ in sym)
    if n > 4:
        part_c = ("searched only up to n = 4: at n = 5 no search of the "
                  "symmetric bisymmetric tables fits a desk budget")
    else:
        tables = _SearchStream(n, [_full(n)], mirror=True, identities=(_BISYMMETRY,))
        found = _tally(tables, _check_probe_c, n)
        part_c = {
            "symmetric_tables_examined": tables.decided,
            "stats": found["stats"],
            "findings": [{"table": c["table"], "finding": c["reason"]}
                         for c in found["counterexamples"]],
            "note": "findings are empirical observations, not a theorem",
        }
    return {
        "n": n,
        "a": {
            "conservative": cons.decided,
            "conservative_associative": cons_assoc,
            "conservative_symmetric": sym.decided,
            "conservative_symmetric_associative": sym_assoc,
        },
        "b": "no graphical bisymmetry test is known for non-symmetric "
             "conservative operations; the symmetric case reduces to the "
             "rectangle test",
        "c": part_c,
    }
