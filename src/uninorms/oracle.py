"""Brute-force enumeration engines and exhaustive verification of every
characterization at desk scale.

Enumeration classes live behind hard feasibility bounds; exceeding a bound is
an error rather than a silent sample. Sampling is used only where a bound
forces it: ``bis-a`` and ``bis-b`` at chain sizes 4 and 5, and part (c) of
the open-questions probe above size 3. A sample is drawn with one fixed seed
split into fixed-size chunks, so results do not depend on how many workers
run the chunks. ``mainb``, ``corollary-mainb`` and ``prel34`` scan every
nondecreasing table with a neutral element, built by backtracking, so they
are exhaustive.

``verify_theorem`` is the single entry point: it looks up a named claim in
the catalog, scans the relevant candidate class, and reports the number of
candidates checked plus any counterexamples found (there must be none).
"""
from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from itertools import combinations_with_replacement, permutations
from math import comb
from typing import Iterator, Optional

import numpy as np

from .core import BinaryOperation, FiniteChain, LinearOrder, table_to_json_dict
from .generate import (  # the gspec names stay here: bench/run.py's traced run wraps them
    _gspec_sources,
    enumerate_gspecs,
    generate_all_uninorms_gc,
    gspec_collision_report,
    uninorm_from_gspec,
)
from .properties import (
    _table_rect_witness,
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
    is_single_peaked,
    order_to_uninorm,
    uninorm_to_order,
)

SAMPLE_SIZE = 100_000
_SAMPLE_CHUNKS = 100
_SAMPLE_PER_CHUNK = SAMPLE_SIZE // _SAMPLE_CHUNKS
_SCAN_CHUNKS = 64
_MAX_COUNTEREXAMPLES = 20


@dataclass(frozen=True)
class PropertyProfile:
    """All property flags of one operation, computed in a single pass."""

    idempotent: bool
    conservative: bool
    symmetric: bool
    nondecreasing: bool
    associative: bool
    bisymmetric: bool
    neutral: Optional[int]
    isolated: tuple[tuple[int, int], ...]

    def to_dict(self) -> dict:
        return {
            "idempotent": self.idempotent,
            "conservative": self.conservative,
            "symmetric": self.symmetric,
            "nondecreasing": self.nondecreasing,
            "associative": self.associative,
            "bisymmetric": self.bisymmetric,
            "neutral": self.neutral,
            "isolated": [list(p) for p in self.isolated],
        }


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
# A space is a lexicographically indexed family of tables: a template with
# fixed entries plus free cells, each with its own ascending value list. The
# index doubles as the work-partitioning key for parallel scans.

class TableSpace:
    def __init__(self, n: int, cells, choices, base, mirror: bool = False):
        self.n = n
        self.cells = cells
        self.choices = choices
        self.base = base
        self.mirror = mirror
        size = 1
        for ch in choices:
            size *= len(ch)
        self.size = size

    def decode(self, index: int) -> tuple[tuple[int, ...], ...]:
        digits = [0] * len(self.choices)
        for k in range(len(self.choices) - 1, -1, -1):
            index, digits[k] = divmod(index, len(self.choices[k]))
        rows = [row[:] for row in self.base]
        self._apply(rows, digits)
        return tuple(tuple(r) for r in rows)

    def _apply(self, rows, digits) -> None:
        for (i, j), ch, d in zip(self.cells, self.choices, digits):
            rows[i][j] = ch[d]
            if self.mirror:
                rows[j][i] = ch[d]

    def iter_range(self, start: int, stop: int) -> Iterator[tuple[tuple[int, ...], ...]]:
        """Tables start..stop-1 in index order, via odometer increments."""
        if start >= stop:
            return
        digits = [0] * len(self.choices)
        index = start
        for k in range(len(self.choices) - 1, -1, -1):
            index, digits[k] = divmod(index, len(self.choices[k]))
        rows = [row[:] for row in self.base]
        self._apply(rows, digits)
        for _ in range(start, stop):
            yield tuple(tuple(r) for r in rows)
            for k in range(len(self.choices) - 1, -1, -1):
                digits[k] += 1
                if digits[k] < len(self.choices[k]):
                    i, j = self.cells[k]
                    rows[i][j] = self.choices[k][digits[k]]
                    if self.mirror:
                        rows[j][i] = self.choices[k][digits[k]]
                    break
                digits[k] = 0
                i, j = self.cells[k]
                rows[i][j] = self.choices[k][0]
                if self.mirror:
                    rows[j][i] = self.choices[k][0]

    def __iter__(self):
        return self.iter_range(0, self.size)


def full_space(n: int) -> TableSpace:
    cells = [(i, j) for i in range(n) for j in range(n)]
    values = tuple(range(1, n + 1))
    return TableSpace(n, cells, [values] * len(cells), [[0] * n for _ in range(n)])


def idempotent_space(n: int) -> TableSpace:
    cells = [(i, j) for i in range(n) for j in range(n) if i != j]
    values = tuple(range(1, n + 1))
    base = [[i + 1 if i == j else 0 for j in range(n)] for i in range(n)]
    return TableSpace(n, cells, [values] * len(cells), base)


def conservative_space(n: int) -> TableSpace:
    cells = [(i, j) for i in range(n) for j in range(n) if i != j]
    choices = [tuple(sorted((i + 1, j + 1))) for (i, j) in cells]
    base = [[i + 1 if i == j else 0 for j in range(n)] for i in range(n)]
    return TableSpace(n, cells, choices, base)


def conservative_symmetric_space(n: int) -> TableSpace:
    cells = [(i, j) for i in range(n) for j in range(i + 1, n)]
    choices = [(i + 1, j + 1) for (i, j) in cells]
    base = [[i + 1 if i == j else 0 for j in range(n)] for i in range(n)]
    return TableSpace(n, cells, choices, base, mirror=True)


def symmetric_space(n: int) -> TableSpace:
    cells = [(i, j) for i in range(n) for j in range(i, n)]
    values = tuple(range(1, n + 1))
    return TableSpace(n, cells, [values] * len(cells),
                      [[0] * n for _ in range(n)], mirror=True)


def _wrap(n: int, table: tuple[tuple[int, ...], ...]) -> BinaryOperation:
    return BinaryOperation(FiniteChain(n), table)


# ---------------------------------------------------------------------------
# public enumerators (hard feasibility bounds)

def enumerate_all_operations(n: int) -> Iterator[BinaryOperation]:
    """All n^(n^2) total tables, lexicographic by table entries; n <= 3."""
    _feasible(n, 3, "all operations", "n^(n^2)")
    chain = FiniteChain(n)
    for t in full_space(n):
        yield BinaryOperation(chain, t)


def enumerate_conservative(n: int, symmetric_only: bool = False) -> Iterator[BinaryOperation]:
    """All conservative tables (diagonal forced, each off-diagonal cell one of
    its two coordinates): 2^(n^2-n) in general, 2^(n(n-1)/2) symmetric."""
    if symmetric_only:
        _feasible(n, 8, "symmetric conservative operations", "2^(n(n-1)/2)")
        space = conservative_symmetric_space(n)
    else:
        _feasible(n, 5, "conservative operations", "2^(n^2-n)")
        space = conservative_space(n)
    chain = FiniteChain(n)
    for t in space:
        yield BinaryOperation(chain, t)


def enumerate_nondecreasing(n: int) -> Iterator[BinaryOperation]:
    """All tables nondecreasing in both coordinates, by backtracking over rows
    (24696 tables at n = 4); n <= 4."""
    _feasible(n, 4, "nondecreasing operations", "box plane partition numbers")
    chain = FiniteChain(n)
    for t in _nondecreasing_tables(n):
        yield BinaryOperation(chain, t)


def _nondecreasing_tables(
        n: int, e: Optional[int] = None) -> Iterator[tuple[tuple[int, ...], ...]]:
    # a table is n file lines F(1,y) .. F(n,y), each nondecreasing and each
    # at least the line below it; lines come in lexicographic order. With a
    # neutral element e, line e is the identity and every line y holds y at
    # position e.
    lines = list(combinations_with_replacement(range(1, n + 1), n))
    if e is None:
        allowed = [lines] * n
    else:
        identity = tuple(range(1, n + 1))
        allowed = [[identity] if y == e else [line for line in lines if line[e - 1] == y]
                   for y in identity]

    def rec(chosen: list) -> Iterator[tuple[tuple[int, ...], ...]]:
        if len(chosen) == n:
            yield tuple(zip(*chosen))
            return
        for line in allowed[len(chosen)]:
            if not chosen or all(a >= b for a, b in zip(line, chosen[-1])):
                yield from rec(chosen + [line])

    yield from rec([])


def _feasible(n: int, cap: int, what: str, growth: str) -> None:
    if n < 1:
        raise ValueError("n must be positive")
    if n > cap:
        raise ValueError(
            f"exhaustive enumeration of {what} grows as {growth}; "
            f"n = {n} exceeds the supported bound {cap}"
        )


# ---------------------------------------------------------------------------
# the scan driver
#
# A check takes a raw table and n and returns (stats flags to count, failure
# reason or None). A source of tables is "nondecreasing-neutral" (the
# backtracking sweep over e = 1..n, sequential), a TableSpace name (fixed
# index chunks), or a "sampled-*" hypothesis (SAMPLE_SIZE fixed-seed draws in
# fixed chunks).
# Fixed chunks merged in order keep every report independent of the number
# of workers.

def _tally(tables, check, n: int) -> dict:
    stats: dict[str, int] = {}
    cex: list[dict] = []
    checked = 0
    for checked, t in enumerate(tables, 1):
        delta, bad = check(t, n)
        for k in delta:
            stats[k] = stats.get(k, 0) + 1
        if bad is not None and len(cex) < _MAX_COUNTEREXAMPLES:
            cex.append({"table": _json_rows(t), "reason": bad})
    return {"checked": checked, "stats": stats, "counterexamples": cex}


def _json_rows(t) -> list[list[int]]:
    """The rows of ``table_to_json_dict``: line y holds F(1,y) .. F(n,y)."""
    return [list(line) for line in zip(*t)]


def _chunk_bounds(total: int, chunks: int = _SCAN_CHUNKS) -> list[tuple[int, int]]:
    k = max(1, min(chunks, total))
    step, rem = divmod(total, k)
    bounds = []
    start = 0
    for i in range(k):
        stop = start + step + (1 if i < rem else 0)
        bounds.append((start, stop))
        start = stop
    return bounds


def _worker_count(jobs: int, tasks: int) -> int:
    """Processes a scan starts: no more than it has chunks or the host has
    cores, since a process pool starts every worker it is asked for."""
    return max(1, min(jobs, tasks, os.cpu_count() or 1))


def _run_chunks(fn, tasks: list, jobs: int) -> list:
    workers = _worker_count(jobs, len(tasks))
    if workers == 1:
        return [fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks))


def _merge_scans(parts: list[dict]) -> dict:
    merged: dict = {"checked": 0, "stats": {}, "counterexamples": []}
    for p in parts:
        merged["checked"] += p["checked"]
        for k, v in p["stats"].items():
            merged["stats"][k] = merged["stats"].get(k, 0) + v
        merged["counterexamples"].extend(p["counterexamples"])
    return merged


_SPACES = {
    "full": full_space,
    "idempotent": idempotent_space,
    "conservative": conservative_space,
    "conservative-symmetric": conservative_symmetric_space,
    "symmetric": symmetric_space,
}


def _chunk_rng(seed: int, chunk: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(chunk,)))


def _neutral_mask(arr: np.ndarray, n: int) -> np.ndarray:
    idx = np.arange(1, n + 1)
    out = np.zeros(len(arr), dtype=bool)
    for e0 in range(n):
        out |= (arr[:, e0, :] == idx).all(axis=1) & (arr[:, :, e0] == idx).all(axis=1)
    return out


def _symmetric_mask(arr: np.ndarray) -> np.ndarray:
    return (arr == arr.transpose(0, 2, 1)).all(axis=(1, 2))


def _draw(hypothesis: str, n: int, seed: int, chunk: int) -> tuple[list, dict]:
    """One chunk of uniform draws: those with a neutral element, the
    symmetric ones, or every draw mirrored into a symmetric table."""
    arr = _chunk_rng(seed, chunk).integers(1, n + 1, size=(_SAMPLE_PER_CHUNK, n, n))
    stats = {}
    if hypothesis == "sampled-symmetrized":
        upper = np.triu_indices(n, k=1)
        arr[:, upper[1], upper[0]] = arr[:, upper[0], upper[1]]
    else:
        keep = _neutral_mask(arr, n) if hypothesis == "sampled-neutral" else _symmetric_mask(arr)
        arr = arr[keep]
        stats["prefiltered"] = len(arr)
    return [tuple(map(tuple, t)) for t in arr.tolist()], stats


def _scan_chunk(args) -> dict:
    check, n, source, first, second = args
    if source in _SPACES:  # first..second is an index range
        return _tally(_SPACES[source](n).iter_range(first, second), check, n)
    tables, stats = _draw(source, n, first, second)  # the seed and the chunk
    part = _tally(tables, check, n)
    return {"checked": _SAMPLE_PER_CHUNK, "stats": {**stats, **part["stats"]},
            "counterexamples": part["counterexamples"]}


def _sweep(check, source: str, n: int, seed: int = 0, jobs: int = 1) -> dict:
    """Tally ``check`` over the tables of ``source``; counterexamples are
    capped per chunk, not in total."""
    if source == "nondecreasing-neutral":
        tables = (t for e in range(1, n + 1) for t in _nondecreasing_tables(n, e))
        return _tally(tables, check, n)
    if source in _SPACES:
        spans = _chunk_bounds(_SPACES[source](n).size)
    else:
        spans = [(seed, chunk) for chunk in range(_SAMPLE_CHUNKS)]
    tasks = [(check, n, source, first, second) for first, second in spans]
    return _merge_scans(_run_chunks(_scan_chunk, tasks, jobs))


# ---------------------------------------------------------------------------
# per-table checks

def _check_axioms(generated: frozenset, t, n: int):
    # the scanned space is symmetric conservative
    if not is_nondecreasing(_wrap(n, t)):
        return (), None
    if t not in generated:
        return ("axioms",), "passes the axioms but is never generated"
    return ("axioms",), None


def _check_mainb(t, n: int):
    # the sweep yields nondecreasing tables with a neutral element only
    op = _wrap(n, t)
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


def _check_corollary_mainb(t, n: int):
    # the sweep yields nondecreasing tables with a neutral element only
    op = _wrap(n, t)
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


def _check_bis_a(t, n: int):
    op = _wrap(n, t)
    if find_neutral_element(op) is None or not is_bisymmetric(op):
        return (), None
    if not (is_associative(op) and is_symmetric(op)):
        return ("antecedent",), "bisymmetric with neutral element but not associative+symmetric"
    return ("antecedent",), None


def _check_bis_b(t, n: int):
    op = _wrap(n, t)
    if not (is_associative(op) and is_symmetric(op)):
        return (), None
    if not is_bisymmetric(op):
        return ("antecedent",), "associative and symmetric but not bisymmetric"
    return ("antecedent",), None


def _check_bis_c(t, n: int):
    op = _wrap(n, t)
    if not is_conservative(op) or not is_bisymmetric(op):
        return (), None
    if not is_associative(op):
        return ("antecedent",), "conservative and bisymmetric but not associative"
    return ("antecedent",), None


def _check_idis(t, n: int):
    bad = [p for p in isolated_points(_wrap(n, t)) if p[0] != p[1]]
    if bad:
        return (), f"idempotent operation with off-diagonal isolated point {bad[0]}"
    return (), None


def _check_ee(t, n: int):
    op = _wrap(n, t)
    iso = isolated_points(op)
    if len(iso) > 1:
        return (), f"conservative operation with {len(iso)} isolated points"
    if iso and iso[0][0] != iso[0][1]:
        return (), f"conservative operation with off-diagonal isolated point {iso[0]}"
    via_iso = find_neutral_conservative(op)
    naive = find_neutral_element(op)
    if via_iso != naive:
        return (), f"isolated-point rule gives {via_iso}, definition gives {naive}"
    delta = ("has_neutral",) if naive is not None else ()
    return delta, None


def _check_tcons(t, n: int):
    op = _wrap(n, t)
    naive = is_conservative(op)
    structural = is_conservative_via_contour(op)
    if naive != structural:
        return (), f"definition says {naive}, contour test says {structural}"
    return (("conservative",) if naive else ()), None


def _check_te3(t, n: int):
    op = _wrap(n, t)
    sections = find_neutral_via_sections(op)
    naive = find_neutral_element(op)
    found = sections.e if sections is not None else None
    if found != naive:
        return (), f"section test gives {found}, definition gives {naive}"
    return (("has_neutral",) if naive is not None else ()), None


def _check_testca(t, n: int):
    op = _wrap(n, t)
    naive = is_associative(op)
    rect = is_associative_conservative_rect(op)
    if naive != rect:
        return (), f"triple loop says {naive}, rectangle test says {rect}"
    return (("associative",) if naive else ()), None


def _check_consj(t, n: int):
    op = _wrap(n, t)
    cons = is_conservative(op)
    closed = _closed_under_all_subsets(op, n)
    traceable = _membership_traceable(op, n)
    if not (cons == closed == traceable):
        return (), (
            f"conservative={cons}, closed-under-subsets={closed}, "
            f"membership-traceable={traceable}"
        )
    return (("conservative",) if cons else ()), None


def _closed_under_all_subsets(op: BinaryOperation, n: int) -> bool:
    for mask in range(1, 1 << n):
        members = [v for v in range(1, n + 1) if mask >> (v - 1) & 1]
        for x in members:
            for y in members:
                if not (mask >> (op(x, y) - 1) & 1):
                    return False
    return True


def _membership_traceable(op: BinaryOperation, n: int) -> bool:
    # if a value lands in S, one of its arguments must already be in S
    for mask in range(1, 1 << n):
        for x in range(1, n + 1):
            for y in range(1, n + 1):
                if mask >> (op(x, y) - 1) & 1:
                    if not (mask >> (x - 1) & 1 or mask >> (y - 1) & 1):
                        return False
    return True


def _check_main3(t, n: int):
    op = _wrap(n, t)
    if not is_nondecreasing(op):
        return (), None
    # the scanned space is symmetric conservative, so the table qualifies
    if not is_associative(op):
        return ("candidate",), "conservative symmetric nondecreasing but not associative"
    if find_neutral_element(op) is None:
        return ("candidate",), "conservative symmetric nondecreasing but no neutral element"
    return ("candidate",), None


def _check_prel34(t, n: int):
    op = _wrap(n, t)
    if not is_idempotent(op):
        return (), None
    e = find_neutral_element(op)  # the sweep guarantees one
    for x in range(1, e + 1):
        for y in range(1, e + 1):
            if op(x, y) != min(x, y):
                return ("candidate",), f"below the neutral element F({x},{y}) != min"
    for x in range(e, n + 1):
        for y in range(e, n + 1):
            if op(x, y) != max(x, y):
                return ("candidate",), f"above the neutral element F({x},{y}) != max"
    return ("candidate",), None


def _check_probe_a(t, n: int):
    # raw tables, so the n = 5 conservative sweep pays no wrap
    return (("associative",) if _table_rect_witness(t) is None else ()), None


def _check_probe_c(t, n: int):
    op = _wrap(n, t)
    if not is_bisymmetric(op):
        return (), None
    assoc = is_associative(op)
    neutral = find_neutral_element(op)
    delta = ["bisymmetric_symmetric"]
    if not assoc:
        delta.append("lacking_associativity")
    if neutral is None:
        delta.append("lacking_neutral")
    if not assoc:
        return delta, "bisymmetric and symmetric, not associative"
    if neutral is None:
        return delta, "bisymmetric and symmetric, no neutral element"
    return delta, None


# ---------------------------------------------------------------------------
# theorem runners

def _report(name: str, n: int, candidates: int, counterexamples: list,
            **extras) -> dict:
    out = {
        "theorem": name,
        "n": n,
        "candidates": candidates,
        "counterexamples": counterexamples,
        "counterexample_count": len(counterexamples),
        "ok": not counterexamples,
    }
    out.update(extras)
    return out


def _scan(check, source: str, above3: Optional[str] = None):
    """Runner that tallies ``check`` over ``source``, or over ``above3`` at
    chain sizes past 3 when one is given."""
    def run(name: str, n: int, seed: int, jobs: int) -> dict:
        src = above3 if above3 is not None and n > 3 else source
        merged = _sweep(check, src, n, seed, jobs)
        extras = {"seed": seed} if src.startswith("sampled-") else {}
        return _report(name, n, merged["checked"],
                       merged["counterexamples"][:_MAX_COUNTEREXAMPLES],
                       stats=merged["stats"], **extras)
    return run


def _verify_main(name: str, n: int, seed: int, jobs: int) -> dict:
    generated = frozenset(op.table for op in generate_all_uninorms_gc(n))
    brute = _sweep(partial(_check_axioms, generated), "conservative-symmetric", n, jobs=jobs)
    cex = brute["counterexamples"]
    for t in sorted(generated):
        op = _wrap(n, t)
        if not (is_conservative(op) and is_symmetric(op) and is_nondecreasing(op)):
            cex.append({"table": _json_rows(t), "reason": "generated but fails the axioms"})
    return _report(name, n, brute["checked"], cex[:_MAX_COUNTEREXAMPLES],
                   brute_force_count=brute["stats"].get("axioms", 0),
                   generated_count=len(generated))


def _verify_main2n(name: str, n: int, seed: int, jobs: int) -> dict:
    tables = [op.table for op in generate_all_uninorms_gc(n)]
    distinct = len(set(tables))
    expected = 2 ** (n - 1)
    cex = []
    if len(tables) != expected or distinct != expected:
        cex.append({"reason": f"generator yielded {len(tables)} tables "
                              f"({distinct} distinct), expected {expected}"})
    extras = {"generated": len(tables), "distinct": distinct, "expected": expected}
    if n <= 6:
        scan = _sweep(partial(_check_axioms, frozenset(tables)), "conservative-symmetric",
                      n, jobs=jobs)
        brute = scan["stats"].get("axioms", 0)
        extras["brute_force_count"] = brute
        if brute != expected:
            cex.append({"reason": f"brute force found {brute}, expected {expected}"})
    return _report(name, n, len(tables), cex, **extras)


def _verify_gc(name: str, n: int, seed: int, jobs: int) -> dict:
    by_neutral: dict[int, int] = {}
    total = 0
    cex = []
    for op in generate_all_uninorms_gc(n):
        total += 1
        e = find_neutral_conservative(op)
        if e is None:
            cex.append({"table": table_to_json_dict(op)["table"],
                        "reason": "generated table has no neutral element"})
            continue
        by_neutral[e] = by_neutral.get(e, 0) + 1
    # the C(n-1, e-1) sum to 2^(n-1), so these checks also fix the total
    for e in range(1, n + 1):
        want = comb(n - 1, e - 1)
        got = by_neutral.get(e, 0)
        if got != want:
            cex.append({"reason": f"neutral element {e}: {got} tables, expected {want}"})
    return _report(name, n, total, cex[:_MAX_COUNTEREXAMPLES],
                   by_neutral={str(e): c for e, c in sorted(by_neutral.items())})


def _verify_qob(name: str, n: int, seed: int, jobs: int) -> dict:
    cex = []
    orders = list(enumerate_single_peaked(n))
    from_orders = set()
    for order in orders:
        if order.seq[-1] not in (1, n):
            cex.append({"reason": f"ordering {order.seq} ends in {order.seq[-1]}"})
        op = order_to_uninorm(order)
        from_orders.add(op.table)
        back = uninorm_to_order(op)
        if back.seq != order.seq:
            cex.append({"reason": f"round trip changed {order.seq} into {back.seq}"})
    # No round trip from the generated side: once the sets below are equal,
    # each generated table is the table of some order, whose round trip was
    # checked above, so a generated table's round trip cannot fail on its own.
    gc_tables = {op.table for op in generate_all_uninorms_gc(n)}
    gspec_sources, gspec_collisions = _gspec_sources(n)
    if from_orders != gc_tables:
        cex.append({"reason": "order-maximum tables differ from the contour algorithm's"})
    if gspec_sources.keys() != gc_tables:
        cex.append({"reason": "patchwork construction image differs from the contour algorithm's"})
    extras = {
        "orders": len(orders),
        "distinct_operations": len(gc_tables),
        "gspec_image": len(gspec_sources),
        "gspec_collisions": len(gspec_collisions),
    }
    if n <= 8:
        chain = FiniteChain(n)
        filtered = [
            seq for seq in permutations(range(1, n + 1))
            if is_single_peaked(LinearOrder(chain, seq))
        ]
        extras["factorial_filtered"] = len(filtered)
        if sorted(o.seq for o in orders) != sorted(filtered):
            cex.append({"reason": "incremental enumeration disagrees with the n! filter"})
    return _report(name, n, len(orders), cex[:_MAX_COUNTEREXAMPLES], **extras)


def _verify_rec8n(name: str, n: int, seed: int, jobs: int) -> dict:
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
    return _report(name, n, count, cex[:_MAX_COUNTEREXAMPLES],
                   expected=expected, symmetric_expected=sym_expected)


def _verify_open_questions(name: str, n: int, seed: int, jobs: int) -> dict:
    report = probe_open_questions(n, seed=seed, jobs=jobs)
    return _report(name, n, report["a"]["conservative"], [], probe=report)


# name: (max n, summary, runner(name, n, seed, jobs) -> report)
_CATALOG = {
    "main": (6, "the three axioms characterize the generated uninorms", _verify_main),
    "main2n": (12, "there are exactly 2^(n-1) idempotent discrete uninorms", _verify_main2n),
    "main3": (5, "the three axioms imply associativity and a neutral element",
              _scan(_check_main3, "conservative-symmetric")),
    "gc": (12, "uninorms with neutral element e number C(n-1, e-1)", _verify_gc),
    "qob": (12, "single-peaked maxima, contour algorithm, and patchwork agree", _verify_qob),
    "mainb": (4, "bisymmetry + monotonicity + neutral element = discrete uninorm",
              _scan(_check_mainb, "nondecreasing-neutral")),
    "corollary-mainb": (4, "adding idempotency or conservativeness yields the idempotent ones",
                        _scan(_check_corollary_mainb, "nondecreasing-neutral")),
    "bis-a": (5, "bisymmetric with neutral element implies associative and symmetric",
              _scan(_check_bis_a, "full", above3="sampled-neutral")),
    "bis-b": (5, "associative and symmetric implies bisymmetric",
              _scan(_check_bis_b, "full", above3="sampled-symmetric")),
    "bis-c": (4, "bisymmetric and conservative implies associative",
              _scan(_check_bis_c, "full", above3="conservative")),
    "idis": (3, "isolated points of idempotent operations lie on the diagonal",
             _scan(_check_idis, "idempotent")),
    "ee": (4, "for conservative operations, neutral = unique isolated diagonal point",
           _scan(_check_ee, "conservative")),
    "tcons": (3, "conservativeness = idempotency + diagonal-connected contour",
              _scan(_check_tcons, "full")),
    "te3": (3, "neutral elements = identity sections crossing on the diagonal",
            _scan(_check_te3, "full")),
    "testca": (4, "rectangle test decides associativity of conservative operations",
               _scan(_check_testca, "conservative")),
    "rec8n": (10, "there are n(n-1)(n-2) test rectangles, C(n,3) up to symmetry", _verify_rec8n),
    "prel34": (4, "idempotent nondecreasing with neutral e: min below e, max above",
               _scan(_check_prel34, "nondecreasing-neutral")),
    "consj": (3, "conservativeness = closure under every subset", _scan(_check_consj, "full")),
    "open-questions": (5, "empirical probes, no assertion made", _verify_open_questions),
}


def theorem_names() -> list[str]:
    return sorted(_CATALOG)


def theorem_bound(name: str) -> int:
    if name not in _CATALOG:
        raise ValueError(f"unknown claim {name!r}; known: {', '.join(theorem_names())}")
    return _CATALOG[name][0]


def verify_theorem(name: str, n: int, seed: int = 0, jobs: int = 1) -> dict:
    """Exhaustively (or by fixed-seed sampling, where documented) check one
    named claim at chain size n and report candidates checked plus any
    counterexamples. The report is deterministic for fixed (name, n, seed),
    regardless of the number of workers."""
    key = name.lower()
    cap = theorem_bound(key)
    if n < 1:
        raise ValueError("n must be positive")
    if n > cap:
        raise ValueError(f"claim {key!r} is only checkable up to n = {cap}")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    _, summary, runner = _CATALOG[key]
    start = time.perf_counter()
    report = runner(key, n, seed, jobs)
    report["summary"] = summary
    report["runtime_seconds"] = time.perf_counter() - start
    return report


def probe_open_questions(n: int, seed: int = 0, jobs: int = 1) -> dict:
    """Gather empirical evidence on the open enumeration and implication
    questions. Findings are reported as data; nothing is asserted.

    * counts of conservative / conservative+associative tables, from a scan
      of every conservative table, and of conservative+symmetric /
      conservative+symmetric+associative tables, from a scan of the
      symmetric conservative space alone (exact, exhaustive);
    * a search for symmetric bisymmetric tables lacking associativity or a
      neutral element (exhaustive up to n = 3, fixed-seed sampling above).
    """
    _feasible(n, 5, "conservative operations", "2^(n^2-n)")
    cons = _sweep(_check_probe_a, "conservative", n, jobs=jobs)
    sym = _sweep(_check_probe_a, "conservative-symmetric", n, jobs=jobs)
    mode_c = "exhaustive" if n <= 3 else "sampled"
    part_c = _sweep(_check_probe_c, "symmetric" if n <= 3 else "sampled-symmetrized",
                    n, seed, jobs)
    return {
        "n": n,
        "a": {
            "conservative": cons["checked"],
            "conservative_associative": cons["stats"].get("associative", 0),
            "conservative_symmetric": sym["checked"],
            "conservative_symmetric_associative": sym["stats"].get("associative", 0),
        },
        "b": "no graphical bisymmetry test is known for non-symmetric "
             "conservative operations; the symmetric case reduces to the "
             "rectangle test",
        "c": {
            "mode": mode_c,
            "seed": seed if mode_c == "sampled" else None,
            "symmetric_tables_examined": part_c["checked"],
            "stats": part_c["stats"],
            "findings": [{"table": c["table"], "finding": c["reason"]}
                         for c in part_c["counterexamples"]],
            "note": "findings are empirical observations, not a theorem",
        },
    }
