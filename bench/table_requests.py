"""The table-requests workload: a seeded stream of ``check`` and ``render``
requests sent to ``cli.main`` in-process, one request at a time.

Every request carries the answer it must produce. Uninorms are built here
from single-peaked orderings, so their profile is known from the
construction; fixtures and random tables get theirs from the definitional
reference below, which shares no code with the package.
"""
from __future__ import annotations

import io
import json
import random
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

AXIOMS = ("idempotent", "conservative", "symmetric", "nondecreasing", "associative", "bisymmetric")
PROPERTIES = ",".join(AXIOMS + ("has-neutral",))
MID_N = 9
TABLES = 500          # 2^(MID_N-1) uninorms, the fixtures, random tables for the rest
SMOKE = {"mid_n": 4, "total": 40}


# ---------------------------------------------------------------------------
# inputs with known answers

def single_peaked_orders(n: int) -> list[tuple[int, ...]]:
    """All 2^(n-1) single-peaked orderings, lowest-ranked first: grow an
    interval around the first element, one step left or right at a time."""
    out = []
    for e in range(1, n + 1):
        def grow(lo, hi, seq):
            if lo == 1 and hi == n:
                out.append(tuple(seq))
                return
            if lo > 1:
                grow(lo - 1, hi, seq + [lo - 1])
            if hi < n:
                grow(lo, hi + 1, seq + [hi + 1])
        grow(e, e, [e])
    return out


def uninorm_table(seq: tuple[int, ...]) -> np.ndarray:
    """F(x, y) = the higher-ranked of x and y; T[x-1, y-1] = F(x, y)."""
    rank = np.empty(len(seq), dtype=np.int64)
    for r, v in enumerate(seq):
        rank[v - 1] = r
    x = np.arange(1, len(seq) + 1)
    return np.where(rank[:, None] >= rank[None, :], x[:, None], x[None, :])


def reference_profile(t: np.ndarray) -> dict:
    """Every property by its definition, vectorised over all argument tuples."""
    n = len(t)
    f = t - 1
    ids = np.arange(n)
    neutral = None
    for e in range(n):
        if (f[e, :] == ids).all() and (f[:, e] == ids).all():
            neutral = e + 1
            break
    values, counts = np.unique(f, return_counts=True)
    isolated = []
    for v, c in zip(values, counts):  # ascending value, as the level sets are listed
        if c == 1:
            x, y = np.argwhere(f == v)[0]
            isolated.append([int(x) + 1, int(y) + 1])
    return {
        "idempotent": bool((f[ids, ids] == ids).all()),
        "conservative": bool(((f == ids[:, None]) | (f == ids[None, :])).all()),
        "symmetric": bool((f == f.T).all()),
        "nondecreasing": bool((np.diff(f, axis=0) >= 0).all() and (np.diff(f, axis=1) >= 0).all()),
        "associative": bool((f[f] == f[ids[:, None, None], f[None, :, :]]).all()),
        "bisymmetric": bool((f[f[:, :, None, None], f[None, None, :, :]]
                             == f[f[:, None, :, None], f[None, :, None, :]]).all()),
        "neutral": neutral,
        "isolated": isolated,
        "n": n,
    }


def _cells(t: np.ndarray, isolated) -> dict:
    marks = {tuple(p) for p in isolated}
    n = len(t)
    return {(x, y): str(t[x - 1, y - 1]) + ("*" if (x, y) in marks else "")
            for x in range(1, n + 1) for y in range(1, n + 1)}


def reference_text(t: np.ndarray, isolated) -> str:
    n = len(t)
    cells = _cells(t, isolated)
    width = max(len(c) for c in cells.values())
    lines = [" ".join(cells[(x, y)].rjust(width) for x in range(1, n + 1))
             for y in range(n, 0, -1)]
    return "\n".join(lines) + "\n"


def reference_dot(t: np.ndarray) -> str:
    n = len(t)
    lines = ["graph contour {", "  node [shape=circle];"]
    classes = []
    for v in sorted({int(a) for a in t.flat}):
        cls = [(x, y) for x in range(1, n + 1) for y in range(1, n + 1) if t[x - 1, y - 1] == v]
        classes.append(cls)
        lines += [f'  "p{x}_{y}" [label="{v}", pos="{x},{y}!"];' for x, y in cls]
    for cls in classes:
        lines += [f'  "p{a}_{b}" -- "p{c}_{d}";' for (a, b), (c, d) in zip(cls, cls[1:])]
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_text(t: np.ndarray) -> str:
    n = len(t)
    rows = [" ".join(str(t[x, y]) for x in range(n)) for y in range(n)]
    return f"{n}\n" + "\n".join(rows) + "\n"


def to_json(t: np.ndarray) -> str:
    n = len(t)
    return json.dumps({"n": n, "table": [[int(t[x, y]) for x in range(n)] for y in range(n)]})


def build_tables(seed: int, mid_n: int = MID_N, total: int = TABLES) -> list[tuple[str, np.ndarray, dict]]:
    """(kind, table, expected profile) for every table of the stream."""
    from uninorms import fixture, fixture_names

    tables = []
    for seq in single_peaked_orders(mid_n):
        e = seq[0]
        known = {p: True for p in AXIOMS}
        known.update(neutral=e, isolated=[[e, e]], n=mid_n)
        tables.append(("uninorm", uninorm_table(seq), known))
    for name in fixture_names():
        t = np.array(fixture(name).table, dtype=np.int64)
        tables.append(("fixture", t, reference_profile(t)))
    rng = np.random.default_rng(seed)
    while len(tables) < total:
        n = int(rng.integers(4, 11))
        t = rng.integers(1, n + 1, size=(n, n))
        tables.append(("random", t, reference_profile(t)))
    return tables


def build_stream(seed: int, mid_n: int = MID_N, total: int = TABLES) -> list[tuple]:
    """Requests ``(argv, stdin, expected exit code, expected stdout)``, three
    per table (check with every property, text and DOT render), shuffled."""
    rng = random.Random(seed)
    stream = []
    for kind, t, prof in build_tables(seed, mid_n, total):
        if kind == "uninorm" and reference_profile(t) != prof:
            raise RuntimeError("reference checker disagrees with the uninorm construction")
        text = to_json(t) if rng.random() < 0.5 else to_text(t)
        holds = all(prof[p] for p in AXIOMS) and prof["neutral"] is not None
        code = 0 if holds else 1
        stream.append((["check", "-", "--properties", PROPERTIES], text, code, prof))
        stream.append((["render", "-", "--style", "text"], text, 0,
                       reference_text(t, prof["isolated"])))
        stream.append((["render", "-", "--style", "dot"], text, 0, reference_dot(t)))
    rng.shuffle(stream)
    return stream


# ---------------------------------------------------------------------------
# the client

def send(main, request) -> tuple[float, bool]:
    """Run one request through ``main``; (seconds, output correct)."""
    argv, stdin, want_code, want_out = request
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = main(argv)
            except (Exception, SystemExit):
                code = None
            elapsed = time.perf_counter() - start
    finally:
        sys.stdin = saved
    got = out.getvalue()
    if isinstance(want_out, dict):
        try:
            ok = json.loads(got) == want_out
        except json.JSONDecodeError:
            ok = False
    else:
        ok = got == want_out
    return elapsed, ok and code == want_code


def run_stream(stream, tracer=None) -> tuple[list[float], int]:
    """Closed loop, one client: (latency of every request, failed requests).
    With a tracer, each request is a trace of its own."""
    from uninorms.cli import main

    if tracer is not None:
        main = tracer.wrap(main, "cli.main", "cli")
    latencies = []
    failed = 0
    for i, request in enumerate(stream):
        if tracer is None:
            elapsed, ok = send(main, request)
        else:
            with tracer.trace(f"request:{i}"), tracer.span("request", "client"):
                elapsed, ok = send(main, request)
        latencies.append(elapsed)
        failed += not ok
    return latencies, failed


def client_init() -> None:
    """Worker initializer: import the CLI before the timed region."""
    import uninorms.cli  # noqa: F401
