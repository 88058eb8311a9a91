"""Per-layer figures: time per table or per call for each layer's public
functions, on fixed inputs that do not depend on the run's seed, so the
figures of two runs describe the same work.

Inputs:
* ``c5``: a uniform sample of ``conservative_space(5)``, where most checkers
  exit early (the odometer itself runs over consecutive indices);
* ``f3``: a uniform sample of ``full_space(3)``, mostly non-idempotent tables
  (the rectangle test, which needs conservative input, gets the 64
  conservative 3-tables);
* ``valid``: idempotent uninorms at n = 12, where every checker makes a full
  pass;
* the tables of the table-requests stream at seed 0.
"""
from __future__ import annotations

import io
import random
import resource
import statistics
import time
from contextlib import nullcontext, redirect_stdout
from itertools import islice

import uninorms as U
from uninorms import oracle
from uninorms.cli import main as cli_main

import table_requests

CHECKERS = (
    "is_associative", "is_associative_conservative_rect", "is_symmetric",
    "is_nondecreasing", "is_bisymmetric", "is_conservative",
    "is_conservative_via_contour", "find_neutral_element", "isolated_points",
)
_NEEDS_CONSERVATIVE = {"is_associative_conservative_rect"}
_INPUT_SEED = 1701


class Sizes:
    def __init__(self, smoke: bool = False) -> None:
        self.slice = 256 if smoke else 4096
        self.sample = 128 if smoke else 2048
        self.valid_n = 6 if smoke else 12
        self.valid_count = 4 if smoke else 32
        self.convert_count = 16 if smoke else 256
        self.generate_n = 6 if smoke else 12
        self.nondecreasing = (3, 13) if smoke else (4, 8192)  # n, tables
        self.requests = table_requests.SMOKE if smoke else {}
        self.cli_calls = 10 if smoke else 50
        self.reps = 1 if smoke else 3


def _median_seconds(fn, reps: int):
    """(median seconds of ``reps`` calls, result of the last call)."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times), result


def _sample(space, size: int, rng: random.Random) -> list:
    """``size`` distinct tables of the space drawn uniformly, in index order."""
    return [space.decode(i) for i in sorted(rng.sample(range(space.size), size))]


def measure(sizes: Sizes, tracer=None) -> dict[str, float]:
    """Every per-layer figure except the pool's; with a tracer, each figure's
    measurement is one span in the layer it measures."""
    rng = random.Random(_INPUT_SEED)
    out: dict[str, float] = {}

    def timed(metric: str, fn, per: int):
        layer = metric.split(".", 1)[0]
        ctx = tracer.span(metric, layer) if tracer is not None else nullcontext()
        with ctx:
            seconds, result = _median_seconds(fn, sizes.reps)
        out[metric] = seconds / per * 1e6
        return result

    # the odometer over a run of consecutive indices, as a scan chunk sees it
    c5_space = oracle.conservative_space(5)
    start = rng.randrange(0, c5_space.size - sizes.slice)
    stop = start + sizes.slice
    timed("oracle.space.us_per_table",
          lambda: [None for _ in c5_space.iter_range(start, stop)], sizes.slice)
    nd_n, nd_count = sizes.nondecreasing
    timed("oracle.enumerate_nondecreasing.us_per_table",
          lambda: [None for _ in islice(U.enumerate_nondecreasing(nd_n), nd_count)], nd_count)

    # wrap and checkers on uniform samples of the two scanned spaces
    c5_tables = _sample(c5_space, sizes.sample, rng)
    chain5 = U.FiniteChain(5)
    c5 = timed("core.wrap.us_per_table",
               lambda: [U.BinaryOperation(chain5, t) for t in c5_tables], len(c5_tables))
    chain3 = U.FiniteChain(3)
    f3 = [U.BinaryOperation(chain3, t) for t in _sample(oracle.full_space(3), sizes.sample, rng)]
    # few full 3-tables are conservative: checkers that need conservative
    # input get all 64 conservative 3-tables instead
    f3_conservative = [U.BinaryOperation(chain3, t) for t in oracle.conservative_space(3)]
    valid = rng.sample(list(U.generate_all_uninorms_gc(sizes.valid_n)), sizes.valid_count)

    for name in CHECKERS:
        fn = getattr(U, name)
        f3_ops = f3_conservative if name in _NEEDS_CONSERVATIVE else f3
        for label, ops in (("scan.c5", c5), ("scan.f3", f3_ops), ("valid", valid)):
            results = timed(f"properties.{name}.us_per_table.{label}",
                            lambda: [fn(op) for op in ops], len(ops))
            if label != "valid":
                out[f"properties.{name}.pass_count.{label}"] = sum(1 for r in results if r)

    # generate and single_peaked at the construction claims' size
    gn = sizes.generate_n
    total = 2 ** (gn - 1)
    ops12 = timed("generate.gc.us_per_op", lambda: list(U.generate_all_uninorms_gc(gn)), total)
    timed("generate.gspec.us_per_op",
          lambda: [U.uninorm_from_gspec(s) for s in U.enumerate_gspecs(gn)], total)
    timed("single_peaked.enumerate.us_per_order",
          lambda: list(U.enumerate_single_peaked(gn)), total)
    converts = rng.sample(ops12, sizes.convert_count)
    orders = timed("single_peaked.uninorm_to_order.us",
                   lambda: [U.uninorm_to_order(op) for op in converts], len(converts))
    timed("single_peaked.order_to_uninorm.us",
          lambda: [U.order_to_uninorm(o) for o in orders], len(orders))

    # core parsing and rendering, on the tables of the request stream
    tables = [t for _, t, _ in table_requests.build_tables(0, **sizes.requests)]
    texts = [table_requests.to_json(t) if i % 2 else table_requests.to_text(t)
             for i, t in enumerate(tables)]
    ops = timed("core.parse_table_auto.us",
                lambda: [U.parse_table_auto(s) for s in texts], len(texts))
    timed("core.format_table.us", lambda: [U.format_table(op) for op in ops], len(ops))
    timed("core.contour_partition.us", lambda: [U.contour_partition(op) for op in ops], len(ops))
    timed("render.contour_text.us", lambda: [U.render_contour_text(op) for op in ops], len(ops))
    timed("render.contour_dot.us", lambda: [U.render_contour_dot(op) for op in ops], len(ops))

    def cli_calls():
        with redirect_stdout(io.StringIO()):
            for _ in range(sizes.cli_calls):
                cli_main(["count", "--n", "3"])
    timed("cli.overhead.us", cli_calls, sizes.cli_calls)
    return out


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


POOL_CLAIMS = [("main", 6), ("te3", 3), ("consj", 3), ("tcons", 3), ("ee", 4)]
SMOKE_POOL_CLAIMS = [("main", 4), ("te3", 2), ("ee", 3)]


def measure_pool(jobs: int, smoke: bool = False, tracer=None) -> dict[str, float]:
    """Pool figures: CPU use of the workers over pool-backed scans, and the
    fixed cost of a pool measured on a scan too small to gain from one."""
    reps = 1 if smoke else 3
    ctx = tracer.span("oracle.pool", "oracle") if tracer is not None else nullcontext()
    with ctx:
        serial, _ = _median_seconds(lambda: U.verify_theorem("idis", 3, jobs=1), reps)
        pooled, _ = _median_seconds(lambda: U.verify_theorem("idis", 3, jobs=jobs), reps)
        cpu0, wall0 = _cpu_seconds(), time.perf_counter()
        for name, n in SMOKE_POOL_CLAIMS if smoke else POOL_CLAIMS:
            U.verify_theorem(name, n, jobs=jobs)
        wall = time.perf_counter() - wall0
        cpu = _cpu_seconds() - cpu0
    return {"oracle.pool.fixed_s": pooled - serial,
            "oracle.pool.cpu_utilization": cpu / (wall * jobs)}
