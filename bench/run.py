#!/usr/bin/env python3
"""Benchmark of the uninorms package: end-to-end figures per workload, and a
separate traced run for per-layer figures.

Run from the repository root:

    python3 bench/run.py --workload verify-claims --seed 1 --seconds 55 --trace 0
    python3 bench/run.py --workload table-requests --seed 1 --seconds 55 --trace 1
    python3 bench/run.py --workload all --seed 1
    python3 bench/run.py --smoke

Workloads: verify-claims (every catalog claim through ``verify_theorem``)
and table-requests (``check`` and ``render`` requests through ``cli.main``).
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones; ``--workload all`` runs both timed runs in turn, and ``--smoke`` runs every workload once
at tiny sizes plus one traced run. The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
A full record of the run, and the spans of a traced run, are written under
``.bench_out/``. See ``bench/NOTES.md`` for what each figure means.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from pathlib import Path

# The benchmark's own modules (claims, layers, table_requests, tracing)
# import the package, so they are imported inside functions, after main()
# has put src/ on the path.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

VERIFY_WORKLOADS = ("verify-claims",)
WORKLOADS = VERIFY_WORKLOADS + ("table-requests",)
LAYERS = ("client", "cli", "core", "oracle", "properties", "generate", "single_peaked", "render")
SETUP_SAMPLES = 11
FILTERED_CLAIMS = ("bis-c", "main3", "mainb", "corollary-mainb", "prel34", "bis-a", "bis-b")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "wall_s_parallel": "s",
    "examined_tables": "count",
    "examined_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "requests_per_s": "1/s",
    "peak_rss_mb": "MiB",
}


def per_layer_units() -> dict[str, str]:
    """Name and unit of every per-layer metric, in report order."""
    import claims
    import layers

    units = {
        "oracle.space.us_per_table": "us",
        "oracle.enumerate_nondecreasing.us_per_table": "us",
        "core.wrap.us_per_table": "us",
    }
    for name in layers.CHECKERS:
        for label in ("scan.c5", "scan.f3"):
            units[f"properties.{name}.us_per_table.{label}"] = "us"
            units[f"properties.{name}.pass_count.{label}"] = "count"
        units[f"properties.{name}.us_per_table.valid"] = "us"
    for name in ("generate.gc.us_per_op", "generate.gspec.us_per_op",
                 "single_peaked.enumerate.us_per_order", "single_peaked.uninorm_to_order.us",
                 "single_peaked.order_to_uninorm.us", "core.parse_table_auto.us",
                 "core.format_table.us", "core.contour_partition.us",
                 "render.contour_text.us", "render.contour_dot.us", "cli.overhead.us"):
        units[name] = "us"
    units["oracle.pool.fixed_s"] = "s"
    units["oracle.pool.cpu_utilization"] = "ratio"
    for workload in VERIFY_WORKLOADS:
        for name, _ in claims.WORKLOADS[workload]:
            units[f"oracle.claim.{name}.s"] = "s"
    for name in FILTERED_CLAIMS:
        units[f"oracle.hit_ratio.{name}"] = "ratio"
    for layer in LAYERS:
        units[f"trace.self_s.{layer}"] = "s"
    units["trace.overhead_s"] = "s"
    units["trace.spans"] = "count"
    return units


# ---------------------------------------------------------------------------
# facts and set-up time

def machine_facts(args) -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "uninorms").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return {
        "nproc": worker_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }


def worker_count() -> int:
    """The parallel worker count, as ``nproc`` reports it."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def rss_mb() -> float:
    """Peak resident set of this process plus its largest child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def fresh_import() -> float:
    """Wall time of a fresh interpreter that imports the package.

    The wait blocks in ``waitpid``: ``Popen.wait(timeout=...)`` polls every
    50 ms, which would round each time up to the next poll. A timer kills a
    child that hangs instead."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-c", "import uninorms"]
    start = time.perf_counter()
    child = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL)
    timer = threading.Timer(120, child.kill)
    timer.start()
    try:
        code = child.wait()
    finally:
        timer.cancel()
        timer.join()
    elapsed = time.perf_counter() - start
    if code != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with code {code}")
    return elapsed


# ---------------------------------------------------------------------------
# workloads: one pass at the serial and the parallel worker count

class VerifyWorkload:
    """A unit is one claim, called serially and at the parallel worker count."""

    def __init__(self, name: str, smoke: bool) -> None:
        import claims
        self.claims = (claims.SMOKE_WORKLOADS if smoke else claims.WORKLOADS)[name]

    def start(self, seed: int, jobs: int) -> None:
        pass

    def units(self, seed: int) -> list:
        import claims
        return claims.claim_order(self.claims, seed)

    def run_unit(self, unit, seed: int, jobs_list):
        import claims
        return claims.run_claim(*unit, seed, jobs_list)

    def run_pass(self, seed: int, jobs_list, tracer=None):
        import claims
        return claims.run_pass(self.claims, seed, jobs_list, tracer)

    def close(self) -> None:
        pass


class RequestWorkload:
    """A closed loop: serially one client in-process; in parallel, one client
    per worker process, each sending its share of the stream. The one unit is
    the whole stream."""

    def __init__(self, name: str, smoke: bool) -> None:
        import table_requests
        self.kwargs = table_requests.SMOKE if smoke else {}
        self.pool = None

    def start(self, seed: int, jobs: int) -> None:
        import table_requests
        self.stream = table_requests.build_stream(seed, **self.kwargs)
        self.tables = len(self.stream) // 3
        if jobs > 1:
            # fork, like the package's own pool: a spawn context would also
            # start multiprocessing's resource tracker, a process that
            # outlives the run
            self.pool = ProcessPoolExecutor(max_workers=jobs, mp_context=get_context("fork"),
                                            initializer=table_requests.client_init)
            warm = self.stream[:jobs * 8]
            for f in [self.pool.submit(table_requests.run_stream, warm[i::jobs])
                      for i in range(jobs)]:
                f.result()

    def units(self, seed: int) -> list:
        return ["stream"]

    def run_unit(self, unit, seed: int, jobs_list):
        return self.run_pass(seed, jobs_list)

    def run_pass(self, seed: int, jobs_list, tracer=None):
        import claims
        import table_requests
        out = claims.Pass(len(jobs_list))
        out.examined = self.tables
        for i, jobs in enumerate(jobs_list):
            start = time.perf_counter()
            if i == 0:
                out.latencies, wrong = table_requests.run_stream(self.stream, tracer)
            elif self.pool is None:
                _, wrong = table_requests.run_stream(self.stream)
            else:
                futures = [self.pool.submit(table_requests.run_stream, self.stream[k::jobs])
                           for k in range(jobs)]
                wrong = sum(f.result()[1] for f in futures)
            out.wall[i] = time.perf_counter() - start
            out.attempted += len(self.stream)
            out.failed += wrong
            if wrong:
                out.failures.append(f"{wrong} requests answered wrongly with {jobs} client(s)")
        return out

    def close(self) -> None:
        if self.pool is not None:
            self.pool.shutdown(wait=True)
            self.pool = None


def stop_children() -> None:
    """Wait for every child process of this run to end, the resource tracker
    of multiprocessing included if anything started one."""
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.join()
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def make_workload(name: str, smoke: bool):
    cls = RequestWorkload if name == "table-requests" else VerifyWorkload
    return cls(name, smoke)


# ---------------------------------------------------------------------------
# the timed run (end-to-end metrics)

def timed_run(name: str, seed: int, seconds: float, smoke: bool) -> dict:
    """Run every unit of the workload once (a claim, or the whole request
    stream), serially and at ``nproc`` workers. Then, until ``seconds`` are
    up, run again the unit with the fewest runs (the longest first) among
    those whose last run predicts that they still end in time. Times are
    medians per unit, so a short claim that runs more often weighs no more
    than a long one, and a burst of host noise moves a figure less than it
    would move a whole pass. Set-up time is sampled between units, one fresh
    import every ``seconds / SETUP_SAMPLES``, so its median too spans the
    whole run rather than the few seconds at its end."""
    jobs = worker_count()
    workload = make_workload(name, smoke)
    runs: dict = {}  # unit -> one Pass per run of it
    setups: list[float] = []
    try:
        workload.start(seed, jobs)
        fresh_import()  # may write bytecode caches
        deadline = time.perf_counter() + seconds
        next_setup = 0.0
        units = workload.units(seed)
        todo = list(units)
        while True:
            if time.perf_counter() >= next_setup:
                setups.append(fresh_import())
                next_setup = time.perf_counter() + seconds / SETUP_SAMPLES
            if todo:
                unit = todo.pop(0)
            else:
                fits = [u for u in units
                        if time.perf_counter() + sum(runs[u][-1].wall) <= deadline]
                if smoke or not fits:
                    break
                unit = min(fits, key=lambda u: (len(runs[u]), -sum(runs[u][-1].wall)))
            runs.setdefault(unit, []).append(workload.run_unit(unit, seed, [1, jobs]))
    finally:
        workload.close()
    rss = rss_mb()
    while len(setups) < (1 if smoke else SETUP_SAMPLES):
        setups.append(fresh_import())
    setup = statistics.median(setups)

    serial = {u: statistics.median(p.wall[0] for p in ps) for u, ps in runs.items()}
    wall = sum(serial.values())
    every = [p for ps in runs.values() for p in ps]
    samples = [x for p in every for x in p.latencies]
    operations = sum(len(ps[0].latencies) for ps in runs.values())
    if name == "table-requests":
        # 1,500 requests a pass leave 15 beyond its p99; the median over
        # passes keeps one burst of host noise from setting the figure
        p50 = statistics.median(samples)
        p99 = statistics.median(_p99(p.latencies) for p in every)
    else:
        # one call per claim is too few for a p99: take each claim's median,
        # so the p99 is in effect the slowest claim. Each claim runs only two
        # or three times, at moments whose host speed differs by 20% or more,
        # so the p50 is a Harrell-Davis estimate: it weighs the claims around
        # the middle rank instead of resting on the one claim that ranks there
        p50 = _harrell_davis_median(list(serial.values()))
        p99 = _p99(list(serial.values()))
    examined = sum(ps[0].examined for ps in runs.values())
    attempted = sum(p.attempted for p in every)
    failed = sum(p.failed for p in every)
    failures = [f for p in every for f in p.failures]
    if any(p.examined != ps[0].examined for ps in runs.values() for p in ps):
        failed += 1
        failures.append("examined count differs between runs of a unit")
    metrics = {
        "setup_s": setup,
        "wall_s": wall,
        "wall_s_parallel": sum(statistics.median(p.wall[1] for p in ps) for ps in runs.values()),
        "examined_tables": examined,
        "examined_per_s": examined / wall,
        "latency_p50_ms": p50 * 1e3,
        "latency_p99_ms": p99 * 1e3,
        "requests_per_s": operations / wall,
        "peak_rss_mb": rss,
    }
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "details": {
            "runs_per_unit": {str(u[0] if isinstance(u, tuple) else u): len(ps)
                              for u, ps in runs.items()},
            "jobs": jobs,
            "latency_samples": len(samples),
            "setup_samples": len(setups),
            "failed_share": failed / attempted,
            "failures": failures[:50],
            "unit_seconds": {str(u[0] if isinstance(u, tuple) else u): v
                             for u, v in serial.items()},
        },
    }


def _harrell_davis_median(values: list[float]) -> float:
    """Harrell and Davis's median estimate: the order statistics weighted by
    the mass that Beta((n+1)/2, (n+1)/2) puts on ((i-1)/n, i/n]."""
    xs = sorted(values)
    n = len(xs)
    a = (n + 1) / 2
    log_norm = 2 * math.lgamma(a) - math.lgamma(2 * a)
    steps = 64  # midpoint rule on each of the n intervals

    def density(t: float) -> float:
        return math.exp((a - 1) * (math.log(t) + math.log1p(-t)) - log_norm)

    weights = [sum(density((i + (j + 0.5) / steps) / n) for j in range(steps)) / (steps * n)
               for i in range(n)]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def _p99(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[98]


# ---------------------------------------------------------------------------
# the traced run (per-layer metrics)

def _construction_targets():
    from uninorms import oracle
    return [
        (oracle, "generate_all_uninorms_gc", "generate", True),
        (oracle, "enumerate_gspecs", "generate", True),
        (oracle, "uninorm_from_gspec", "generate", False),
        (oracle, "gspec_collision_report", "generate", False),
        (oracle, "enumerate_single_peaked", "single_peaked", True),
        (oracle, "order_to_uninorm", "single_peaked", False),
        (oracle, "uninorm_to_order", "single_peaked", False),
        (oracle, "find_neutral_conservative", "properties", False),
    ]


def _request_targets():
    from uninorms import cli, oracle, properties, render
    targets = [
        (cli, "parse_table_auto", "core", False),
        (cli, "profile", "oracle", False),
        (cli, "render_contour_text", "render", False),
        (cli, "render_contour_dot", "render", False),
        (properties, "contour_partition", "core", False),
        (render, "contour_partition", "core", False),
    ]
    for name in ("is_idempotent", "is_conservative", "is_symmetric", "is_nondecreasing",
                 "is_associative", "is_bisymmetric", "find_neutral_element", "isolated_points"):
        targets.append((oracle, name, "properties", False))
    return targets


def traced_run(name: str, seed: int, smoke: bool) -> dict:
    """Spans around every claim of the three verify workloads and every
    request of the stream, with wrappers on the layer functions those call
    per generated object; then the per-layer figures and the pool figures.
    The named workload also runs once untraced, for the tracing overhead.
    Scans call checkers per table millions of times, so their per-table cost
    comes from the layer figures, not from spans."""
    import layers
    from tracing import Tracer

    jobs = worker_count()
    tracer = Tracer()
    traced = {}
    attempted = failed = 0
    failures: list[str] = []
    claim_stats = {}
    with tracer.patched(_construction_targets()):
        for workload in VERIFY_WORKLOADS:
            p = make_workload(workload, smoke).run_pass(seed, [1], tracer)
            traced[workload] = p.wall[0]
            claim_stats.update(p.claims)
            attempted, failed = attempted + p.attempted, failed + p.failed
            failures += p.failures
    requests = make_workload("table-requests", smoke)
    requests.start(seed, 1)
    with tracer.patched(_request_targets()):
        p = requests.run_pass(seed, [1], tracer)
    traced["table-requests"] = sum(p.latencies)
    attempted, failed = attempted + p.attempted, failed + p.failed
    failures += p.failures

    plain = make_workload(name, smoke)
    plain.start(seed, 1)
    p = plain.run_pass(seed, [1])
    untraced = sum(p.latencies) if name == "table-requests" else p.wall[0]
    attempted, failed = attempted + p.attempted, failed + p.failed
    failures += p.failures

    metrics = layers.measure(layers.Sizes(smoke), tracer)
    metrics.update(layers.measure_pool(jobs, smoke, tracer))
    for claim, (secs, examined, candidates) in claim_stats.items():
        metrics[f"oracle.claim.{claim}.s"] = secs
        if claim in FILTERED_CLAIMS:
            metrics[f"oracle.hit_ratio.{claim}"] = examined / candidates
    self_times = tracer.self_times()
    for layer in LAYERS:
        metrics[f"trace.self_s.{layer}"] = self_times.get(layer, 0.0)
    metrics["trace.overhead_s"] = traced[name] - untraced
    metrics["trace.spans"] = len(tracer.spans)

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{name}-seed{seed}{'-smoke' if smoke else ''}.jsonl"
    tracer.write(spans_path)
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "details": {
            "jobs": jobs,
            "spans_file": str(spans_path.relative_to(ROOT)),
            "traced_wall_s": traced,
            "untraced_wall_s": untraced,
            "failed_share": failed / attempted,
            "failures": failures[:50],
        },
    }


# ---------------------------------------------------------------------------

def run_one(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    result = traced_run(workload, seed, smoke) if trace else timed_run(workload, seed, seconds, smoke)
    units = per_layer_units() if trace else END_TO_END_UNITS
    missing = set(units) ^ set(result["metrics"])
    if missing:
        raise RuntimeError(f"metrics out of step with their declaration: {sorted(missing)}")
    return result


def emit(result: dict, units: dict, facts: dict, label: str) -> dict:
    """Print the summary lines and write the record; return the result line."""
    metrics = result["metrics"]
    for key, unit in units.items():
        print(f"{key}: {metrics[key]!r} {unit}")
    d = result["details"]
    print(f"attempted: {result['attempted']}  failed: {result['failed']}  "
          f"failed_share: {d['failed_share']!r}")
    if "runs_per_unit" in d:
        print(f"latency samples: {d['latency_samples']}  set-up samples: "
              f"{d['setup_samples']}  runs per unit: " + json.dumps(d["runs_per_unit"]))
    for line in d["failures"]:
        print(f"FAILED {line}")
    print("facts: " + json.dumps(facts, sort_keys=True))
    OUT.mkdir(exist_ok=True)
    record = {"facts": facts, "units": units, **result}
    (OUT / f"{label}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }


def run_all(facts: dict, seed: int, seconds: float, smoke: bool) -> dict:
    """The timed run of every workload in turn; with ``smoke``, at tiny sizes
    and followed by one traced run. Metrics are named ``<workload>.<metric>``."""
    attempted = failed = 0
    metrics = {}
    for workload in WORKLOADS:
        print(f"== {workload}")
        result = run_one(workload, seed, seconds, False, smoke)
        label = f"{'smoke' if smoke else 'all'}-{workload}-seed{seed}"
        out = emit(result, END_TO_END_UNITS, facts, label)
        attempted, failed = attempted + out["attempted"], failed + out["failed"]
        metrics.update({f"{workload}.{k}": v for k, v in out["metrics"].items()})
    if smoke:
        print("== traced")
        result = run_one("table-requests", seed, seconds, True, True)
        out = emit(result, per_layer_units(), facts, f"smoke-trace-seed{seed}")
        attempted, failed = attempted + out["attempted"], failed + out["failed"]
        metrics["trace.spans"] = out["metrics"]["trace.spans"]
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def _terminate(signum, frame):
    # KeyboardInterrupt passes the per-request handlers, which catch
    # Exception and SystemExit, so a terminated run still shuts its pools
    # down and waits for its children on the way out
    raise KeyboardInterrupt


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all",
                        help="one workload, or all of them in turn (timed runs only)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload once at tiny sizes")
    args = parser.parse_args(argv)

    package = SRC / "uninorms" / "__init__.py"
    if not package.is_file():
        print(f"error: package source not found at {package.relative_to(ROOT)}; "
              "run from a full checkout", file=sys.stderr)
        return 2
    for path in (str(Path(__file__).resolve().parent), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import uninorms
    if Path(uninorms.__file__).resolve() != package.resolve():
        print(f"error: imported uninorms from {uninorms.__file__}, not {package}",
              file=sys.stderr)
        return 2

    signal.signal(signal.SIGTERM, _terminate)
    facts = machine_facts(args)
    try:
        if args.smoke or args.workload == "all":
            line = run_all(facts, args.seed, args.seconds, args.smoke)
        else:
            result = run_one(args.workload, args.seed, args.seconds, bool(args.trace), False)
            units = per_layer_units() if args.trace else END_TO_END_UNITS
            label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
            line = emit(result, units, facts, label)
    finally:
        stop_children()
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
