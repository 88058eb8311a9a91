"""The verify workload: which claims run at which chain size, how many
tables each report examined, and the counts every report must match.

A claim call runs ``verify_theorem`` at ``jobs=1`` and again at the parallel
worker count, checks the report against its pinned counts, and checks that
both reports are equal apart from ``runtime_seconds``. A pass calls every
claim once.
"""
from __future__ import annotations

import random
import time
from math import comb, factorial

from uninorms import verify_theorem

# Every catalog claim at its bound, in three groups: whole-space odometer
# scans, claims with narrow hypotheses (backtracking enumeration and the
# sampler), and constructions (generate and single_peaked, no table space,
# no pool). One workload runs them all, so each run averages the host's
# speed over more time than a run per group could.
WORKLOADS = {
    "verify-claims": [
        ("open-questions", 5), ("testca", 4), ("ee", 4), ("bis-c", 4), ("main", 6),
        ("main3", 5), ("tcons", 3), ("te3", 3), ("consj", 3), ("idis", 3),
        ("mainb", 4), ("corollary-mainb", 4), ("prel34", 4), ("bis-a", 5), ("bis-b", 5),
        ("qob", 12), ("gc", 12), ("main2n", 12), ("rec8n", 10),
    ],
}

# the same claims at sizes that run in well under a second each
SMOKE_WORKLOADS = {
    "verify-claims": [
        ("open-questions", 3), ("testca", 3), ("ee", 3), ("bis-c", 3), ("main", 4),
        ("main3", 4), ("tcons", 2), ("te3", 2), ("consj", 2), ("idis", 3),
        ("mainb", 3), ("corollary-mainb", 3), ("prel34", 3), ("bis-a", 4), ("bis-b", 4),
        ("qob", 6), ("gc", 6), ("main2n", 6), ("rec8n", 5),
    ],
}

# nondecreasing tables with a neutral element, and the idempotent ones among
# them, counted by exhaustive enumeration
_NONDECREASING_NEUTRAL = {3: 13, 4: 346}
_PREL34_CANDIDATES = {3: 11, 4: 164}


def quasitrivial_count(n: int) -> int:
    """Conservative associative tables on n elements (Devillet, Marichal and
    Teheux): ordinal sums of projection semigroups over a weak order, i.e.
    ordered set partitions weighted by 2 for every block of size >= 2."""
    a = [1]
    for m in range(1, n + 1):
        a.append(sum(comb(m, j) * (1 if j == 1 else 2) * a[m - j] for j in range(1, m + 1)))
    return a[n]


def examined(report: dict) -> int:
    """Tables that met the claim's hypotheses. Implication claims count the
    tables meeting the antecedent; claims whose scanned space is the
    hypothesis class (equivalences, constructions, probes) count every
    candidate."""
    name = report["theorem"]
    stats = report.get("stats", {})
    if name in ("bis-a", "bis-b", "bis-c"):
        return stats.get("antecedent", 0)
    if name in ("main3", "prel34"):
        return stats.get("candidate", 0)
    if name in ("mainb", "corollary-mainb"):
        if "sweep_stats" in report:
            return (report["sweep_stats"].get("candidate", 0)
                    + report["sampled_stats"].get("candidate", 0))
        return stats.get("candidate", 0)
    return report["candidates"]


def pinned(report: dict) -> list[tuple[str, object, object]]:
    """(what, got, expected) for every count the claim's report is pinned to."""
    name, n = report["theorem"], report["n"]
    stats = report.get("stats", {})
    out = []
    if name == "open-questions":
        a = report["probe"]["a"]
        out += [
            ("conservative", a["conservative"], 2 ** (n * n - n)),
            ("conservative_associative", a["conservative_associative"], quasitrivial_count(n)),
            ("conservative_symmetric", a["conservative_symmetric"], 2 ** comb(n, 2)),
            ("conservative_symmetric_associative",
             a["conservative_symmetric_associative"], factorial(n)),
        ]
    elif name == "main":
        out += [("brute_force_count", report["brute_force_count"], 2 ** (n - 1)),
                ("generated_count", report["generated_count"], 2 ** (n - 1))]
    elif name == "main2n":
        out += [("distinct", report["distinct"], 2 ** (n - 1))]
    elif name == "main3":
        out += [("candidate", stats.get("candidate", 0), 2 ** (n - 1))]
    elif name in ("mainb", "corollary-mainb"):
        sweep = report.get("sweep_stats", stats)
        if n in _NONDECREASING_NEUTRAL:
            out += [("candidate", sweep.get("candidate", 0), _NONDECREASING_NEUTRAL[n])]
        if name == "corollary-mainb":
            out += [("idempotent_uninorms", sweep.get("idempotent_uninorms", 0), 2 ** (n - 1))]
        else:
            out += [("bisymmetric_side", sweep.get("bisymmetric_side", 0),
                     sweep.get("uninorm_side", 0))]
    elif name == "prel34" and n in _PREL34_CANDIDATES:
        out += [("candidate", stats.get("candidate", 0), _PREL34_CANDIDATES[n])]
    elif name == "testca":
        out += [("associative", stats.get("associative", 0), quasitrivial_count(n))]
    elif name == "ee":
        # neutral e fixes row and column e; the other cells pick one of two
        out += [("has_neutral", stats.get("has_neutral", 0), n * 2 ** ((n - 1) * (n - 2)))]
    elif name == "te3":
        out += [("has_neutral", stats.get("has_neutral", 0), n * n ** ((n - 1) ** 2))]
    elif name in ("tcons", "consj"):
        out += [("conservative", stats.get("conservative", 0), 2 ** (n * n - n))]
    elif name == "idis":
        out += [("candidates", report["candidates"], n ** (n * n - n))]
    elif name == "gc":
        out += [("by_neutral", report["by_neutral"],
                 {str(e): comb(n - 1, e - 1) for e in range(1, n + 1)})]
    elif name == "qob":
        out += [(key, report[key], 2 ** (n - 1))
                for key in ("orders", "distinct_operations", "gspec_image")]
    elif name == "rec8n":
        out += [("candidates", report["candidates"], n * (n - 1) * (n - 2)),
                ("symmetric_expected", report["symmetric_expected"], comb(n, 3))]
    return out


def _strip(report: dict) -> dict:
    return {k: v for k, v in report.items() if k != "runtime_seconds"}


class Pass:
    """One or more claim calls or requests, serially and at each further
    worker count."""

    def __init__(self, runs: int) -> None:
        self.wall = [0.0] * runs  # seconds per entry of jobs_list
        self.latencies = []       # seconds per operation, serial run
        self.claims = {}          # claim -> (seconds, examined, candidates), serial run
        self.examined = 0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def add(self, other: "Pass") -> None:
        self.wall = [a + b for a, b in zip(self.wall, other.wall)]
        self.latencies += other.latencies
        self.claims.update(other.claims)
        self.examined += other.examined
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures += other.failures


def claim_order(claims, seed: int) -> list:
    """The claims in the order the seed shuffles them into."""
    order = list(claims)
    random.Random(seed).shuffle(order)
    return order


def run_claim(name: str, n: int, seed: int, jobs_list, tracer=None) -> Pass:
    """Call the claim once per entry of ``jobs_list``; the first entry is the
    serial run whose report is checked and counted, the others must repeat
    it."""
    out = Pass(len(jobs_list))
    reports, seconds = [], []
    for i, jobs in enumerate(jobs_list):
        out.attempted += 1
        start = time.perf_counter()
        try:
            if tracer is None:
                report = verify_theorem(name, n, seed=seed, jobs=jobs)
            else:
                with tracer.trace(f"{name}:{n}:jobs{jobs}"), \
                        tracer.span(f"oracle.claim.{name}", "oracle"):
                    report = verify_theorem(name, n, seed=seed, jobs=jobs)
        except Exception as exc:  # a crash is a failed operation, not the end of the run
            report = None
            out.failed += 1
            out.failures.append(f"{name} n={n} jobs={jobs}: {type(exc).__name__}: {exc}")
        seconds.append(time.perf_counter() - start)
        out.wall[i] += seconds[-1]
        reports.append(report)
    base = reports[0]
    if base is None:
        return out
    out.latencies.append(seconds[0])
    out.claims[name] = (seconds[0], examined(base), base["candidates"])
    out.examined += examined(base)
    bad = [] if base["ok"] else ["report not ok"]
    bad += [f"{what} = {got}, expected {want}"
            for what, got, want in pinned(base) if got != want]
    if bad:
        out.failed += 1
        out.failures.append(f"{name} n={n}: " + "; ".join(bad))
    for jobs, report in zip(jobs_list[1:], reports[1:]):
        if report is not None and _strip(report) != _strip(base):
            out.failed += 1
            out.failures.append(f"{name} n={n}: report at jobs={jobs} differs from jobs={jobs_list[0]}")
    return out


def run_pass(claims, seed: int, jobs_list, tracer=None) -> Pass:
    """Every claim once, in the seed's order (see ``run_claim``)."""
    out = Pass(len(jobs_list))
    for name, n in claim_order(claims, seed):
        out.add(run_claim(name, n, seed, jobs_list, tracer))
    return out
