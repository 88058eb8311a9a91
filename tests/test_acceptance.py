"""Acceptance suite: every exit criterion, one test each, with its stated
size range and time budget. Run with ``pytest -s tests/test_acceptance.py``
to see one line per criterion.
"""
import time
from itertools import permutations

from uninorms import (
    FiniteChain,
    LinearOrder,
    count_uninorms_by_neutral,
    enumerate_gspecs,
    enumerate_single_peaked,
    find_neutral_conservative,
    fixture,
    generate_all_uninorms_gc,
    is_single_peaked,
    order_to_uninorm,
    parse_table,
    profile,
    uninorm_from_gspec,
    uninorm_to_order,
    verify_theorem,
)
from uninorms.cli import main

from golden_profiles import FIELDS, GOLDEN


def report(num, desc, ok):
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def cli_stdout(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_criterion_01_counting(capsys):
    start = time.perf_counter()
    ok = True
    for k in range(1, 13):
        code, out = cli_stdout(capsys, "enumerate", "uninorms", "--n", str(k))
        blocks = [b for b in out.split("\n\n") if b.strip()]
        tables = {parse_table(b).table for b in blocks}
        ok = ok and code == 0 and len(blocks) == len(tables) == 2 ** (k - 1)
    elapsed = time.perf_counter() - start
    report(1, f"enumerate yields 2^(k-1) distinct tables, k=1..12 "
              f"({elapsed:.2f}s < 5s)", ok and elapsed < 5)


def test_criterion_02_exhaustive_converse():
    start = time.perf_counter()
    ok = True
    for n in range(1, 7):
        r = verify_theorem("main", n)
        ok = ok and r["ok"] and r["brute_force_count"] == r["generated_count"]
    elapsed = time.perf_counter() - start
    report(2, f"the searched axiom tables equal the generated set, n<=6 "
              f"({elapsed:.2f}s < 30s)", ok and elapsed < 30)


def test_criterion_03_triple_construction_equivalence():
    start = time.perf_counter()
    ok = True
    for n in range(1, 9):
        gc = {op.table for op in generate_all_uninorms_gc(n)}
        orders = {order_to_uninorm(o).table for o in enumerate_single_peaked(n)}
        patchwork = {uninorm_from_gspec(s).table for s in enumerate_gspecs(n)}
        ok = ok and gc == orders == patchwork
    elapsed = time.perf_counter() - start
    report(3, f"contour algorithm = order maxima = patchwork image, n<=8 "
              f"({elapsed:.2f}s < 60s)", ok and elapsed < 60)


def test_criterion_04_per_neutral_counts():
    ok = True
    for n in range(1, 13):
        groups = {}
        for op in generate_all_uninorms_gc(n):
            e = find_neutral_conservative(op)
            groups[e] = groups.get(e, 0) + 1
        expected = {e: count_uninorms_by_neutral(n, e) for e in range(1, n + 1)
                    if count_uninorms_by_neutral(n, e)}
        ok = ok and groups == expected
    report(4, "per-neutral-element counts match C(n-1, e-1), n<=12", ok)


def test_criterion_05_single_peaked_oracle():
    ok = True
    for n in range(1, 9):
        chain = FiniteChain(n)
        incremental = sorted(o.seq for o in enumerate_single_peaked(n))
        brute = sorted(seq for seq in permutations(range(1, n + 1))
                       if is_single_peaked(LinearOrder(chain, seq)))
        ok = ok and incremental == brute
        ok = ok and len(incremental) == 2 ** (n - 1)
        ok = ok and all(seq[-1] in (1, n) for seq in incremental)
    report(5, "incremental enumeration = n!-filter; count 2^(n-1); "
              "last element is an endpoint, n<=8", ok)


def test_criterion_06_rectangle_test():
    ok = True
    for n in (3, 4):
        r = verify_theorem("testca", n)
        ok = ok and r["ok"] and r["candidates"] == 2 ** (n * n - n)
    for n in range(1, 11):
        r = verify_theorem("rec8n", n)
        ok = ok and r["ok"]
    report(6, "rectangle test = naive associativity on all conservative "
              "tables (n=3,4); rectangle counts match, n<=10", ok)


def test_criterion_07_bisymmetry_characterization():
    start = time.perf_counter()
    r3 = verify_theorem("mainb", 3)
    elapsed = time.perf_counter() - start
    r4 = verify_theorem("mainb", 4, seed=0)
    # for each neutral element e the search decides the n^((n-1)^2) tables
    # with neutral element e and keeps the nondecreasing ones
    ok = (r3["ok"] and r3["candidates"] == 3 * 3 ** 4
          and r3["stats"] == {"candidate": 13, "bisymmetric_side": 6, "uninorm_side": 6}
          and elapsed < 10
          and r4["ok"] and r4["candidates"] == 4 * 4 ** 9
          and r4["stats"] == {"candidate": 346, "bisymmetric_side": 22, "uninorm_side": 22})
    report(7, f"bisymmetric+nondecreasing+neutral = discrete uninorm "
              f"(every table with a neutral element decided, the nondecreasing ones kept: "
              f"n=3 {elapsed:.2f}s < 10s; n=4)", ok)


def test_criterion_08_bisymmetry_lemma():
    ok = all(verify_theorem(name, n)["ok"]
             for name in ("bis-a", "bis-b", "bis-c") for n in (3, 4))
    ok = ok and verify_theorem("bis-c", 5)["ok"]
    report(8, "bisymmetry implications hold: all tables n<=4, "
              "conservative tables n=5", ok)


def test_criterion_09_preliminary_propositions():
    checks = [("idis", 3), ("ee", 4), ("tcons", 3), ("te3", 3),
              ("prel34", 4), ("consj", 3)]
    ok = all(verify_theorem(name, n)["ok"] for name, n in checks)
    report(9, "isolated-point, neutral-element, contour, section, min/max "
              "block, and subset-closure claims hold exhaustively", ok)


def test_criterion_10_figure_fixtures():
    mismatches = []
    for name, expected in sorted(GOLDEN.items()):
        p = profile(fixture(name))
        actual = (p.idempotent, p.conservative, p.symmetric, p.nondecreasing,
                  p.associative, p.bisymmetric, p.neutral, p.isolated)
        if actual != expected:
            mismatches.append(name)
    report(10, f"all {len(GOLDEN)} fixture profiles match their plots "
               f"(fig13: associative, not bisymmetric; fig14: neutral 3, "
               f"neither associative nor symmetric)", not mismatches)


def test_criterion_11_round_trip_bijection():
    ok = True
    for n in range(1, 11):
        for o in enumerate_single_peaked(n):
            if uninorm_to_order(order_to_uninorm(o)).seq != o.seq:
                ok = False
        for op in generate_all_uninorms_gc(n):
            if order_to_uninorm(uninorm_to_order(op)).table != op.table:
                ok = False
    report(11, "order/uninorm round trips are the identity, n<=10", ok)


def test_criterion_12_determinism(capsys, tmp_path, monkeypatch):
    ok = True
    # repeated runs of every output-producing command are byte-identical
    table_file = tmp_path / "max3.txt"
    table_file.write_text("3\n1 2 3\n2 2 3\n3 3 3\n")
    repeated = (
        ["enumerate", "uninorms", "--n", "5"],
        ["enumerate", "single-peaked", "--n", "6"],
        ["render", str(table_file), "--style", "text"],
        ["render", str(table_file), "--style", "dot"],
        ["verify", "--theorem", "mainb", "--n", "3", "--jobs", "1"],
    )
    for argv in repeated:
        code1, out1 = cli_stdout(capsys, *argv)
        code2, out2 = cli_stdout(capsys, *argv)
        ok = ok and code1 == code2 == 0 and out1 == out2
    # verification output is byte-identical for any worker count
    for argv, jobs_pairs in (
        (["verify", "--theorem", "mainb", "--n", "3"], ("1", "3")),
        (["verify", "--theorem", "bis-a", "--n", "5"], ("1", "2")),
    ):
        _, a = cli_stdout(capsys, *argv, "--jobs", jobs_pairs[0])
        _, b = cli_stdout(capsys, *argv, "--jobs", jobs_pairs[1])
        ok = ok and a == b
    report(12, "enumerate/render/verify outputs are byte-identical across "
               "runs and worker counts", ok)
