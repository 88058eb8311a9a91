import hashlib
import json
import pickle
import random
import subprocess
import sys
import tracemalloc
from concurrent import futures
from itertools import chain, count, islice, permutations
from math import comb, prod
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from uninorms import (
    BinaryOperation,
    FiniteChain,
    LinearOrder,
    enumerate_conservative,
    enumerate_nondecreasing,
    find_neutral_element,
    fixture,
    generate_all_uninorms_gc,
    is_associative,
    is_bisymmetric,
    is_idempotent,
    is_nondecreasing,
    is_symmetric,
    probe_open_questions,
    profile,
    theorem_bound,
    theorem_names,
    verify_theorem,
)
from uninorms import generate, oracle
from uninorms.core import _unchecked_operation, _unchecked_operations
from uninorms.oracle import _ASSOCIATIVITY, _BISYMMETRY

from test_core import max_op, tables


def _decided_and_kept(n, parts, **constraints):
    """(decided, tables) of the search stream of ``parts``, run to its end."""
    stream = oracle._SearchStream(n, parts, **constraints)
    kept = list(stream)
    return stream.decided, kept


def _peak(f) -> int:
    """The traced peak, in bytes, of a call of ``f``, after a first call that
    loads the imports and caches it needs."""
    f()
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

# the whole spaces the catalog scans
_WHOLE_SPACES = {
    "full": oracle.full_space,
    "idempotent": lambda n: oracle._space(n, oracle._idempotent(oracle._full(n))),
    "conservative": oracle.conservative_space,
}


def _fails_unless_idempotent(op):
    # fails on all but 729 of the 19,683 tables of full_space(3)
    if is_idempotent(op):
        return ("idempotent",), None
    return ("failed",), "not idempotent"


def _fails_on_equal_rows(op):
    # fails on the 27 tables of full_space(3) whose rows are all equal, nine
    # in each third of the index range, so the first 20 failures come from
    # all three ranges of a three-worker scan
    t = op.table
    if t.count(t[0]) == len(t):
        return ("failed",), f"every row is {t[0]}"
    return (), None


def mirrored_product(n, values):
    """Every choice of values(i, j) for the cells (i, j >= i), row by row,
    the last cell changing fastest, each mirrored by hand into (j, i)."""
    from itertools import product
    upper = [(i, j) for i in range(n) for j in range(i, n)]
    for picks in product(*(values(i, j) for i, j in upper)):
        t = [[0] * n for _ in range(n)]
        for (i, j), v in zip(upper, picks):
            t[i][j] = t[j][i] = v
        yield tuple(map(tuple, t))


class TestEnumerators:
    @pytest.mark.parametrize("n,count", [(2, 4), (3, 64), (4, 4096)])
    def test_conservative(self, n, count):
        assert sum(1 for _ in enumerate_conservative(n)) == count

    @pytest.mark.parametrize("n,count", [(2, 2), (3, 8), (4, 64)])
    def test_conservative_symmetric(self, n, count):
        assert sum(1 for _ in oracle._search(n, [oracle._conservative], mirror=True)) == count

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_conservative_symmetric_is_the_mirrored_product(self, n):
        assert list(oracle._search(n, [oracle._conservative], mirror=True)) == list(
            mirrored_product(n, lambda i, j: sorted({i + 1, j + 1})))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_conservative_symmetric_is_the_symmetric_subset(self, n):
        from uninorms import is_symmetric
        assert list(oracle._search(n, [oracle._conservative], mirror=True)) == [
            op.table for op in enumerate_conservative(n) if is_symmetric(op)]

    def test_conservative_bounds(self):
        with pytest.raises(ValueError):
            next(enumerate_conservative(6))

    def test_conservative_yield_is_conservative(self):
        for op in enumerate_conservative(3):
            assert all(op(x, y) in (x, y) for x in range(1, 4) for y in range(1, 4))

    @pytest.mark.parametrize("n,count", [(1, 1), (2, 6), (3, 175), (4, 24696)])
    def test_nondecreasing_counts(self, n, count):
        # box plane-partition numbers, computed independently before freezing
        assert sum(1 for _ in enumerate_nondecreasing(n)) == count

    def test_nondecreasing_bound(self):
        with pytest.raises(ValueError):
            next(enumerate_nondecreasing(5))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_nondecreasing_is_the_filtered_full_space(self, n):
        # the same tables in the same order as filtering every table
        assert [op.table for op in enumerate_nondecreasing(n)] == [
            t for t in oracle.full_space(n) if is_nondecreasing(_unchecked_operation(n, t))]

    @pytest.mark.parametrize("n,count", [(1, 1), (2, 2), (3, 11), (4, 164), (5, 7195)])
    def test_nondecreasing_with_neutral_source(self, n, count):
        # prel34's class, idempotent + neutral + nondecreasing, against the
        # idempotent tables of mainb's class, neutral + nondecreasing, in order
        decided, found = _decided_and_kept(n, oracle._idempotent_neutral_parts(n),
                                           nondecreasing=True)
        wider = list(oracle._SearchStream(n, oracle._neutral_parts(n), nondecreasing=True))
        assert found == [t for t in wider if is_idempotent(_unchecked_operation(n, t))]
        assert len(found) == count
        assert decided == n * n ** ((n - 1) * (n - 2))


class TestProfile:
    def test_max(self):
        p = profile(max_op(3))
        assert p.idempotent and p.conservative and p.symmetric
        assert p.nondecreasing and p.associative and p.bisymmetric
        assert p.neutral == 1 and p.isolated == ((1, 1),)

    def test_fig13(self):
        p = profile(fixture("fig13"))
        assert p.conservative and p.associative and not p.symmetric
        assert not p.bisymmetric and p.neutral == 1

    def test_fig14(self):
        p = profile(fixture("fig14"))
        assert p.conservative and p.nondecreasing
        assert not p.associative and not p.symmetric
        assert p.neutral == 3

    @given(tables)
    def test_flag_consistency(self, op):
        p = profile(op)
        if p.conservative:
            assert p.idempotent
        if p.associative and p.symmetric:
            assert p.bisymmetric
        assert p.to_dict()["neutral"] == p.neutral


class TestVerifyTheorem:
    def test_catalog_is_documented(self):
        names = theorem_names()
        assert "main" in names and "mainb" in names and "open-questions" in names
        for name in names:
            assert theorem_bound(name) >= 1

    @pytest.mark.parametrize("name", [
        "main", "main2n", "main3", "gc", "qob", "mainb", "corollary-mainb",
        "bis-a", "bis-b", "bis-c", "idis", "ee", "tcons", "te3", "testca",
        "rec8n", "prel34", "consj",
    ])
    def test_all_claims_pass_at_size_three(self, name):
        report = verify_theorem(name, 3)
        assert report["ok"], report
        assert report["counterexample_count"] == 0
        assert report["candidates"] > 0

    # theorem_bound and verify_theorem look a claim name up by one rule
    _LOOKUPS = pytest.mark.parametrize(
        "lookup", [theorem_bound, lambda name: verify_theorem(name, 3)],
        ids=["theorem_bound", "verify_theorem"])

    @_LOOKUPS
    def test_unknown_claim(self, lookup):
        with pytest.raises(ValueError) as error:
            lookup("No-Such-Claim")
        assert str(error.value) == ("unknown claim 'no-such-claim'; known: "
                                    + ", ".join(theorem_names()))

    @pytest.mark.parametrize("name,bound", [("main", 6), ("MAIN", 6), ("Bis-C", 5)])
    def test_a_claim_name_in_any_case(self, name, bound):
        assert theorem_bound(name) == bound
        assert verify_theorem(name, 1)["theorem"] == name.lower()

    def test_bound_enforced(self):
        with pytest.raises(ValueError, match="only checkable"):
            verify_theorem("tcons", 4)
        with pytest.raises(ValueError):
            verify_theorem("main", 0)

    @pytest.mark.parametrize("name,n,kwargs,message", [
        ("rec8n", True, {}, "chain size must be a positive integer, got True"),
        ("main", True, {}, "chain size must be a positive integer, got True"),
        ("idis", 2.0, {}, "chain size must be a positive integer, got 2.0"),
        ("main2n", 3, {"jobs": 1.5}, "jobs must be an integer, got 1.5"),
        ("te3", 2, {"jobs": True}, "jobs must be an integer, got True"),
        ("bis-a", 5, {"seed": 1.5}, "seed must be an integer, got 1.5"),
        ("bis-b", 5, {"seed": False}, "seed must be an integer, got False"),
    ])
    def test_arguments_must_be_ints(self, monkeypatch, name, n, kwargs, message):
        # each is rejected with one line before the claim's runner starts
        def no_run(*args):
            raise AssertionError("the claim ran")

        bound, summary, _, forms = oracle._CATALOG[name]
        monkeypatch.setitem(oracle._CATALOG, name, (bound, summary, no_run, forms))
        with pytest.raises(ValueError) as error:
            verify_theorem(name, n, **kwargs)
        assert str(error.value) == message

    @_LOOKUPS
    @pytest.mark.parametrize("name,message", [
        (None, "name must be a string, got None"),
        (5, "name must be a string, got 5"),
        (["x"], "name must be a string, got ['x']"),
    ])
    def test_name_must_be_a_string(self, lookup, name, message):
        with pytest.raises(ValueError) as error:
            lookup(name)
        assert str(error.value) == message

    def test_mainb_exhaustive_statistics(self):
        # the search for each neutral element e decides its 3^4 tables and
        # keeps the nondecreasing ones (13 in all); both sides of the
        # characterization pick out the same 6 tables
        report = verify_theorem("mainb", 3)
        assert report["candidates"] == 3 * 3 ** 4
        assert report["stats"] == {
            "candidate": 13, "bisymmetric_side": 6, "uninorm_side": 6,
        }

    def test_mainb_sweep_at_its_bound(self):
        report = verify_theorem("mainb", 4, seed=0)
        assert report["ok"]
        assert report["candidates"] == 4 * 4 ** 9
        assert report["stats"] == {
            "candidate": 346, "bisymmetric_side": 22, "uninorm_side": 22,
        }
        report = verify_theorem("mainb", 5)
        assert report["ok"]
        assert report["candidates"] == 5 * 5 ** 16
        assert report["stats"] == {
            "candidate": 40088, "bisymmetric_side": 92, "uninorm_side": 92,
        }

    def test_corollary_statistics(self):
        report = verify_theorem("corollary-mainb", 3)
        assert report["candidates"] == 3 * 3 ** 4
        assert report["stats"] == {"candidate": 13, "idempotent_uninorms": 4}

    def test_testca_statistics(self):
        # associative conservative tables: 20 of 64 (n=3), 138 of 4096 (n=4)
        r3 = verify_theorem("testca", 3)
        assert r3["candidates"] == 64 and r3["stats"]["associative"] == 20
        r4 = verify_theorem("testca", 4)
        assert r4["candidates"] == 4096 and r4["stats"]["associative"] == 138

    def test_main_report(self):
        report = verify_theorem("main", 5)
        assert report["candidates"] == 2 ** 10
        assert report["brute_force_count"] == 16
        assert report["generated_count"] == 16

    def test_a_generated_table_the_search_misses_is_a_counterexample(self, monkeypatch):
        # the search loses its last table and repeats its first, so the count
        # still matches and only the comparison from the generated side sees it
        from uninorms import oracle

        class Lossy(oracle._SearchStream):
            def __iter__(self):
                tables = list(super().__iter__())
                yield from tables[:-1] + tables[:1]

        last = list(oracle._SearchStream(4, [oracle._conservative], mirror=True,
                                         nondecreasing=True))[-1]
        monkeypatch.setattr(oracle, "_SearchStream", Lossy)
        report = verify_theorem("main", 4)
        assert not report["ok"]
        assert report["counterexamples"] == [{
            "table": oracle._json_rows(last),
            "reason": "generated and passes the axioms, but the search did not find it"}]

    @pytest.mark.parametrize("name,n", [
        ("main", 4), ("main3", 4), ("bis-c", 4), ("mainb", 3), ("corollary-mainb", 3),
        ("prel34", 3), ("bis-a", 3), ("bis-b", 3),
    ])
    def test_a_search_that_skips_a_table_fails_the_report(self, monkeypatch, name, n):
        # each search keeps the same tables but accounts for one table fewer
        # than its part holds, so only the accounting check can see it
        size = verify_theorem(name, n)["candidates"]
        search = oracle._search

        def short(*args, **kwargs):
            decided, size = yield from search(*args, **kwargs)
            return decided - 1, size

        monkeypatch.setattr(oracle, "_search", short)
        report = verify_theorem(name, n)
        assert not report["ok"]
        assert report["candidates"] < size
        assert report["counterexamples"][0] == {
            "reason": f"decided {report['candidates']} of {size} tables"}

    # claim: (the stat its first closed form counts, the form's name, its
    # value at n = 3 and 4, and at the bound 5 for mainb and prel34); bis-c
    # counts the bisymmetric quasitrivial operations, the first count of the
    # probe's part (a) that a dropped table changes is that of the
    # quasitrivial ones, and mainb and prel34 count their whole classes
    _CLOSED_FORMS = {
        "main3": ("candidate", "2^(n-1)", {3: 4, 4: 8}),
        "corollary-mainb": ("idempotent_uninorms", "2^(n-1)", {3: 4, 4: 8}),
        "bis-c": ("antecedent", "the Devillet count", {3: 14, 4: 58}),
        "open-questions": ("conservative_associative", "the quasitrivial count",
                           {3: 20, 4: 138}),
        "mainb": ("candidate", "the nondecreasing neutral count", {3: 13, 4: 346, 5: 40088}),
        "prel34": ("candidate", "the idempotent nondecreasing neutral count",
                   {3: 11, 4: 164, 5: 7195}),
    }

    @staticmethod
    def _counted(report, stat) -> int:
        # a claim's stat, or a count of the probe's part (a)
        return report["stats"][stat] if "stats" in report else report["probe"]["a"][stat]

    @pytest.mark.parametrize("name,n", [(name, n) for name, (_, _, want) in _CLOSED_FORMS.items()
                                        for n in want])
    def test_a_search_that_drops_kept_tables_fails_the_closed_form(self, monkeypatch, name, n):
        # each search passes on only four of every five tables it keeps but
        # still accounts for all of them, so the accounting check cannot see
        # it; the closed form of the tables these claims count can
        search = oracle._search

        def four_in_five(*args, **kwargs):
            tables = search(*args, **kwargs)
            for i in count():
                try:
                    t = next(tables)
                except StopIteration as end:
                    return end.value
                if i % 5:
                    yield t

        stat, form, want = self._CLOSED_FORMS[name]
        assert self._counted(verify_theorem(name, n), stat) == want[n]
        monkeypatch.setattr(oracle, "_search", four_in_five)
        report = verify_theorem(name, n)
        assert not report["ok"]
        assert report["counterexamples"][0] == {
            "reason": f"{self._counted(report, stat)} tables counted as {stat}, "
                      f"expected {form} = {want[n]}"}

    # each whole-space scan at its bound: (the stat its closed form counts,
    # the form's name, its value)
    _SWEPT_FORMS = {
        "idis": ("idempotent", "n^(n^2-n)", 729),
        "ee": ("has_neutral", "n*2^((n-1)(n-2))", 256),
        "tcons": ("conservative", "2^(n^2-n)", 64),
        "te3": ("has_neutral", "n*n^((n-1)^2)", 243),
        "testca": ("associative", "the quasitrivial count", 138),
        "consj": ("conservative", "2^(n^2-n)", 64),
    }

    @staticmethod
    def _closed_form_reasons(report, form) -> list[str]:
        # the closed-form reason the report must lead with, if its count is off
        stat, name, want = form
        got = report["stats"].get(stat, 0)
        return [] if got == want else [f"{got} tables counted as {stat}, expected {name} = {want}"]

    @pytest.mark.parametrize("name", list(_SWEPT_FORMS))
    def test_a_scan_that_loses_a_table_fails_the_report(self, monkeypatch, name):
        # the last worker range ends one table early, so the scan checks one
        # table fewer than its space holds, with one worker or two
        n = theorem_bound(name)
        size = verify_theorem(name, n)["candidates"]
        ranges = oracle._ranges

        def short(tables, workers):
            *rest, (start, stop) = ranges(tables, workers)
            return [*rest, (start, stop - 1)]

        monkeypatch.setattr(oracle, "_ranges", short)
        monkeypatch.setattr(oracle, "_usable_cpus", lambda: 2)
        for jobs in (1, 2):
            report = verify_theorem(name, n, jobs=jobs)
            assert not report["ok"]
            assert report["candidates"] == size - 1
            reasons = self._closed_form_reasons(report, self._SWEPT_FORMS[name])
            reasons.append(f"decided {size - 1} of {size} tables")
            assert report["counterexamples"][:len(reasons)] == [{"reason": r} for r in reasons]

    @pytest.mark.parametrize("name", list(_SWEPT_FORMS))
    def test_a_scan_of_the_wrong_cells_fails_the_closed_form(self, monkeypatch, name):
        # cell (0, 1) of the conservative and the full domains loses its first
        # value: the scan decides every table of the narrower space, so only
        # the closed form sees it
        n = theorem_bound(name)
        stat, _, want = form = self._SWEPT_FORMS[name]
        assert verify_theorem(name, n)["stats"][stat] == want
        conservative, full = oracle._conservative, oracle._full

        def without_first(values):
            return lambda i, j: values(i, j)[1:] if (i, j) == (0, 1) else values(i, j)

        monkeypatch.setattr(oracle, "_conservative", without_first(conservative))
        monkeypatch.setattr(oracle, "_full", lambda n: without_first(full(n)))
        report = verify_theorem(name, n)
        assert not report["ok"]
        [reason] = self._closed_form_reasons(report, form)
        assert report["counterexamples"][0] == {"reason": reason}

    def test_the_quasitrivial_count(self):
        assert [oracle._quasitrivial_count(n) for n in range(1, 6)] == [1, 4, 20, 138, 1182]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("idempotent", [False, True])
    def test_the_nondecreasing_neutral_counts_are_the_searches(self, n, idempotent):
        # the tables that a search of each neutral element's class keeps
        kept = []
        for e in range(1, n + 1):
            values = oracle._neutral(n, e)
            parts = [oracle._idempotent(values) if idempotent else values]
            kept.append(sum(1 for _ in oracle._search(n, parts, nondecreasing=True)))
        assert oracle._nondecreasing_neutral_counts(n, idempotent) == tuple(kept)

    def test_the_nondecreasing_neutral_counts_past_the_searches(self):
        counts = oracle._nondecreasing_neutral_counts
        assert counts(5) == (170, 8624, 22500, 8624, 170)
        assert [sum(counts(n)) for n in (5, 6)] == [40088, 21358858]
        assert [sum(counts(n, idempotent=True)) for n in (5, 6)] == [7195, 861202]

    def test_rec8n_report(self):
        report = verify_theorem("rec8n", 4)
        assert report["candidates"] == 24
        assert report["symmetric_expected"] == 4

    @pytest.mark.parametrize("name", ["bis-a", "bis-b"])
    def test_sampled_claims(self, name):
        # the seed-0 samples at n = 5, pinned, for any jobs
        reports = [verify_theorem(name, 5, seed=0, jobs=jobs) for jobs in (1, 2)]
        for report in reports:
            report.pop("runtime_seconds")
        assert reports[0] == reports[1] == {
            "theorem": name, "n": 5, "candidates": 100000, "counterexamples": [],
            "counterexample_count": 0, "ok": True, "stats": {"prefiltered": 0}, "seed": 0,
            "summary": oracle._CATALOG[name][1]}

    @pytest.mark.parametrize("name,n,candidates,antecedent", [
        # the searched class: every table with a neutral element e, for each
        # e; the symmetric tables; the conservative tables
        ("bis-a", 3, 3 * 3 ** 4, 27), ("bis-a", 4, 4 * 4 ** 9, 376),
        ("bis-b", 3, 3 ** 6, 63), ("bis-b", 4, 4 ** 10, 1140),
        ("bis-c", 3, 2 ** 6, 14), ("bis-c", 4, 2 ** 12, 58), ("bis-c", 5, 2 ** 20, 292),
    ])
    def test_searched_bisymmetry_claims(self, name, n, candidates, antecedent):
        # bis-c counts the bisymmetric quasitrivial operations (Devillet 2019)
        report = verify_theorem(name, n)
        assert report["ok"], report
        assert report["candidates"] == candidates
        assert report["stats"] == {"antecedent": antecedent}
        assert "seed" not in report

    @pytest.mark.parametrize("name,n,candidates,stats", [
        # the whole-space scans at their bounds: every full table (te3, tcons),
        # every conservative one (ee) and every idempotent one (idis)
        ("te3", 3, 3 ** 9, {"has_neutral": 243}),
        ("ee", 4, 2 ** 12, {"has_neutral": 256}),
        ("tcons", 3, 3 ** 9, {"conservative": 64}),
        ("idis", 3, 3 ** 6, {"idempotent": 3 ** 6}),
    ])
    def test_scan_claims_at_their_bounds(self, name, n, candidates, stats):
        assert theorem_bound(name) == n
        report = verify_theorem(name, n)
        assert report["ok"], report
        assert report["candidates"] == candidates
        assert report["stats"] == stats

    def test_gc_at_its_bound(self):
        report = verify_theorem("gc", 12)
        assert report["ok"], report
        assert report["by_neutral"] == {str(e): comb(11, e - 1) for e in range(1, 13)}

    @pytest.mark.parametrize("n", [3, 5])
    def test_a_generated_table_without_a_neutral_element_fails_gc(self, monkeypatch, n):
        # the left projection F(x, y) = x is conservative and has no
        # neutral element
        left = BinaryOperation(FiniteChain(n), [[x] * n for x in range(1, n + 1)])
        real = oracle.generate_all_uninorms_gc
        monkeypatch.setattr(oracle, "generate_all_uninorms_gc",
                            lambda n: chain(real(n), [left]))
        report = verify_theorem("gc", n)
        assert report["candidates"] == 2 ** (n - 1) + 1
        assert report["by_neutral"] == {str(e): comb(n - 1, e - 1) for e in range(1, n + 1)}
        assert report["counterexamples"] == [{
            "table": oracle._json_rows(left.table),
            "reason": "generated table has no neutral element"}]

    @pytest.mark.parametrize("n", [3, 5])
    def test_a_dropped_generated_table_fails_gc(self, monkeypatch, n):
        real = oracle.generate_all_uninorms_gc
        e = find_neutral_element(list(real(n))[-1])
        monkeypatch.setattr(oracle, "generate_all_uninorms_gc", lambda n: list(real(n))[:-1])
        report = verify_theorem("gc", n)
        assert report["candidates"] == 2 ** (n - 1) - 1
        assert report["counterexamples"] == [{
            "reason": f"neutral element {e}: {comb(n - 1, e - 1) - 1} tables, "
                      f"expected {comb(n - 1, e - 1)}"}]

    @pytest.mark.parametrize("n", [3, 5])
    def test_a_repeated_contour_table_fails_main2n(self, monkeypatch, n):
        real = oracle._contour_keys

        def repeat_first(n):
            keys = real(n)
            first = next(keys)
            yield from (first, first, *keys)

        monkeypatch.setattr(oracle, "_contour_keys", repeat_first)
        report = verify_theorem("main2n", n)
        want = 2 ** (n - 1)
        assert report["candidates"] == report["generated"] == want + 1
        assert report["distinct"] == want
        assert report["counterexamples"] == [{
            "reason": f"{want + 1} tables counted as generated, expected 2^(n-1) = {want}"}]

    def test_corollary_sweep_at_its_bound(self):
        report = verify_theorem("corollary-mainb", 4, seed=0)
        assert report["ok"]
        assert report["candidates"] == 4 * 4 ** 9
        assert report["stats"] == {"candidate": 346, "idempotent_uninorms": 8}
        report = verify_theorem("corollary-mainb", 5)
        assert report["ok"]
        assert report["candidates"] == 5 * 5 ** 16
        assert report["stats"] == {"candidate": 40088, "idempotent_uninorms": 16}

    def test_prel34_at_its_bound(self):
        # the search for each neutral element e decides the n^((n-1)(n-2))
        # tables with the diagonal fixed, and keeps the nondecreasing ones
        report = verify_theorem("prel34", 4)
        assert report["candidates"] == 4 * 4 ** 6
        assert report["stats"] == {"candidate": 164}
        report = verify_theorem("prel34", 5)
        assert report["ok"]
        assert report["candidates"] == 5 * 5 ** 12
        assert report["stats"] == {"candidate": 7195}

    def test_main3_at_its_bound(self):
        report = verify_theorem("main3", 5)
        assert report["ok"]
        assert report["stats"]["candidate"] == 16

    def test_reports_are_json_serializable(self):
        for name in theorem_names():
            json.dumps(verify_theorem(name, 2))

    def test_jobs_do_not_change_the_report(self):
        claims = [(name, min(3, theorem_bound(name))) for name in theorem_names()]
        for name, n in claims + [("bis-a", 5), ("bis-b", 5)]:
            a = verify_theorem(name, n, jobs=1)
            b = verify_theorem(name, n, jobs=2)
            a.pop("runtime_seconds")
            b.pop("runtime_seconds")
            assert a == b, (name, n)

    @pytest.mark.parametrize("check", [_fails_unless_idempotent, _fails_on_equal_rows])
    def test_counterexamples_do_not_depend_on_the_worker_count(self, monkeypatch, check):
        # three usable CPUs, so that jobs = 3 really starts three ranges
        monkeypatch.setattr(oracle, "_usable_cpus", lambda: 3)
        real_pool = futures.ProcessPoolExecutor
        started = []

        def pool(max_workers):
            started.append(max_workers)
            return real_pool(max_workers=max_workers)

        monkeypatch.setattr(futures, "ProcessPoolExecutor", pool)
        monkeypatch.setitem(oracle._CATALOG, "probe",
                            (3, "probe", oracle._scan(check, lambda n: [oracle._full(n)]), ()))
        reports = [verify_theorem("probe", 3, jobs=jobs) for jobs in (1, 2, 3)]
        for report in reports:
            report.pop("runtime_seconds")
        assert started == [2, 3]
        assert reports[0] == reports[1] == reports[2]
        failures = []
        for t in oracle.full_space(3):
            _, bad = check(_unchecked_operation(3, t))
            if bad is not None:
                failures.append({"table": oracle._json_rows(t), "reason": bad})
        assert len(failures) > oracle._MAX_COUNTEREXAMPLES
        assert reports[0]["counterexamples"] == failures[:oracle._MAX_COUNTEREXAMPLES]
        assert reports[0]["stats"]["failed"] == len(failures)
        assert reports[0]["candidates"] == 3 ** 9 and not reports[0]["ok"]

    def test_only_the_report_cuts_the_counterexamples(self, monkeypatch):
        # every triple of the rectangle iterator repeats an element, so the
        # rec8n runner returns more than the report lists: the first 20
        from uninorms.properties import Rectangle
        real = oracle.rectangles
        monkeypatch.setattr(oracle, "rectangles", lambda n, symmetric=False: (
            Rectangle(a, a, c) for a, b, c in real(n, symmetric)))
        _, cex, _ = oracle._CATALOG["rec8n"][2](4, 0, 1)
        assert len(cex) > oracle._MAX_COUNTEREXAMPLES
        report = verify_theorem("rec8n", 4)
        assert report["counterexamples"] == cex[:oracle._MAX_COUNTEREXAMPLES]
        assert report["counterexample_count"] == 20 and not report["ok"]

    def test_worker_count_is_bounded(self, monkeypatch):
        # checked without starting a pool
        from uninorms import oracle
        monkeypatch.setattr(oracle, "_usable_cpus", lambda: 4)
        assert oracle._worker_count(5000, 64) == 4
        assert oracle._worker_count(2, 64) == 2
        assert oracle._worker_count(8, 1) == 1
        assert oracle._worker_count(1, 64) == 1
        monkeypatch.setattr(oracle, "_usable_cpus", lambda: 1)
        assert oracle._worker_count(8, 64) == 1

    def test_usable_cpus_reads_the_affinity_mask(self, monkeypatch):
        # a cpuset allows 2 of the host's 8 CPUs; no pool is started
        from uninorms import oracle
        monkeypatch.setattr(oracle.os, "sched_getaffinity", lambda pid: {0, 5}, raising=False)
        monkeypatch.setattr(oracle.os, "cpu_count", lambda: 8)
        assert oracle._usable_cpus() == 2
        assert oracle._worker_count(8, 64) == 2

    def test_usable_cpus_without_an_affinity_mask(self, monkeypatch):
        from uninorms import oracle
        monkeypatch.delattr(oracle.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(oracle.os, "cpu_count", lambda: 4)
        assert oracle._usable_cpus() == 4
        monkeypatch.setattr(oracle.os, "cpu_count", lambda: None)
        assert oracle._usable_cpus() == 1

    @pytest.mark.parametrize("name", ["bis-a", "bis-b"])
    def test_samples_run_in_this_process(self, monkeypatch, name):
        from uninorms import oracle

        def no_pool(*args, **kwargs):
            raise AssertionError("a sample started a process pool")

        for seed in (0, 1):
            serial = verify_theorem(name, 5, seed=seed, jobs=1)
            monkeypatch.setattr(futures, "ProcessPoolExecutor", no_pool)
            pooled = verify_theorem(name, 5, seed=seed, jobs=2)
            monkeypatch.undo()
            serial.pop("runtime_seconds")
            pooled.pop("runtime_seconds")
            assert pooled == serial and serial["seed"] == seed

    def test_seed_is_reproducible(self):
        a = verify_theorem("bis-a", 5, seed=7)
        b = verify_theorem("bis-a", 5, seed=7)
        a.pop("runtime_seconds")
        b.pop("runtime_seconds")
        assert a == b


def _set_based_qob(n, seed, jobs):
    """``qob`` with all three images kept as full sets and then compared,
    from the public constructions: the operations, not their keys."""
    cex = []
    orders = list(oracle.enumerate_single_peaked(n))
    from_orders = set()
    for order in orders:
        if order.seq[-1] not in (1, n):
            cex.append({"reason": f"ordering {order.seq} ends in {order.seq[-1]}"})
        op = oracle.order_to_uninorm(order)
        from_orders.add(op.table)
        back = oracle.uninorm_to_order(op)
        if back.seq != order.seq:
            cex.append({"reason": f"round trip changed {order.seq} into {back.seq}"})
    gc_tables = {op.table for op in oracle.generate_all_uninorms_gc(n)}
    sources = {}
    for spec in oracle.enumerate_gspecs(n):
        sources.setdefault(oracle.uninorm_from_gspec(spec).table, []).append(spec)
    if from_orders != gc_tables:
        cex.append({"reason": "order-maximum tables differ from the contour algorithm's"})
    if sources.keys() != gc_tables:
        cex.append({"reason": "patchwork construction image differs from the contour algorithm's"})
    extras = {
        "orders": len(orders),
        "distinct_operations": len(gc_tables),
        "gspec_image": len(sources),
        "gspec_collisions": sum(len(v) > 1 for v in sources.values()),
    }
    if n <= 8:
        c = FiniteChain(n)
        filtered = [seq for seq in permutations(range(1, n + 1))
                    if oracle.single_peakedness_witness(LinearOrder(c, seq)) is None]
        extras["factorial_filtered"] = len(filtered)
        if sorted(o.seq for o in orders) != sorted(filtered):
            cex.append({"reason": "incremental enumeration disagrees with the n! filter"})
    return len(orders), cex, extras


def _qob_and_set_based_reports(monkeypatch, n):
    got = verify_theorem("qob", n)
    with monkeypatch.context() as m:
        bound, summary, _, forms = oracle._CATALOG["qob"]
        m.setitem(oracle._CATALOG, "qob", (bound, summary, _set_based_qob, forms))
        want = verify_theorem("qob", n)
    for report in (got, want):
        report.pop("runtime_seconds")
    return got, want


# Each fault is patched where both the claim and _set_based_qob meet it: the
# contour algorithm's walk and the patchwork's rows, which the public
# constructions and the key streams share, or order_to_uninorm, which both
# call through oracle.

def _drop_a_generated_table(monkeypatch, n):
    walk = generate._contour_walk

    def dropping(n, table):
        leaves = walk(n, table)
        next(leaves)
        yield from leaves

    monkeypatch.setattr(generate, "_contour_walk", dropping)


def _repeat_a_generated_table(monkeypatch, n):
    walk = generate._contour_walk

    def repeating(n, table):
        leaves = walk(n, table)
        first = next(leaves)
        yield first
        yield first  # the table is not touched until the walk goes on
        yield from leaves

    monkeypatch.setattr(generate, "_contour_walk", repeating)


def _give_an_order_another_orders_table(monkeypatch, n):
    to_uninorm = oracle.order_to_uninorm
    first, second = islice(oracle.enumerate_single_peaked(n), 2)
    monkeypatch.setattr(oracle, "order_to_uninorm",
                        lambda o: to_uninorm(second if o == first else o))


def _make_a_table_outside_the_image(monkeypatch, n, specs=1):
    rows = generate._gspec_rows
    firsts = list(islice(oracle.enumerate_gspecs(n), specs))
    # every row the identity row's first entry, n times: the constant table
    # 1, which is not idempotent
    monkeypatch.setattr(generate, "_gspec_rows",
                        lambda spec, ids: [ids[:1] * n] * n if spec in firsts else rows(spec, ids))


def _make_a_table_outside_the_image_from_two_specs(monkeypatch, n):
    _make_a_table_outside_the_image(monkeypatch, n, specs=2)


def _make_one_table_from_two_specs(monkeypatch, n):
    rows = generate._gspec_rows
    first, second = islice(oracle.enumerate_gspecs(n), 2)
    monkeypatch.setattr(generate, "_gspec_rows",
                        lambda spec, ids: rows(first if spec == second else spec, ids))


class TestQob:
    @pytest.mark.parametrize("n", range(1, 10))
    def test_report_is_the_set_based_one(self, monkeypatch, n):
        got, want = _qob_and_set_based_reports(monkeypatch, n)
        assert got == want
        assert got["ok"]

    # (fault, whether the claim still holds): a table generated twice is
    # still one of the 2^(n-1) distinct operations
    @pytest.mark.parametrize("fault, ok", [
        (_drop_a_generated_table, False),
        (_repeat_a_generated_table, True),
        (_give_an_order_another_orders_table, False),
        (_make_a_table_outside_the_image, False),
        (_make_a_table_outside_the_image_from_two_specs, False),
        (_make_one_table_from_two_specs, False),
    ])
    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_a_fault_gives_the_set_based_report(self, monkeypatch, fault, ok, n):
        fault(monkeypatch, n)
        got, want = _qob_and_set_based_reports(monkeypatch, n)
        assert got == want
        assert got["ok"] is ok

    def test_peak_memory_is_below_half_a_set_of_tables(self):
        # the contour algorithm's tables are indexed once, each by one bytes
        # key; the other two constructions stream against the index
        n = 10
        tables = _peak(lambda: {op.table for op in generate_all_uninorms_gc(n)})
        assert _peak(lambda: verify_theorem("qob", n)) < tables / 2


class TestMemory:
    """No claim holds its tables: a search streams each table it keeps into
    the check, and a construction claim keeps one bytes key per table."""

    def test_keys_sort_as_their_tables_and_reject_an_entry_past_255(self):
        tables = [op.table for op in generate_all_uninorms_gc(6)]
        keys = [oracle._key(t) for t in tables]
        assert len(set(keys)) == len(tables)
        order = range(len(tables))
        assert sorted(order, key=keys.__getitem__) == sorted(order, key=tables.__getitem__)
        with pytest.raises(ValueError):
            oracle._key(((1, 256), (256, 2)))

    def test_mainb_holds_no_kept_table(self):
        def keep():
            return list(oracle._SearchStream(4, oracle._neutral_parts(4), nondecreasing=True))

        assert len(keep()) == 346
        assert _peak(lambda: verify_theorem("mainb", 4)) < _peak(keep) / 2

    def test_main2n_holds_a_key_per_table(self):
        tables = _peak(lambda: {op.table for op in generate_all_uninorms_gc(10)})
        assert _peak(lambda: verify_theorem("main2n", 10)) < tables / 2


class TestProbe:
    def test_small_counts(self):
        assert probe_open_questions(2)["a"] == {
            "conservative": 4,
            "conservative_associative": 4,
            "conservative_symmetric": 2,
            "conservative_symmetric_associative": 2,
        }

    def test_three_chain_counts(self):
        report = probe_open_questions(3)
        assert report["a"] == {
            "conservative": 64,
            "conservative_associative": 20,
            "conservative_symmetric": 8,
            "conservative_symmetric_associative": 6,
        }
        # the implication question is empirically settled in the negative:
        # bisymmetric+symmetric tables exist without associativity or neutral
        stats = report["c"]["stats"]
        assert stats["bisymmetric_symmetric"] == 105
        assert stats["lacking_associativity"] == 42
        assert stats["lacking_neutral"] == 78
        assert report["c"]["findings"]

    def test_findings_are_reported_not_asserted(self):
        report = probe_open_questions(3)
        for finding in report["c"]["findings"]:
            assert "finding" in finding

    def test_bound(self):
        with pytest.raises(ValueError):
            probe_open_questions(6)

    def test_part_c_is_searched_up_to_size_four_only(self, monkeypatch):
        from uninorms import oracle

        def no_draw(*args, **kwargs):
            raise AssertionError("the probe drew a sample")

        monkeypatch.setattr(oracle, "_draw", no_draw)
        c = probe_open_questions(5)["c"]
        assert isinstance(c, str) and "n = 4" in c and "\n" not in c
        assert set(probe_open_questions(2)["c"]) == {
            "symmetric_tables_examined", "stats", "findings", "note"}


class TestProbeFastPaths:
    """The raw-table rectangle loop behind the rectangle checkers, against the
    triple-loop associativity checker, over every conservative table on the
    3- and 4-chain."""

    @pytest.mark.parametrize("n", [3, 4])
    def test_rect_helper_agrees_with_is_associative(self, n):
        from uninorms.properties import _table_rect_witness
        from uninorms import is_associative

        for op in enumerate_conservative(n):
            assert (_table_rect_witness(op.table) is None) == is_associative(op)

    def test_probe_counts_at_size_four(self):
        # 138 associative conservative tables, counted independently with the
        # naive triple loop before freezing
        report = probe_open_questions(4)
        assert report["a"]["conservative"] == 4096
        assert report["a"]["conservative_associative"] == 138
        assert report["a"]["conservative_symmetric"] == 64
        assert report["a"]["conservative_symmetric_associative"] == 24
        # part (c) searches every symmetric table
        c = report["c"]
        assert c["symmetric_tables_examined"] == 4 ** 10
        assert c["stats"] == {"bisymmetric_symmetric": 4456, "lacking_associativity": 3316,
                              "lacking_neutral": 4080}
        assert len(c["findings"]) == 20


class TestClassDigests:
    """The set of tables each claim declared with ``_scan`` hands its check,
    at jobs = 1, and the set each search of ``main`` and the open-questions
    probe keeps: its size and the sha256 of the sorted tables. A count can
    stay the same while the set changes; the digest does not depend on the
    order in which the class is searched or scanned."""

    # (claim, n): (tables, sha256 of repr(sorted(tables))), at n = 3 and, up
    # to each claim's bound, at n = 4, where each run takes under a second
    _DIGESTS = {
        ("bis-a", 3): (27, "ca0f611d974c028103801cc5e76d21863df233d69677bbda06254c02e712c3f1"),
        ("bis-a", 4): (376, "46dbe7986b8211003d0022088e12089e5f3412ffceae78db81dc5ea88d35b70e"),
        ("bis-b", 3): (63, "fb1902a0f18d1b09ad44fd524b1e3580839cfa6ee745e2dafb74211429ab6782"),
        ("bis-b", 4): (1140, "764eb3d038bb71ed820deaf3de94daf9a33506134b0621d54d345d739cc7deba"),
        ("bis-c", 3): (14, "fac66348dafd29395410a41621ae2a0e823f167d6f41d66ffe6fdcbb66c6a19f"),
        ("bis-c", 4): (58, "ebb4b85e6333cf4fb0227bbad909fa0a1c22200d77135427aae2deb7c97f7484"),
        ("consj", 3): (19683, "44c5c4f132ded9dbaf1b74d214c307dbf0ef4c2449254c69618a6f7939fbc7bd"),
        ("corollary-mainb", 3): (13, "b5e2843c88a195f84424c49d1eded219996b7df06517690d6f8e1c1c86bcbfbb"),
        ("corollary-mainb", 4): (346, "5a2633ae043d5a77f457dcd454dfe5a9af0e6d2f837a0a149eb7e8b709a049cd"),
        ("ee", 3): (64, "8ee74b5050b0c228965606b3be3906b765793ceb96611cbb64700c1d38578dc4"),
        ("ee", 4): (4096, "acf06356c1312b5142e5606c2aea568474df75e3f3f450a67811c8772729ee48"),
        ("idis", 3): (729, "ae10e37e81b17177e1d27d995cad926a6dec1f44205a057b17e6a9c63a1fbfec"),
        ("main3", 3): (4, "8818b08e2800730b8f1187abbc8e7d049de7210daced881731ff58b3b66d2852"),
        ("main3", 4): (8, "a7ed6f69ce868b633850c4b65eb78dab23e5aee42a80fbc35c38c58035123e53"),
        ("mainb", 3): (13, "b5e2843c88a195f84424c49d1eded219996b7df06517690d6f8e1c1c86bcbfbb"),
        ("mainb", 4): (346, "5a2633ae043d5a77f457dcd454dfe5a9af0e6d2f837a0a149eb7e8b709a049cd"),
        ("prel34", 3): (11, "23ab9250b7e3f71bb1fa7aa6b6d083abbecfff720fe111b0426ffb27f297bbb6"),
        ("prel34", 4): (164, "5d33cacbd780998b977dd493592bdcc04c51e6eed89f34aa2e4a59cd0b0dd082"),
        ("tcons", 3): (19683, "44c5c4f132ded9dbaf1b74d214c307dbf0ef4c2449254c69618a6f7939fbc7bd"),
        ("te3", 3): (19683, "44c5c4f132ded9dbaf1b74d214c307dbf0ef4c2449254c69618a6f7939fbc7bd"),
        ("testca", 3): (64, "8ee74b5050b0c228965606b3be3906b765793ceb96611cbb64700c1d38578dc4"),
        ("testca", 4): (4096, "acf06356c1312b5142e5606c2aea568474df75e3f3f450a67811c8772729ee48"),
    }

    @pytest.mark.parametrize("name,n", list(_DIGESTS))
    def test_the_check_sees_the_pinned_class(self, monkeypatch, name, n):
        seen = []
        tally = oracle._tally

        def recording(ops, check):
            seen.append(list(ops))
            return tally(seen[-1], check)

        monkeypatch.setattr(oracle, "_tally", recording)
        verify_theorem(name, n, jobs=1)
        [ops] = seen
        tables = [op.table for op in ops]
        digest = hashlib.sha256(repr(sorted(tables)).encode()).hexdigest()
        assert (len(tables), digest) == self._DIGESTS[name, n]

    # the searches of the constructions, which hand their tables to no
    # check: (search, n): (tables, sha256 of repr(sorted(tables)))
    _SEARCHES = {
        "main": lambda n: list(oracle._SearchStream(n, [oracle._conservative], mirror=True,
                                                    nondecreasing=True)),
        "open-questions a": lambda n: list(oracle._SearchStream(
            n, [oracle._conservative], identities=(_ASSOCIATIVITY,))),
        "open-questions a, symmetric": lambda n: list(oracle._SearchStream(
            n, [oracle._conservative], mirror=True, identities=(_ASSOCIATIVITY,))),
        "open-questions c": lambda n: list(oracle._SearchStream(
            n, [oracle._full(n)], mirror=True, identities=(_BISYMMETRY,))),
    }
    _SEARCH_DIGESTS = {
        ("main", 3): (4, "8818b08e2800730b8f1187abbc8e7d049de7210daced881731ff58b3b66d2852"),
        ("main", 4): (8, "a7ed6f69ce868b633850c4b65eb78dab23e5aee42a80fbc35c38c58035123e53"),
        ("main", 5): (16, "9eb678e663dd2be68428d7a8951396ff9c09ab2ff9c0aa61e8714bf7afb5532c"),
        ("main", 6): (32, "58f306f8e228ce0c54de6751f63a091073f4fcfac168dc892b4f85dc9d391c9f"),
        ("open-questions a", 3):
            (20, "d66cb7d713a00e896292434b8a1081e4460daaf4e57d93949934c57ff7350b55"),
        ("open-questions a", 4):
            (138, "63d389bbd2be8fec355c8655ea2f664908724e470ebb8c6e2e95325e6f7e06d8"),
        ("open-questions a, symmetric", 3):
            (6, "e9fdb90e49cd2b97ed8cb486486c9c8e7b115b7cc0b6bee5eec81ad586a0a55f"),
        ("open-questions a, symmetric", 4):
            (24, "333222ec9b671d2ac8b42f5f3274a0627aa32637714a5b37208dbaa76e627828"),
        ("open-questions c", 3):
            (105, "39c635c34fe0ef9915e9d1f4d6ca89210df341cafe119122c762b84a99c58563"),
    }

    @pytest.mark.parametrize("search,n", list(_SEARCH_DIGESTS))
    def test_the_construction_search_keeps_the_pinned_tables(self, search, n):
        tables = self._SEARCHES[search](n)
        digest = hashlib.sha256(repr(sorted(tables)).encode()).hexdigest()
        assert (len(tables), digest) == self._SEARCH_DIGESTS[search, n]

    def test_every_scanned_claim_is_pinned(self):
        scanned = {name for name, (_, _, runner, _) in oracle._CATALOG.items()
                   if runner.__qualname__.startswith("_scan.")}
        assert scanned == {name for name, _ in self._DIGESTS}


class TestScanEngineCrossValidation:
    """The indexed table spaces, and the mirrored search with no identity,
    against plain itertools enumeration."""

    # each space is the tables of its defining predicate; t[i][j] is 0-based
    _PREDICATES = {
        "full": lambda t, i, j: True,
        "idempotent": lambda t, i, j: i != j or t[i][j] == i + 1,
        "conservative": lambda t, i, j: t[i][j] in (i + 1, j + 1),
        "conservative-symmetric": lambda t, i, j: t[i][j] in (i + 1, j + 1) and t[i][j] == t[j][i],
        "symmetric": lambda t, i, j: t[i][j] == t[j][i],
    }

    @staticmethod
    def _spaces():
        # the scanned spaces, and the two mirrored searches
        from uninorms import oracle
        return {**_WHOLE_SPACES,
                "conservative-symmetric": lambda n: oracle._search(n, [oracle._conservative],
                                                                   mirror=True),
                "symmetric": lambda n: oracle._search(n, [oracle._full(n)], mirror=True)}

    @pytest.mark.parametrize("name,n", [(name, n) for name in _PREDICATES for n in (1, 2, 3)])
    def test_full_space_matches_product(self, name, n):
        from itertools import product
        cells = [(i, j) for i in range(n) for j in range(n)]
        direct = [
            t for t in (tuple(tuple(values[i * n:(i + 1) * n]) for i in range(n))
                        for values in product(range(1, n + 1), repeat=n * n))
            if all(self._PREDICATES[name](t, i, j) for i, j in cells)
        ]
        assert list(self._spaces()[name](n)) == direct

    def test_spaces_decode_matches_iteration(self):
        for name, n in (("full", 2), ("conservative", 3), ("idempotent", 2)):
            space = _WHOLE_SPACES[name](n)
            listed = list(space)
            assert len(listed) == space.size
            assert len(set(listed)) == space.size
            assert [space.decode(i) for i in range(space.size)] == listed
            for index in (-1, space.size):
                with pytest.raises(IndexError):
                    space.decode(index)

    @pytest.mark.parametrize("name,n", [("full", 3), ("idempotent", 3), ("conservative", 4)])
    def test_worker_ranges_concatenate_to_the_space(self, name, n):
        space = _WHOLE_SPACES[name](n)
        listed = list(space)
        for workers in (1, 2, 3, 4):
            ranges = [t for first, stop in oracle._ranges(space.size, workers)
                      for t in space.iter_range(first, stop)]
            assert ranges == listed
        cut = space.size * 2 // 5 + 1
        assert list(space.iter_range(0, cut)) + list(space.iter_range(cut, space.size)) == listed


class TestSearch:
    """The pruned search against the scalar checkers on the whole space (the
    hand-mirrored product for a mirrored search): for every class the catalog
    searches, the same tables in the same order, and every table of the space
    decided."""

    # name: (cell domains at n, search arguments, scalar checker, largest n);
    # a class with a neutral element is searched once for each e
    _CLASSES = {
        "conservative-associative": (
            lambda n: [oracle._conservative], {"identities": (_ASSOCIATIVITY,)},
            is_associative, 4),
        "conservative-symmetric-associative": (
            lambda n: [oracle._conservative], {"mirror": True, "identities": (_ASSOCIATIVITY,)},
            is_associative, 5),
        "conservative-symmetric-nondecreasing": (
            lambda n: [oracle._conservative], {"mirror": True, "nondecreasing": True},
            is_nondecreasing, 6),
        "conservative-bisymmetric": (
            lambda n: [oracle._conservative], {"identities": (_BISYMMETRY,)}, is_bisymmetric, 4),
        "neutral-bisymmetric": (
            lambda n: [oracle._neutral(n, e) for e in range(1, n + 1)],
            {"identities": (_BISYMMETRY,)}, is_bisymmetric, 3),
        "neutral-nondecreasing": (
            lambda n: [oracle._neutral(n, e) for e in range(1, n + 1)],
            {"nondecreasing": True}, is_nondecreasing, 3),
        "idempotent-neutral-nondecreasing": (
            oracle._idempotent_neutral_parts,
            {"nondecreasing": True}, is_nondecreasing, 3),
        "symmetric-associative": (
            lambda n: [oracle._full(n)], {"mirror": True, "identities": (_ASSOCIATIVITY,)},
            is_associative, 3),
        "symmetric-bisymmetric": (
            lambda n: [oracle._full(n)], {"mirror": True, "identities": (_BISYMMETRY,)},
            is_bisymmetric, 3),
        "nondecreasing": (lambda n: [oracle._full(n)], {"nondecreasing": True}, is_nondecreasing, 3),
    }

    @pytest.mark.parametrize("name,n", [(name, n) for name, spec in _CLASSES.items()
                                        for n in range(1, spec[3] + 1)])
    def test_search_matches_the_filtered_space(self, name, n):
        domains, args, check, _ = self._CLASSES[name]
        assert self._mismatches(n, domains(n), args, check) == 0

    @staticmethod
    def _mismatches(n, domains, args, check) -> int:
        # the cell domains whose search differs from the filtered space
        bad = 0
        for values in domains:
            space = list(mirrored_product(n, values) if args.get("mirror")
                         else oracle._space(n, values))
            decided, found = _decided_and_kept(n, [values], **args)
            kept = [t for t in space if check(_unchecked_operation(n, t))]
            bad += found != kept or decided != len(space)
        return bad

    @pytest.mark.parametrize("name", list(_CLASSES))
    def test_a_stream_decides_its_size(self, name):
        # size, from the cell domains, is the number of tables in the
        # spaces, and the searches account for every one of them
        domains, args, _, _ = self._CLASSES[name]
        spaces = [mirrored_product(3, values) if args.get("mirror") else oracle._space(3, values)
                  for values in domains(3)]
        stream = oracle._SearchStream(3, domains(3), **args)
        for _ in stream:
            pass
        assert stream.size == stream.decided == sum(sum(1 for _ in space) for space in spaces)
        assert oracle._unaccounted(stream.decided, stream.size) == []

    def test_the_search_streams_its_tables(self):
        # the first table comes before the search goes on; once exhausted it
        # returns the tables decided
        search = oracle._search(3, [oracle._conservative], identities=(_ASSOCIATIVITY,))
        space = oracle.conservative_space(3)
        kept = [t for t in space if is_associative(_unchecked_operation(3, t))]
        assert next(search) == kept[0]
        rest = []
        with pytest.raises(StopIteration) as end:
            while True:
                rest.append(next(search))
        assert [kept[0], *rest] == kept
        assert end.value.value == (space.size, space.size)

    # each class the catalog searches in more than one part
    _MULTI_PART = {
        "neutral-nondecreasing": (oracle._neutral_parts, {"nondecreasing": True}),
        "neutral-bisymmetric": (oracle._neutral_parts, {"identities": (_BISYMMETRY,)}),
        "idempotent-neutral-nondecreasing": (oracle._idempotent_neutral_parts,
                                             {"nondecreasing": True}),
    }

    @pytest.mark.parametrize("name", list(_MULTI_PART))
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_a_class_search_is_its_parts_searched_in_turn(self, name, n):
        parts, args = self._MULTI_PART[name]
        decided, kept = _decided_and_kept(n, parts(n), **args)
        alone = [_decided_and_kept(n, [values], **args) for values in parts(n)]
        assert kept == [t for _, tables in alone for t in tables]
        assert decided == sum(d for d, _ in alone)

    @pytest.fixture
    def compiles(self, monkeypatch):
        # the arguments of every call of _compile, its own recursive calls
        # through the module global included
        calls = []
        real = oracle._compile

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(oracle, "_compile", counting)
        return calls

    def test_a_class_compiles_its_identities_once(self, compiles):
        def calls(parts) -> int:
            compiles.clear()
            _decided_and_kept(4, parts, identities=(_BISYMMETRY,))
            return len(compiles)

        parts = oracle._neutral_parts(4)
        assert calls(parts) == calls(parts[:1]) > 0

    def test_a_class_with_no_parts_compiles_nothing(self, compiles):
        search = oracle._search(4, [], identities=(_BISYMMETRY,))
        with pytest.raises(StopIteration) as end:
            next(search)
        assert end.value.value == (0, 0)
        assert compiles == []

    def test_a_sample_compiles_its_identities_once(self, compiles):
        # seed 11 draws two tables with a neutral element at n = 5, searched
        # as one class of two one-table parts
        assert verify_theorem("bis-a", 5, seed=11)["stats"]["prefiltered"] == 2
        sampled = len(compiles)
        compiles.clear()
        _decided_and_kept(5, [lambda i, j: (1,)], identities=(_BISYMMETRY,))
        assert sampled == len(compiles) > 0

    def test_dropping_a_bisymmetry_instance_fails_the_comparison(self, monkeypatch):
        # the search reads the instances of an identity off product(range(n),
        # repeat=arity); withhold the equation F(F(1,1),F(2,3)) =
        # F(F(1,2),F(1,3)). Its instances (x, y, z, w) and (x, z, y, w) read
        # it from either side. The search watches the first; its twin is no
        # longer watched, but would be in its place if the first went alone,
        # so both go.
        real = oracle.product
        dropped = {(0, 0, 1, 2), (0, 1, 0, 2)}

        def product(*iterables, repeat=1):
            return (env for env in real(*iterables, repeat=repeat) if env not in dropped)

        monkeypatch.setattr(oracle, "product", product)
        domains, args, check, _ = self._CLASSES["conservative-bisymmetric"]
        assert self._mismatches(3, domains(3), args, check) == 1


class TestSourceValidation:
    """A space, a search or a sample checks its cell values once, and
    the oracle builds its operations without checking each table again. So
    every table a source yields must pass the public constructor, and the
    unchecked operation must equal the checked one, also after a pickle
    round trip."""

    @staticmethod
    def _valid(n, tables) -> int:
        # the number of tables, each checked
        count = 0
        for count, t in enumerate(tables, 1):
            checked = BinaryOperation(FiniteChain(n), t)
            op = _unchecked_operation(n, t)
            assert op == checked and hash(op) == hash(checked) and repr(op) == repr(checked)
            assert pickle.loads(pickle.dumps(op)) == checked
        return count

    @pytest.mark.parametrize("name,n", [("full", 3), ("idempotent", 3), ("conservative", 4)])
    def test_space_tables_pass_the_constructor(self, name, n):
        assert self._valid(n, _WHOLE_SPACES[name](n)) == _WHOLE_SPACES[name](n).size

    @pytest.mark.parametrize("name", list(TestSearch._CLASSES))
    def test_search_tables_pass_the_constructor(self, name):
        domains, args, _, n = TestSearch._CLASSES[name]
        assert self._valid(n, oracle._search(n, domains(n), **args)) > 0

    def test_operations_share_one_chain(self):
        ops = list(enumerate_conservative(3))
        assert all(op.chain is ops[0].chain for op in ops)

    def test_a_stream_of_unchecked_operations_is_the_checked_one(self):
        tables = list(oracle.full_space(2))
        ops = list(_unchecked_operations(2, tables))
        assert ops == [BinaryOperation(FiniteChain(2), t) for t in tables]
        assert all(type(op) is BinaryOperation and op.chain is ops[0].chain for op in ops)

    @pytest.mark.parametrize("bad", [0, 4, True])
    @pytest.mark.parametrize("source", [
        lambda n, values: iter(oracle._space(n, values)),
        lambda n, values: oracle._search(n, [values]),
        lambda n, values: oracle._search(n, [values], mirror=True),
        # a class checks its last part before the tables of its first
        lambda n, values: oracle._search(n, [oracle._full(n), values]),
        lambda n, values: iter(oracle._draw([values], n, 0, False)),
        lambda n, values: iter(oracle._draw([values], n, 0, True)),
    ])
    def test_a_bad_cell_value_fails_before_any_table(self, source, bad):
        # the bad value sits last in the last cell's domain, so a source that
        # checked each table, or a class each part, instead would yield
        # tables first
        n = 3
        values = lambda i, j: (1, bad) if (i, j) == (n - 1, n - 1) else (1,)
        yielded = []
        with pytest.raises(ValueError, match="not an integer in 1..3"):
            for t in source(n, values):
                yielded.append(t)
        assert yielded == []


class TestSample:
    """The fixed-seed samples of bis-a and bis-b past n = 4, which draw the
    tables they keep from the cell domains of the claims' searches, against
    the classes filtered out of the whole space."""

    # name: (the class as parts, whether they are mirrored, the prefilter it
    # stands for)
    _CLASSES = {
        "neutral": (oracle._neutral_parts, False,
                    lambda op: find_neutral_element(op) is not None),
        "symmetric": (lambda n: [oracle._full(n)], True, is_symmetric),
    }

    @staticmethod
    def _size(parts, n, mirror) -> int:
        # the tables in the parts, from their cell domains
        cells = oracle._part_cells(n, mirror)
        return sum(prod(map(len, oracle._domains(n, values, cells))) for values in parts)

    @staticmethod
    def _filtered(name, n) -> set:
        prefilter = TestSample._CLASSES[name][2]
        return {t for t in oracle.full_space(n) if prefilter(_unchecked_operation(n, t))}

    @pytest.mark.parametrize("name,n,size", [
        ("neutral", 2, 4), ("neutral", 3, 243), ("symmetric", 2, 8), ("symmetric", 3, 729)])
    def test_class_sizes_are_the_exhaustive_counts(self, name, n, size):
        parts, mirror, _ = self._CLASSES[name]
        assert self._size(parts(n), n, mirror) == size
        assert len(self._filtered(name, n)) == size

    @pytest.mark.parametrize("name", list(_CLASSES))
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_kept_tables_meet_the_prefilter(self, name, n):
        parts, mirror, prefilter = self._CLASSES[name]
        tables = oracle._draw(parts(n), n, 0, mirror)
        assert TestSourceValidation._valid(n, tables) > 0
        assert all(prefilter(BinaryOperation(FiniteChain(n), t)) for t in tables)
        # each draw is kept with probability |class| / n^(n^2): the number
        # kept lies within five standard deviations of its mean
        p = self._size(parts(n), n, mirror) / n ** (n * n)
        mean = oracle.SAMPLE_SIZE * p
        assert abs(len(tables) - mean) < 5 * (mean * (1 - p)) ** 0.5

    @pytest.mark.parametrize("name", list(_CLASSES))
    def test_kept_tables_cover_the_class(self, name):
        parts, mirror, _ = self._CLASSES[name]
        tables = oracle._draw(parts(2), 2, 0, mirror)
        assert set(tables) == self._filtered(name, 2)

    @pytest.mark.parametrize("name", list(_CLASSES))
    def test_trials_take_the_generator_expressions_draws(self, monkeypatch, name):
        # _draw counts its kept trials with a list comprehension: for each
        # seed it must keep as many as one rng.random() < p per trial in a
        # generator expression, and leave the stream where that one does
        parts, mirror, _ = self._CLASSES[name]
        n = 5
        p = self._size(parts(n), n, mirror) / n ** (n * n)
        seen = []

        class Probe(random.Random):
            def choices(self, population, weights, k):
                seen.append((k, self.random()))
                return []

        monkeypatch.setattr(oracle, "random", SimpleNamespace(Random=Probe))
        for seed in range(64):
            oracle._draw(parts(n), n, seed, mirror)
            rng = random.Random(seed)
            kept = sum(rng.random() < p for _ in range(oracle.SAMPLE_SIZE))
            assert seen.pop() == (kept, rng.random())

    @pytest.mark.parametrize("name,antecedent", [("bis-a", is_bisymmetric),
                                                 ("bis-b", is_associative)])
    def test_sampled_claims_check_the_draws_their_class_accepts(self, monkeypatch, name,
                                                                antecedent):
        # the draws: the uninorms at n = 5, which meet both classes, and each
        # with one off-diagonal pair moved, still symmetric with the same
        # neutral element, of which some meet neither class
        uninorms = [op.table for op in generate_all_uninorms_gc(5)]

        def moved(t):
            e = find_neutral_element(_unchecked_operation(5, t))
            a, b = [x for x in range(5) if x != e - 1][:2]
            rows = [list(row) for row in t]
            rows[a][b] = rows[b][a] = rows[a][b] % 5 + 1
            return tuple(map(tuple, rows))

        drawn = uninorms + [moved(t) for t in uninorms]
        monkeypatch.setattr(oracle, "_draw", lambda parts, n, seed, mirror: drawn)
        accepted = sum(antecedent(_unchecked_operation(5, t)) for t in drawn)
        assert 16 <= accepted < len(drawn)
        report = verify_theorem(name, 5, seed=7)
        assert report["ok"], report
        assert report["candidates"] == oracle.SAMPLE_SIZE
        assert report["stats"] == {"prefiltered": len(drawn), "antecedent": accepted}

    def test_samples_do_not_load_numpy(self):
        code = ("import sys, uninorms; uninorms.verify_theorem('bis-a', 5); "
                "uninorms.verify_theorem('bis-b', 5); assert 'numpy' not in sys.modules")
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, timeout=60)
        assert result.returncode == 0, result.stderr


def test_import_loads_no_process_pool_or_dataclasses():
    # only a scan that starts workers imports the pool module
    code = ("import sys, uninorms, uninorms.cli; "
            "loaded = {'multiprocessing', 'concurrent.futures.process', 'dataclasses'} "
            "& set(sys.modules); assert not loaded, sorted(loaded)")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, timeout=60)
    assert result.returncode == 0, result.stderr
