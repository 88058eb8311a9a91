import json

import pytest
from hypothesis import given, strategies as st

from uninorms import (
    enumerate_all_operations,
    enumerate_conservative,
    enumerate_nondecreasing,
    find_neutral_element,
    fixture,
    probe_open_questions,
    profile,
    theorem_bound,
    theorem_names,
    verify_theorem,
)

from test_core import max_op, tables


class TestEnumerators:
    @pytest.mark.parametrize("n,count", [(1, 1), (2, 16), (3, 19683)])
    def test_all_operations(self, n, count):
        assert sum(1 for _ in enumerate_all_operations(n)) == count

    def test_all_operations_distinct_and_ordered(self):
        seen = [op.table for op in enumerate_all_operations(2)]
        assert len(set(seen)) == 16
        flat = [tuple(v for row in t for v in row) for t in seen]
        assert flat == sorted(flat)

    def test_all_operations_bound(self):
        with pytest.raises(ValueError, match="bound"):
            next(enumerate_all_operations(4))

    @pytest.mark.parametrize("n,count", [(2, 4), (3, 64), (4, 4096)])
    def test_conservative(self, n, count):
        assert sum(1 for _ in enumerate_conservative(n)) == count

    @pytest.mark.parametrize("n,count", [(2, 2), (3, 8), (4, 64)])
    def test_conservative_symmetric(self, n, count):
        assert sum(1 for _ in enumerate_conservative(n, symmetric_only=True)) == count

    def test_conservative_bounds(self):
        with pytest.raises(ValueError):
            next(enumerate_conservative(6))
        with pytest.raises(ValueError):
            next(enumerate_conservative(9, symmetric_only=True))

    def test_conservative_yield_is_conservative(self):
        for op in enumerate_conservative(3):
            assert all(op(x, y) in (x, y) for x, y in op.pairs())

    @pytest.mark.parametrize("n,count", [(1, 1), (2, 6), (3, 175), (4, 24696)])
    def test_nondecreasing_counts(self, n, count):
        # box plane-partition numbers, computed independently before freezing
        assert sum(1 for _ in enumerate_nondecreasing(n)) == count

    def test_nondecreasing_bound(self):
        with pytest.raises(ValueError):
            next(enumerate_nondecreasing(5))

    @pytest.mark.parametrize("n,count", [(1, 1), (2, 2), (3, 13), (4, 346)])
    def test_nondecreasing_with_neutral_source(self, n, count):
        # the source of mainb, corollary-mainb and prel34 against filtering
        # every nondecreasing table
        from uninorms.oracle import _nondecreasing_tables
        built = [t for e in range(1, n + 1) for t in _nondecreasing_tables(n, e)]
        filtered = {op.table for op in enumerate_nondecreasing(n)
                    if find_neutral_element(op) is not None}
        assert len(built) == count
        assert set(built) == filtered


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

    def test_unknown_claim(self):
        with pytest.raises(ValueError, match="unknown"):
            verify_theorem("no-such-claim", 3)

    def test_bound_enforced(self):
        with pytest.raises(ValueError, match="only checkable"):
            verify_theorem("tcons", 4)
        with pytest.raises(ValueError):
            verify_theorem("main", 0)

    def test_mainb_exhaustive_statistics(self):
        # the sweep visits every nondecreasing table with a neutral element
        # (13 of them); both sides of the characterization pick out the
        # same 6 tables
        report = verify_theorem("mainb", 3)
        assert report["candidates"] == 13
        assert report["stats"] == {
            "candidate": 13, "bisymmetric_side": 6, "uninorm_side": 6,
        }

    def test_mainb_sweep_at_its_bound(self):
        report = verify_theorem("mainb", 4, seed=0)
        assert report["ok"]
        assert report["candidates"] == 346
        assert report["stats"] == {
            "candidate": 346, "bisymmetric_side": 22, "uninorm_side": 22,
        }

    def test_corollary_statistics(self):
        report = verify_theorem("corollary-mainb", 3)
        assert report["candidates"] == 13
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

    def test_rec8n_report(self):
        report = verify_theorem("rec8n", 4)
        assert report["candidates"] == 24
        assert report["symmetric_expected"] == 4

    def test_sampled_claims(self):
        for name, n in [("bis-a", 4), ("bis-b", 4), ("bis-c", 4),
                        ("bis-a", 5), ("bis-b", 5)]:
            report = verify_theorem(name, n, seed=0)
            assert report["ok"], report

    def test_corollary_sweep_at_its_bound(self):
        report = verify_theorem("corollary-mainb", 4, seed=0)
        assert report["ok"]
        assert report["candidates"] == 346
        assert report["stats"] == {"candidate": 346, "idempotent_uninorms": 8}

    def test_main3_at_its_bound(self):
        report = verify_theorem("main3", 5)
        assert report["ok"]
        assert report["stats"]["candidate"] == 16

    def test_reports_are_json_serializable(self):
        for name in theorem_names():
            json.dumps(verify_theorem(name, 2))

    def test_jobs_do_not_change_the_report(self):
        claims = [(name, min(3, theorem_bound(name))) for name in theorem_names()]
        for name, n in claims + [("bis-a", 4), ("bis-b", 4)]:
            a = verify_theorem(name, n, jobs=1)
            b = verify_theorem(name, n, jobs=2)
            a.pop("runtime_seconds")
            b.pop("runtime_seconds")
            assert a == b, (name, n)

    def test_worker_count_is_bounded(self, monkeypatch):
        # checked without starting a pool
        from uninorms import oracle
        monkeypatch.setattr(oracle.os, "cpu_count", lambda: 4)
        assert oracle._worker_count(5000, 64) == 4
        assert oracle._worker_count(2, 64) == 2
        assert oracle._worker_count(8, 1) == 1
        assert oracle._worker_count(1, 64) == 1
        monkeypatch.setattr(oracle.os, "cpu_count", lambda: None)
        assert oracle._worker_count(8, 64) == 1

    def test_seed_is_reproducible(self):
        a = verify_theorem("bis-a", 4, seed=7)
        b = verify_theorem("bis-a", 4, seed=7)
        a.pop("runtime_seconds")
        b.pop("runtime_seconds")
        assert a == b


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


class TestProbeFastPaths:
    """The raw-table rectangle loop the probe runs, against the triple-loop
    associativity checker, over every conservative table on the 3- and
    4-chain."""

    @pytest.mark.parametrize("n", [3, 4])
    def test_rect_helper_agrees_with_is_associative(self, n):
        from uninorms.properties import _table_rect_witness
        from uninorms import is_associative

        for op in enumerate_conservative(n):
            assert (_table_rect_witness(op.table) is None) == is_associative(op)

    def test_probe_counts_at_size_four(self):
        # 138 associative conservative tables, counted independently with the
        # naive triple loop before freezing
        report = probe_open_questions(4, seed=0)
        assert report["a"]["conservative"] == 4096
        assert report["a"]["conservative_associative"] == 138
        assert report["a"]["conservative_symmetric"] == 64
        assert report["a"]["conservative_symmetric_associative"] == 24
        assert report["c"]["mode"] == "sampled"
        assert report["c"]["symmetric_tables_examined"] == 100000


class TestScanEngineCrossValidation:
    """The indexed table spaces against plain itertools enumeration."""

    def test_full_space_matches_product(self):
        from itertools import product
        from uninorms.oracle import full_space
        direct = [
            tuple(tuple(values[i * 2 + j] for j in range(2)) for i in range(2))
            for values in product((1, 2), repeat=4)
        ]
        assert list(full_space(2)) == direct

    def test_spaces_decode_matches_iteration(self):
        from uninorms.oracle import (
            conservative_space,
            conservative_symmetric_space,
            idempotent_space,
            symmetric_space,
        )
        for space in (conservative_space(3), conservative_symmetric_space(3),
                      idempotent_space(2), symmetric_space(2)):
            listed = list(space)
            assert len(listed) == space.size
            assert len(set(listed)) == space.size
            assert [space.decode(i) for i in range(space.size)] == listed

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_symmetric_conservative_space_is_the_symmetric_subset(self, n):
        # the probe counts symmetric conservative tables from this space alone
        from uninorms import is_symmetric
        from uninorms.oracle import conservative_symmetric_space
        subset = [op.table for op in enumerate_conservative(n) if is_symmetric(op)]
        assert list(conservative_symmetric_space(n)) == subset

    def test_chunked_iteration_matches(self):
        from uninorms.oracle import conservative_space
        space = conservative_space(3)
        split = list(space.iter_range(0, 20)) + list(space.iter_range(20, space.size))
        assert split == list(space)

