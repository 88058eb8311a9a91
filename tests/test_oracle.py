import json
from itertools import chain

import pytest
from hypothesis import given, strategies as st

from uninorms import (
    BinaryOperation,
    FiniteChain,
    enumerate_all_operations,
    enumerate_conservative,
    enumerate_nondecreasing,
    find_neutral_element,
    fixture,
    is_associative,
    is_bisymmetric,
    is_nondecreasing,
    probe_open_questions,
    profile,
    theorem_bound,
    theorem_names,
    verify_theorem,
)
from uninorms import oracle
from uninorms.oracle import _ASSOCIATIVITY, _BISYMMETRY

from test_core import max_op, tables


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

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_conservative_symmetric_is_the_mirrored_product(self, n):
        assert [op.table for op in enumerate_conservative(n, symmetric_only=True)] == list(
            mirrored_product(n, lambda i, j: sorted({i + 1, j + 1})))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_conservative_symmetric_is_the_symmetric_subset(self, n):
        from uninorms import is_symmetric
        assert [op.table for op in enumerate_conservative(n, symmetric_only=True)] == [
            op.table for op in enumerate_conservative(n) if is_symmetric(op)]

    def test_conservative_bounds(self):
        with pytest.raises(ValueError):
            next(enumerate_conservative(6))
        with pytest.raises(ValueError):
            next(enumerate_conservative(9, symmetric_only=True))

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
            op.table for op in enumerate_all_operations(n) if is_nondecreasing(op)]

    @pytest.mark.parametrize("n,count", [(1, 1), (2, 2), (3, 13), (4, 346)])
    def test_nondecreasing_with_neutral_source(self, n, count):
        # the source of mainb, corollary-mainb and prel34 against filtering
        # every nondecreasing table
        from uninorms.oracle import _nondecreasing_neutral
        candidates, built = _nondecreasing_neutral(n)
        filtered = [op.table for op in enumerate_nondecreasing(n)
                    if find_neutral_element(op) is not None]
        assert candidates == len(built) == count
        assert sorted(built) == filtered


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
        report = verify_theorem("mainb", 5)
        assert report["ok"]
        assert report["candidates"] == 40088
        assert report["stats"] == {
            "candidate": 40088, "bisymmetric_side": 92, "uninorm_side": 92,
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

    def test_a_generated_table_the_search_misses_is_a_counterexample(self, monkeypatch):
        # the search loses its last table and repeats its first, so the count
        # still matches and only the comparison from the generated side sees it
        from uninorms import oracle
        search = oracle._search

        def lossy(*args, **kwargs):
            decided, tables = oracle._drain(search(*args, **kwargs))
            yield from tables[:-1] + tables[:1]
            return decided

        last = list(search(4, oracle._conservative, mirror=True, nondecreasing=True))[-1]
        monkeypatch.setattr(oracle, "_search", lossy)
        report = verify_theorem("main", 4)
        assert not report["ok"]
        assert report["counterexamples"] == [{
            "table": oracle._json_rows(last),
            "reason": "generated and passes the axioms, but the search did not find it"}]

    def test_rec8n_report(self):
        report = verify_theorem("rec8n", 4)
        assert report["candidates"] == 24
        assert report["symmetric_expected"] == 4

    def test_sampled_claims(self):
        for name in ("bis-a", "bis-b"):
            report = verify_theorem(name, 5, seed=0)
            assert report["ok"], report
            assert report["candidates"] == 100000 and report["seed"] == 0

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

    def test_corollary_sweep_at_its_bound(self):
        report = verify_theorem("corollary-mainb", 4, seed=0)
        assert report["ok"]
        assert report["candidates"] == 346
        assert report["stats"] == {"candidate": 346, "idempotent_uninorms": 8}
        report = verify_theorem("corollary-mainb", 5)
        assert report["ok"]
        assert report["candidates"] == 40088
        assert report["stats"] == {"candidate": 40088, "idempotent_uninorms": 16}

    def test_prel34_at_its_bound(self):
        # idempotent among the nondecreasing tables with a neutral element
        assert verify_theorem("prel34", 4)["stats"] == {"candidate": 164}
        report = verify_theorem("prel34", 5)
        assert report["ok"]
        assert report["candidates"] == 40088
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

    @pytest.mark.parametrize("name", ["bis-a", "bis-b"])
    def test_samples_run_in_this_process(self, monkeypatch, name):
        from uninorms import oracle

        def no_pool(*args, **kwargs):
            raise AssertionError("a sample started a process pool")

        for seed in (0, 1):
            serial = verify_theorem(name, 5, seed=seed, jobs=1)
            monkeypatch.setattr(oracle, "ProcessPoolExecutor", no_pool)
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
        return {**oracle._SPACES,
                "conservative-symmetric": lambda n: oracle._search(n, oracle._conservative,
                                                                   mirror=True),
                "symmetric": lambda n: oracle._search(n, oracle._full(n), mirror=True)}

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
            space = oracle._SPACES[name](n)
            listed = list(space)
            assert len(listed) == space.size
            assert len(set(listed)) == space.size
            assert [space.decode(i) for i in range(space.size)] == listed
            for index in (-1, space.size):
                with pytest.raises(IndexError):
                    space.decode(index)

    @pytest.mark.parametrize("name,n", [("full", 3), ("idempotent", 3), ("conservative", 4)])
    def test_chunked_iteration_matches(self, name, n):
        from uninorms.oracle import _chunk_bounds
        space = oracle._SPACES[name](n)
        listed = list(space)
        chunks = [t for first, stop in _chunk_bounds(space.size)
                  for t in space.iter_range(first, stop)]
        assert chunks == listed
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
            decided, found = oracle._drain(oracle._search(n, values, **args))
            bad += found != [t for t in space if check(oracle._wrap(n, t))] or decided != len(space)
        return bad

    def test_the_search_streams_its_tables(self):
        # the first table comes before the search goes on; once exhausted it
        # returns the tables decided
        search = oracle._search(3, oracle._conservative, identities=(_ASSOCIATIVITY,))
        space = oracle.conservative_space(3)
        kept = [t for t in space if is_associative(oracle._wrap(3, t))]
        assert next(search) == kept[0]
        rest = []
        with pytest.raises(StopIteration) as end:
            while True:
                rest.append(next(search))
        assert [kept[0], *rest] == kept
        assert end.value.value == space.size

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
    """A space, a search or a sample chunk checks its cell values once, and
    the oracle builds its operations without checking each table again. So
    every table a source yields must pass the public constructor, and the
    unchecked operation must equal the checked one."""

    @staticmethod
    def _valid(n, tables) -> int:
        # the number of tables, each checked
        count = 0
        for count, t in enumerate(tables, 1):
            checked = BinaryOperation(FiniteChain(n), t)
            op = oracle._wrap(n, t)
            assert op == checked and hash(op) == hash(checked)
        return count

    @pytest.mark.parametrize("name,n", [("full", 3), ("idempotent", 3), ("conservative", 4)])
    def test_space_tables_pass_the_constructor(self, name, n):
        assert self._valid(n, oracle._SPACES[name](n)) == oracle._SPACES[name](n).size

    @pytest.mark.parametrize("name", list(TestSearch._CLASSES))
    def test_search_tables_pass_the_constructor(self, name):
        domains, args, _, n = TestSearch._CLASSES[name]
        assert self._valid(n, chain.from_iterable(oracle._search(n, values, **args)
                                                  for values in domains(n))) > 0

    @pytest.mark.parametrize("hypothesis", ["sampled-neutral", "sampled-symmetric"])
    def test_sampled_tables_pass_the_constructor(self, hypothesis):
        # a chunk at n = 5 keeps few or no tables with a neutral element, and
        # no symmetric one; at n = 2 each hypothesis keeps some
        self._valid(5, oracle._draw(hypothesis, 5, 0, 0))
        assert self._valid(2, oracle._draw(hypothesis, 2, 0, 0)) > 0

    def test_operations_share_one_chain(self):
        ops = list(enumerate_conservative(3))
        assert all(op.chain is ops[0].chain for op in ops)

    @pytest.mark.parametrize("bad", [0, 4, True])
    @pytest.mark.parametrize("source", [
        lambda n, values: iter(oracle._space(n, values)),
        lambda n, values: oracle._search(n, values),
        lambda n, values: oracle._search(n, values, mirror=True),
    ])
    def test_a_bad_cell_value_fails_before_any_table(self, source, bad):
        # the bad value sits last in the last cell's domain, so a source that
        # checked each table instead would yield tables first
        n = 3
        values = lambda i, j: (1, bad) if (i, j) == (n - 1, n - 1) else (1,)
        yielded = []
        with pytest.raises(ValueError, match="not an integer in 1..3"):
            for t in source(n, values):
                yielded.append(t)
        assert yielded == []
