import argparse
import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from uninorms import fixture, format_table, make_operation, parse_table, render_contour_text
from uninorms.cli import main

from test_core import max_op


@pytest.fixture
def fig13_file(tmp_path):
    path = tmp_path / "fig13.txt"
    path.write_text(format_table(fixture("fig13")))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestEnumerate:
    def test_uninorms_count_and_blocks(self, capsys):
        code, out, err = run(capsys, "enumerate", "uninorms", "--n", "3")
        assert code == 0
        blocks = [b for b in out.split("\n\n") if b.strip()]
        assert len(blocks) == 4
        tables = {parse_table(b).table for b in blocks}
        assert len(tables) == 4
        assert "count: 4" in err

    def test_single_element(self, capsys):
        code, out, _ = run(capsys, "enumerate", "uninorms", "--n", "1")
        assert code == 0
        assert parse_table(out).table == ((1,),)

    def test_single_peaked_orders(self, capsys):
        code, out, err = run(capsys, "enumerate", "single-peaked", "--n", "4")
        assert code == 0
        assert len(out.strip().splitlines()) == 8
        assert "count: 8" in err

    def test_conservative(self, capsys):
        code, out, err = run(capsys, "enumerate", "conservative", "--n", "2")
        assert code == 0 and "count: 4" in err

    def test_closed_pipe_ends_the_output_quietly(self):
        # like `uninorms enumerate conservative --n 5 | head -1`
        proc = subprocess.Popen(
            [sys.executable, "-m", "uninorms.cli", "enumerate", "conservative", "--n", "5"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        assert proc.stdout.readline() == b"5\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 0
        assert err == b""

    def test_gspecs_json(self, capsys):
        code, out, _ = run(capsys, "enumerate", "gspecs", "--n", "3", "--format", "json")
        assert code == 0
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert len(records) == 4
        assert records[0] == {"n": 3, "e": 1, "g": [1]}

    def test_json_tables(self, capsys):
        code, out, _ = run(capsys, "enumerate", "uninorms", "--n", "2", "--format", "json")
        assert code == 0
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert {"n": 2, "table": [[1, 2], [2, 2]]} in records

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "out.txt"
        code, out, _ = run(capsys, "enumerate", "uninorms", "--n", "2",
                           "--output", str(path))
        assert code == 0 and out == ""
        assert "2" in path.read_text()

    def test_bad_n_leaves_output_file_alone(self, capsys, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("keep me\n")
        code, _, err = run(capsys, "enumerate", "conservative", "--n", "9",
                           "--output", str(path))
        assert code == 2 and err.startswith("error: ")
        assert path.read_text() == "keep me\n"

    def test_infeasible_n(self, capsys):
        code, _, err = run(capsys, "enumerate", "conservative", "--n", "9")
        assert code == 2
        assert "error" in err


class TestCheck:
    def test_fig13_properties(self, capsys, fig13_file):
        code, out, _ = run(capsys, "check", fig13_file,
                           "--properties", "associative,bisymmetric")
        assert code == 1
        data = json.loads(out)
        assert data["associative"] is True
        assert data["bisymmetric"] is False
        assert data["neutral"] == 1

    def test_max_is_conservative(self, capsys, tmp_path):
        path = tmp_path / "max.txt"
        path.write_text(format_table(max_op(3)))
        code, out, _ = run(capsys, "check", str(path), "--properties", "conservative")
        assert code == 0
        assert json.loads(out)["conservative"] is True

    def test_fig7_not_nondecreasing(self, capsys, tmp_path):
        path = tmp_path / "fig7.txt"
        path.write_text(format_table(fixture("fig7")))
        code, out, _ = run(capsys, "check", str(path), "--properties", "nondecreasing")
        assert code == 1
        assert json.loads(out)["nondecreasing"] is False

    def test_no_properties_requested(self, capsys, fig13_file):
        code, out, _ = run(capsys, "check", fig13_file)
        assert code == 0
        assert json.loads(out)["n"] == 3

    def test_unknown_property(self, capsys, fig13_file):
        code, _, err = run(capsys, "check", fig13_file, "--properties", "monotone")
        assert code == 2 and "unknown property" in err

    def test_parse_error(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3\n1 2\n")
        code, _, err = run(capsys, "check", str(path))
        assert code == 2 and "error" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "check", "/nonexistent/table.txt")
        assert code == 2

    @pytest.mark.parametrize("text", [
        '{"n": 2, "table": [1, 2]}',
        '{"n": 2.0, "table": [[1, 2], [2, 2]]}',
        '{"n": 2, "table": [[true, 2], [2, 2]]}',
    ])
    def test_malformed_json_table(self, capsys, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, out, err = run(capsys, "check", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    # int() would read each of these numbers but the overlong one, which
    # gets past a low digit limit; the formats allow short runs of ASCII
    # digits only, and a size below 1 is a chain size error, as 0 is
    @pytest.mark.parametrize("argv,text,message", [
        (["check"], "2\n1 0_2\n2 2\n", "digits 0-9"),
        (["check"], "2\n+1 2\n2 2\n", "digits 0-9"),
        (["check"], "2\n1 \uff12\n2 2\n", "digits 0-9"),
        (["check"], "2\n1 " + "0" * 640 + "2\n2 2\n", "at most 640 digits"),
        (["check"], "+2\n1 2\n2 2\n", "first value must be the chain size"),
        (["check"], "-1\n", "chain size must be a positive integer, got -1"),
        (["check"], '{"n": -1, "table": []}', "chain size must be a positive integer, got -1"),
        (["render", "--style", "profile"], "1_0 2 3 4 5 6 7 8 9 1\n", "digits 0-9"),
        (["render", "--style", "profile"], "2 +1 3\n", "digits 0-9"),
        (["render", "--style", "profile"], "2 \uff11 3\n", "digits 0-9"),
    ], ids=["underscore", "plus-sign", "full-width", "overlong", "signed-size", "negative-size",
            "json-negative-size", "order-underscore", "order-plus-sign", "order-full-width"])
    def test_lax_numbers_are_rejected(self, capsys, monkeypatch, argv, text, message):
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code, out, err = run(capsys, argv[0], "-", *argv[1:])
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    def test_deeply_nested_json(self, capsys, monkeypatch):
        import io
        depth = 100_000
        text = '{"n": ' + "[" * depth + "1" + "]" * depth + "}"
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code, out, err = run(capsys, "check", "-")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


class TestRender:
    def test_text(self, capsys, tmp_path):
        path = tmp_path / "fig3.txt"
        path.write_text(format_table(fixture("fig3")))
        code, out, _ = run(capsys, "render", str(path))
        assert code == 0
        assert len(out.splitlines()) == 3

    def test_dot(self, capsys, tmp_path):
        path = tmp_path / "one.txt"
        path.write_text("1\n1\n")
        code, out, _ = run(capsys, "render", str(path), "--style", "dot")
        assert code == 0
        assert out.startswith("graph contour {")

    def test_profile(self, capsys, tmp_path):
        path = tmp_path / "order.txt"
        path.write_text("2 3 4 1 5\n")
        code, out, _ = run(capsys, "render", str(path), "--style", "profile")
        assert code == 0
        assert "[single-peaked]" in out

    def test_profile_stdin(self, capsys, monkeypatch):
        import io
        monkeypatch.setattr(sys, "stdin", io.StringIO("5 2 1 3 4\n"))
        code, out, _ = run(capsys, "render", "-", "--style", "profile")
        assert code == 0
        assert "[not single-peaked]" in out


class TestVerify:
    def test_counting_claim(self, capsys):
        code, out, err = run(capsys, "verify", "--theorem", "main2n", "--n", "10")
        assert code == 0
        report = json.loads(out)
        assert report["expected"] == 512 and report["ok"]
        assert "runtime_seconds" not in report
        assert "runtime" in err

    def test_rectangle_claim(self, capsys):
        code, out, _ = run(capsys, "verify", "--theorem", "testca", "--n", "4")
        assert code == 0
        assert json.loads(out)["candidates"] == 4096

    def test_trivial_chain(self, capsys):
        code, out, _ = run(capsys, "verify", "--theorem", "main2n", "--n", "1")
        assert code == 0
        assert json.loads(out)["expected"] == 1

    def test_unknown_theorem(self, capsys):
        code, _, err = run(capsys, "verify", "--theorem", "nope", "--n", "3")
        assert code == 2 and "unknown" in err

    def test_infeasible(self, capsys):
        code, _, err = run(capsys, "verify", "--theorem", "tcons", "--n", "9")
        assert code == 2

    def test_jobs_below_one(self, capsys):
        code, out, err = run(capsys, "verify", "--theorem", "main2n", "--n", "3",
                             "--jobs", "0")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("name,n", [("bis-a", 5), ("main", 3)])
    def test_negative_seed(self, capsys, name, n):
        # a sampling claim and one that draws nothing
        code, out, err = run(capsys, "verify", "--theorem", name, "--n", str(n),
                             "--seed", "-5")
        assert code == 2 and out == ""
        assert err == "error: seed must be non-negative, got -5\n"

    def test_jobs_yield_identical_bytes(self, capsys):
        _, out1, _ = run(capsys, "verify", "--theorem", "mainb", "--n", "3",
                         "--jobs", "1")
        _, out2, _ = run(capsys, "verify", "--theorem", "mainb", "--n", "3",
                         "--jobs", "2")
        assert out1 == out2


class TestCount:
    def test_total(self, capsys):
        code, out, _ = run(capsys, "count", "--n", "6")
        assert code == 0
        assert json.loads(out) == {"count": 32, "n": 6}

    def test_by_neutral(self, capsys):
        code, out, _ = run(capsys, "count", "--n", "5", "--e", "3")
        assert code == 0
        assert json.loads(out) == {"count": 6, "e": 3, "n": 5}

    def test_bad_e(self, capsys):
        code, _, err = run(capsys, "count", "--n", "3", "--e", "9")
        assert code == 2

    def test_digit_limit(self, capsys):
        # the largest n whose count 2^(n-1) the interpreter still prints
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            pytest.skip("this interpreter prints integers of any length")
        n = (10 ** limit).bit_length()
        code, out, _ = run(capsys, "count", "--n", str(n))
        assert code == 0
        assert json.loads(out)["count"] == 2 ** (n - 1)
        code, out, err = run(capsys, "count", "--n", str(n + 1))
        assert code == 2 and out == ""
        assert err == (f"error: the count for n = {n + 1} has more than {limit} digits, "
                       f"more than this interpreter prints\n")

    @pytest.mark.parametrize("argv", [
        ["--n", "4000000000"], ["--n", "2000000", "--e", "1000000"],
        ["--n", "20000000", "--e", "10000000"], ["--n", str(10 ** 4000)],
        ["--n", str(10 ** 4000), "--e", "20"],
    ])
    def test_an_oversized_count_is_rejected_before_it_is_computed(self, capsys, monkeypatch,
                                                                  argv):
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            pytest.skip("this interpreter prints integers of any length")
        from uninorms import cli
        calls = []
        monkeypatch.setattr(cli, "count_uninorms", lambda *a: calls.append(a))
        monkeypatch.setattr(cli, "count_uninorms_by_neutral", lambda *a: calls.append(a))
        code, out, err = run(capsys, "count", *argv)
        assert calls == []
        assert code == 2 and out == ""
        assert err == (f"error: the count for n = {argv[1]} has more than {limit} digits, "
                       f"more than this interpreter prints\n")

    @pytest.mark.parametrize("argv,count", [
        (["--n", "100000", "--e", "1"], 1), (["--n", "100000", "--e", "3"], 4999850001),
        (["--n", "100000", "--e", "99998"], 4999850001), (["--n", "14285"], 2 ** 14284),
        (["--n", str(10 ** 4000), "--e", "2"], 10 ** 4000 - 1),
    ])
    def test_counts_below_the_limit_still_print(self, capsys, argv, count):
        code, out, _ = run(capsys, "count", *argv)
        assert code == 0 and json.loads(out)["count"] == count

    @pytest.mark.parametrize("argv", [["--n", "0"], ["--n", "0", "--e", "1"],
                                      ["--n", "2000000", "--e", "5000000"],
                                      ["--n", "2000000", "--e", "-5"]])
    def test_bad_input_keeps_its_own_error(self, capsys, argv):
        code, out, err = run(capsys, "count", *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "digits" not in err and err.count("\n") == 1


class TestUsage:
    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_bad_style(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["render", "x", "--style", "png"])
        assert exc.value.code == 2

    def test_enumerate_takes_no_jobs(self, capsys):
        # enumeration is sequential; only verify takes --jobs
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "uninorms", "--n", "3", "--jobs", "2"])
        assert exc.value.code == 2


class TestRepeatedCalls:
    """main() may be called many times in one process; no call sees the last."""

    def test_the_parser_is_built_once(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def spy(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
        assert run(capsys, "count", "--n", "3")[0] == 0
        built.clear()
        assert run(capsys, "count", "--n", "3") == (0, '{"count": 4, "n": 3}\n', "")
        assert built == []
        argparse.ArgumentParser()  # the spy counts
        assert len(built) == 1

    def test_no_state_leaks_between_calls(self, capsys, monkeypatch):
        text = format_table(make_operation(2, [[2, 2], [2, 2]]))  # F(1, 1) = 2
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code, out, err = run(capsys, "check", "-", "--properties", "idempotent")
        assert code == 1 and json.loads(out)["idempotent"] is False
        assert err == "failed: idempotent\n"
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        assert run(capsys, "check", "-") == (0, out, "")

        fig3 = fixture("fig3")
        monkeypatch.setattr(sys, "stdin", io.StringIO(format_table(fig3)))
        code, out, _ = run(capsys, "render", "-", "--style", "dot")
        assert code == 0 and out.startswith("graph contour {")
        monkeypatch.setattr(sys, "stdin", io.StringIO(format_table(fig3)))
        assert run(capsys, "render", "-") == (0, render_contour_text(fig3), "")

    def test_help_and_usage_errors_print_in_full_each_time(self, capsys):
        outputs = []
        for argv in (["--help"], ["--help"], ["render", "x", "--style", "png"],
                     ["render", "x", "--style", "png"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            outputs.append((exc.value.code, *capsys.readouterr()))
        help_out, usage_err = outputs[0], outputs[2]
        assert help_out[0] == 0 and help_out[1].startswith("usage: uninorms")
        assert help_out[2] == ""
        assert usage_err[0] == 2 and usage_err[1] == ""
        assert usage_err[2].startswith("usage: uninorms render")
        assert "invalid choice: 'png'" in usage_err[2]
        assert outputs == [help_out, help_out, usage_err, usage_err]

    def test_each_call_prints_to_the_streams_in_place_at_that_call(self):
        printed = []
        for argv in (["--help"], ["--help"], ["count"], ["count"]):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit):
                main(argv)
            printed.append((out.getvalue(), err.getvalue()))
        assert printed[0] == printed[1] and printed[0][0].startswith("usage: uninorms")
        assert printed[2] == printed[3] and "the following arguments are required: --n" in printed[2][1]


def test_console_script_end_to_end(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "uninorms.cli", "enumerate", "uninorms", "--n", "2"],
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0
    assert "count: 2" in result.stderr
    blocks = [b for b in result.stdout.split("\n\n") if b.strip()]
    assert len(blocks) == 2
