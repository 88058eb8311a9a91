import json
import subprocess
import sys

import pytest

from uninorms import fixture, format_table, parse_table
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


def test_console_script_end_to_end(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "uninorms.cli", "enumerate", "uninorms", "--n", "2"],
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0
    assert "count: 2" in result.stderr
    blocks = [b for b in result.stdout.split("\n\n") if b.strip()]
    assert len(blocks) == 2
