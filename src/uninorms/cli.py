"""Command-line front end.

Subcommands: ``enumerate`` streams generated objects, ``check`` profiles a
table against requested properties, ``render`` draws contour plots and
ordering profiles, ``verify`` runs a named claim through the brute-force
engines, ``count`` prints closed-form counts.

Everything on standard output is machine-parseable (the declared text formats
or JSON); progress, counts, and timings go to standard error. Exit codes:
0 on success, 1 when a requested property or verification fails, 2 on usage
or parse errors. A reader that closes the pipe early ends the output: the
command stops, prints nothing more and exits 0.

``main(argv)`` may be called any number of times in one process, and each
call is independent of the last. The argument parser is built on the first
call and reused after that: the ``--jobs`` default of ``verify`` is the
number of CPUs the process may run on (its CPU affinity), read at that
first call. Help, usage errors and output go to the
``sys.stdout`` and ``sys.stderr`` in place at each call.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from functools import cache
from itertools import chain, islice
from math import log10
from typing import Optional

from .core import (
    format_order,
    format_table,
    parse_order,
    parse_table_auto,
    table_to_json_dict,
)
from .generate import (
    count_uninorms,
    count_uninorms_by_neutral,
    enumerate_gspecs,
    generate_all_uninorms_gc,
)
from .oracle import _usable_cpus, enumerate_conservative, profile, theorem_names, verify_theorem
from .render import render_contour_dot, render_contour_text, render_profile
from .single_peaked import enumerate_single_peaked

_PROPERTY_NAMES = (
    "idempotent",
    "conservative",
    "symmetric",
    "nondecreasing",
    "associative",
    "bisymmetric",
    "has-neutral",
)


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader has all the output it wants; point stdout at devnull so
        # that the flush at interpreter exit writes nowhere and fails quietly
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


# argparse keeps nothing of one parse_args call for the next: each call makes
# a new Namespace and looks up sys.stdout and sys.stderr when it prints
@cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uninorms",
        description="construct, enumerate, check, and render idempotent "
                    "discrete uninorms on finite chains",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="stream generated objects")
    p.add_argument("kind",
                   choices=["uninorms", "single-peaked", "conservative", "gspecs"])
    p.add_argument("--n", type=int, required=True, help="chain size")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--output", default="-", help="output file, '-' for stdout")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("check", help="profile a table against properties")
    p.add_argument("input", help="table file (text or JSON), '-' for stdin")
    p.add_argument("--properties", default="",
                   help="comma-separated subset of: " + ", ".join(_PROPERTY_NAMES))
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("render", help="draw a contour plot or ordering profile")
    p.add_argument("input", help="table file, or order file for --style profile")
    p.add_argument("--style", choices=["text", "dot", "profile"], default="text")
    p.add_argument("--output", default="-")
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("verify", help="brute-force check a named claim")
    p.add_argument("--theorem", required=True,
                   help="one of: " + ", ".join(theorem_names()))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the fixed-seed samples, which only bis-a and bis-b "
                        "draw, at n = 5; non-negative (default 0)")
    p.add_argument("--jobs", type=int, default=_usable_cpus(),
                   help="worker processes for the whole-space scans, one index "
                        "range each, at most one per usable CPU; the pruned searches "
                        "and the samples run in this process; the report is "
                        "identical for any value")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("count", help="closed-form uninorm counts")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--e", type=int, default=None, help="restrict to one neutral element")
    p.set_defaults(func=_cmd_count)

    return parser


def _open_output(path: str):
    """A context that gives the output stream: stdout for ``-``, left open
    on exit, or the file at ``path``, opened for writing and closed on exit."""
    if path == "-":
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w")


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path) as fh:
        return fh.read()


def _cmd_enumerate(args) -> int:
    n = args.n
    # kind -> (source, the JSON object of an item, the text of an item)
    source, as_json, as_text = {
        "uninorms": (generate_all_uninorms_gc, table_to_json_dict, _table_text),
        "conservative": (enumerate_conservative, table_to_json_dict, _table_text),
        "single-peaked": (enumerate_single_peaked,
                          lambda order: {"n": n, "seq": list(order.seq)}, format_order),
        "gspecs": (enumerate_gspecs,
                   lambda spec: {"n": n, "e": spec.e, "g": list(spec.g)},
                   lambda spec: f"{spec.e} {' '.join(str(v) for v in spec.g)}\n"),
    }[args.kind]
    items = source(n)
    # the sources check n when asked for their first item: ask before the
    # output is opened, so a bad n leaves an existing file untouched
    head = list(islice(items, 1))
    count = 0
    with _open_output(args.output) as out:
        for item in chain(head, items):
            if args.format == "json":
                out.write(json.dumps(as_json(item), sort_keys=True) + "\n")
            else:
                out.write(as_text(item))
            count += 1
    print(f"count: {count}", file=sys.stderr)
    return 0


def _table_text(op) -> str:
    return format_table(op) + "\n"


def _cmd_check(args) -> int:
    requested = [p for p in args.properties.split(",") if p]
    for name in requested:
        if name not in _PROPERTY_NAMES:
            raise ValueError(
                f"unknown property {name!r}; known: {', '.join(_PROPERTY_NAMES)}"
            )
    op = parse_table_auto(_read_input(args.input))
    prof = profile(op)
    data = prof.to_dict()
    data["n"] = op.n
    print(json.dumps(data, sort_keys=True, indent=2))
    holds = {**prof._asdict(), "has-neutral": prof.neutral is not None}
    failed = [name for name in requested if not holds[name]]
    if failed:
        print(f"failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def _cmd_render(args) -> int:
    text = _read_input(args.input)
    if args.style == "profile":
        rendered = render_profile(parse_order(text))
    else:
        op = parse_table_auto(text)
        rendered = render_contour_text(op) if args.style == "text" else render_contour_dot(op)
    with _open_output(args.output) as out:
        out.write(rendered)
    return 0


def _cmd_verify(args) -> int:
    report = verify_theorem(args.theorem, args.n, seed=args.seed, jobs=args.jobs)
    runtime = report.pop("runtime_seconds")
    print(json.dumps(report, sort_keys=True, indent=2))
    print(f"runtime: {runtime:.3f}s", file=sys.stderr)
    return 0 if report["ok"] else 1


def _cmd_count(args) -> int:
    # 0, or no such function (before Python 3.10.7): no limit
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    too_long = ValueError(f"the count for n = {args.n} has more than {limit} digits, "
                          f"more than this interpreter prints")
    if limit and _surely_longer(args.n, args.e, limit):
        raise too_long
    if args.e is None:
        data = {"n": args.n, "count": count_uninorms(args.n)}
    else:
        data = {"n": args.n, "e": args.e,
                "count": count_uninorms_by_neutral(args.n, args.e)}
    if limit and data["count"] >= 10 ** limit:
        raise too_long
    print(json.dumps(data, sort_keys=True))
    return 0


def _surely_longer(n: int, e: Optional[int], limit: int) -> bool:
    """Whether the count 2^(n-1), or C(n-1, e-1) for a neutral element e, has
    more than ``limit`` digits by a bound that needs no count: 10^limit <
    2^(4 limit), and C(m, k) >= (m/k)^k >= 2^k for k = min(e-1, n-e) <= m/2.
    A count this misses has at most about 3 limit digits, so computing it
    exactly is cheap. False for an n or e the count functions reject."""
    if e is None:
        return n - 1 >= 4 * limit
    k = min(e - 1, n - e)
    return k >= 4 * limit or (k > 0 and k * (log10(n - 1) - log10(k)) > limit + 1)


if __name__ == "__main__":
    sys.exit(main())
