"""Byte-level CLI goldens: stdout and exit code of every method on both
fixture tables, of the matrix, degree and oracle listings, and of
eq-complete on a forty-object complete table and on a ten-object one
whose domains are declared out of lexical order, and of every JSON command
and every formula-text command on a table whose names and values are not
ASCII.

Rewrite ``data/cli_golden.json`` only when output is meant to change:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from threeway.cli import COMPLETE_METHODS, METHODS, _build_parser, main

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "cli_golden.json"
FIXTURES = ("complete6.itab", "setvalued8.itab")
TNORMS = ("min", "prod")
FORMATS = (("--format", "text"), ("--format", "json"))
CLASS = ("--alpha", "3/5", "--class", "x1,x2,x3,x4")
FUZZY_METHODS = ("alpha-sim", "approx", "alpha-meaning", "confidence")
EDGE_ALPHAS = ("0", "1", "1/3")
UNICODE_CLASS = ("--class-column", "δ", "--class-value", "ja")
UNICODE_COMMANDS = (
    ("rules", "--method", "confidence", "--tnorm", "prod", "--alpha", "1/2", *UNICODE_CLASS),
    ("regions", "--method", "alpha-meaning", "--tnorm", "min", "--alpha", "1/2", *UNICODE_CLASS),
    ("similarity", "--tnorm", "prod", "--attrs", "größe,farbe"),
    ("satisfiability", "--tnorm", "min"),
    ("oracle-check",),
)


def cases() -> list[tuple[str, ...]]:
    out = []
    for table in FIXTURES:
        for command in ("rules", "regions"):
            for method in METHODS:
                tnorms = [()] if method in COMPLETE_METHODS else [("--tnorm", t) for t in TNORMS]
                for tnorm in tnorms:
                    for fmt in FORMATS:
                        out.append((command, "--table", table, "--method", method, *tnorm, *CLASS, *fmt))
        for tnorm in TNORMS:
            for extra in (("--format", "text"), ("--exact",), ("--format", "json")):
                out.append(("similarity", "--table", table, "--tnorm", tnorm, *extra))
            for fmt in FORMATS:
                out.append(("satisfiability", "--table", table, "--tnorm", tnorm, *fmt))
    for fmt in FORMATS:
        out.append(("oracle-check", "--table", "complete6.itab", "--class", "x1,x2", "--alpha", "1/2", *fmt))
    # setvalued8 attains satisfiability degrees other than 0 and 1.
    for fmt in FORMATS:
        out.append(("oracle-check", "--table", "setvalued8.itab", *fmt))
    # Threshold edges: alpha 0 admits everything, 1 only full degrees, and
    # 1/3 equals degrees the table attains.
    for method in FUZZY_METHODS:
        for tnorm in TNORMS:
            for alpha in EDGE_ALPHAS:
                out.append(("regions", "--table", "setvalued8.itab", "--method", method,
                            "--tnorm", tnorm, "--alpha", alpha, "--class", "x1,x2,x3,x4",
                            "--format", "json"))
    # Equivalence classes on a larger complete table: repeated rows and
    # boundary blocks, a class by ids or by the decision column, and an
    # attribute subset given out of declaration order.
    for class_args in (("--class", "x1,x2,x3,x4,x5,x6,x7,x8,x9,x10,x11,x12"),
                       ("--class-column", "d", "--class-value", "yes"),
                       ("--attrs", "a2,a1", "--class-column", "d", "--class-value", "yes")):
        for command in ("regions", "rules"):
            for fmt in FORMATS:
                out.append((command, "--table", "complete40.itab", "--method", "eq-complete",
                            *class_args, *fmt))
    # Rule order by domain declaration rank, on a table whose domains are
    # declared out of lexical order and whose rows show values out of
    # domain order, with every attribute and with a subset given out of
    # declaration order.
    for class_args in (("--class-column", "d", "--class-value", "yes"),
                       ("--attrs", "c,a", "--class-column", "d", "--class-value", "yes")):
        for command in ("regions", "rules"):
            for fmt in FORMATS:
                out.append((command, "--table", "order10.itab", "--method", "eq-complete",
                            *class_args, *fmt))
    # An empty positive region: no block of complete6 lies inside {x4}.
    for fmt in FORMATS:
        out.append(("regions", "--table", "complete6.itab", "--method", "eq-complete", "--class", "x4", *fmt))
    # Ids, attribute names and values outside ASCII pin the JSON escaping
    # of every command, and the formula text of every command that prints
    # it, astral characters (surrogate pairs) included.
    out += [unicode_case(command) for command in UNICODE_COMMANDS]
    out += [unicode_case(command, "text") for command in UNICODE_COMMANDS
            if command[0] in ("rules", "regions", "satisfiability")]
    return out


def unicode_case(command: tuple[str, ...], fmt: str = "json") -> tuple[str, ...]:
    return (command[0], "--table", "unicode5.itab", *command[1:], "--format", fmt)


def run(argv: tuple[str, ...]) -> tuple[int, str]:
    """Exit code and stdout of one in-process CLI call; the table name is
    resolved against the fixture directory."""
    argv = list(argv)
    at = argv.index("--table") + 1
    argv[at] = str(DATA / argv[at])
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, stdout.getvalue()


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(" ".join(argv) for argv in cases())


@pytest.mark.parametrize("argv", cases(), ids=" ".join)
def test_cli_output_matches_golden(golden, argv):
    want = golden[" ".join(argv)]
    code, stdout = run(argv)
    assert (code, stdout) == (want["exit"], want["stdout"])


@pytest.mark.parametrize("argv", [a for a in cases() if a[-2:] == FORMATS[1]], ids=" ".join)
def test_json_golden_is_the_stdlib_encoding(golden, argv):
    """Every JSON golden is what ``json.dumps(indent=2)`` prints for its
    own document, so the goldens pin the stdlib's bytes."""
    want = golden[" ".join(argv)]
    if want["exit"] == 1:  # a complete-only method refused the table before printing
        assert want["stdout"] == ""
    else:
        assert want["stdout"] == json.dumps(json.loads(want["stdout"]), indent=2) + "\n"


@pytest.mark.parametrize("command", UNICODE_COMMANDS, ids=lambda c: c[0])
def test_out_file_holds_the_stdout_bytes(golden, command, tmp_path):
    argv = unicode_case(command)
    target = tmp_path / "out.json"
    code, stdout = run((*argv, "--out", str(target)))
    want = golden[" ".join(argv)]
    assert (code, stdout) == (want["exit"], "")
    assert target.read_bytes() == want["stdout"].encode("utf-8")


@pytest.mark.parametrize(
    "bad",
    [
        ("rules", "--table", "t.itab", "--method", "nope"),
        ("regions", "--table", "t.itab", "--method", "confidence", "--tnorm", "max"),
        ("satisfiability", "--table", "t.itab", "--max-formulas", "-1"),
        ("similarity",),
    ],
    ids=" ".join,
)
def test_usage_error_leaves_the_parser_intact(golden, bad):
    """The parser is built once per process; a call that it rejects does
    not change what the next call prints."""
    with contextlib.redirect_stderr(io.StringIO()):
        assert main(list(bad)) == 1
    argv = ("rules", "--table", "setvalued8.itab", "--method", "confidence", "--tnorm", "prod", *CLASS,
            "--format", "text")
    want = golden[" ".join(argv)]
    assert run(argv) == (want["exit"], want["stdout"])
    assert _build_parser() is _build_parser()


def record() -> None:
    golden = {}
    for argv in cases():
        code, stdout = run(argv)
        golden[" ".join(argv)] = {"exit": code, "stdout": stdout}
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    sys.exit(record())
