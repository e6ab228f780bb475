"""Byte-level CLI goldens: stdout and exit code of every method on both
fixture tables, and of the matrix, degree and oracle listings.

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
    return out


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
