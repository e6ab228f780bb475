"""The CLI parser shares its table and method options through parent
parsers. It is compared here with a copy of the builder it replaced,
which added every option to each subcommand in turn: the help and usage
texts of the top-level parser and of every subcommand, and what parsing
a set of command lines returns, prints and exits with, must match.
"""

from __future__ import annotations

import argparse
import contextlib
import io

import pytest

from threeway import cli
from threeway.cli import DEFAULT_MAX_FORMULAS, DEFAULT_MAX_WORLDS, METHODS, NA, TNorm, _cap


def reference_build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="threeway",
        description="Induce three-way decision rules from complete and incomplete tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    regions = sub.add_parser("regions", help="compute description regions")
    _reference_table_options(regions)
    _reference_method_options(regions)
    regions.set_defaults(handler=cli._cmd_regions)

    rules = sub.add_parser("rules", help="derive three-way decision rules")
    _reference_table_options(rules)
    _reference_method_options(rules)
    rules.set_defaults(handler=cli._cmd_rules)

    similarity = sub.add_parser("similarity", help="print the pairwise similarity matrix")
    _reference_table_options(similarity)
    similarity.add_argument("--tnorm", choices=[k.value for k in TNorm], default="min")
    similarity.add_argument("--exact", action="store_true", help="print exact fractions in text mode")
    similarity.set_defaults(handler=cli._cmd_similarity)

    satisfiability = sub.add_parser("satisfiability", help="print per-formula satisfiability degrees")
    _reference_table_options(satisfiability)
    satisfiability.add_argument("--tnorm", choices=[k.value for k in TNorm], default="min")
    satisfiability.add_argument("--max-formulas", type=_cap, default=DEFAULT_MAX_FORMULAS)
    satisfiability.set_defaults(handler=cli._cmd_satisfiability)

    oracle = sub.add_parser("oracle-check", help="run brute-force consistency checks")
    _reference_table_options(oracle)
    oracle.add_argument("--class", dest="class_ids", default=None)
    oracle.add_argument("--alpha", default=None)
    oracle.add_argument("--max-worlds", type=_cap, default=DEFAULT_MAX_WORLDS)
    oracle.set_defaults(handler=cli._cmd_oracle)

    return parser


def _reference_table_options(p):
    p.add_argument("--table", required=True, help="path to an .itab file")
    p.add_argument("--attrs", default=None, help="comma-separated condition attributes")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", default=None, help="write output to a file instead of stdout")


def _reference_method_options(p):
    p.add_argument("--method", choices=METHODS, required=True)
    p.add_argument("--class", dest="class_ids", default=None, help="comma-separated object ids")
    p.add_argument("--class-column", default=None, help="decision attribute naming the class")
    p.add_argument("--class-value", default=None, help="target value in the decision column")
    p.add_argument("--tnorm", choices=[k.value for k in TNorm], default=None)
    p.add_argument("--alpha", default=None, help="threshold as a decimal or fraction")
    p.add_argument(
        "--strip-na-atoms",
        nargs="*",
        default=None,
        metavar="ATTR",
        help=f"drop ({NA}) atoms from emitted rules; no argument strips every attribute",
    )
    p.add_argument("--max-formulas", type=_cap, default=DEFAULT_MAX_FORMULAS)


def texts(parser):
    """Help and usage of ``parser`` and of each of its subcommands."""
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    parsers = {"": parser, **sub.choices}
    return {name: (p.format_help(), p.format_usage()) for name, p in parsers.items()}


def test_help_and_usage_match_reference():
    new, old = texts(cli._build_parser()), texts(reference_build_parser())
    assert list(new) == ["", "regions", "rules", "similarity", "satisfiability", "oracle-check"]
    assert new == old


TABLE = ("--table", "t.itab")
ARGVS = (
    (),
    ("-h",),
    ("bogus",),
    *((command, "-h") for command in ("regions", "rules", "similarity", "satisfiability", "oracle-check")),
    ("rules",),
    ("rules", "--table"),
    ("rules", *TABLE),
    ("rules", *TABLE, "--method", "nope"),
    ("rules", *TABLE, "--method", "confidence", "--unknown"),
    ("rules", *TABLE, "--method", "alpha-sim", "extra"),
    ("rules", *TABLE, "--method", "confidence", "--max-formulas", "x"),
    ("rules", "--tab", "t.itab", "--meth", "confidence", "--alph", "1/2", "--class-c", "d"),
    ("regions", *TABLE, "--method", "approx", "--format", "xml"),
    ("regions", *TABLE, "--method", "approx", "--strip-na-atoms", "--tnorm", "prod"),
    ("regions", *TABLE, "--method", "approx", "--class"),
    ("similarity", *TABLE, "--tnorm", "lukasiewicz"),
    ("similarity", *TABLE, "--method", "approx"),
    ("satisfiability", *TABLE, "--max-formulas", "-1"),
    ("oracle-check", *TABLE, "--max-worlds", "1.5"),
    ("oracle-check", *TABLE, "--class", "x1", "--alpha", "0.5", "--format", "json"),
)


def parse(parser, argv):
    """(namespace or exit code, stdout, stderr) of parsing ``argv``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parser.parse_args(list(argv)))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
def test_parsing_matches_reference(argv):
    assert parse(cli._build_parser(), argv) == parse(reference_build_parser(), argv)


def test_cases_reach_every_outcome():
    """The command lines parse, ask for help and fail as usage errors."""
    parser = reference_build_parser()
    results = [parse(parser, argv)[0] for argv in ARGVS]
    assert {0, 2} == {r for r in results if isinstance(r, int)}
    assert any(isinstance(r, dict) for r in results)
