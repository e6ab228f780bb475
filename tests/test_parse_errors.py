"""Pinned `.itab` parse errors: type, message, line and column of every
check in :func:`threeway.parse_table`, the order in which competing
errors win, the domain-inference warnings and the file they are
attributed to, and the CLI's exit code 2 with its stderr.

Rewrite ``data/parse_errors.json`` only when an error is meant to change:

    PYTHONPATH=src python tests/test_parse_errors.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import warnings
from pathlib import Path

import pytest

from threeway import DomainInferenceWarning, parse_table
from threeway.cli import main

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "parse_errors.json"

A12 = "@attributes a b\n@domain a 1 2\n@domain b 1 2\n@objects\n"

CASES = {
    # Line structure, in the order the line pass checks it.
    "duplicate_attributes": "@attributes a\n  @attributes b\n",
    "attributes_without_names": "# header\n@attributes   # none\n",
    "duplicate_attribute_name": "@attributes a b a\n",
    "domain_before_attributes": "@domain a 1\n@attributes a\n",
    "domain_without_values": "@attributes a\n@domain a\n",
    "domain_without_attribute": "@attributes a\n\t@domain\n",
    "domain_unknown_attribute": "@attributes a\n@domain  b 1\n",
    "duplicate_domain": "@attributes a\n@domain a 1\n@domain a 2\n",
    "duplicate_domain_value": "@attributes a\n@domain a 1 2 1\n",
    "na_domain_value": "@attributes a\n@domain a 1 NA\n",
    "objects_before_attributes": "@objects\n@attributes a\n",
    "unknown_directive": "@attributes a\n   @values a 1\n",
    "row_before_objects": "@attributes a\n@domain a 1\n  x1 1\n",
    "duplicate_object": "@attributes a\n@domain a 1 2\n@objects\nx1 1\n\t x1 2\n",
    "too_few_cells": A12 + "x1 1 2\n  x2 1 # 2\n",
    "too_many_cells": A12 + "x1 1 2 1\n",
    "missing_attributes": "# nothing but a comment\n\n",
    "empty_text": "",
    "no_object_rows": "@attributes a\n@domain a 1\n@objects\n# none yet\n",
    # Cell syntax.
    "singleton_partial": A12 + "x1 1 {1}\n",
    "repeated_partial": A12 + "x1 {2|2} 1\n",
    "empty_partial": A12 + "x1 1 {}\n",
    "hollow_partial": A12 + "x1 1 {|1|}\n",
    "na_in_partial": A12 + "x1 1  {1|NA}\n",
    "unknown_reference": A12 + "x1 ^(c) 1\n",
    "self_reference": A12 + "x1 1 2\nx2\t1\t^(b)\n",
    "malformed_caret": A12 + "x1 ^b 1\n",
    "malformed_empty_reference": A12 + "x1 1 ^()\n",
    "malformed_brace": A12 + "x1 {1|2 1\n",
    # Domains.
    "known_outside_domain": A12 + "x1 1 2\nx2 9 1\n",
    "partial_outside_domain": A12 + "x1 1 {1|3|4}\n",
    "star_without_domain": "@attributes a b\n@domain a 1\n@objects\nx1 1 2\nx2 1   *\n",
    "cannot_infer_domain": "@attributes a b\n@domain a 1 2\n@objects\nx1 1 NA\nx2 2 ^(a)\n",
    # Precedence.
    "bad_cell_then_duplicate_id": A12 + "x1 1 {1}\nx2 1 1\nx1 2 2\n",
    "bad_cell_then_wrong_count": A12 + "x1 ^b 1\nx2 1\n",
    "two_bad_cells_row_major": A12 + "x1 1 ^b\nx2 {1} 1\n",
    "bad_in_one_attribute_only": A12 + "x1 1 ^(a)\nx2 ^(a) 1\n",
    "same_bad_cell_twice": A12 + "x1 1 2\nx2 1 {7}\nx3 2 {7}\n",
    "bad_cell_before_domain_error": A12 + "x1 9 2\nx2 1 {1}\n",
    "two_out_of_domain_row_major": A12 + "x1 1 9\nx2 8 1\nx3 8 9\n",
    "outside_one_domain_only": (
        "@attributes a b\n@domain a 1 2\n@domain b 3 4\n@objects\nx1 1 3\nx2 2 1\n"
    ),
    "out_of_domain_known_after_partial": A12 + "x1 1 {2|5}\nx2 1 5\n",
    "star_without_domain_beats_out_of_domain": (
        "@attributes a b\n@domain b 1\n@objects\nx1 1 9\nx2 * 1\n"
    ),
    "stars_in_two_attributes": "@attributes a b\n@objects\nx1 1 *\nx2 * 1\n",
    "inferred_then_star_without_domain": "@attributes a b\n@objects\nx1 {1|2} 1\nx2 3 *\n",
    "inferred_then_cannot_infer": "@attributes a b\n@objects\nx1 1 NA\n",
    "cannot_infer_beats_out_of_domain": (
        "@attributes a b c\n@domain a 1\n@objects\nx1 5 NA 1\n"
    ),
    # Inferred domains that parse, with their warnings.
    "inferred_domain": "@attributes a\n@objects\nx1 1\nx2 {2|3}\n",
    "two_inferred_domains": "@attributes a b c\n@domain b 0 1\n@objects\nx1 z * y\nx2 NA 1 {x|y}\n",
}

#: Cases also run through the CLI, which reports a parse error with exit 2.
CLI_CASES = ("duplicate_object", "hollow_partial", "two_out_of_domain_row_major")


def parse(text: str) -> dict:
    """The outcome of parsing ``text``: the error or the inferred domains,
    and every warning with the file it is attributed to."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            it = parse_table(text)
        except Exception as exc:  # the type is part of the outcome
            outcome = {
                "error": {
                    "type": type(exc).__name__,
                    "message": str(exc),
                    "line": getattr(exc, "line", None),
                    "column": getattr(exc, "column", None),
                },
                "domains": None,
            }
        else:
            outcome = {"error": None, "domains": {s.name: list(s.domain) for s in it.attributes}}
    outcome["warnings"] = [
        {"category": w.category.__name__, "message": str(w.message), "file": Path(w.filename).name}
        for w in caught
    ]
    return outcome


def run_cli(text: str, tmp: Path) -> dict:
    path = tmp / "t.itab"
    path.write_text(text, encoding="utf-8")
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(["similarity", "--table", str(path)])
    return {"exit": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_case(golden):
    assert sorted(golden["parse"]) == sorted(CASES)
    assert sorted(golden["cli"]) == sorted(CLI_CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_parse_outcome_matches_golden(golden, name):
    assert parse(CASES[name]) == golden["parse"][name]


@pytest.mark.parametrize("name", CLI_CASES)
def test_cli_parse_error_matches_golden(golden, name, tmp_path):
    assert run_cli(CASES[name], tmp_path) == golden["cli"][name]


def test_warning_is_attributed_to_the_caller():
    with pytest.warns(DomainInferenceWarning) as caught:
        parse_table(CASES["inferred_domain"])
    assert [Path(w.filename).name for w in caught] == [Path(__file__).name]


def record() -> None:
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        golden = {
            "parse": {name: parse(text) for name, text in CASES.items()},
            "cli": {name: run_cli(CASES[name], Path(tmp)) for name in CLI_CASES},
        }
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    sys.exit(record())
