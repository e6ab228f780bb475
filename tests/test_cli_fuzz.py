"""Fuzzed command lines: ``main(argv)`` runs in process on drawn argument
lists (subcommands, flags in any order, out-of-range caps and
thresholds, thresholds with exponents up to 10**7 either way, stray
tokens) over valid and broken ``.itab`` texts. Every run must end within
a second with a documented exit code, 0 to 4, and no exception may leave
``main``. Tables and ``--out`` files stay in one temporary directory.

Valid ``rules`` and ``regions`` command lines, drawn over the checked-in
tables, must exit 0, and ``rules --format json`` must print what the
library builders and ``derive_rules`` give for the same options.
"""

from __future__ import annotations

import contextlib
import io
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import DATA
from threeway import (
    NA,
    Formula,
    Provenance,
    TNorm,
    derive_rules,
    description_regions_alpha_meaning,
    description_regions_alpha_sim,
    description_regions_approx,
    description_regions_complete,
    description_regions_confidence,
    is_complete,
    object_description,
    parse_degree,
    parse_table,
    regions_computational,
    to_set_valued,
)
from threeway.cli import COMPLETE_METHODS, METHODS, main
from threeway.language import formula_sort_key_for, write_json
from threeway.rules import rules_json

DECISION_TABLE = (
    "@attributes a1 a2 d\n@domain a1 0 1\n@domain d yes no\n@objects\n"
    "x1 0 1 yes\nx2 1 {1|2} no\nx3 * 2 yes\nx4 NA ^(a1) no\n"
)
TABLES = (
    (DATA / "complete6.itab").read_text(),
    (DATA / "setvalued8.itab").read_text(),
    DECISION_TABLE,
)
CAPS = ("-1", "0", "3", "1/0", "nan", "1e999", "99999999999999999999", "ten", "")
ALPHAS = ("-1", "0", "1", "0.5", "1/3", "3/2", "1/0", "nan", "inf", "1e999", "-0", "half", "")
FLAG_VALUES = {
    "--table": ("TABLE", "MISSING", "DIRECTORY"),
    "--method": (*METHODS, "none"),
    "--class": ("x1", "x1,x2,x3", "x2,x1,x1", "x99", ",", ""),
    "--class-column": ("d", "a1", "zz", ""),
    "--class-value": ("yes", "1", "maybe", ""),
    "--tnorm": ("min", "prod", "max"),
    "--alpha": ALPHAS,
    "--max-formulas": CAPS,
    "--max-worlds": CAPS,
    "--attrs": ("a1", "a1,a2", "a2,a1", "a1,a1", "zz", ",", "d", ""),
    "--format": ("text", "json", "xml"),
    "--out": ("OUT", "DIRECTORY", "NESTED"),
}
BARE_FLAGS = ("--exact", "--strip-na-atoms", "--help", "-h", "--")
# Stray tokens; no "e", so exponents come from EXPONENTS alone.
TOKENS = st.text(alphabet="abdxy0123/.,-=*{}|^()NA @", min_size=0, max_size=6)
# Decimals such as "1e-10000000": out of range, past the interpreter's
# digit limit for int strings (4300 by default), or an exact degree.
EXPONENTS = st.builds(
    "{}e{}{}".format,
    st.sampled_from(("0", "1", "3", "0.5", "25", "-1")),
    st.sampled_from(("", "+", "-")),
    st.sampled_from((4299, 4300, 4301, 10**7)) | st.integers(0, 10**7),
)


@st.composite
def itab_text(draw) -> bytes:
    """A fixture table, often broken: lines dropped, repeated or cut
    short, tokens replaced, or bytes that are not UTF-8."""
    lines = draw(st.sampled_from(TABLES)).splitlines()
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(("drop", "repeat", "cut", "token")))
        if edit == "drop":
            del lines[i]
        elif edit == "repeat":
            lines.insert(i, lines[i])
        elif edit == "cut":
            lines[i] = lines[i][: draw(st.integers(0, len(lines[i])))]
        else:
            tokens = lines[i].split() or [""]
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(TOKENS)
            lines[i] = " ".join(tokens)
        if not lines:
            break
    data = "\n".join(lines).encode("utf-8")
    return data + b"\xff\n" if draw(st.integers(0, 9)) == 0 else data


@st.composite
def command_line(draw) -> list[str]:
    command = draw(st.sampled_from(("regions", "rules", "similarity", "satisfiability", "oracle-check", "bogus")))
    argv = [command]
    if draw(st.integers(0, 9)):
        argv += ["--table", "TABLE"]
    # Mostly well-formed method options, so that runs get past argparse.
    if command in ("regions", "rules") and draw(st.integers(0, 4)):
        alpha = draw(st.just("1/2") | EXPONENTS)
        argv += ["--method", draw(st.sampled_from(METHODS)), "--class", "x1,x2", "--alpha", alpha]
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.integers(0, 9))
        if kind < 7:
            flag = draw(st.sampled_from(sorted(FLAG_VALUES)))
            values = st.sampled_from(FLAG_VALUES[flag])
            if flag == "--alpha":
                values |= EXPONENTS
            # Paths are never stray tokens, so nothing is written outside the work directory.
            argv += [flag, draw(values if flag in ("--table", "--out") else values | TOKENS)]
        elif kind < 9:
            argv.append(draw(st.sampled_from(BARE_FLAGS)))
        else:
            argv.append(draw(TOKENS))
    return argv


def _run(argv) -> tuple[int, str, float]:
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue(), time.perf_counter() - start


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.mark.filterwarnings("ignore::threeway.DomainInferenceWarning")
@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=itab_text(), argv=command_line())
def test_main_exits_with_a_documented_code(workdir, data, argv):
    table = workdir / "table.itab"
    table.write_bytes(data)
    paths = {
        "TABLE": table,
        "MISSING": workdir / "missing.itab",
        "DIRECTORY": workdir,
        "OUT": workdir / "out.txt",
        "NESTED": workdir / "missing" / "out.txt",
    }
    argv = [str(paths.get(token, token)) for token in argv]
    code, _, seconds = _run(argv)
    assert code in range(5), argv
    assert seconds < 1, argv


@settings(max_examples=100, deadline=None)
@given(
    command=st.sampled_from(("rules", "regions")),
    method=st.sampled_from([m for m in METHODS if m not in COMPLETE_METHODS]),
    alpha=EXPONENTS,
    fmt=st.sampled_from(("text", "json")),
)
def test_alpha_exponents_end_within_a_second(command, method, alpha, fmt):
    """Every drawn exponent reaches the threshold parser on a valid table.
    A refused threshold exits 1 before anything is written to stdout."""
    argv = [command, "--table", str(DATA / "setvalued8.itab"), "--method", method,
            "--class", "x1,x2", "--alpha", alpha, "--format", fmt]
    code, out, seconds = _run(argv)
    assert code in (0, 1), argv
    assert code == 0 or out == "", argv
    assert seconds < 1, argv


# The checked-in tables, each with its decision column and class values, if any.
VALID_TABLES = {
    "complete6.itab": None,
    "complete40.itab": ("d", ("yes", "no")),
    "setvalued8.itab": None,
    "unicode5.itab": ("δ", ("ja", "nein")),
}
LOADED = {name: to_set_valued(parse_table((DATA / name).read_text(encoding="utf-8"))) for name in VALID_TABLES}
VALID_ALPHAS = ("0", "1/3", "1/2", "3/5", "1", "1/1000000")
BUILDERS = {
    "alpha-sim": description_regions_alpha_sim,
    "approx": description_regions_approx,
    "alpha-meaning": description_regions_alpha_meaning,
    "confidence": description_regions_confidence,
}


@st.composite
def valid_options(draw) -> dict:
    """The options of a valid ``rules`` or ``regions`` run: complete methods
    on complete tables only, and the decision column never an attribute."""
    name = draw(st.sampled_from(sorted(VALID_TABLES)))
    table = LOADED[name]
    methods = [m for m in METHODS if m not in COMPLETE_METHODS or is_complete(table)]
    o = {"table": name, "method": draw(st.sampled_from(methods)), "format": draw(st.sampled_from(("text", "json"))),
         "column": None, "value": None, "class": None, "attrs": None, "tnorm": None, "alpha": None, "strip": None}
    decision = VALID_TABLES[name]
    if decision and draw(st.booleans()):
        o["column"] = decision[0]
        o["value"] = draw(st.sampled_from(decision[1]))
    else:
        o["class"] = draw(st.lists(st.sampled_from(table.objects), min_size=1, unique=True))
    candidates = [a for a in table.attribute_names if a != o["column"]]
    if draw(st.booleans()):
        o["attrs"] = draw(st.lists(st.sampled_from(candidates), min_size=1, unique=True))
    if o["method"] not in COMPLETE_METHODS:
        o["tnorm"] = draw(st.sampled_from((None, "min", "prod")))
        o["alpha"] = draw(st.sampled_from(VALID_ALPHAS))
    if draw(st.booleans()):
        o["strip"] = draw(st.lists(st.sampled_from(candidates), unique=True))
    return o


def _argv(command: str, o: dict) -> list[str]:
    argv = [command, "--table", str(DATA / o["table"]), "--method", o["method"], "--format", o["format"]]
    if o["column"]:
        argv += ["--class-column", o["column"], "--class-value", o["value"]]
    else:
        argv += ["--class", ",".join(o["class"])]
    if o["attrs"]:
        argv += ["--attrs", ",".join(o["attrs"])]
    if o["tnorm"]:
        argv += ["--tnorm", o["tnorm"]]
    if o["alpha"]:
        argv += ["--alpha", o["alpha"]]
    if o["strip"] is not None:
        argv += ["--strip-na-atoms", *o["strip"]]
    return argv


def _library_rules_json(o: dict) -> str:
    """The ``rules --format json`` text of the options, from the library."""
    table = LOADED[o["table"]]
    method, column = o["method"], o["column"]
    if column:
        members = frozenset(x for x in table.objects if table.cell(x, column) == {o["value"]})
        label = f"{column}={o['value']}"
    else:
        members = frozenset(o["class"])
        label = ",".join(sorted(members, key=table.position))
    attrs = table.attr_subset(o["attrs"] or [a for a in table.attribute_names if a != column])
    kind = TNorm(o["tnorm"] or "min")
    alpha = None if o["alpha"] is None else parse_degree(o["alpha"])
    if method == "eq-complete":
        regions = regions_computational(table, attrs, members)
        dpos, dneg = (
            {object_description(table.known_row(min(block, key=table.position)), attrs, table.attribute_names)
             for block in blocks}
            for blocks in (regions.pos, regions.neg)
        )
    elif method == "cdl-complete":
        dpos, dneg = description_regions_complete(table, attrs, members)
    else:
        dpos, dneg = BUILDERS[method](table, attrs, alpha, members, kind)
    if o["strip"] is not None:
        targets = set(o["strip"] or attrs)

        def strip(region):
            kept = ([a for a in p.atoms if not (a.value == NA and a.attr in targets)] for p in region)
            return {Formula(atoms) for atoms in kept if atoms}

        dpos, dneg = strip(dpos), strip(dneg)
    provenance = Provenance(method, None if method in COMPLETE_METHODS else kind.value, alpha, label)
    ruleset = derive_rules(dpos, dneg, provenance, sort_key=formula_sort_key_for(tuple(map(table.schema, attrs))))
    parts: list[str] = []
    write_json(rules_json(ruleset), parts.append)
    return "".join(parts)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(command=st.sampled_from(("rules", "regions")), options=valid_options())
def test_valid_command_lines_exit_0(command, options):
    """Every method, T-norm, format and threshold on every checked-in table
    gets past argparse and the resolvers; ``rules --format json`` prints
    the library's rule set."""
    argv = _argv(command, options)
    code, out, _ = _run(argv)
    assert code == 0, argv
    if command == "rules" and options["format"] == "json":
        assert out == _library_rules_json(options), argv
