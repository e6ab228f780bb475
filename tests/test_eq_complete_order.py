"""eq-complete ``rules`` and ``regions`` on drawn complete tables must print,
in text and JSON, what the library reference gives: the blocks of
``regions_computational``, the ``object_description`` of each block, and
``derive_rules`` ordered by ``formula_sort_key_for``.

The tables are drawn to tell declaration order from every other order:
attributes and domain values are declared in shuffled order, with values
such as ``10`` before ``9`` whose lexical order differs, some declared
values are never used, rows repeat, and values first appear out of
domain order. Attribute subsets come in any order; the class is given by
ids or by a decision column anywhere among the attributes.
"""

from __future__ import annotations

import contextlib
import io
import warnings

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from threeway import (
    Provenance,
    derive_rules,
    object_description,
    parse_table,
    regions_computational,
    to_set_valued,
)
from threeway.cli import main
from threeway.language import formula_sort_key_for, write_json
from threeway.rules import render, rules_json

ATTRIBUTE_NAMES = ("a9", "a10", "b", "q", "z1")
VALUES = ("0", "1", "2", "9", "10", "11", "a", "m", "z", "B", "é")
OBJECT_IDS = tuple(f"o{i}" for i in range(1, 13))


@st.composite
def complete_table(draw) -> tuple[str, dict]:
    """The ``.itab`` text of a complete table and the options of one
    eq-complete run on it."""
    names = draw(st.lists(st.sampled_from(ATTRIBUTE_NAMES), min_size=1, max_size=4, unique=True))
    domains = {a: draw(st.lists(st.sampled_from(VALUES), min_size=1, max_size=4, unique=True)) for a in names}
    # Distinct rows, then objects drawn from them, so that rows repeat.
    distinct = draw(st.lists(st.tuples(*(st.sampled_from(domains[a]) for a in names)), min_size=1, max_size=6))
    n = draw(st.integers(1, len(OBJECT_IDS)))
    objects = draw(st.permutations(OBJECT_IDS))[:n]
    rows = [draw(st.sampled_from(distinct)) for _ in objects]
    # A domain left undeclared is inferred from the rows, in lexical order.
    declared = [a for a in names if draw(st.integers(0, 4))]
    text = "\n".join([
        "@attributes " + " ".join(names),
        *(f"@domain {a} " + " ".join(domains[a]) for a in declared),
        "@objects",
        *(" ".join((x, *row)) for x, row in zip(objects, rows)),
    ]) + "\n"

    o = {"column": None, "value": None, "class": None, "attrs": None, "strip": None}
    if len(names) > 1 and draw(st.booleans()):
        j = draw(st.integers(0, len(names) - 1))
        o["column"] = names[j]
        o["value"] = draw(st.sampled_from([row[j] for row in rows]))
    else:
        o["class"] = draw(st.lists(st.sampled_from(objects), min_size=1, unique=True))
    candidates = [a for a in names if a != o["column"]]
    if draw(st.booleans()):
        o["attrs"] = draw(st.lists(st.sampled_from(candidates), min_size=1, unique=True))
    if draw(st.booleans()):
        o["strip"] = draw(st.lists(st.sampled_from(candidates), unique=True))
    return text, o


def _argv(command: str, path, fmt: str, o: dict) -> list[str]:
    argv = [command, "--table", str(path), "--method", "eq-complete", "--format", fmt]
    if o["column"]:
        argv += ["--class-column", o["column"], "--class-value", o["value"]]
    else:
        argv += ["--class", ",".join(o["class"])]
    if o["attrs"]:
        argv += ["--attrs", ",".join(o["attrs"])]
    if o["strip"] is not None:
        argv += ["--strip-na-atoms", *o["strip"]]
    return argv


def _reference(text: str, o: dict) -> dict[tuple[str, str], str]:
    """What ``rules`` and ``regions`` print, per (command, format), from
    the library."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        table = to_set_valued(parse_table(text))
    position = table.position
    column = o["column"]
    if column:
        members = frozenset(x for x in table.objects if table.cell(x, column) == {o["value"]})
        label = f"{column}={o['value']}"
    else:
        members = frozenset(o["class"])
        label = ",".join(sorted(members, key=position))
    attrs = table.attr_subset(o["attrs"] or [a for a in table.attribute_names if a != column])
    regions = regions_computational(table, attrs, members)
    dpos, dneg = (
        {object_description(table.known_row(min(block, key=position)), attrs, table.attribute_names)
         for block in blocks}
        for blocks in (regions.pos, regions.neg)
    )
    key = formula_sort_key_for(tuple(map(table.schema, attrs)))
    ruleset = derive_rules(dpos, dneg, Provenance("eq-complete", None, None, label), sort_key=key)
    rules_text = render(ruleset, "text")
    parts: list[str] = []
    write_json(rules_json(ruleset), parts.append)
    blocks = {
        name: sorted((sorted(b, key=position) for b in getattr(regions, name)), key=lambda b: position(b[0]))
        for name in ("pos", "neg", "bnd")
    }
    regions_json: list[str] = []
    write_json(blocks, regions_json.append)
    lines = [f"{name} {{{','.join(b)}}}" for name, bs in blocks.items() for b in bs]
    return {
        ("rules", "text"): rules_text,
        ("rules", "json"): "".join(parts),
        ("regions", "text"): "\n".join([*lines, rules_text.rstrip("\n")]) + "\n",
        ("regions", "json"): "".join(regions_json),
    }


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("eq_complete_order")


# Every block in the boundary, so no rule is derived and the JSON carries
# the empty provenance of an empty rule set.
ALL_BOUNDARY = (
    "@attributes a9 b\n@domain a9 0 1\n@domain b 0 1\n@objects\no1 0 0\no2 0 0\no3 1 1\no4 1 1\n",
    {"column": None, "value": None, "class": ["o1", "o3"], "attrs": None, "strip": []},
)
# A declared decision value that no object holds: the class is empty and
# every block negative.
EMPTY_CLASS = (
    "@attributes a9 q\n@domain a9 0 1\n@domain q yes no\n@objects\no1 0 yes\no2 1 yes\no3 0 yes\n",
    {"column": "q", "value": "no", "class": None, "attrs": None, "strip": None},
)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(drawn=complete_table())
@example(drawn=ALL_BOUNDARY)
@example(drawn=EMPTY_CLASS)
def test_eq_complete_prints_the_reference(workdir, drawn):
    text, o = drawn
    path = workdir / "table.itab"
    path.write_text(text, encoding="utf-8")
    want = _reference(text, o)
    for (command, fmt), expected in want.items():
        argv = _argv(command, path, fmt, o)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert (code, out.getvalue()) == (0, expected), (argv, text)
