"""Differential tests of ``formula_rank_for``, the one rule order of the
program, against ``formula_sort_key_for``, the definition of that order.

On drawn schemas, shuffled and with domains out of lexical order, and on
drawn formulas of every size, with ``NA`` and stray values and atoms out of
declaration order, two formulas' ranks compare as their keys do, ties
included.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from threeway.language import EXTENDED, Atom, Formula, enumerate_cdl, formula_rank_for, formula_sort_key_for
from threeway.table import NA, AttributeSchema

DIFFERENTIAL = settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

SRC = Path(__file__).resolve().parents[1] / "src" / "threeway"

VALUES = ("0", "1", "2", "10", "b", "a")


@st.composite
def schemas_and_formulas(draw):
    """Schemas of 1-5 attributes, in a drawn order, each with a domain in a
    drawn order; and formulas over them whose atoms come in a drawn order and
    take domain values, ``NA`` or values outside every domain."""
    names = draw(st.permutations(["a1", "a2", "a3", "a4", "a5"]))[: draw(st.integers(1, 5))]
    schemas = tuple(
        AttributeSchema(a, tuple(draw(st.lists(st.sampled_from(VALUES[:4]), min_size=1, max_size=4, unique=True))))
        for a in names
    )
    values = st.sampled_from((*VALUES, NA))
    formula = st.lists(st.sampled_from(names), min_size=1, max_size=len(names), unique=True).flatmap(
        lambda attrs: st.tuples(*(values.map(lambda v, a=a: Atom(a, v)) for a in attrs))
    )
    return schemas, draw(st.lists(formula.map(Formula), min_size=1, max_size=12))


@DIFFERENTIAL
@given(schemas_and_formulas())
def test_rank_orders_and_ties_as_the_key(drawn):
    schemas, formulas = drawn
    rank, key = formula_rank_for(schemas), formula_sort_key_for(schemas)
    for p in formulas:
        for q in formulas:
            assert (rank(p) < rank(q)) is (key(p) < key(q))
            assert (rank(p) == rank(q)) is (key(p) == key(q))
    assert sorted(formulas, key=rank) == sorted(formulas, key=key)


@pytest.mark.parametrize("fixture", ["complete6", "setvalued8"])
def test_rank_increases_along_the_enumeration(request, fixture):
    """Every formula of the extended language, ``NA`` atoms included, ranks
    strictly above the one enumerated before it."""
    schemas = request.getfixturevalue(fixture).attributes
    ranks = list(map(formula_rank_for(schemas), enumerate_cdl(schemas, EXTENDED)))
    assert all(a < b for a, b in zip(ranks, ranks[1:]))


def test_rank_of_a_full_row_is_its_mixed_radix_number():
    """Formulas on every attribute, such as eq-complete's block
    descriptions, rank by their values' domain ranks read as one number in
    mixed radix, the first attribute the most significant."""
    schemas = (AttributeSchema("a", ("2", "1", "0")), AttributeSchema("b", ("y", "x")))
    rank = formula_rank_for(schemas)
    rows = [Formula((Atom("a", a), Atom("b", b))) for a in ("2", "1", "0") for b in ("y", "x")]
    assert [rank(p) - rank(rows[0]) for p in rows] == [0, 1, 4, 5, 8, 9]
    assert sorted(rows, key=rank) == rows


def test_only_language_names_the_reference_key():
    """The rule order in production is ``formula_rank_for``; the tuple key
    ``formula_sort_key_for`` is the definition the tests compare it with."""
    named = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and node.id == "formula_sort_key_for":
                named.add((path.name, node.lineno))
            elif isinstance(node, ast.Attribute) and node.attr == "formula_sort_key_for":
                named.add((path.name, node.lineno))
            elif isinstance(node, ast.ImportFrom) and any(a.name == "formula_sort_key_for" for a in node.names):
                named.add((path.name, node.lineno))
    assert {name for name, _ in named} <= {"language.py"}, sorted(named)
