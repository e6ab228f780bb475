"""Every library-level rejection that no other test reaches: each call
raises its documented error type with its exact message."""

from __future__ import annotations

from fractions import Fraction

import pytest

from conftest import ATTR_ORDER
from threeway import (
    Atom,
    AttributeSchema,
    Formula,
    GuardExceededError,
    IncompleteTableError,
    Partial,
    RuleSet,
    SetValuedTable,
    TNorm,
    UnknownIdError,
    alpha_similarity_class,
    enumerate_cdl,
    make_formula,
    object_description,
    oracle_classical_reduction,
    oracle_closure_equality,
    oracle_sat_degree,
    parse_formula,
    render,
    similarity_matrix,
)
from threeway.language import formula_rank_for, formula_sort_key_for
from threeway.oracle import _conjunctive_sets

A = AttributeSchema("a", ("1", "2"))
B = AttributeSchema("b", ("1",))


def grid(objects=("x1",), attributes=(A,)):
    cells = {(x, s.name): frozenset({"1"}) for x in objects for s in attributes}
    return SetValuedTable(objects=objects, attributes=attributes, cells=cells)


# name -> (call on the two fixture tables, error, exact message)
REJECTIONS = {
    "schema-empty-name": (lambda c6, s8: AttributeSchema("", ("1",)), ValueError, "attribute name must be nonempty"),
    "schema-empty-domain": (lambda c6, s8: AttributeSchema("a", ()), ValueError, "attribute 'a' has an empty domain"),
    "schema-duplicate-value": (
        lambda c6, s8: AttributeSchema("a", ("1", "1")), ValueError, "attribute 'a' has duplicate domain values",
    ),
    "partial-one-value": (
        lambda c6, s8: Partial(frozenset({"1"})), ValueError, "partially-known cell needs at least 2 distinct values",
    ),
    "grid-no-objects": (lambda c6, s8: grid(objects=()), ValueError, "table needs at least one object"),
    "grid-no-attributes": (lambda c6, s8: grid(attributes=()), ValueError, "table needs at least one attribute"),
    "grid-duplicate-ids": (lambda c6, s8: grid(objects=("x1", "x1")), ValueError, "duplicate object identifiers"),
    "grid-duplicate-names": (lambda c6, s8: grid(attributes=(A, A)), ValueError, "duplicate attribute names"),
    "make-formula-unknown-attr": (
        lambda c6, s8: make_formula([Atom("zz", "1")], ATTR_ORDER),
        UnknownIdError,
        "atom attribute 'zz' not in the declared order",
    ),
    "unknown-mode": (
        lambda c6, s8: enumerate_cdl((A,), mode="loose"),
        ValueError,
        "mode must be one of ('strict', 'extended'), got 'loose'",
    ),
    "sort-key-unknown-attr": (
        lambda c6, s8: formula_sort_key_for((A,))(Formula((Atom("b", "1"),))),
        UnknownIdError,
        "formula attribute 'b' not in schema",
    ),
    "rank-unknown-attr": (
        lambda c6, s8: formula_rank_for((A,))(Formula((Atom("b", "1"),))),
        UnknownIdError,
        "formula attribute 'b' not in schema",
    ),
    "description-row-lacks-attr": (
        lambda c6, s8: object_description({"a1": "1"}, ("a1", "a2"), ATTR_ORDER),
        UnknownIdError,
        "row has no value on 'a2'",
    ),
    "malformed-atom": (
        lambda c6, s8: parse_formula("(a1=1)&a2=0", ATTR_ORDER),
        ValueError,
        "malformed atom 'a2=0' in formula '(a1=1)&a2=0'",
    ),
    "render-unknown-format": (lambda c6, s8: render(RuleSet(()), "yaml"), ValueError, "unknown format 'yaml'"),
    "matrix-unknown-pair": (
        lambda c6, s8: similarity_matrix(s8, ("a1",), TNorm.MIN).degree("x1", "x99"),
        UnknownIdError,
        "no entry for pair ('x1', 'x99')",
    ),
    "similarity-class-unknown-object": (
        lambda c6, s8: alpha_similarity_class(similarity_matrix(s8, ("a1",), TNorm.MIN), "x99", Fraction(1, 2)),
        UnknownIdError,
        "unknown object 'x99'",
    ),
    "oracle-sat-worlds-cap": (
        lambda c6, s8: oracle_sat_degree(s8, "x1", Formula((Atom("a1", "1"),)), max_worlds=0),
        GuardExceededError,
        "1 worlds exceed the cap of 0",
    ),
    "oracle-partition-incomplete": (
        lambda c6, s8: oracle_classical_reduction(s8, ("a1",), ("x1",), Fraction(1, 2)),
        IncompleteTableError,
        "brute-force partition requires a complete table",
    ),
    "oracle-families-incomplete": (
        lambda c6, s8: _conjunctive_sets(s8, ("a1",)),
        IncompleteTableError,
        "brute-force families require a complete table",
    ),
    "oracle-closure-cap": (
        lambda c6, s8: oracle_closure_equality(c6, ("a1", "a2"), max_sets=2),
        GuardExceededError,
        "union closure exceeds the cap of 2 sets",
    ),
}


@pytest.mark.parametrize("name", REJECTIONS)
def test_rejection(complete6, setvalued8, name):
    call, error, message = REJECTIONS[name]
    with pytest.raises(error) as caught:
        call(complete6, setvalued8)
    assert str(caught.value) == message
