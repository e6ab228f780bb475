"""The table records are plain frozen classes: the five cell kinds and
``AttributeSchema`` are tuples tagged with their kind, the two table
classes compare by identity. They keep the fields, keyword construction,
validation messages, reprs, equality, hashing, copies and pickles of the
frozen dataclasses they replaced.
"""

from __future__ import annotations

import copy
import itertools
import pickle

import pytest

from threeway import (
    AttributeSchema,
    ClassSpecific,
    DoNotCare,
    IncompleteTable,
    Known,
    NotApplicable,
    Partial,
    SetValuedTable,
    to_set_valued,
)

A1 = AttributeSchema("a1", ("0", "1"))
A2 = AttributeSchema("a2", ("1", "2", "3"))
PAIR = frozenset({"1", "3"})

#: One cell of each kind, over the same token where the kind holds one.
CELLS = (Known("a1"), DoNotCare(), Partial(frozenset({"a1", "a2"})), ClassSpecific("a1"), NotApplicable())

#: Each cell or schema with the repr of the dataclass it replaced; a
#: frozenset's order follows the hash seed, so ``Partial``'s is built here.
REPRS = [
    (Known("a1"), "Known(value='a1')"),
    (DoNotCare(), "DoNotCare()"),
    (Partial(PAIR), f"Partial(values={PAIR!r})"),
    (ClassSpecific("a3"), "ClassSpecific(ref_attr='a3')"),
    (NotApplicable(), "NotApplicable()"),
    (A2, "AttributeSchema(name='a2', domain=('1', '2', '3'))"),
]


def incomplete() -> IncompleteTable:
    cells = {
        ("x1", "a1"): Known("0"), ("x1", "a2"): Partial(PAIR),
        ("x2", "a1"): Known("0"), ("x2", "a2"): Known("2"),
        ("x3", "a1"): Known("0"), ("x3", "a2"): ClassSpecific("a1"),
        ("x4", "a1"): NotApplicable(), ("x4", "a2"): DoNotCare(),
    }
    return IncompleteTable(("x1", "x2", "x3", "x4"), (A1, A2), cells)


def tables() -> list:
    it = incomplete()
    return [it, to_set_valued(it)]


@pytest.mark.parametrize("left, right", itertools.combinations(CELLS, 2), ids=repr)
def test_cells_of_two_kinds_never_compare_equal(left, right):
    assert left != right and not left == right


def test_equal_values_are_equal_with_equal_hashes():
    pairs = [
        (Known("a1"), Known(value="a1")),
        (DoNotCare(), DoNotCare()),
        (Partial(frozenset(["1", "2", "3"])), Partial(frozenset(["3", "1", "2"]))),
        (ClassSpecific("a1"), ClassSpecific(ref_attr="a1")),
        (NotApplicable(), NotApplicable()),
        (AttributeSchema("a1", ("0", "1")), A1),
    ]
    for left, right in pairs:
        assert left == right and hash(left) == hash(right)
    assert Known("a1") != Known("a2") and AttributeSchema("a1", ("1", "0")) != A1
    assert len({*CELLS, *(copy.copy(c) for c in CELLS)}) == len(CELLS)


@pytest.mark.parametrize("record, text", REPRS, ids=lambda r: type(r).__name__)
def test_repr_is_the_dataclass_text(record, text):
    assert repr(record) == text


@pytest.mark.parametrize("table", tables(), ids=lambda t: type(t).__name__)
def test_table_repr_is_the_dataclass_text(table):
    assert repr(table) == (
        f"{type(table).__name__}(objects=('x1', 'x2', 'x3', 'x4'), "
        f"attributes=({A1!r}, {A2!r}), cells={table.cells!r})"
    )


def test_keyword_construction_and_fields():
    assert Known(value="1").value == "1"
    assert Partial(values=PAIR).values is PAIR
    assert ClassSpecific(ref_attr="a3").ref_attr == "a3"
    schema = AttributeSchema(name="a2", domain=("1", "2", "3"))
    assert (schema.name, schema.domain) == ("a2", ("1", "2", "3"))
    it = incomplete()
    again = IncompleteTable(objects=it.objects, attributes=it.attributes, cells=dict(it.cells))
    assert (again.objects, again.attributes, dict(again.cells)) == (it.objects, it.attributes, dict(it.cells))
    st = SetValuedTable(objects=it.objects, attributes=(A1, A2), cells=dict(to_set_valued(it).cells))
    assert st.cell("x3", "a2") == frozenset({"2"})


def test_fields_match_by_position():
    match Partial(PAIR), AttributeSchema("a1", ("0", "1")), ClassSpecific("a1"):
        case Partial(values), AttributeSchema(name, domain), ClassSpecific(ref):
            assert (values, name, domain, ref) == (PAIR, "a1", ("0", "1"), "a1")
        case _:
            pytest.fail("records do not match by position")


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: AttributeSchema("", ()), "attribute name must be nonempty"),
        (lambda: AttributeSchema("a", ()), "attribute 'a' has an empty domain"),
        (lambda: AttributeSchema("a", ("1", "1")), "attribute 'a' has duplicate domain values"),
        (lambda: AttributeSchema("a", ("1", "NA")), "attribute 'a' lists NA in its domain"),
        (lambda: Partial(frozenset({"1"})), "partially-known cell needs at least 2 distinct values"),
        (lambda: IncompleteTable((), (), {}), "table needs at least one object"),
        (lambda: IncompleteTable(("x1", "x1"), (A1,), {}), "duplicate object identifiers"),
        (lambda: SetValuedTable(("x1",), (A1, A1), {}), "duplicate attribute names"),
    ],
)
def test_validation_order_and_messages(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


@pytest.mark.parametrize("record", [*CELLS, A1, *tables()], ids=lambda r: type(r).__name__)
def test_records_are_read_only(record):
    for name in ("value", "values", "ref_attr", "name", "domain", "objects", "cells", "other"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)


def clones(record) -> list:
    return [copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))]


@pytest.mark.parametrize("record", [*CELLS, A1, A2], ids=lambda r: type(r).__name__)
def test_cell_and_schema_copy_and_pickle(record):
    for clone in clones(record):
        assert type(clone) is type(record)
        assert clone == record and hash(clone) == hash(record)
        assert repr(clone) == repr(record)


@pytest.mark.parametrize("table", tables(), ids=lambda t: type(t).__name__)
def test_table_copy_and_pickle(table):
    for clone in clones(table):
        assert type(clone) is type(table)
        assert clone != table and hash(clone) != hash(table)  # tables compare by identity
        assert (clone.objects, clone.attributes) == (table.objects, table.attributes)
        assert clone.cells.columns == table.cells.columns and dict(clone.cells) == dict(table.cells)
        assert clone.schema("a2") == A2 and clone.position("x3") == 2
        with pytest.raises(AttributeError):
            clone.cells = {}
    assert table == table and {table: 1}[table] == 1
