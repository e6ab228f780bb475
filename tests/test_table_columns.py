"""Differential test of the columnar table layer.

Tables store each attribute as the tuple of its distinct cells plus one
code per object, and ``cells`` is a read-only view over those columns.
Here the tables, the validators, ``is_complete``, ``partition`` and
``known_row`` are compared with dict-based versions like the ones they
replaced, on the `.itab` texts of ``test_parse_differential`` and on
tables built from dicts with some cells made bad.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import NamedTuple

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from test_parse_differential import itab_texts, reference_parse_table, reference_to_set_valued
from threeway import (
    NA,
    AttributeSchema,
    ClassSpecific,
    DoNotCare,
    IncompleteTable,
    Known,
    NotApplicable,
    Partial,
    SetValuedTable,
    ThreeWayError,
    is_complete,
    parse_table,
    partition,
    to_set_valued,
)
from threeway.table import _Cells

pytestmark = pytest.mark.filterwarnings("ignore::threeway.DomainInferenceWarning")

DIFFERENTIAL = settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


class DictTable(NamedTuple):
    """A table held as one ``(object, attribute) -> cell`` dict."""

    objects: tuple[str, ...]
    attributes: tuple[AttributeSchema, ...]
    cells: dict

    def cell(self, x, a):
        return self.cells[(x, a)]


# --------------------------------------------------------------------------
# Dict-based references


def reference_is_complete(t: DictTable) -> bool:
    return all(len(values) == 1 and NA not in values for values in t.cells.values())


def reference_known_row(t: DictTable, x):
    row = {}
    for schema in t.attributes:
        cell = t.cells[(x, schema.name)]
        if len(cell) != 1:
            raise ValueError(f"cell ({x}, {schema.name}) is not a singleton")
        (row[schema.name],) = cell
    return row


def reference_partition(t: DictTable, attrs):
    keyed = {}
    for x in t.objects:
        row = reference_known_row(t, x)
        keyed.setdefault(tuple(row[a] for a in attrs), []).append(x)
    return tuple(frozenset(block) for block in keyed.values())


def reference_incomplete_error(t: DictTable):
    """The message of the first bad cell in row-major order, or None."""
    names = {s.name for s in t.attributes}
    for x, schema in itertools.product(t.objects, t.attributes):
        name, cell = schema.name, t.cells[(x, schema.name)]
        if not isinstance(cell, (Known, DoNotCare, Partial, ClassSpecific, NotApplicable)):
            return f"cell ({x}, {name}): {cell!r} is not a cell"
        if isinstance(cell, Known) and cell.value not in schema.domain:
            return f"cell ({x}, {name}): value {cell.value!r} outside domain"
        if isinstance(cell, Partial) and not cell.values <= set(schema.domain):
            return f"cell ({x}, {name}): partial values outside domain"
        if isinstance(cell, ClassSpecific) and cell.ref_attr == name:
            return f"cell ({x}, {name}): self-referencing class-specific cell"
        if isinstance(cell, ClassSpecific) and cell.ref_attr not in names:
            return f"cell ({x}, {name}): unknown reference attribute {cell.ref_attr!r}"
    return None


def reference_set_valued_error(t: DictTable):
    for x, schema in itertools.product(t.objects, t.attributes):
        name, values = schema.name, t.cells[(x, schema.name)]
        if not isinstance(values, frozenset):
            return f"cell ({x}, {name}): {values!r} is not a frozenset"
        if not values:
            return f"cell ({x}, {name}) is empty"
        if NA in values and len(values) > 1:
            return f"cell ({x}, {name}) mixes {NA} with domain values"
        if NA not in values and not values <= set(schema.domain):
            return f"cell ({x}, {name}) holds tokens outside the domain"
    return None


# --------------------------------------------------------------------------
# Checks


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ThreeWayError, ValueError) as exc:
        return type(exc), str(exc)


def _same_table(table, reference: DictTable) -> None:
    """``table`` holds the reference's cells, in the same row-major order,
    and answers the dict-based queries the same way."""
    assert (table.objects, table.attributes) == (reference.objects, reference.attributes)
    assert list(table.cells.items()) == list(reference.cells.items())
    assert len(table.cells) == len(reference.cells)
    _one_instance_per_value(table)
    _read_only(table)


def _same_set_valued(table: SetValuedTable, reference: DictTable) -> None:
    _same_table(table, reference)
    assert is_complete(table) == reference_is_complete(reference)
    for x in table.objects:
        assert _outcome(table.known_row, x) == _outcome(reference_known_row, reference, x)
    if reference_is_complete(reference):
        names = table.attribute_names
        for size in range(len(names) + 1):
            for attrs in itertools.combinations(names, size):
                assert partition(table, attrs).blocks == reference_partition(reference, attrs)


def _one_instance_per_value(table) -> None:
    """Equal cells of an attribute are one instance, and every distinct
    cell of a column is held by some object."""
    for a in table.attribute_names:
        cells, codes = table.column(a)
        assert len(set(cells)) == len(cells)
        assert set(codes) == set(range(len(cells)))
        by_value = {}
        for x in table.objects:
            cell = table.cell(x, a)
            assert by_value.setdefault(cell, cell) is cell
            assert cells[codes[table.position(x)]] is cell


def _read_only(table) -> None:
    key = next(iter(table.cells))
    with pytest.raises(TypeError):
        table.cells[key] = table.cells[key]
    with pytest.raises(TypeError):
        del table.cells[key]
    with pytest.raises(dataclasses.FrozenInstanceError):
        table.cells = {}
    assert key in table.cells and ("nobody", key[1]) not in table.cells
    assert table.cells.get(("nobody", key[1])) is None


def _complete_version(reference: DictTable) -> DictTable:
    """The reference with each cell cut to its first domain value, which
    repeats rows often: a complete table to partition."""
    cells = {
        (x, a): frozenset({next((v for v in schema.domain if v in values), schema.domain[0])})
        for (x, a), values, schema in zip(
            reference.cells, reference.cells.values(), itertools.cycle(reference.attributes)
        )
    }
    return reference._replace(cells=cells)


@DIFFERENTIAL
@given(itab_texts())
def test_tables_match_the_dict_based_reference(text):
    try:
        it = parse_table(text)
    except ThreeWayError:
        return
    reference = reference_parse_table(text, build=DictTable)
    _same_table(it, reference)
    _same_table(IncompleteTable(*reference), reference)
    try:
        sv = to_set_valued(it)
    except ThreeWayError:
        return
    set_valued = reference_to_set_valued(reference, build=DictTable)
    _same_set_valued(sv, set_valued)
    _same_set_valued(SetValuedTable(*set_valued), set_valued)
    complete = _complete_version(set_valued)
    _same_set_valued(SetValuedTable(*complete), complete)


BAD_INCOMPLETE = (Known("9"), Partial(frozenset({"0", "9"})), ClassSpecific("zz"), "0")
BAD_SET_VALUED = (frozenset(), frozenset({NA, "0"}), frozenset({"9"}), "0", ("0",))


@DIFFERENTIAL
@given(itab_texts(), st.data())
def test_validators_name_the_first_bad_cell(text, data):
    try:
        to_set_valued(parse_table(text))
    except ThreeWayError:
        return
    reference = reference_parse_table(text, build=DictTable)
    set_valued = reference_to_set_valued(reference, build=DictTable)
    for grid, table_type, bad_cells, expected in (
        (reference, IncompleteTable, BAD_INCOMPLETE, reference_incomplete_error),
        (set_valued, SetValuedTable, BAD_SET_VALUED, reference_set_valued_error),
    ):
        cells = dict(grid.cells)
        for x, a in data.draw(st.lists(st.sampled_from(list(cells)), max_size=3)):
            self_reference = (ClassSpecific(a),) if table_type is IncompleteTable else ()
            cells[(x, a)] = data.draw(st.sampled_from(bad_cells + self_reference))
        message = expected(grid._replace(cells=cells))
        if message is None:
            table_type(*grid._replace(cells=cells))
        else:
            with pytest.raises(ValueError) as caught:
                table_type(*grid._replace(cells=cells))
            assert str(caught.value) == message


def test_equal_cells_from_separate_instances_share_one():
    schemas = (AttributeSchema("a", ("0", "1")), AttributeSchema("b", ("0", "1")))
    objects = ("x1", "x2", "x3")
    cells = {(x, s.name): frozenset({"0", "1"} if x != "x2" else {"1"}) for x in objects for s in schemas}
    table = SetValuedTable(objects, schemas, cells)
    assert table.cell("x1", "a") is table.cell("x3", "a")
    assert table.cell("x1", "a") is not table.cell("x1", "b")
    assert table.column("a")[1] == (0, 1, 0)
    it = parse_table("@attributes a\n@domain a 0 1\n@objects\nx1 {0|1}\nx2 {1|0}\nx3 *\n")
    assert it.cell("x1", "a") is it.cell("x2", "a")
    sv = to_set_valued(it)
    assert sv.cell("x1", "a") is sv.cell("x3", "a")
    assert sv.column("a")[1] == (0, 0, 0)


def test_a_column_view_brings_its_object_index():
    """A table built on a column view of its own objects keeps the view's
    object index, and the parsed and set-valued tables share one; an
    identifier that repeats in the view still fails."""
    it = parse_table("@attributes a\n@domain a 0 1\n@objects\nx1 0\nx2 1\n")
    sv = to_set_valued(it)
    assert sv.cells.positions is it.cells.positions
    assert SetValuedTable(sv.objects, sv.attributes, sv.cells).cells is sv.cells
    objects = ("x1", "x2", "x1")
    view = _Cells(objects, {x: i for i, x in enumerate(objects)}, {"a": ((Known("1"),), (0, 0, 0))})
    with pytest.raises(ValueError, match="^duplicate object identifiers$"):
        IncompleteTable(objects, (AttributeSchema("a", ("1",)),), view)
