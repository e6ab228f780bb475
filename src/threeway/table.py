"""Information-table data model and ingestion.

Three table forms appear in this package:

* :class:`IncompleteTable` - cells are one of five variants: a known
  domain value, a do-not-care value, a partially-known value set, a
  class-specific reference to another attribute, or a non-applicable
  marker.
* :class:`SetValuedTable` - the canonical form; every cell is a nonempty
  set of tokens from the attribute domain, or the singleton ``{NA}``.
* a complete table is simply a set-valued table whose cells are all
  singletons other than ``{NA}``.

The ``.itab`` text format parsed by :func:`parse_table` is line oriented:

    # comment
    @attributes a1 a2 a3
    @domain a1 0 1
    @objects
    x1 1 2 3
    x2 1 ^(a3) 3
    x4 0 3 *
    x6 * 3 {1|3}
    x7 NA 1 0

Cell grammar: a bare token is a known value, ``*`` is do-not-care,
``{v1|v2|...}`` is a partially-known set, ``^(b)`` is a class-specific
value resolved through attribute ``b``, and ``NA`` is non-applicable.
Domains must be declared for any column containing ``*``; otherwise they
may be inferred from the observed tokens (a warning is emitted).
"""

from __future__ import annotations

import itertools
import math
import re
import warnings
from collections.abc import Iterable, Iterator, Mapping, Sequence
from operator import itemgetter
from typing import NoReturn

from .errors import (
    DomainInferenceWarning,
    EmptyResolutionError,
    GuardExceededError,
    ResolutionError,
    TableParseError,
    UnknownIdError,
    UnresolvedReferenceError,
)

#: The distinguished non-applicable token. Never a domain member.
NA = "NA"

#: Default cap on possible-world enumerations.
DEFAULT_MAX_WORLDS = 2**20


class _Record(tuple):
    """Frozen record: the tuple ``(kind, *fields)``, where ``kind`` is the
    class name, so that hashing and equality run in C and records of two
    kinds never compare equal. ``__match_args__`` names the fields."""

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def __getnewargs__(self) -> tuple:
        return self[1:]

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__match_args__, self[1:]))
        return f"{type(self).__qualname__}({fields})"


class AttributeSchema(_Record):
    """An attribute name plus its ordered, duplicate-free domain."""

    __slots__ = ()
    __match_args__ = ("name", "domain")

    def __new__(cls, name: str, domain: tuple[str, ...]) -> AttributeSchema:
        if not name:
            raise ValueError("attribute name must be nonempty")
        if not domain:
            raise ValueError(f"attribute {name!r} has an empty domain")
        if len(set(domain)) != len(domain):
            raise ValueError(f"attribute {name!r} has duplicate domain values")
        if NA in domain:
            raise ValueError(f"attribute {name!r} lists {NA} in its domain")
        return tuple.__new__(cls, ("AttributeSchema", name, domain))

    name = property(itemgetter(1))
    domain = property(itemgetter(2))


class Known(_Record):
    __slots__ = ()
    __match_args__ = ("value",)

    def __new__(cls, value: str) -> Known:
        return tuple.__new__(cls, ("Known", value))

    value = property(itemgetter(1))


class DoNotCare(_Record):
    __slots__ = ()

    def __new__(cls) -> DoNotCare:
        return tuple.__new__(cls, ("DoNotCare",))


class Partial(_Record):
    __slots__ = ()
    __match_args__ = ("values",)

    def __new__(cls, values: frozenset[str]) -> Partial:
        if len(values) < 2:
            raise ValueError("partially-known cell needs at least 2 distinct values")
        return tuple.__new__(cls, ("Partial", values))

    values = property(itemgetter(1))


class ClassSpecific(_Record):
    __slots__ = ()
    __match_args__ = ("ref_attr",)

    def __new__(cls, ref_attr: str) -> ClassSpecific:
        return tuple.__new__(cls, ("ClassSpecific", ref_attr))

    ref_attr = property(itemgetter(1))


class NotApplicable(_Record):
    __slots__ = ()

    def __new__(cls) -> NotApplicable:
        return tuple.__new__(cls, ("NotApplicable",))


# A PEP 604 union, not typing.Union: typing caches Union objects, and the
# cache would keep the classes of every earlier import of this module alive.
Cell = Known | DoNotCare | Partial | ClassSpecific | NotApplicable


class _Cells(Mapping):
    """Read-only ``(object, attribute) -> cell`` view, in row-major order, of
    columns: ``columns[a]`` is the tuple of the distinct cells of ``a``, each
    held by some object, and per object the index of its cell there."""

    def __init__(self, objects: tuple[str, ...], positions: dict[str, int], columns: dict):
        self.objects, self.positions, self.columns = objects, positions, columns

    def __getitem__(self, key: tuple[str, str]):
        x, a = key
        cells, codes = self.columns[a]
        return cells[codes[self.positions[x]]]

    def __iter__(self) -> Iterator[tuple[str, str]]:
        return itertools.product(self.objects, self.columns)

    def __len__(self) -> int:
        return len(self.objects) * len(self.columns)


def _first_bad(columns: Sequence[Sequence], bad: Mapping[int, Mapping]) -> tuple[int, int]:
    """Row and column index of the first cell, in row-major order, whose
    entry in ``columns[j]`` is a key of ``bad[j]``."""
    return min((next(i for i, v in enumerate(columns[j]) if v in bad_j), j) for j, bad_j in bad.items())


def _bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _Grid:
    """Objects x attributes grid: shape checks, O(1) id indexes, and the
    object, attribute-subset and class checks every route relies on.
    ``cells`` is any total mapping of hashable cells, kept as a
    :class:`_Cells` view in which equal cells of a column share one code.

    A frozen record of ``objects``, ``attributes`` and ``cells`` that
    compares and hashes by identity."""

    __match_args__ = ("objects", "attributes", "cells")

    def __init__(
        self,
        objects: tuple[str, ...],
        attributes: tuple[AttributeSchema, ...],
        cells: Mapping[tuple[str, str], object],
    ) -> None:
        set_field = object.__setattr__
        set_field(self, "objects", objects)
        set_field(self, "attributes", attributes)
        set_field(self, "cells", cells)
        if not objects:
            raise ValueError("table needs at least one object")
        if not attributes:
            raise ValueError("table needs at least one attribute")
        # A view over these objects brings its object index; one per object
        # means no identifier repeats.
        view = isinstance(cells, _Cells) and cells.objects == objects
        positions = cells.positions if view else {x: i for i, x in enumerate(objects)}
        if len(positions) != len(objects):
            raise ValueError("duplicate object identifiers")
        by_name = {a.name: a for a in attributes}
        if len(by_name) != len(attributes):
            raise ValueError("duplicate attribute names")
        set_field(self, "_by_name", by_name)
        if not (view and tuple(cells.columns) == tuple(by_name)):
            if len(cells) != len(objects) * len(attributes):
                raise ValueError("cells map is not total over objects x attributes")
            columns = {}
            try:
                for a in by_name:
                    index: dict[object, int] = {}
                    codes = [index.setdefault(cells[(x, a)], len(index)) for x in objects]
                    columns[a] = (tuple(index), tuple(codes))
            except KeyError:  # n*m keys, some off the grid: name the first hole in grid order
                x, a = next(key for key in itertools.product(objects, by_name) if key not in cells)
                raise ValueError(f"missing cell ({x}, {a})") from None
            cells = _Cells(objects, positions, columns)
            set_field(self, "cells", cells)
        # Check each distinct cell once, by its code; ``_problem`` gives the
        # end of the error message for a bad cell of column ``name``.
        bad = {}
        for j, (name, (values, _)) in enumerate(cells.columns.items()):
            domain = set(by_name[name].domain)
            if problems := {c: m for c, cell in enumerate(values) if (m := self._problem(name, cell, domain))}:
                bad[j] = problems
        if bad:
            codes = [c for _, c in cells.columns.values()]
            i, j = _first_bad(codes, bad)
            raise ValueError(f"cell ({objects[i]}, {attributes[j].name}){bad[j][codes[j][i]]}")

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        return (
            f"{type(self).__qualname__}(objects={self.objects!r}, "
            f"attributes={self.attributes!r}, cells={self.cells!r})"
        )

    @property
    def attribute_names(self) -> tuple[str, ...]:
        return tuple(self._by_name)

    def schema(self, name: str) -> AttributeSchema:
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownIdError(f"unknown attribute {name!r}") from None

    def column(self, a: str) -> tuple[tuple, Sequence[int]]:
        """The distinct cells of ``a`` and, per object, its cell's index there."""
        return self.cells.columns[self.schema(a).name]

    def cell(self, x: str, a: str):
        try:
            return self.cells[(x, a)]
        except KeyError:
            raise UnknownIdError(f"unknown cell ({x!r}, {a!r})") from None

    def position(self, x: str) -> int:
        """Index of object ``x`` in :attr:`objects`."""
        try:
            return self.cells.positions[x]
        except KeyError:
            raise UnknownIdError(f"unknown object {x!r}") from None

    def check_objects(self, *xs: str) -> None:
        """Raise :class:`UnknownIdError` for the first unknown object."""
        for x in xs:
            self.position(x)

    def attr_subset(self, attrs: Iterable[str]) -> tuple[str, ...]:
        """The named attributes in declaration order, which keeps formula
        atom order canonical everywhere. The subset must be nonempty."""
        attrs = tuple(attrs)
        if not attrs:
            raise ValueError("attribute subset must be nonempty")
        wanted = set(attrs)
        if len(wanted) != len(attrs):
            raise ValueError("duplicate attributes in subset")
        for a in attrs:
            self.schema(a)
        return tuple(a for a in self._by_name if a in wanted)

    def class_set(self, x_set: Iterable[str]) -> frozenset[str]:
        """The class as a frozenset; every member must be an object."""
        members = frozenset(x_set)
        unknown = sorted(x for x in members if x not in self.cells.positions)
        if unknown:
            raise UnknownIdError(f"class contains unknown objects {unknown!r}")
        return members


class IncompleteTable(_Grid):
    """Objects x attributes grid whose cells may carry incomplete values."""

    def _problem(self, name: str, cell: Cell, domain: set[str]) -> str | None:
        if not isinstance(cell, Cell):
            return f": {cell!r} is not a cell"
        if isinstance(cell, Known) and cell.value not in domain:
            return f": value {cell.value!r} outside domain"
        if isinstance(cell, Partial) and not cell.values <= domain:
            return ": partial values outside domain"
        if isinstance(cell, ClassSpecific) and cell.ref_attr == name:
            return ": self-referencing class-specific cell"
        if isinstance(cell, ClassSpecific) and cell.ref_attr not in self._by_name:
            return f": unknown reference attribute {cell.ref_attr!r}"
        return None


class SetValuedTable(_Grid):
    """Canonical table form: every cell is a nonempty token set.

    ``NA`` appears only as the singleton ``{NA}``; mixed cells are rejected.
    """

    def _problem(self, name: str, values: frozenset[str], domain: set[str]) -> str | None:
        if not isinstance(values, frozenset):
            return f": {values!r} is not a frozenset"
        if not values:
            return " is empty"
        if NA in values:
            return f" mixes {NA} with domain values" if len(values) > 1 else None
        return None if values <= domain else " holds tokens outside the domain"

    def ordered_cell(self, x: str, a: str) -> tuple[str, ...]:
        """Cell tokens in domain declaration order, ``NA`` last."""
        cell = self.cell(x, a)
        return tuple(v for v in self.schema(a).domain + (NA,) if v in cell)

    def known_row(self, x: str) -> dict[str, str]:
        """Row of single tokens; requires every cell of ``x`` to be a singleton."""
        row = {}
        for a in self.attribute_names:
            cell = self.cell(x, a)
            if len(cell) != 1:
                raise ValueError(f"cell ({x}, {a}) is not a singleton")
            (row[a],) = cell
        return row


def resolve_class_specific(it: IncompleteTable, x: str, a: str) -> frozenset[str]:
    """Resolve a class-specific cell to the set of known values taken on
    ``a`` by other objects sharing the reference attribute's known value.

    Only known cells of peer objects count; a reference cell that is not
    itself known is an error, as is an empty result.
    """
    cell = it.cell(x, a)
    if not isinstance(cell, ClassSpecific):
        raise ValueError(f"cell ({x}, {a}) is not class-specific")
    ref_attr = cell.ref_attr
    return _resolve(x, a, ref_attr, it.cell(x, ref_attr), _peer_values(it, ref_attr, a))


def _peer_values(it: IncompleteTable, ref_attr: str, a: str) -> dict[str, frozenset[str]]:
    """Known values of ``a``, keyed by the known value of ``ref_attr``
    beside them, from the distinct code pairs of the two columns. An
    object's own class-specific cell is not known, so it never supplies
    its own resolution."""
    ref_cells, ref_codes = it.column(ref_attr)
    cells, codes = it.column(a)
    peers: dict[str, set[str]] = {}
    for r, c in set(zip(ref_codes, codes)):
        ref, cell = ref_cells[r], cells[c]
        if isinstance(ref, Known) and isinstance(cell, Known):
            peers.setdefault(ref.value, set()).add(cell.value)
    return {key: frozenset(values) for key, values in peers.items()}


def _resolve(x: str, a: str, ref_attr: str, ref: Cell, peers: Mapping[str, frozenset[str]]) -> frozenset[str]:
    """The resolution of object ``x``'s class-specific cell on ``a``, whose
    reference cell on ``ref_attr`` is ``ref``."""
    if not isinstance(ref, Known):
        raise UnresolvedReferenceError(
            f"cell ({x}, {a}): reference cell ({x}, {ref_attr}) is not a known value"
        )
    values = peers.get(ref.value)
    if not values:
        raise EmptyResolutionError(
            f"cell ({x}, {a}): no peer object with {ref_attr}={ref.value} "
            f"supplies a known value"
        )
    return values


def to_set_valued(it: IncompleteTable) -> SetValuedTable:
    """Interpret an incomplete table as its equivalent set-valued table.

    Known(v) maps to {v}, do-not-care to the full domain, partially-known
    to its value set, class-specific to its resolution, non-applicable to
    {NA}. Each distinct cell of a column is mapped once, over the column's
    codes. A column holding class-specific cells indexes peer values once
    per (reference attribute, attribute) pair and walks its holders once,
    in object order: each distinct (class-specific cell, reference cell)
    pair resolves at its first holder, so resolved sets are coded in object
    order, and the column stops at its first failing holder. The first
    cell that fails to resolve, in row-major order, raises.
    """
    columns: dict[str, tuple[dict[frozenset[str], int], list[int]]] = {}
    failures: list[tuple[int, int, ResolutionError]] = []
    for j, schema in enumerate(it.attributes):
        a = schema.name
        cells, codes = it.column(a)
        index: dict[frozenset[str], int] = {}
        values = [_values(cell, schema) for cell in cells]
        recode = [None if v is None else index.setdefault(v, len(index)) for v in values]
        coded = list(map(recode.__getitem__, codes))
        columns[a] = (index, coded)
        if None not in recode:
            continue
        # Per class-specific code: its reference attribute, that column and the peer index.
        refs = {c: (cell.ref_attr, *it.column(cell.ref_attr), _peer_values(it, cell.ref_attr, a))
                for c, cell in enumerate(cells) if recode[c] is None}
        # The holders in object order; each distinct (code, reference code) resolves once.
        resolved: dict[tuple[int, int], int] = {}
        for i in itertools.compress(range(len(codes)), map(refs.__contains__, codes)):
            ref_attr, ref_cells, ref_codes, peers = refs[codes[i]]
            key = (codes[i], ref_codes[i])
            if key not in resolved:
                try:
                    resolution = _resolve(it.objects[i], a, ref_attr, ref_cells[key[1]], peers)
                except ResolutionError as exc:
                    failures.append((i, j, exc))
                    break
                resolved[key] = index.setdefault(resolution, len(index))
            coded[i] = resolved[key]
    if failures:
        raise min(failures, key=lambda failure: failure[:2])[2]
    final = {a: (tuple(index), tuple(codes)) for a, (index, codes) in columns.items()}
    return SetValuedTable(it.objects, it.attributes, _Cells(it.objects, it.cells.positions, final))


def _values(cell: Cell, schema: AttributeSchema) -> frozenset[str] | None:
    """The value set of a cell; None for a class-specific cell, which
    resolves per object."""
    if isinstance(cell, Known):
        return frozenset({cell.value})
    if isinstance(cell, DoNotCare):
        return frozenset(schema.domain)
    if isinstance(cell, Partial):
        return cell.values
    if isinstance(cell, NotApplicable):
        return frozenset({NA})
    return None


def is_complete(st: SetValuedTable) -> bool:
    """True iff every cell is a singleton other than {NA}."""
    return all(len(v) == 1 and NA not in v for cells, _ in st.cells.columns.values() for v in cells)


def world_count(st: SetValuedTable, rows: Iterable[str] | None = None) -> int:
    """Number of complete assignments obtainable by picking one token per cell."""
    return math.prod(len(st.cell(x, a)) for x in _select_rows(st, rows) for a in st.attribute_names)


def possible_worlds(
    st: SetValuedTable,
    rows: Iterable[str] | None = None,
    max_worlds: int = DEFAULT_MAX_WORLDS,
) -> Iterator[dict[str, dict[str, str]]]:
    """Enumerate every complete assignment of the selected rows.

    Yields mappings ``object -> attribute -> token`` in deterministic
    lexicographic order over the domain declaration order; an ``{NA}``
    cell contributes its single token. Raises before yielding anything if
    the world count exceeds ``max_worlds``.
    """
    selected = _select_rows(st, rows)
    total = world_count(st, selected)
    if total > max_worlds:
        raise GuardExceededError(f"{total} possible worlds exceed the cap of {max_worlds}")
    slots = [(x, a, st.ordered_cell(x, a)) for x in selected for a in st.attribute_names]

    def generate() -> Iterator[dict[str, dict[str, str]]]:
        for choice in itertools.product(*(tokens for _, _, tokens in slots)):
            world: dict[str, dict[str, str]] = {x: {} for x in selected}
            for (x, a, _), token in zip(slots, choice):
                world[x][a] = token
            yield world

    return generate()


def _select_rows(st: SetValuedTable, rows: Iterable[str] | None) -> tuple[str, ...]:
    if rows is None:
        return st.objects
    wanted = set(rows)
    st.check_objects(*sorted(wanted))
    return tuple(x for x in st.objects if x in wanted)


# --------------------------------------------------------------------------
# .itab parsing

_PARTIAL_RE = re.compile(r"^\{(.*)\}$")
_CLASS_SPECIFIC_RE = re.compile(r"^\^\(([^()\s]+)\)$")


def _column(line: str, index: int) -> int:
    """1-based column of the ``index``-th token of ``line``. Rows are split
    without positions; a position is found only for an error message."""
    body = line.split("#", 1)[0]
    return [m.start() + 1 for m in re.finditer(r"\S+", body)][index]


def parse_table(text: str) -> IncompleteTable:
    """Parse ``.itab`` source into an :class:`IncompleteTable`.

    Raises :class:`TableParseError` for syntax errors, unknown reference
    attributes, out-of-domain values, and duplicate object identifiers;
    its ``line`` and ``column`` are 1-based. Of several errors, the one
    raised is the first by this precedence: line structure (directives,
    object ids, cell counts) in line order, then cell syntax in row-major
    order, then domains (``*`` without ``@domain`` and domains that cannot
    be inferred, in attribute order, then out-of-domain values in
    row-major order).

    Each distinct token of an attribute is parsed and checked once, and
    the equal cells of an attribute share one instance.
    """
    lines = text.splitlines()
    attr_names: list[str] | None = None
    declared: dict[str, tuple[str, ...]] = {}
    positions: dict[str, int] = {}
    rows: list[list[str]] = []
    row_lines: list[int] = []
    in_objects = False

    for line_no, raw in enumerate(lines, start=1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        head = tokens[0]
        if head == "@attributes":
            if attr_names is not None:
                raise TableParseError("duplicate @attributes directive", line_no, _column(raw, 0))
            attr_names = tokens[1:]
            if not attr_names:
                raise TableParseError("@attributes needs at least one name", line_no, _column(raw, 0))
            if len(set(attr_names)) != len(attr_names):
                raise TableParseError("duplicate attribute name", line_no, _column(raw, 0))
        elif head == "@domain":
            if attr_names is None:
                raise TableParseError("@domain before @attributes", line_no, _column(raw, 0))
            if len(tokens) < 3:
                raise TableParseError(
                    "@domain needs an attribute and at least one value", line_no, _column(raw, 0)
                )
            name, values = tokens[1], tokens[2:]
            if name not in attr_names:
                raise TableParseError(f"unknown attribute {name!r} in @domain", line_no, _column(raw, 1))
            if name in declared:
                raise TableParseError(f"duplicate @domain for {name!r}", line_no, _column(raw, 1))
            if len(set(values)) != len(values):
                raise TableParseError(f"duplicate domain value for {name!r}", line_no, _column(raw, 1))
            if NA in values:
                raise TableParseError(f"{NA} cannot be a domain value", line_no, _column(raw, 1))
            declared[name] = tuple(values)
        elif head == "@objects":
            if attr_names is None:
                raise TableParseError("@objects before @attributes", line_no, _column(raw, 0))
            in_objects = True
        elif head.startswith("@"):
            raise TableParseError(f"unknown directive {head!r}", line_no, _column(raw, 0))
        else:
            if not in_objects:
                raise TableParseError("object row before @objects", line_no, _column(raw, 0))
            assert attr_names is not None
            if head in positions:
                raise TableParseError(f"duplicate object id {head!r}", line_no, _column(raw, 0))
            if len(tokens) - 1 != len(attr_names):
                raise TableParseError(
                    f"object {head!r} has {len(tokens) - 1} cells, expected {len(attr_names)}",
                    line_no,
                    _column(raw, 0),
                )
            positions[head] = len(positions)
            rows.append(tokens[1:])
            row_lines.append(line_no)

    if attr_names is None:
        raise TableParseError("missing @attributes directive")
    if not rows:
        raise TableParseError("table has no object rows")
    columns = list(zip(*rows))

    def fail_first(bad: dict[int, dict[str, str]]) -> NoReturn:
        """Raise the message of the first bad token in row-major order."""
        i, j = _first_bad(columns, bad)
        line_no = row_lines[i]
        raise TableParseError(bad[j][columns[j][i]], line_no, _column(lines[line_no - 1], j + 1))

    # One token -> cell map per attribute: each distinct token is parsed once.
    parsed: list[dict[str, Cell]] = []
    bad: dict[int, dict[str, str]] = {}
    for j, (name, column) in enumerate(zip(attr_names, columns)):
        cells_of: dict[str, Cell] = {}
        for token in dict.fromkeys(column):
            try:
                cells_of[token] = _parse_cell(token, name, attr_names)
            except TableParseError as exc:
                bad.setdefault(j, {})[token] = str(exc)
        parsed.append(cells_of)
    if bad:
        fail_first(bad)

    # One pass per attribute: its domain (declared, or inferred from its
    # cells), its out-of-domain tokens, its schema and its column codes.
    schemas = []
    cell_columns = {}
    for j, (name, cells_of, column) in enumerate(zip(attr_names, parsed, columns)):
        if name in declared:
            domain = declared[name]
        else:
            if "*" in cells_of:
                fail_first({j: {"*": f"attribute {name!r} uses '*' but declares no @domain"}})
            observed: set[str] = set()
            for cell in cells_of.values():
                if isinstance(cell, Known):
                    observed.add(cell.value)
                elif isinstance(cell, Partial):
                    observed |= cell.values
            if not observed:
                raise TableParseError(f"cannot infer a domain for attribute {name!r}")
            warnings.warn(
                f"domain of {name!r} inferred from observed tokens", DomainInferenceWarning, stacklevel=2
            )
            domain = tuple(sorted(observed))
        allowed = set(domain)
        for token, cell in cells_of.items():
            if isinstance(cell, Known) and cell.value not in allowed:
                bad.setdefault(j, {})[token] = f"value {cell.value!r} outside the domain of {name!r}"
            elif isinstance(cell, Partial) and not cell.values <= allowed:
                stray = sorted(cell.values - allowed)
                bad.setdefault(j, {})[token] = f"values {stray!r} outside the domain of {name!r}"
        schemas.append(AttributeSchema(name, domain))
        # Equal cells, such as {0|1} and {1|0}, share one code.
        index: dict[Cell, int] = {}
        code_of = {token: index.setdefault(cell, len(index)) for token, cell in cells_of.items()}
        cell_columns[name] = (tuple(index), tuple(map(code_of.__getitem__, column)))
    if bad:
        fail_first(bad)

    objects = tuple(positions)
    return IncompleteTable(objects, tuple(schemas), _Cells(objects, positions, cell_columns))


def _parse_cell(token: str, attr: str, attr_names: list[str]) -> Cell:
    """The cell ``token`` denotes in column ``attr``; a syntax error is
    raised without a position, which the caller adds."""
    if token == "*":
        return DoNotCare()
    if token == NA:
        return NotApplicable()
    match = _PARTIAL_RE.match(token)
    if match:
        values = [v for v in match.group(1).split("|") if v]
        if len(set(values)) < 2:
            raise TableParseError("partially-known cell requires at least 2 distinct values")
        if NA in values:
            raise TableParseError(f"{NA} cannot appear in a partially-known cell")
        return Partial(frozenset(values))
    match = _CLASS_SPECIFIC_RE.match(token)
    if match:
        ref = match.group(1)
        if ref not in attr_names:
            raise TableParseError(f"unknown reference attribute {ref!r}")
        if ref == attr:
            raise TableParseError("class-specific cell cannot reference its own attribute")
        return ClassSpecific(ref)
    if token.startswith("^") or token.startswith("{"):
        raise TableParseError(f"malformed cell {token!r}")
    return Known(token)
