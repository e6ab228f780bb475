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
import re
import warnings
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, NoReturn

from .errors import (
    DomainInferenceWarning,
    EmptyResolutionError,
    GuardExceededError,
    TableParseError,
    UnknownIdError,
    UnresolvedReferenceError,
)

#: The distinguished non-applicable token. Never a domain member.
NA = "NA"

#: Default cap on possible-world enumerations.
DEFAULT_MAX_WORLDS = 2**20


@dataclass(frozen=True)
class AttributeSchema:
    """An attribute name plus its ordered, duplicate-free domain."""

    name: str
    domain: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("attribute name must be nonempty")
        if not self.domain:
            raise ValueError(f"attribute {self.name!r} has an empty domain")
        if len(set(self.domain)) != len(self.domain):
            raise ValueError(f"attribute {self.name!r} has duplicate domain values")
        if NA in self.domain:
            raise ValueError(f"attribute {self.name!r} lists {NA} in its domain")


@dataclass(frozen=True)
class Known:
    value: str


@dataclass(frozen=True)
class DoNotCare:
    pass


@dataclass(frozen=True)
class Partial:
    values: frozenset[str]

    def __post_init__(self) -> None:
        if len(self.values) < 2:
            raise ValueError("partially-known cell needs at least 2 distinct values")


@dataclass(frozen=True)
class ClassSpecific:
    ref_attr: str


@dataclass(frozen=True)
class NotApplicable:
    pass


# A PEP 604 union, not typing.Union: typing caches Union objects, and the
# cache would keep the classes of every earlier import of this module alive.
Cell = Known | DoNotCare | Partial | ClassSpecific | NotApplicable


@dataclass(frozen=True, eq=False)
class _Grid:
    """Objects x attributes grid: shape checks, O(1) id indexes, and the
    object, attribute-subset and class checks every route relies on."""

    objects: tuple[str, ...]
    attributes: tuple[AttributeSchema, ...]
    cells: Mapping[tuple[str, str], object]

    def __post_init__(self) -> None:
        if not self.objects:
            raise ValueError("table needs at least one object")
        if not self.attributes:
            raise ValueError("table needs at least one attribute")
        positions = {x: i for i, x in enumerate(self.objects)}
        if len(positions) != len(self.objects):
            raise ValueError("duplicate object identifiers")
        by_name = {a.name: a for a in self.attributes}
        if len(by_name) != len(self.attributes):
            raise ValueError("duplicate attribute names")
        object.__setattr__(self, "_positions", positions)
        object.__setattr__(self, "_by_name", by_name)
        if len(self.cells) != len(self.objects) * len(self.attributes):
            raise ValueError("cells map is not total over objects x attributes")
        # Keys are (object, attribute) tuples, so n*m distinct keys on the
        # grid cover it; otherwise the scan in grid order names the first hole.
        try:
            on_grid = all(x in positions and a in by_name for x, a in self.cells)
        except (TypeError, ValueError):  # a key that is not a pair
            on_grid = False
        if not on_grid:
            for x in self.objects:
                for a in by_name:
                    if (x, a) not in self.cells:
                        raise ValueError(f"missing cell ({x}, {a})")

    def _distinct_cells(self) -> Iterator[tuple[str, str, object]]:
        """``(object, attribute, cell)`` for the first cell of each instance
        per attribute, in ``cells`` order. The tables parse_table and
        to_set_valued build share one instance among the equal cells of an
        attribute, so a check of each cell instance checks each distinct
        cell once and still fails on the first bad cell."""
        seen: set[tuple[str, int]] = set()
        for (x, name), cell in self.cells.items():
            key = (name, id(cell))
            if key not in seen:
                seen.add(key)
                yield x, name, cell

    @property
    def attribute_names(self) -> tuple[str, ...]:
        return tuple(self._by_name)

    def schema(self, name: str) -> AttributeSchema:
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownIdError(f"unknown attribute {name!r}") from None

    def cell(self, x: str, a: str):
        try:
            return self.cells[(x, a)]
        except KeyError:
            raise UnknownIdError(f"unknown cell ({x!r}, {a!r})") from None

    def position(self, x: str) -> int:
        """Index of object ``x`` in :attr:`objects`."""
        try:
            return self._positions[x]
        except KeyError:
            raise UnknownIdError(f"unknown object {x!r}") from None

    def check_objects(self, *xs: str) -> None:
        """Raise :class:`UnknownIdError` for the first unknown object."""
        for x in xs:
            self.position(x)

    def attr_subset(self, attrs: Iterable[str]) -> tuple[str, ...]:
        """The named attributes in declaration order, which keeps formula
        atom order canonical everywhere."""
        attrs = tuple(attrs)
        wanted = set(attrs)
        if len(wanted) != len(attrs):
            raise ValueError("duplicate attributes in subset")
        for a in attrs:
            self.schema(a)
        return tuple(a for a in self._by_name if a in wanted)

    def class_set(self, x_set: Iterable[str]) -> frozenset[str]:
        """The class as a frozenset; every member must be an object."""
        members = frozenset(x_set)
        unknown = sorted(x for x in members if x not in self._positions)
        if unknown:
            raise UnknownIdError(f"class contains unknown objects {unknown!r}")
        return members


@dataclass(frozen=True, eq=False)
class IncompleteTable(_Grid):
    """Objects x attributes grid whose cells may carry incomplete values."""

    cells: Mapping[tuple[str, str], Cell]

    def __post_init__(self) -> None:
        super().__post_init__()
        domains = {name: set(schema.domain) for name, schema in self._by_name.items()}
        for x, name, cell in self._distinct_cells():
            if isinstance(cell, Known) and cell.value not in domains[name]:
                raise ValueError(f"cell ({x}, {name}): value {cell.value!r} outside domain")
            if isinstance(cell, Partial) and not cell.values <= domains[name]:
                raise ValueError(f"cell ({x}, {name}): partial values outside domain")
            if isinstance(cell, ClassSpecific):
                if cell.ref_attr == name:
                    raise ValueError(f"cell ({x}, {name}): self-referencing class-specific cell")
                if cell.ref_attr not in self._by_name:
                    raise ValueError(f"cell ({x}, {name}): unknown reference attribute {cell.ref_attr!r}")


@dataclass(frozen=True, eq=False)
class SetValuedTable(_Grid):
    """Canonical table form: every cell is a nonempty token set.

    ``NA`` appears only as the singleton ``{NA}``; mixed cells are rejected.
    """

    cells: Mapping[tuple[str, str], frozenset[str]]

    def __post_init__(self) -> None:
        super().__post_init__()
        domains = {name: set(schema.domain) for name, schema in self._by_name.items()}
        for x, name, values in self._distinct_cells():
            if not values:
                raise ValueError(f"cell ({x}, {name}) is empty")
            if NA in values:
                if len(values) > 1:
                    raise ValueError(f"cell ({x}, {name}) mixes {NA} with domain values")
            elif not values <= domains[name]:
                raise ValueError(f"cell ({x}, {name}) holds tokens outside the domain")

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
    peers = _peer_values(_known_column(it, cell.ref_attr), _known_column(it, a))
    return _resolve(it, x, a, cell.ref_attr, peers)


def _known_column(it: IncompleteTable, a: str) -> list[str | None]:
    """Per object, the value of its cell on ``a`` when that cell is known,
    else None."""
    cells = map(it.cells.__getitem__, zip(it.objects, itertools.repeat(a)))
    return [cell.value if isinstance(cell, Known) else None for cell in cells]


def _peer_values(ref_column: list[str | None], column: list[str | None]) -> dict[str, frozenset[str]]:
    """Known values of an attribute, keyed by the known value of the
    reference attribute beside them, from their two :func:`_known_column`
    lists. An object's own class-specific cell is not known, so it never
    supplies its own resolution."""
    peers: dict[str, set[str]] = {}
    for ref, value in zip(ref_column, column):
        if ref is not None and value is not None:
            peers.setdefault(ref, set()).add(value)
    return {key: frozenset(values) for key, values in peers.items()}


def _resolve(
    it: IncompleteTable, x: str, a: str, ref_attr: str, peers: Mapping[str, frozenset[str]]
) -> frozenset[str]:
    ref_cell = it.cell(x, ref_attr)
    if not isinstance(ref_cell, Known):
        raise UnresolvedReferenceError(
            f"cell ({x}, {a}): reference cell ({x}, {ref_attr}) is not a known value"
        )
    values = peers.get(ref_cell.value)
    if not values:
        raise EmptyResolutionError(
            f"cell ({x}, {a}): no peer object with {ref_attr}={ref_cell.value} "
            f"supplies a known value"
        )
    return values


def to_set_valued(it: IncompleteTable) -> SetValuedTable:
    """Interpret an incomplete table as its equivalent set-valued table.

    Known(v) maps to {v}, do-not-care to the full domain, partially-known
    to its value set, class-specific to its resolution, non-applicable to
    {NA}. The cells of an attribute that share one cell instance, as the
    equal cells from :func:`parse_table` do, share one set; class-specific
    cells resolve per object through one index of peer values per
    (reference attribute, attribute) pair.
    """
    cells: dict[tuple[str, str], frozenset[str]] = {}
    peers: dict[tuple[str, str], dict[str, frozenset[str]]] = {}
    known: dict[str, list[str | None]] = {}
    # Value set per cell instance and attribute; ``it`` keeps every cell
    # alive, so no id is reused while these maps exist.
    interned: dict[str, dict[int, frozenset[str]]] = {a: {} for a in it.attribute_names}
    source = it.cells
    for x in it.objects:
        for schema in it.attributes:
            a = schema.name
            key = (x, a)
            cell = source[key]
            values = interned[a].get(id(cell))
            if values is None:
                if isinstance(cell, ClassSpecific):
                    peer_key = (cell.ref_attr, a)
                    if peer_key not in peers:
                        for b in peer_key:
                            if b not in known:
                                known[b] = _known_column(it, b)
                        peers[peer_key] = _peer_values(known[cell.ref_attr], known[a])
                    values = _resolve(it, x, a, cell.ref_attr, peers[peer_key])
                else:
                    values = interned[a][id(cell)] = _values(cell, schema)
            cells[key] = values
    return SetValuedTable(it.objects, it.attributes, cells)


def _values(cell: Cell, schema: AttributeSchema) -> frozenset[str]:
    """The value set of a cell that is not class-specific."""
    if isinstance(cell, Known):
        return frozenset({cell.value})
    if isinstance(cell, DoNotCare):
        return frozenset(schema.domain)
    if isinstance(cell, Partial):
        return cell.values
    if isinstance(cell, NotApplicable):
        return frozenset({NA})
    raise TypeError(f"unknown cell variant {cell!r}")  # pragma: no cover - union is closed


def is_complete(st: SetValuedTable) -> bool:
    """True iff every cell is a singleton other than {NA}."""
    return all(len(values) == 1 and NA not in values for values in st.cells.values())


def world_count(st: SetValuedTable, rows: Iterable[str] | None = None) -> int:
    """Number of complete assignments obtainable by picking one token per cell."""
    selected = _select_rows(st, rows)
    count = 1
    for x in selected:
        for a in st.attribute_names:
            count *= len(st.cell(x, a))
    return count


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
    objects: list[str] = []
    objects_seen: set[str] = set()
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
            if head in objects_seen:
                raise TableParseError(f"duplicate object id {head!r}", line_no, _column(raw, 0))
            objects_seen.add(head)
            if len(tokens) - 1 != len(attr_names):
                raise TableParseError(
                    f"object {head!r} has {len(tokens) - 1} cells, expected {len(attr_names)}",
                    line_no,
                    _column(raw, 0),
                )
            objects.append(head)
            rows.append(tokens[1:])
            row_lines.append(line_no)

    if attr_names is None:
        raise TableParseError("missing @attributes directive")
    if not rows:
        raise TableParseError("table has no object rows")
    columns = list(zip(*rows))

    def fail_first(bad: dict[int, dict[str, str]]) -> NoReturn:
        """Raise the message of the first cell, in row-major order, whose
        token ``bad`` lists under its attribute's index."""
        i, j = min(
            (next(i for i, token in enumerate(columns[j]) if token in messages), j)
            for j, messages in bad.items()
        )
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

    domains: dict[str, tuple[str, ...]] = {}
    for j, (name, cells_of) in enumerate(zip(attr_names, parsed)):
        if name in declared:
            domains[name] = declared[name]
            continue
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
        domains[name] = tuple(sorted(observed))

    for j, (name, cells_of) in enumerate(zip(attr_names, parsed)):
        domain = set(domains[name])
        for token, cell in cells_of.items():
            if isinstance(cell, Known) and cell.value not in domain:
                bad.setdefault(j, {})[token] = f"value {cell.value!r} outside the domain of {name!r}"
            elif isinstance(cell, Partial) and not cell.values <= domain:
                stray = sorted(cell.values - domain)
                bad.setdefault(j, {})[token] = f"values {stray!r} outside the domain of {name!r}"
    if bad:
        fail_first(bad)

    cells = {
        (x, name): cells_of[token]
        for x, tokens in zip(objects, rows)
        for name, cells_of, token in zip(attr_names, parsed, tokens)
    }
    schemas = tuple(AttributeSchema(name, domains[name]) for name in attr_names)
    return IncompleteTable(tuple(objects), schemas, cells)


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
