"""Differential test of the `.itab` ingest.

:func:`parse_table` and :func:`to_set_valued` parse and check each
distinct cell of an attribute once. They are compared here with copies
of the versions they replaced, which parsed and checked every cell and
scanned all parsed cells once per attribute. The texts drawn mix all
five cell kinds, declared and inferred domains, comments, blank lines
and irregular whitespace, and often carry a fault: a bad or
out-of-domain cell, or a line deleted, repeated, swapped or cut short.
Both sides must build equal tables, or raise the same error at the same
line and column, and emit the same warnings.
"""

from __future__ import annotations

import re
import warnings
from typing import Mapping

from hypothesis import HealthCheck, given, settings, strategies as st

from threeway import (
    NA,
    AttributeSchema,
    ClassSpecific,
    DoNotCare,
    DomainInferenceWarning,
    EmptyResolutionError,
    IncompleteTable,
    Known,
    NotApplicable,
    Partial,
    SetValuedTable,
    TableParseError,
    ThreeWayError,
    UnresolvedReferenceError,
    parse_table,
    to_set_valued,
)

DIFFERENTIAL = settings(
    max_examples=600,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


# --------------------------------------------------------------------------
# References: parse_table and to_set_valued as they were before the
# columnar ingest.


def _tokenize(line):
    return [(m.group(), m.start() + 1) for m in re.finditer(r"\S+", line)]


def reference_parse_table(text, build=IncompleteTable):
    """The table of ``text``, as ``build(objects, schemas, cells)`` with
    ``cells`` a dict keyed by ``(object, attribute)`` in row-major order."""
    attr_names = None
    declared = {}
    raw_rows = []
    seen_objects = set()
    in_objects = False

    for line_no, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        tokens = _tokenize(body)
        if not tokens:
            continue
        head, head_col = tokens[0]
        if head == "@attributes":
            if attr_names is not None:
                raise TableParseError("duplicate @attributes directive", line_no, head_col)
            attr_names = [t for t, _ in tokens[1:]]
            if not attr_names:
                raise TableParseError("@attributes needs at least one name", line_no, head_col)
            if len(set(attr_names)) != len(attr_names):
                raise TableParseError("duplicate attribute name", line_no, head_col)
        elif head == "@domain":
            if attr_names is None:
                raise TableParseError("@domain before @attributes", line_no, head_col)
            if len(tokens) < 3:
                raise TableParseError("@domain needs an attribute and at least one value", line_no, head_col)
            name, name_col = tokens[1]
            if name not in attr_names:
                raise TableParseError(f"unknown attribute {name!r} in @domain", line_no, name_col)
            if name in declared:
                raise TableParseError(f"duplicate @domain for {name!r}", line_no, name_col)
            values = [t for t, _ in tokens[2:]]
            if len(set(values)) != len(values):
                raise TableParseError(f"duplicate domain value for {name!r}", line_no, name_col)
            if NA in values:
                raise TableParseError(f"{NA} cannot be a domain value", line_no, name_col)
            declared[name] = tuple(values)
        elif head == "@objects":
            if attr_names is None:
                raise TableParseError("@objects before @attributes", line_no, head_col)
            in_objects = True
        elif head.startswith("@"):
            raise TableParseError(f"unknown directive {head!r}", line_no, head_col)
        else:
            if not in_objects:
                raise TableParseError("object row before @objects", line_no, head_col)
            if head in seen_objects:
                raise TableParseError(f"duplicate object id {head!r}", line_no, head_col)
            seen_objects.add(head)
            if len(tokens) - 1 != len(attr_names):
                raise TableParseError(
                    f"object {head!r} has {len(tokens) - 1} cells, expected {len(attr_names)}",
                    line_no,
                    head_col,
                )
            raw_rows.append((line_no, head, tokens[1:]))

    if attr_names is None:
        raise TableParseError("missing @attributes directive")
    if not raw_rows:
        raise TableParseError("table has no object rows")

    parsed = {}
    for line_no, obj, cell_tokens in raw_rows:
        for name, (token, col) in zip(attr_names, cell_tokens):
            parsed[(obj, name)] = (_reference_parse_cell(token, name, attr_names, line_no, col), line_no, col)

    domains = _reference_finish_domains(attr_names, declared, parsed)

    cells = {}
    for (obj, name), (cell, line_no, col) in parsed.items():
        domain = domains[name]
        if isinstance(cell, Known) and cell.value not in domain:
            raise TableParseError(f"value {cell.value!r} outside the domain of {name!r}", line_no, col)
        if isinstance(cell, Partial):
            stray = cell.values - set(domain)
            if stray:
                raise TableParseError(f"values {sorted(stray)!r} outside the domain of {name!r}", line_no, col)
        cells[(obj, name)] = cell

    schemas = tuple(AttributeSchema(name, domains[name]) for name in attr_names)
    objects = tuple(obj for _, obj, _ in raw_rows)
    return build(objects, schemas, cells)


def _reference_parse_cell(token, attr, attr_names, line_no, col):
    if token == "*":
        return DoNotCare()
    if token == NA:
        return NotApplicable()
    match = re.match(r"^\{(.*)\}$", token)
    if match:
        values = [v for v in match.group(1).split("|") if v]
        if len(set(values)) < 2:
            raise TableParseError("partially-known cell requires at least 2 distinct values", line_no, col)
        if NA in values:
            raise TableParseError(f"{NA} cannot appear in a partially-known cell", line_no, col)
        return Partial(frozenset(values))
    match = re.match(r"^\^\(([^()\s]+)\)$", token)
    if match:
        ref = match.group(1)
        if ref not in attr_names:
            raise TableParseError(f"unknown reference attribute {ref!r}", line_no, col)
        if ref == attr:
            raise TableParseError("class-specific cell cannot reference its own attribute", line_no, col)
        return ClassSpecific(ref)
    if token.startswith("^") or token.startswith("{"):
        raise TableParseError(f"malformed cell {token!r}", line_no, col)
    return Known(token)


def _reference_finish_domains(attr_names, declared, parsed):
    domains = {}
    for name in attr_names:
        column = [(cell, line, col) for (obj, a), (cell, line, col) in parsed.items() if a == name]
        if name in declared:
            domains[name] = declared[name]
            continue
        for cell, line, col in column:
            if isinstance(cell, DoNotCare):
                raise TableParseError(f"attribute {name!r} uses '*' but declares no @domain", line, col)
        observed = set()
        for cell, _, _ in column:
            if isinstance(cell, Known):
                observed.add(cell.value)
            elif isinstance(cell, Partial):
                observed |= cell.values
        if not observed:
            raise TableParseError(f"cannot infer a domain for attribute {name!r}")
        warnings.warn(f"domain of {name!r} inferred from observed tokens", DomainInferenceWarning, stacklevel=3)
        domains[name] = tuple(sorted(observed))
    return domains


def reference_to_set_valued(it, build=SetValuedTable):
    cells = {}
    peers = {}
    for x in it.objects:
        for schema in it.attributes:
            a = schema.name
            cell = it.cell(x, a)
            if isinstance(cell, Known):
                cells[(x, a)] = frozenset({cell.value})
            elif isinstance(cell, DoNotCare):
                cells[(x, a)] = frozenset(schema.domain)
            elif isinstance(cell, Partial):
                cells[(x, a)] = cell.values
            elif isinstance(cell, ClassSpecific):
                key = (cell.ref_attr, a)
                if key not in peers:
                    peers[key] = _reference_peer_values(it, *key)
                cells[(x, a)] = _reference_resolve(it, x, a, cell.ref_attr, peers[key])
            else:
                cells[(x, a)] = frozenset({NA})
    return build(it.objects, it.attributes, cells)


def _reference_peer_values(it, ref_attr, a):
    peers = {}
    for y in it.objects:
        ref, value = it.cells[(y, ref_attr)], it.cells[(y, a)]
        if isinstance(ref, Known) and isinstance(value, Known):
            peers.setdefault(ref.value, set()).add(value.value)
    return {key: frozenset(values) for key, values in peers.items()}


def _reference_resolve(it, x, a, ref_attr, peers: Mapping[str, frozenset]):
    ref_cell = it.cell(x, ref_attr)
    if not isinstance(ref_cell, Known):
        raise UnresolvedReferenceError(f"cell ({x}, {a}): reference cell ({x}, {ref_attr}) is not a known value")
    values = peers.get(ref_cell.value)
    if not values:
        raise EmptyResolutionError(
            f"cell ({x}, {a}): no peer object with {ref_attr}={ref_cell.value} supplies a known value"
        )
    return values


# --------------------------------------------------------------------------
# Drawn `.itab` texts

NAMES = ("a", "b", "c")
VALUES = ("0", "1", "2")
BAD_SYNTAX = ("{1}", "{1|1}", "{}", "{0|NA}", "^(z)", "^a", "^()", "{0|1")
OUT_OF_DOMAIN = ("9", "{1|9}", "{0|1}", "{1|2}", "*", *VALUES)


def _good_cells(name, names, domain):
    """Cells that parse in column ``name``; ``*`` only with a declared
    domain. The first column is mostly known values and most references
    point at it, so that references usually resolve."""
    values = domain or VALUES
    partials = ["{" + "|".join(pair) + "}" for pair in zip(values, values[1:])]
    if name == names[0]:
        cells = [*values[:2]] * 4 + ["NA", *partials[:1]]
    else:
        cells = [*values, *values, "NA", *partials]
        if partials:
            cells.append("{|" + "|".join(values) + "|}")
        cells += [f"^({names[0]})"] * 2 + [f"^({other})" for other in names[1:] if other != name]
    return cells + ["*"] if domain else cells


@st.composite
def itab_texts(draw):
    names = NAMES[: draw(st.integers(1, 3))]
    fault = draw(st.sampled_from((None, None, None, "syntax", "domain", "both")))
    head = [["@attributes", *names]]
    domains = {}
    for name in names:
        if draw(st.booleans()):
            domain = VALUES
            if fault in ("domain", "both"):
                domain = draw(st.lists(st.sampled_from(VALUES), min_size=1, unique=True))
            domains[name] = tuple(domain)
            head.append(["@domain", name, *domain])
    columns = []
    for name in names:
        good = _good_cells(name, names, domains.get(name))
        bad = []
        if fault in ("syntax", "both"):
            bad += [*BAD_SYNTAX, f"^({name})"]
        if fault in ("domain", "both"):
            bad += OUT_OF_DOMAIN
        columns.append(st.sampled_from(good + bad))
    n = draw(st.integers(1, 8))
    rows = [[f"x{i}", *(draw(column) for column in columns)] for i in range(1, n + 1)]
    lines = head + [["@objects"]] + rows
    if draw(st.integers(0, 3)) == 0:
        lines = _break(draw, lines)
    out = []
    for tokens in lines:
        if draw(st.integers(0, 5)) == 0:
            out.append(draw(st.sampled_from(("", "   ", "# comment", "\t# indented comment"))))
        sep = draw(st.sampled_from((" ", "  ", "\t", " \t ")))
        text = draw(st.sampled_from(("", " ", "\t"))) + sep.join(tokens)
        if draw(st.integers(0, 4)) == 0:
            text += draw(st.sampled_from((" # trailing", "#tight", "\t#")))
        out.append(text)
    return "\n".join(out) + draw(st.sampled_from(("", "\n")))


def _break(draw, lines):
    """Delete, repeat or swap a line, or cut a token from it or add one."""
    lines = [list(tokens) for tokens in lines]
    i = draw(st.integers(0, len(lines) - 1))
    fault = draw(st.sampled_from(("delete", "repeat", "swap", "cut", "extend", "rename")))
    if fault == "delete":
        del lines[i]
    elif fault == "repeat":
        lines.insert(i, list(lines[i]))
    elif fault == "swap":
        j = draw(st.integers(0, len(lines) - 1))
        lines[i], lines[j] = lines[j], lines[i]
    elif fault == "cut":
        lines[i].pop()
    elif fault == "extend":
        lines[i].append(draw(st.sampled_from(VALUES + ("NA", "@x"))))
    else:
        lines[i][0] = draw(st.sampled_from(("x1", "@domain", "@objects", "@attributes", "@bogus")))
    return lines


def outcome(parse, convert, text):
    """Everything observable of ingesting ``text``: tables, error, warnings."""

    def error(exc):
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "column", None)

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            it = parse(text)
        except ThreeWayError as exc:
            parsed, converted = error(exc), None
        else:
            parsed = (it.objects, it.attributes, list(it.cells.items()))
            try:
                converted = list(convert(it).cells.items())
            except ThreeWayError as exc:
                converted = error(exc)
    seen = [(w.category, str(w.message), w.filename, w.lineno) for w in caught]
    return parsed, converted, seen


@DIFFERENTIAL
@given(itab_texts())
def test_ingest_matches_reference(text):
    assert outcome(parse_table, to_set_valued, text) == outcome(
        reference_parse_table, reference_to_set_valued, text
    )


def test_drawn_texts_reach_every_outcome():
    """The strategy is not vacuous: its texts parse, fail in the line pass,
    in a cell, in a domain and in resolution, and infer domains."""
    kinds = set()

    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(itab_texts())
    def classify(text):
        parsed, converted, seen = outcome(parse_table, to_set_valued, text)
        if seen:
            kinds.add("warning")
        if isinstance(parsed[0], type):
            message = parsed[1]
            if any(m in message for m in ("outside the domain", "no @domain", "cannot infer")):
                kinds.add("domain")
            elif any(m in message for m in ("partially-known", "reference", "malformed")):
                kinds.add("cell")
            else:
                kinds.add("line")
        elif converted and isinstance(converted[0], type):
            kinds.add("resolution")
        else:
            kinds.add("ok")

    classify()
    assert kinds == {"warning", "domain", "cell", "line", "resolution", "ok"}
