"""Conjunctive description language: atoms, formulas, meaning sets.

A formula is a conjunction of attribute-value atoms whose attributes are
pairwise distinct, kept in canonical attribute-declaration order so that
structurally equal formulas compare equal. Two alphabet modes exist:

* ``strict`` - atom values come from the attribute domain only; used by
  every operation of the conceptual route,
* ``extended`` - ``NA`` is admitted as an atom value; used only for
  object descriptions over set-valued cells, which can contain ``{NA}``.

The mode is always an explicit parameter, never inferred. Every rule set
and region is listed in the enumeration order, which
:func:`formula_sort_key_for` defines and :func:`formula_rank_for` computes.
"""

from __future__ import annotations

import itertools
import math
import re
from functools import partial
from json.encoder import encode_basestring_ascii as _quote
from operator import itemgetter
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .errors import GuardExceededError, IncompleteTableError, UnknownIdError
from .table import NA, AttributeSchema, SetValuedTable, is_complete

#: Default cap on language enumeration size.
DEFAULT_MAX_FORMULAS = 10**6

STRICT = "strict"
EXTENDED = "extended"
_MODES = (STRICT, EXTENDED)


class Atom(NamedTuple):
    """One attribute-value pair."""

    attr: str
    value: str


class Formula(tuple):
    """Conjunction of atoms over pairwise-distinct attributes.

    A one-item tuple ``(atoms,)``, so that hashing, equality and the
    unchecked construction by :data:`_formula` run in C."""

    __slots__ = ()

    def __new__(cls, atoms: Iterable[Atom]) -> Formula:
        atoms = tuple(atoms)
        if not atoms:
            raise ValueError("formula needs at least one atom")
        attrs = [atom.attr for atom in atoms]
        if len(set(attrs)) != len(attrs):
            raise ValueError(f"formula repeats an attribute: {attrs}")
        return tuple.__new__(cls, (atoms,))

    #: The atoms, in attribute-declaration order.
    atoms = property(itemgetter(0))

    @property
    def attrs(self) -> tuple[str, ...]:
        return tuple(attr for attr, _ in self[0])

    def __getnewargs__(self) -> tuple:
        return (self[0],)

    def __repr__(self) -> str:
        return f"Formula(atoms={self[0]!r})"

    def __str__(self) -> str:
        return render_formula(self)


#: ``_formula((atoms,))`` is the formula of ``atoms`` without the checks of
#: :class:`Formula`, for atoms that are valid by construction.
_formula = partial(tuple.__new__, Formula)


def make_formula(atoms: Iterable[Atom], attr_order: Sequence[str]) -> Formula:
    """Build a formula with atoms sorted into attribute-declaration order."""
    rank = {name: i for i, name in enumerate(attr_order)}
    atom_list = list(atoms)
    for atom in atom_list:
        if atom.attr not in rank:
            raise UnknownIdError(f"atom attribute {atom.attr!r} not in the declared order")
    return Formula(tuple(sorted(atom_list, key=lambda atom: rank[atom.attr])))


def _check_mode(mode: str) -> None:
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")


def _alphabet(schema: AttributeSchema, mode: str) -> tuple[str, ...]:
    return schema.domain + (NA,) if mode == EXTENDED else schema.domain


def cdl_size(schemas: Sequence[AttributeSchema], mode: str = STRICT) -> int:
    """Closed-form count of the enumeration: prod(|alphabet_a| + 1) - 1."""
    _check_mode(mode)
    return math.prod(len(_alphabet(s, mode)) + 1 for s in schemas) - 1


def check_cdl_size(
    schemas: Sequence[AttributeSchema],
    mode: str = STRICT,
    max_formulas: int = DEFAULT_MAX_FORMULAS,
) -> int:
    """Size guard of every walk over the language, raised before any work:
    the attribute subset must be nonempty and the :func:`cdl_size` at most
    ``max_formulas``. Returns the size."""
    _check_mode(mode)
    if not schemas:
        raise ValueError("attribute subset must be nonempty")
    total = cdl_size(schemas, mode)
    if total > max_formulas:
        raise GuardExceededError(f"{total} formulas exceed the cap of {max_formulas}")
    return total


def enumerate_cdl(
    schemas: Sequence[AttributeSchema],
    mode: str = STRICT,
    max_formulas: int = DEFAULT_MAX_FORMULAS,
) -> list[Formula]:
    """Enumerate every formula over the given attributes exactly once.

    Deterministic order: by atom count, then lexicographically by the
    (attribute position, value position) pairs of the atoms, values in
    domain order with ``NA`` last; this is :func:`formula_sort_key_for`'s
    order. The total count matches :func:`cdl_size`.
    """
    check_cdl_size(schemas, mode, max_formulas)
    alphabets = [[Atom(s.name, v) for v in _alphabet(s, mode)] for s in schemas]
    # Breadth first over the set-enumeration tree, whose children add one
    # atom on a later attribute: each level comes out in key order.
    out: list[Formula] = []
    level = [((), 0)]  # (atoms, position of the first attribute a child may add)
    while level:
        level = [((*atoms, atom), i + 1) for atoms, start in level
                 for i in range(start, len(schemas)) for atom in alphabets[i]]
        out.extend(Formula(atoms) for atoms, _ in level)
    return out


def formula_sort_key(p: Formula, schemas: Sequence[AttributeSchema]):
    """Sort key reproducing the enumeration order of :func:`enumerate_cdl`."""
    return formula_sort_key_for(schemas)(p)


def formula_sort_key_for(schemas: Sequence[AttributeSchema]) -> Callable[[Formula], tuple]:
    """:func:`formula_sort_key` with ``schemas`` fixed: ``(atom count, sorted
    (attribute rank, value rank) pairs)``, a value outside the domain ranking
    after it. The definition of the order, which the tests compare with."""
    ranks = {s.name: (i, {v: j for j, v in enumerate(s.domain)}) for i, s in enumerate(schemas)}

    def pair(atom: Atom) -> tuple[int, int]:
        attr, value = atom
        if attr not in ranks:
            raise UnknownIdError(f"formula attribute {attr!r} not in schema")
        i, values = ranks[attr]
        return (i, values.get(value, len(values)))

    return lambda p: (len(p[0]), tuple(sorted(map(pair, p[0]))))


def formula_rank_for(schemas: Sequence[AttributeSchema]) -> Callable[[Formula], int]:
    """One int per formula, in :func:`formula_sort_key_for`'s order and
    with exactly its ties: the sum of its atoms' weights, each looked up
    once. Each attribute is a mixed-radix digit, the first the most
    significant: the value's domain rank, one more for a value outside the
    domain, the last when absent. An atom weighs ``M``, the product of the
    radixes, plus its digit less the absent one times its place; those
    terms sum into ``(-M, 0]``, so the atom count comes first."""
    weights, total = {}, math.prod(len(s.domain) + 2 for s in schemas)
    place = total
    for s in schemas:
        n = len(s.domain)
        place //= n + 2
        weights[s.name] = ({v: total + (j - n - 1) * place for j, v in enumerate(s.domain)}, total - place)

    def weight(atom: Atom) -> int:
        attr, value = atom
        if attr not in weights:
            raise UnknownIdError(f"formula attribute {attr!r} not in schema")
        values, stray = weights[attr]
        return values.get(value, stray)

    atom_weight = _Memo(weight).__getitem__
    return lambda p: sum(map(atom_weight, p[0]))


#: Keys a :class:`_Memo` holds at most.
_MEMO_SIZE = 4096


class _Memo(dict):
    """``key -> make(key)``, filled on first use, so that the lookup of a
    key already made runs in C. Emptied when it holds :data:`_MEMO_SIZE`
    keys, so that it stays bounded."""

    __slots__ = ("_make",)

    def __init__(self, make: Callable):
        super().__init__()
        self._make = make

    def __missing__(self, key):
        if len(self) >= _MEMO_SIZE:
            self.clear()
        value = self[key] = self._make(key)
        return value


def satisfies(row: Mapping[str, str], p: Formula) -> bool:
    """Classical satisfaction: the row takes every atom's value."""
    for attr, value in p.atoms:
        if attr not in row:
            raise UnknownIdError(f"row has no value on {attr!r}")
        if row[attr] != value:
            return False
    return True


def meaning_set(t: SetValuedTable, p: Formula) -> frozenset[str]:
    """Objects of a complete table satisfying ``p``."""
    if not is_complete(t):
        raise IncompleteTableError("meaning sets are defined on complete tables only")
    return frozenset(x for x in t.objects if satisfies(t.known_row(x), p))


def object_description(row: Mapping[str, str], attrs: Sequence[str], attr_order: Sequence[str]) -> Formula:
    """The single formula using every attribute of ``attrs`` with the row's values."""
    if not attrs:
        raise ValueError("attribute subset must be nonempty")
    atoms = []
    for a in attrs:
        if a not in row:
            raise UnknownIdError(f"row has no value on {a!r}")
        atoms.append(Atom(a, row[a]))
    return make_formula(atoms, attr_order)


# --------------------------------------------------------------------------
# Rendering and parsing

_ATOM_RE = re.compile(r"^\(([^()=\s]+)=([^()=\s]+)\)$")


def render_formula(p: Formula) -> str:
    """Text form ``(a1=1)&(a2=2)&(a3=3)``, joined from each atom's cached text."""
    return "&".join(map(_atom_text, p[0]))


_atom_text = _Memo(lambda atom: f"({atom[0]}={atom[1]})").__getitem__


def parse_formula(text: str, attr_order: Sequence[str]) -> Formula:
    """Parse the text form produced by :func:`render_formula`."""
    parts = text.replace(" ", "").split("&")
    atoms = []
    for part in parts:
        match = _ATOM_RE.match(part)
        if not match:
            raise ValueError(f"malformed atom {part!r} in formula {text!r}")
        atoms.append(Atom(match.group(1), match.group(2)))
    return make_formula(atoms, attr_order)


def formula_json(p: Formula) -> list[dict[str, str]]:
    """JSON form: list of ``{"attr": ..., "value": ...}`` pairs."""
    return [{"attr": attr, "value": value} for attr, value in p.atoms]


#: Pieces joined into one ``write`` call by :func:`write_json`.
_JSON_BATCH = 2048


def _json_key(k: str) -> str:
    return _quote(k) + ": "


def _write_container(
    o, pad: str, leaf: Callable, key: Callable[[str], str], out: list[str], write: Callable[[str], object]
) -> None:
    """Append the text of dict, list or tuple ``o`` at indent ``pad`` to
    ``out`` for :func:`write_json`, flushing full batches through ``write``;
    ``leaf`` gives the text of a scalar or formula, ``None`` for a container,
    and ``key`` the text of a dict key with its ``": "``. Module level, as a
    closure that calls itself would be a reference cycle."""
    is_dict = isinstance(o, dict)
    if not o:
        out.append("{}" if is_dict else "[]")
        return
    inner = pad + "  "
    if is_dict:  # the C encoder rejects a key that is not a str
        items = zip(map(key, o), o.values())
        sep, close = "{" + inner, pad + "}"
    else:
        items = zip(itertools.repeat(""), o)
        sep, close = "[" + inner, pad + "]"
    for head, v in items:
        text = leaf(v, inner)
        if text is None:
            out.append(sep + head)
            _write_container(v, inner, leaf, key, out, write)
        else:
            out.append(sep + head + text)
        sep = "," + inner
        if len(out) >= _JSON_BATCH:
            write("".join(out))
            out.clear()
    out.append(close)


def write_json(obj, write: Callable[[str], object]) -> None:
    """Write the text of ``json.dumps(obj, indent=2) + "\\n"`` through
    ``write``, in batches of joined pieces rather than one string.

    ``obj`` nests dicts with ``str`` keys, lists, tuples, strings, ints,
    bools and ``None``. A :class:`Formula` leaf is written as
    :func:`formula_json` of it would be; each distinct key's text, and each
    distinct atom's text at each depth, is built once per call. Strings go
    through the stdlib's C ``ensure_ascii`` encoder.
    """
    out: list[str] = []
    key = _Memo(_json_key).__getitem__
    # Per depth: a formula's opening, separator and closing texts, and its atoms' texts.
    shapes: dict[str, tuple[str, str, str, Callable[[Atom], str]]] = {}

    def formula(p: Formula, pad: str) -> str:
        shape = shapes.get(pad)
        if shape is None:
            inner = pad + "  "
            deep = inner + "  "
            atom = _Memo(lambda a: f'{{{deep}"attr": {_quote(a[0])},{deep}"value": {_quote(a[1])}{inner}}}')
            shape = shapes[pad] = ("[" + inner, "," + inner, pad + "]", atom.__getitem__)
        head, sep, close, text = shape
        return head + sep.join(map(text, p[0])) + close

    def leaf(v, pad: str) -> str | None:
        """The text of a scalar or formula; ``None`` for a container."""
        if isinstance(v, str):
            return _quote(v)
        if isinstance(v, Formula):
            return formula(v, pad)
        if v is None:
            return "null"
        if v is True:
            return "true"
        if v is False:
            return "false"
        if isinstance(v, int):
            return int.__repr__(v)
        if isinstance(v, (dict, list, tuple)):
            return None
        raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")

    text = leaf(obj, "\n")
    if text is None:
        _write_container(obj, "\n", leaf, key, out, write)
    else:
        out.append(text)
    out.append("\n")
    write("".join(out))
