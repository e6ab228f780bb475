"""Differential tests of the formula values against plain tuples.

``Atom`` is a named tuple and ``Formula`` a one-item tuple of its atoms, so
hashing and equality run in C. Their hash, equality, text, ``repr``, JSON
form and sort keys must match a reference built from plain ``(attr,
value)`` tuples and the rendering of the frozen dataclasses they replaced.
Every formula that a kernel builds without the constructor's checks must
equal the checked ``Formula`` of its atoms.
"""

from __future__ import annotations

import ast
import copy
import itertools
import json
import pickle
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from threeway import TNorm
from threeway.cli import _strip_na_atoms
from threeway.language import (
    _MEMO_SIZE,
    EXTENDED,
    STRICT,
    Atom,
    Formula,
    enumerate_cdl,
    formula_json,
    formula_sort_key_for,
    _atom_text,
    make_formula,
    render_formula,
    write_json,
)
from threeway.rules import _default_key
from threeway.satisfiability import (
    description_regions_alpha_meaning,
    description_regions_confidence,
    strict_degrees,
)
from threeway.similarity import _describer
from threeway.table import NA, AttributeSchema, SetValuedTable

DIFFERENTIAL = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

SRC = Path(__file__).resolve().parents[1] / "src" / "threeway"

names = st.text(st.sampled_from("ab1é\"\\ "), min_size=1, max_size=3)


@st.composite
def plain_formulas(draw) -> tuple[tuple[str, str], ...]:
    """The atoms of a formula as plain ``(attr, value)`` tuples."""
    attrs = draw(st.lists(names, min_size=1, max_size=4, unique=True))
    return tuple((a, draw(names)) for a in attrs)


def checked(pairs) -> Formula:
    return Formula(tuple(Atom(a, v) for a, v in pairs))


def dataclass_repr(pairs) -> str:
    """``repr`` of the frozen dataclass ``Formula`` of these atoms."""
    atoms = ", ".join(f"Atom(attr={a!r}, value={v!r})" for a, v in pairs)
    return f"Formula(atoms=({atoms}{',' if len(pairs) == 1 else ''}))"


def reference_sort_key(schemas):
    """The enumeration key by lookups in the domain tuples: (atom count,
    sorted (attribute rank, value rank) pairs), a value outside the domain
    ranking after it."""
    rank = {s.name: i for i, s in enumerate(schemas)}
    domain = {s.name: s.domain for s in schemas}

    def key(pairs):
        ranked = [(rank[a], domain[a].index(v) if v in domain[a] else len(domain[a])) for a, v in pairs]
        return (len(ranked), tuple(sorted(ranked)))

    return key


def text_of(obj) -> str:
    parts: list[str] = []
    write_json(obj, parts.append)
    return "".join(parts)


@DIFFERENTIAL
@given(plain_formulas(), plain_formulas())
def test_values_match_plain_tuples(left, right):
    p, q = checked(left), checked(right)
    assert (p == q) is (left == right)
    assert (p != q) is (left != right)
    if left == right:
        assert hash(p) == hash(q)
    assert len({p, q}) == len({left, right})
    assert p.atoms == left and p.attrs == tuple(a for a, _ in left)
    assert all(type(atom) is Atom for atom in p.atoms)
    assert [(atom.attr, atom.value) for atom in p.atoms] == list(left)
    assert str(p) == render_formula(p) == "&".join(f"({a}={v})" for a, v in left)
    assert repr(p) == dataclass_repr(left)
    assert formula_json(p) == [{"attr": a, "value": v} for a, v in left]
    assert text_of(p) == json.dumps([{"attr": a, "value": v} for a, v in left], indent=2) + "\n"
    assert _default_key(p) == (len(left), left)


@DIFFERENTIAL
@given(st.lists(plain_formulas(), min_size=1, max_size=12), st.randoms(use_true_random=False))
def test_sort_keys_match_the_reference(drawn, rng):
    attrs = sorted({a for pairs in drawn for a, _ in pairs})
    rng.shuffle(attrs)
    values = sorted({v for pairs in drawn for _, v in pairs})
    # Some values stay outside every domain, where they rank after it.
    schemas = tuple(AttributeSchema(a, tuple(rng.sample(values, rng.randint(1, len(values))))) for a in attrs)
    key, reference = formula_sort_key_for(schemas), reference_sort_key(schemas)
    formulas = [checked(pairs) for pairs in drawn]
    for p, pairs in zip(formulas, drawn):
        assert key(p) == reference(pairs)
    by_key = sorted(formulas, key=key)
    assert [p.atoms for p in by_key] == sorted(drawn, key=reference)
    assert [p.atoms for p in sorted(formulas, key=_default_key)] == sorted(drawn, key=lambda t: (len(t), t))


def test_atom_texts_stay_bounded():
    """The atom texts that ``render_formula`` keeps are emptied when full,
    and every atom still renders exactly afterwards."""
    names = [f"a{i}" for i in range(_MEMO_SIZE + 10)]
    texts = [render_formula(Formula((Atom(a, "\u00e9"), Atom("z", "1")))) for a in names]
    assert texts == [f"({a}=\u00e9)&(z=1)" for a in names]
    assert len(_atom_text.__self__) <= _MEMO_SIZE


def test_copy_and_pickle_keep_the_formula():
    p = checked([("a1", "0"), ("a2", "1")])
    for clone in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
        assert clone == p and type(clone) is Formula and clone.atoms == p.atoms


def test_formula_has_no_instance_dict():
    p = checked([("a1", "0")])
    with pytest.raises(AttributeError):
        p.atoms = ()
    with pytest.raises(AttributeError):
        p.extra = 1


# --------------------------------------------------------------------------
# Errors of the checked constructors


@pytest.mark.parametrize("atoms", [(), [], iter(())])
def test_empty_formula_is_refused(atoms):
    with pytest.raises(ValueError, match=r"^formula needs at least one atom$"):
        Formula(atoms)
    with pytest.raises(ValueError, match=r"^formula needs at least one atom$"):
        make_formula(atoms, ("a1",))


def test_repeated_attribute_is_refused():
    atoms = (Atom("a1", "0"), Atom("a2", "1"), Atom("a1", "1"))
    message = r"^formula repeats an attribute: \['a1', 'a2', 'a1'\]$"
    with pytest.raises(ValueError, match=message):
        Formula(atoms)
    with pytest.raises(ValueError, match=r"^formula repeats an attribute: \['a1', 'a1', 'a2'\]$"):
        make_formula(atoms, ("a1", "a2"))


# --------------------------------------------------------------------------
# Formulas built without the checks


@st.composite
def set_valued_tables(draw):
    """A table of 1-6 objects on 1-3 attributes whose cells are known
    values, partial sets, ``*`` (the whole domain) or ``{NA}``."""
    schemas = tuple(
        AttributeSchema(f"a{i + 1}", tuple(str(v) for v in range(draw(st.integers(1, 3)))))
        for i in range(draw(st.integers(1, 3)))
    )
    objects = tuple(f"x{j + 1}" for j in range(draw(st.integers(1, 6))))

    def cell(schema):
        domain = schema.domain
        return draw(
            st.one_of(
                st.sampled_from(domain).map(lambda v: frozenset({v})),
                st.sets(st.sampled_from(domain), min_size=1).map(frozenset),
                st.just(frozenset(domain)),
                st.just(frozenset({NA})),
            )
        )

    cells = {(x, s.name): cell(s) for x in objects for s in schemas}
    return SetValuedTable(objects, schemas, cells)


def assert_checked(formulas):
    for p in formulas:
        assert type(p) is Formula and all(type(atom) is Atom for atom in p.atoms)
        assert Formula(p.atoms) == p and hash(Formula(p.atoms)) == hash(p)


@DIFFERENTIAL
@given(set_valued_tables(), st.sampled_from(list(TNorm)), st.data())
def test_search_formulas_equal_their_checked_form(table, kind, data):
    attrs = table.attribute_names
    schemas = table.attributes
    members = frozenset(x for x in table.objects if data.draw(st.booleans()))
    alpha = data.draw(st.sampled_from(("0", "1/4", "1/3", "1/2", "1")))
    listed = [p for p, _ in strict_degrees(table, attrs, kind)]
    assert_checked(listed)
    assert listed == enumerate_cdl(schemas, STRICT)
    for regions in (
        description_regions_alpha_meaning(table, attrs, alpha, members, kind),
        description_regions_confidence(table, attrs, alpha, members, kind),
    ):
        for side in regions:
            assert_checked(side)
            assert side <= set(listed)


@DIFFERENTIAL
@given(set_valued_tables())
def test_descriptions_equal_their_checked_form(table):
    attrs = table.attribute_names
    describe = _describer(table, attrs)
    for i, x in enumerate(table.objects):
        made = describe(i)
        assert_checked(made)
        # The reference: one atom per cell token, domain order, NA last.
        tokens = [
            [v for v in table.schema(a).domain + (NA,) if v in table.cell(x, a)] for a in attrs
        ]
        assert made == [checked(zip(attrs, values)) for values in itertools.product(*tokens)]
        assert len(set(made)) == len(made)


@DIFFERENTIAL
@given(set_valued_tables(), st.data())
def test_stripped_formulas_equal_their_checked_form(table, data):
    attrs = table.attribute_names
    formulas = set(enumerate_cdl(table.attributes, EXTENDED))
    strip = data.draw(st.one_of(st.just([]), st.lists(st.sampled_from(attrs), unique=True)))
    stripped = _strip_na_atoms(formulas, strip, attrs)
    assert_checked(stripped)
    targets = set(attrs) if strip == [] else set(strip)
    reference = set()
    for p in formulas:
        kept = [(a, v) for a, v in p.atoms if not (v == NA and a in targets)]
        if kept:
            reference.add(checked(kept))
    assert stripped == reference


def test_only_the_kernels_skip_the_checks():
    """``_formula``, the unchecked constructor, is called only where the
    atoms are valid by construction."""
    allowed = {
        ("satisfiability.py", "strict_degrees"),
        ("satisfiability.py", "_frozen"),
        ("similarity.py", "_describer"),
        ("cli.py", "_strip_na_atoms"),
        # The search's atoms, and eq-complete's: one atom per attribute of
        # the checked attrs, in declaration order, each the value of a
        # singleton cell of a complete table.
        ("cli.py", "_formulas"),
    }
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and node.id == "_formula" and isinstance(node.ctx, ast.Load):
                    found.add((path.name, getattr(top, "name", None)))
                if isinstance(node, ast.Attribute) and node.attr == "__new__":
                    # The table records build themselves with tuple.__new__;
                    # table.py is imported by language.py and never sees Formula.
                    assert path.name in ("language.py", "table.py"), (path.name, node.lineno)
    assert found == allowed
