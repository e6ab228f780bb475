"""Differential test of ``language.write_json`` against the stdlib encoder.

The writer must print exactly ``json.dumps(obj, indent=2) + "\\n"``; a
``Formula`` leaf must print as ``formula_json`` of it would at the same
depth.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from threeway.language import Atom, Formula, formula_json, write_json

DIFFERENTIAL = settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

#: Characters the escaping must get right, drawn more often than at random:
#: quote, backslash, control characters, DEL, lone surrogates, and text
#: outside ASCII in the BMP and beyond it.
TRICKY = '"\\/\x00\x08\t\n\x0c\r\x1f\x7f\x80éδ \ud800􏰀\udfff\U0001f600'

texts = st.text(
    st.one_of(st.characters(codec=None, exclude_categories=()), st.sampled_from(TRICKY)),
    max_size=8,
)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(2**80), max_value=2**80),
    texts,
)


@st.composite
def formulas(draw) -> Formula:
    attrs = draw(st.lists(texts, min_size=1, max_size=4, unique=True))
    return Formula(tuple(Atom(a, draw(texts)) for a in attrs))


def trees(leaves):
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.lists(inner, max_size=4),
            st.tuples(inner, inner),
            st.dictionaries(texts, inner, max_size=4),
        ),
        max_leaves=24,
    )


def plain(obj):
    """``obj`` with every Formula replaced by its ``formula_json``."""
    if isinstance(obj, Formula):
        return formula_json(obj)
    if isinstance(obj, dict):
        return {k: plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [plain(v) for v in obj]
    return obj


def text_of(obj) -> str:
    parts: list[str] = []
    write_json(obj, parts.append)
    return "".join(parts)


@DIFFERENTIAL
@given(trees(scalars))
def test_plain_payloads_match_the_stdlib(obj):
    assert text_of(obj) == json.dumps(obj, indent=2) + "\n"


@DIFFERENTIAL
@given(trees(st.one_of(scalars, formulas())))
def test_formula_leaves_match_formula_json_at_their_depth(obj):
    assert text_of(obj) == json.dumps(plain(obj), indent=2) + "\n"


@DIFFERENTIAL
@given(formulas(), st.integers(min_value=0, max_value=6))
def test_one_formula_at_every_depth(p, depth):
    obj = p
    for i in range(depth):
        obj = [obj] if i % 2 else {"k": obj}
    assert text_of(obj) == json.dumps(plain(obj), indent=2) + "\n"


def test_repeated_atoms_at_different_depths():
    """The per-call atom memo is keyed on depth as well as on the atom."""
    p = Formula((Atom("a", "1"), Atom("b", "2")))
    obj = {"x": p, "y": [p, [p, {"z": p}]], "w": p}
    assert text_of(obj) == json.dumps(plain(obj), indent=2) + "\n"


def test_large_payload_is_written_in_batches():
    writes: list[str] = []
    obj = {"dpos": [Formula((Atom("a", str(i)),)) for i in range(20000)], "dneg": []}
    write_json(obj, writes.append)
    assert "".join(writes) == json.dumps(plain(obj), indent=2) + "\n"
    assert 1 < len(writes) < 100


@pytest.mark.parametrize("bad", ({1: "a"}, [1.5], {"a": {1, 2}}), ids=repr)
def test_non_string_key_and_unknown_leaf_are_refused(bad):
    with pytest.raises(TypeError):
        text_of(bad)


@pytest.mark.parametrize("wrap", (lambda p: [p], lambda p: (p,), lambda p: {"lhs": p}), ids=("list", "tuple", "dict"))
def test_a_formula_in_a_container_is_not_a_nested_array(wrap):
    """A Formula is a tuple, which the stdlib encoder would print as an
    array of arrays; the writer prints its ``formula_json``."""
    p = Formula((Atom("a1", "0"), Atom("a2", "NA")))
    obj = wrap(p)
    key = '"lhs": ' if isinstance(obj, dict) else ""
    open_, close = ("{", "}") if isinstance(obj, dict) else ("[", "]")
    assert text_of(obj) == (
        f"{open_}\n  {key}[\n"
        '    {\n      "attr": "a1",\n      "value": "0"\n    },\n'
        '    {\n      "attr": "a2",\n      "value": "NA"\n    }\n'
        f"  ]\n{close}\n"
    )
    assert text_of(obj) == json.dumps(plain(obj), indent=2) + "\n"
    assert text_of(obj) != json.dumps(obj, indent=2) + "\n"
