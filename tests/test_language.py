import itertools
import random

import pytest

import expected
from conftest import ATTR_ORDER, formula
from threeway import (
    Atom,
    EXTENDED,
    Formula,
    GuardExceededError,
    STRICT,
    enumerate_cdl,
    make_formula,
    meaning_set,
    object_description,
    parse_formula,
    render_formula,
    satisfies,
)
from threeway.language import cdl_size, formula_json, formula_sort_key, formula_sort_key_for


def nonempty_subsets(schemas):
    for size in range(1, len(schemas) + 1):
        yield from itertools.combinations(schemas, size)


class TestEnumeration:
    def test_six_object_language_size(self, complete6):
        assert len(enumerate_cdl(complete6.attributes)) == 26

    def test_eight_object_language_size(self, setvalued8):
        assert len(enumerate_cdl(setvalued8.attributes)) == 47

    def test_single_binary_attribute(self, complete6):
        assert len(enumerate_cdl(complete6.attributes[:1])) == 2

    def test_closed_form_all_subsets(self, complete6, setvalued8):
        for table in (complete6, setvalued8):
            for subset in nonempty_subsets(table.attributes):
                for mode in (STRICT, EXTENDED):
                    out = enumerate_cdl(subset, mode)
                    assert len(out) == cdl_size(subset, mode)

    def test_no_duplicates(self, setvalued8):
        out = enumerate_cdl(setvalued8.attributes, EXTENDED)
        assert len(set(out)) == len(out)

    def test_extended_adds_na_atoms(self, setvalued8):
        out = enumerate_cdl(setvalued8.attributes[:1], EXTENDED)
        assert formula("a1=NA") in out

    def test_strict_excludes_na(self, setvalued8):
        assert formula("a1=NA") not in enumerate_cdl(setvalued8.attributes)

    def test_guard(self, setvalued8):
        with pytest.raises(GuardExceededError):
            enumerate_cdl(setvalued8.attributes, STRICT, max_formulas=10)

    def test_order_matches_sort_key(self, setvalued8):
        out = enumerate_cdl(setvalued8.attributes)
        keys = [formula_sort_key(p, setvalued8.attributes) for p in out]
        assert keys == sorted(keys)

    @pytest.mark.parametrize("mode", (STRICT, EXTENDED))
    def test_sort_key_restores_enumeration_order(self, setvalued8, mode):
        schemas = setvalued8.attributes
        out = enumerate_cdl(schemas, mode)
        shuffled = list(out)
        random.Random(0).shuffle(shuffled)
        assert sorted(shuffled, key=lambda p: formula_sort_key(p, schemas)) == out
        assert sorted(shuffled, key=formula_sort_key_for(schemas)) == out

    def test_sort_key_values(self, complete6, setvalued8):
        """The keys are those of the definition that looked each value up in
        its domain tuple; an NA atom ranks after the domain. A formula built
        with its atoms out of declaration order gets the key of its
        canonical form."""

        def reference_key(p, schemas):
            rank = {s.name: i for i, s in enumerate(schemas)}
            domain = {s.name: s.domain for s in schemas}
            pairs = [
                (rank[a.attr], domain[a.attr].index(a.value) if a.value in domain[a.attr] else len(domain[a.attr]))
                for a in p.atoms
            ]
            return (len(pairs), tuple(sorted(pairs)))

        for schemas in (complete6.attributes, setvalued8.attributes):
            for p in enumerate_cdl(schemas, EXTENDED):
                assert formula_sort_key(p, schemas) == reference_key(p, schemas)
                reversed_p = Formula(p.atoms[::-1])
                assert formula_sort_key(reversed_p, schemas) == reference_key(p, schemas)

    def test_structural_inventory(self, setvalued8):
        out = set(enumerate_cdl(setvalued8.attributes))
        labeled = {formula(text) for text in expected.SETVALUED8_LANGUAGE.values()}
        assert out == labeled

    def test_empty_subset_rejected(self):
        with pytest.raises(ValueError):
            enumerate_cdl(())


class TestFormula:
    def test_duplicate_attribute_rejected(self):
        with pytest.raises(ValueError):
            Formula((Atom("a1", "0"), Atom("a1", "1")))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Formula(())

    def test_canonical_order(self):
        p = make_formula([Atom("a3", "1"), Atom("a1", "0")], ATTR_ORDER)
        assert p.attrs == ("a1", "a3")

    def test_round_trip(self):
        p = formula("a1=1&a3=0")
        assert parse_formula(render_formula(p), ATTR_ORDER) == p

    def test_render(self):
        assert render_formula(formula("a1=1&a2=2&a3=3")) == "(a1=1)&(a2=2)&(a3=3)"

    def test_json(self):
        assert formula_json(formula("a1=NA&a3=0")) == [
            {"attr": "a1", "value": "NA"},
            {"attr": "a3", "value": "0"},
        ]


class TestSatisfies:
    def test_positive(self, complete6):
        assert satisfies(complete6.known_row("x1"), formula("a1=1&a2=2"))

    def test_negative(self, complete6):
        assert not satisfies(complete6.known_row("x3"), formula("a2=2"))

    def test_own_description(self, complete6):
        for x in complete6.objects:
            row = complete6.known_row(x)
            for size in (1, 2, 3):
                for attrs in itertools.combinations(ATTR_ORDER, size):
                    assert satisfies(row, object_description(row, attrs, ATTR_ORDER))

    def test_missing_attribute(self):
        with pytest.raises(Exception):
            satisfies({"a1": "1"}, formula("a2=2"))


class TestMeaningSets:
    def test_atomic(self, complete6):
        assert meaning_set(complete6, formula("a1=0")) == {"x3", "x4", "x5"}

    def test_empty(self, complete6):
        assert meaning_set(complete6, formula("a2=1&a3=3")) == frozenset()

    def test_pair(self, complete6):
        assert meaning_set(complete6, formula("a1=0&a2=1")) == {"x3"}

    def test_full_inventory(self, complete6):
        for label, (text, members) in expected.COMPLETE6_LANGUAGE.items():
            assert meaning_set(complete6, formula(text)) == frozenset(members), label

    def test_incomplete_rejected(self, setvalued8):
        with pytest.raises(Exception):
            meaning_set(setvalued8, formula("a1=0"))

    def test_conjunction_decomposes(self, complete6):
        atoms = {a: enumerate_cdl(complete6.attributes[i : i + 1]) for i, a in enumerate(ATTR_ORDER)}
        for p in atoms["a1"]:
            for q in atoms["a3"]:
                combined = make_formula(p.atoms + q.atoms, ATTR_ORDER)
                assert meaning_set(complete6, combined) == meaning_set(
                    complete6, p
                ) & meaning_set(complete6, q)


class TestObjectDescription:
    def test_full_attrs(self, complete6):
        row = complete6.known_row("x1")
        assert object_description(row, ATTR_ORDER, ATTR_ORDER) == formula("a1=1&a2=2&a3=3")

    def test_subset(self, complete6):
        row = complete6.known_row("x6")
        assert object_description(row, ("a1", "a2"), ATTR_ORDER) == formula("a1=1&a2=1")

    def test_singleton(self, complete6):
        row = complete6.known_row("x3")
        assert object_description(row, ("a2",), ATTR_ORDER) == formula("a2=1")

    def test_empty_rejected(self, complete6):
        with pytest.raises(ValueError):
            object_description(complete6.known_row("x1"), (), ATTR_ORDER)
