import itertools
from fractions import Fraction as Fr

import pytest

import expected
from conftest import ATTR_ORDER, DATA, formula
from threeway import (
    GuardExceededError,
    TNorm,
    boolean_algebra,
    cdef_family,
    oracle_classical_reduction,
    oracle_sat_degree,
    oracle_similarity,
    oracle_closure_equality,
    parse_table,
    partition,
    run_all_checks,
    sat_degree,
    similarity,
    similarity_matrix,
    to_set_valued,
)
from threeway.cli import main
from threeway.satisfiability import strict_degrees

OBJECTS = tuple(f"x{i}" for i in range(1, 9))


class TestSimilarityOracle:
    def test_counts_joint_agreements(self, setvalued8):
        assert oracle_similarity(setvalued8, ATTR_ORDER, "x4", "x6") == Fr(1, 6)

    def test_matches_product_similarity_on_all_pairs(self, setvalued8):
        for x, y in itertools.combinations(OBJECTS, 2):
            assert oracle_similarity(setvalued8, ATTR_ORDER, x, y) == similarity(
                setvalued8, ATTR_ORDER, TNorm.PRODUCT, x, y
            ), (x, y)

    def test_matches_on_attribute_subsets(self, setvalued8):
        for size in (1, 2):
            for attrs in itertools.combinations(ATTR_ORDER, size):
                for x, y in itertools.combinations(OBJECTS, 2):
                    assert oracle_similarity(setvalued8, attrs, x, y) == similarity(
                        setvalued8, attrs, TNorm.PRODUCT, x, y
                    )

    def test_complete_rows_give_zero_or_one(self, complete6):
        for x, y in itertools.combinations(complete6.objects, 2):
            same = complete6.known_row(x) == complete6.known_row(y)
            assert oracle_similarity(complete6, ATTR_ORDER, x, y) == (1 if same else 0)

    def test_reflexive_pair_rejected(self, setvalued8):
        with pytest.raises(ValueError):
            oracle_similarity(setvalued8, ATTR_ORDER, "x1", "x1")

    def test_guard(self, setvalued8):
        with pytest.raises(GuardExceededError):
            oracle_similarity(setvalued8, ATTR_ORDER, "x4", "x6", max_worlds=5)


class TestSatOracle:
    def test_counts_satisfying_completions(self, setvalued8):
        assert oracle_sat_degree(setvalued8, "x6", formula("a1=0&a3=1")) == Fr(1, 4)

    def test_partial_cell(self, setvalued8):
        assert oracle_sat_degree(setvalued8, "x4", formula("a3=1")) == Fr(1, 3)

    def test_complete_rows_reduce_to_satisfaction(self, complete6):
        for x in complete6.objects:
            for text, _ in expected.COMPLETE6_LANGUAGE.values():
                got = oracle_sat_degree(complete6, x, formula(text))
                assert got in (0, 1)
                assert got == sat_degree(complete6, x, formula(text), TNorm.PRODUCT)

    def test_matches_product_degree_everywhere(self, setvalued8):
        for text in expected.SETVALUED8_LANGUAGE.values():
            p = formula(text)
            for x in OBJECTS:
                assert oracle_sat_degree(setvalued8, x, p) == sat_degree(
                    setvalued8, x, p, TNorm.PRODUCT
                ), (text, x)


class TestClosureOracle:
    def test_complete6_full_attrs(self, complete6):
        report = oracle_closure_equality(complete6, ATTR_ORDER)
        assert report.passed
        assert report.expected == frozenset(
            frozenset(s) for s in expected.COMPLETE6_DEFINABLE
        )

    def test_complete6_single_attr(self, complete6):
        report = oracle_closure_equality(complete6, ("a3",))
        assert report.passed
        assert report.actual == boolean_algebra(partition(complete6, ("a3",)).blocks)

    def test_single_object_table(self):
        st = to_set_valued(parse_table("@attributes a\n@domain a 1 2\n@objects\nx1 1\n"))
        report = oracle_closure_equality(st, ("a",))
        assert report.passed
        assert report.expected == frozenset({frozenset(), frozenset({"x1"})})

    def test_matches_main_closure_route(self, complete6):
        for size in (1, 2, 3):
            for attrs in itertools.combinations(ATTR_ORDER, size):
                report = oracle_closure_equality(complete6, attrs)
                assert report.passed
                main_blocks = boolean_algebra(partition(complete6, attrs).blocks)
                main_cdef = boolean_algebra(
                    ds.members for ds in cdef_family(complete6, attrs)
                )
                assert report.expected == main_blocks == main_cdef


class TestClassicalReduction:
    def test_complete6(self, complete6, class4):
        assert oracle_classical_reduction(complete6, ATTR_ORDER, class4, Fr(1, 2)).passed

    def test_threshold_one(self, complete6, class4):
        assert oracle_classical_reduction(complete6, ATTR_ORDER, class4, 1).passed

    def test_zero_threshold_rejected(self, complete6, class4):
        with pytest.raises(ValueError):
            oracle_classical_reduction(complete6, ATTR_ORDER, class4, 0)


class TestRunAll:
    def test_incomplete_table_checks_pass(self, setvalued8):
        reports = run_all_checks(setvalued8)
        assert reports
        assert all(r.passed for r in reports)
        checks = {r.check for r in reports}
        assert checks == {"similarity-product-vs-worlds", "sat-degree-product-vs-worlds"}

    def test_complete_table_checks_pass(self, complete6, class4):
        reports = run_all_checks(complete6, x_set=class4, alpha=Fr(1, 2))
        assert all(r.passed for r in reports)
        checks = {r.check for r in reports}
        assert "union-closure-equality" in checks
        assert "classical-reduction" in checks

    def test_reads_the_production_matrix(self, setvalued8, monkeypatch):
        """The similarity checks compare the worlds with the matrix the CLI
        runs on, built once per call."""
        import threeway.oracle as oracle_mod

        built = []

        def counted(*args):
            built.append(args)
            return similarity_matrix(*args)

        monkeypatch.setattr(oracle_mod, "similarity_matrix", counted)
        assert all(r.passed for r in run_all_checks(setvalued8))
        assert built == [(setvalued8, setvalued8.attribute_names, TNorm.PRODUCT)]

    def test_detects_corrupted_similarity(self, setvalued8, monkeypatch):
        """One wrong matrix entry fails exactly the check of its pair."""
        import threeway.oracle as oracle_mod

        def corrupted(st, attrs, kind):
            matrix = similarity_matrix(st, attrs, kind)
            matrix.entries[("x4", "x6")] = Fr(1, 3)
            return matrix

        monkeypatch.setattr(oracle_mod, "similarity_matrix", corrupted)
        failures = [r for r in run_all_checks(setvalued8) if not r.passed]
        assert [(r.check, r.inputs, r.expected, r.actual) for r in failures] == [
            ("similarity-product-vs-worlds", "x4,x6", Fr(1, 6), Fr(1, 3))
        ]

    def test_reads_the_production_search(self, setvalued8, monkeypatch):
        """The satisfiability checks compare the worlds with the degrees of
        the language search, run once per call."""
        import threeway.oracle as oracle_mod

        searched = []

        def counted(*args):
            searched.append(args)
            return strict_degrees(*args)

        monkeypatch.setattr(oracle_mod, "strict_degrees", counted)
        assert all(r.passed for r in run_all_checks(setvalued8))
        assert searched == [(setvalued8, setvalued8.attribute_names, TNorm.PRODUCT)]

    def test_detects_corrupted_sat_degree(self, setvalued8, monkeypatch, capsys):
        """One wrong denominator fails exactly the check of its object and
        formula, and oracle-check exits 4 with that FAIL line."""
        import threeway.oracle as oracle_mod

        def corrupted(*args):
            out = strict_degrees(*args)
            for p, ns in out:
                if p == formula("a3=1"):
                    ns["x4"] = 2
            return out

        monkeypatch.setattr(oracle_mod, "strict_degrees", corrupted)
        failures = [r for r in run_all_checks(setvalued8) if not r.passed]
        assert [(r.check, r.inputs, r.expected, r.actual) for r in failures] == [
            ("sat-degree-product-vs-worlds", "x4 |= (a3=1)", Fr(1, 3), Fr(1, 2))
        ]
        assert main(["oracle-check", "--table", str(DATA / "setvalued8.itab")]) == 4
        out = capsys.readouterr().out
        assert "sat-degree-product-vs-worlds: 375/376 ok" in out
        assert "FAIL sat-degree-product-vs-worlds [x4 |= (a3=1)] expected=1/3 actual=1/2" in out
