import sys
import time
from fractions import Fraction as Fr

import pytest
from hypothesis import given, strategies as st

from threeway import fuzzy
from threeway.fuzzy import TNorm, format_decimal, format_exact, implication, negate, parse_degree, tnorm

degrees = st.fractions(min_value=0, max_value=1, max_denominator=12)


class TestTNorm:
    def test_min_fold(self):
        assert tnorm(TNorm.MIN, [Fr(1, 2), Fr(1), Fr(1, 3)]) == Fr(1, 3)

    def test_product_fold(self):
        assert tnorm(TNorm.PRODUCT, [Fr(1, 2), Fr(1), Fr(1, 3)]) == Fr(1, 6)

    @pytest.mark.parametrize("kind", list(TNorm))
    def test_unit_boundary(self, kind):
        assert tnorm(kind, [Fr(2, 7), Fr(1)]) == Fr(2, 7)

    @pytest.mark.parametrize("kind", list(TNorm))
    def test_empty_rejected(self, kind):
        with pytest.raises(ValueError):
            tnorm(kind, [])

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            tnorm(TNorm.MIN, [0.5])

    @given(degrees, degrees, st.sampled_from(list(TNorm)))
    def test_commutative(self, u, v, kind):
        assert tnorm(kind, [u, v]) == tnorm(kind, [v, u])

    @given(degrees, degrees, degrees, st.sampled_from(list(TNorm)))
    def test_associative(self, u, v, w, kind):
        left = tnorm(kind, [u, tnorm(kind, [v, w])])
        right = tnorm(kind, [tnorm(kind, [u, v]), w])
        assert left == right == tnorm(kind, [u, v, w])

    @given(degrees, degrees, degrees, st.sampled_from(list(TNorm)))
    def test_monotone(self, u, v, w, kind):
        lo, hi = min(v, w), max(v, w)
        assert tnorm(kind, [u, lo]) <= tnorm(kind, [u, hi])

    @given(st.lists(degrees, min_size=1, max_size=5))
    def test_min_dominates_product(self, values):
        assert tnorm(TNorm.MIN, values) >= tnorm(TNorm.PRODUCT, values)

    @given(st.lists(degrees, min_size=1, max_size=5), st.sampled_from(list(TNorm)))
    def test_closure(self, values, kind):
        assert 0 <= tnorm(kind, values) <= 1


class TestImplication:
    def test_kd_example(self):
        assert implication(TNorm.MIN, Fr(1, 3), 0) == Fr(2, 3)

    def test_rc_example(self):
        assert implication(TNorm.PRODUCT, Fr(1, 6), 0) == Fr(5, 6)

    @pytest.mark.parametrize("kind", list(TNorm))
    def test_classical_corners(self, kind):
        assert implication(kind, 1, 1) == 1
        assert implication(kind, 0, 1) == 1
        assert implication(kind, 0, 0) == 1
        assert implication(kind, 1, 0) == 0

    @given(degrees, degrees, degrees, st.sampled_from(list(TNorm)))
    def test_antitone_in_premise(self, u, v, w, kind):
        lo, hi = min(u, v), max(u, v)
        assert implication(kind, lo, w) >= implication(kind, hi, w)

    @given(degrees, degrees, degrees, st.sampled_from(list(TNorm)))
    def test_monotone_in_conclusion(self, u, v, w, kind):
        lo, hi = min(v, w), max(v, w)
        assert implication(kind, u, lo) <= implication(kind, u, hi)

    @given(degrees, degrees, st.sampled_from(list(TNorm)))
    def test_closure(self, u, v, kind):
        assert 0 <= implication(kind, u, v) <= 1


class TestNegate:
    @pytest.mark.parametrize("value,expect", [(0, Fr(1)), (1, Fr(0)), (Fr(1, 3), Fr(2, 3))])
    def test_values(self, value, expect):
        assert negate(value) == expect

    @given(degrees)
    def test_involution(self, u):
        assert negate(negate(u)) == u


class TestRendering:
    @pytest.mark.parametrize(
        "value,text",
        [
            (Fr(25, 36), "0.694"),
            (Fr(1, 3), "0.333"),
            (Fr(2, 3), "0.667"),
            (Fr(5, 12), "0.417"),
            (Fr(1, 2), "0.500"),
            (Fr(1), "1.000"),
            (Fr(0), "0.000"),
        ],
    )
    def test_decimal_half_up(self, value, text):
        assert format_decimal(value) == text

    def test_exact(self):
        assert format_exact(Fr(25, 36)) == "25/36"
        assert format_exact(Fr(1)) == "1"

    @pytest.mark.parametrize("text,value", [("0.3", Fr(3, 10)), ("1/3", Fr(1, 3)), ("1", Fr(1))])
    def test_parse(self, text, value):
        assert parse_degree(text) == value

    @pytest.mark.parametrize("text", ["1.2", "-0.1", "7/3", "abc"])
    def test_parse_rejects(self, text):
        with pytest.raises(ValueError):
            parse_degree(text)

    @given(
        st.text("0123456789", min_size=1, max_size=6),
        st.text("0123456789", max_size=6),
        st.sampled_from(("", "-", "+")),
        st.integers(-40, 40),
    )
    def test_parse_matches_fraction_on_small_numerals(self, whole, part, sign, exponent):
        text = f"{sign}{whole}.{part}e{exponent}"
        value = Fr(text)
        if 0 <= value <= 1:
            assert parse_degree(text) == value
        else:
            with pytest.raises(ValueError, match=r"^degree .* outside \[0, 1\]$"):
                parse_degree(text)

    @pytest.mark.parametrize(
        "text,value",
        [
            ("5e-1", Fr(1, 2)),
            ("0e10000000", Fr(0)),
            ("-0e-10000000", Fr(0)),
            ("0.5" + "0" * 6000, Fr(1, 2)),
            ("25e-2", Fr(1, 4)),
            ("1" + "0" * 5000 + "e-5000", Fr(1)),
        ],
    )
    def test_parse_exponents(self, text, value):
        assert parse_degree(text) == value

    @pytest.mark.parametrize("text", ["1e5000", "1e10000000", "-1e10000000", "2e-0", "1.0000001"])
    def test_range_is_settled_before_the_power_of_ten(self, text):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=rf"^degree {text} outside \[0, 1\]$"):
            parse_degree(text)
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("text", ["1e-5000", "1e-10000000", "0.3e-4300", "0." + "7" * 4301])
    def test_terms_past_the_digit_limit_are_refused(self, text):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"needs more than \d+ digits in its numerator or denominator$"):
            parse_degree(text)
        assert time.perf_counter() - start < 1

    def test_terms_at_the_digit_limit_are_kept(self):
        limit = sys.get_int_max_str_digits()
        assert parse_degree(f"1e-{limit - 1}") == Fr(1, 10 ** (limit - 1))
        assert parse_degree("0." + "3" * (limit - 1)) == Fr(int("3" * (limit - 1)), 10 ** (limit - 1))
        for text in (f"1e-{limit}", "0." + "3" * limit):
            with pytest.raises(ValueError, match="needs more than"):
                parse_degree(text)

    def test_format_exact_names_the_digit_limit(self):
        with pytest.raises(ValueError, match=r"^degree needs more than \d+ digits in its numerator or denominator$"):
            format_exact(Fr(1, 10**5000))

    def test_degree_alias_is_fraction(self):
        assert fuzzy.Degree is Fr
