"""Exact-rational fuzzy-logic primitives: T-norms, S-implications, negation.

Every degree is a ``fractions.Fraction`` in [0, 1]; floating point never
enters a computation, so threshold comparisons and fixture equalities are
exact. Two operator families are supported, each tying a T-norm to its
dual S-implication:

* minimum T-norm with the Kleene-Dienes implication ``max(1 - u1, u2)``,
* algebraic-product T-norm with the Reichenbach implication
  ``1 - u1 + u1 * u2``.

Mixed pairings are deliberately not expressible: callers pick a
:class:`TNorm` and both operators follow from it.
"""

from __future__ import annotations

import enum
import math
import sys
from decimal import Decimal
from fractions import Fraction
from typing import Iterable, Union

#: Alias used throughout the package for exact degrees in [0, 1].
Degree = Fraction

RationalLike = Union[Fraction, int, str]

ZERO = Fraction(0)
ONE = Fraction(1)

#: The interpreter's cap on the digits ``str`` prints of an int, 0 for none
#: (Python 3.10.7 and later have one).
_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)


class TNorm(enum.Enum):
    """Operator family selector. ``MIN`` pairs with Kleene-Dienes,
    ``PRODUCT`` with Reichenbach."""

    MIN = "min"
    PRODUCT = "prod"


def as_degree(value: RationalLike) -> Fraction:
    """Coerce ``value`` to an exact Fraction and check it lies in [0, 1].

    Floats are rejected outright: a float argument is almost always an
    accidental loss of exactness (0.3 != 3/10).
    """
    if isinstance(value, float):
        raise TypeError(f"refusing float degree {value!r}; pass a Fraction, int, or string")
    if isinstance(value, str):
        return parse_degree(value)
    degree = Fraction(value)
    if not ZERO <= degree <= ONE:
        raise ValueError(f"degree {format_exact(degree)} outside [0, 1]")
    return degree


def parse_degree(text: str) -> Fraction:
    """Parse a degree from decimal ("0.3" means exactly 3/10, "5e-1" is
    1/2) or fraction ("1/3") notation.

    A decimal's range is settled on its :class:`~decimal.Decimal`, whose
    exponent stays a number, so ``1e10000000`` is refused at once. So is an
    in-range decimal with more significant digits, or a numerator or
    denominator of more digits, than ``sys.get_int_max_str_digits()``
    lets ``str`` print; neither builds a power of ten past that limit.
    """
    shown = text.strip()
    try:
        numeral = Decimal(shown)
    except ArithmeticError:  # a fraction such as 1/3, or no number
        numeral = None
    if numeral is None or not numeral.is_finite():
        try:
            degree = Fraction(shown)  # int() bounds the digits of both terms
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"cannot parse degree from {text!r}") from exc
        return as_degree(degree)
    if not 0 <= numeral <= 1:
        raise ValueError(f"degree {shown} outside [0, 1]")
    if not numeral:
        return ZERO
    # numeral = c / 10**k with c >= 1 not a multiple of 10, so k >= 0. Its
    # denominator 10**k / gcd(c, 10**k) exceeds 10**(k - len(c)).
    _, coefficient, exponent = numeral.as_tuple()
    c = "".join(map(str, coefficient)).rstrip("0")
    k = len(c) - len(coefficient) - exponent
    limit = _max_str_digits()
    too_long = ValueError(f"degree {shown} needs more than {limit} digits in its numerator or denominator")
    if limit and (len(c) > limit or k - len(c) >= limit):
        raise too_long
    degree = Fraction(int(c), 10**k)
    # 10**limit has over 3 * limit bits, so a shorter denominator is below it.
    if limit and degree.denominator.bit_length() > 3 * limit and degree.denominator >= 10**limit:
        raise too_long
    return degree


def degree_terms(value: RationalLike) -> tuple[int, int]:
    """Numerator and denominator of the degree ``value``, checked as by
    :func:`as_degree`, for threshold tests by cross-multiplying."""
    degree = as_degree(value)
    return degree.numerator, degree.denominator


def check_kind(kind: TNorm) -> TNorm:
    """``kind`` itself, if it selects an operator family."""
    if not isinstance(kind, TNorm):
        raise ValueError(f"unknown T-norm kind {kind!r}")
    return kind


def tnorm(kind: TNorm, values: Iterable[RationalLike]) -> Fraction:
    """Fold a nonempty sequence of degrees with the selected T-norm.

    Associativity makes the n-ary extension independent of fold order, so
    ``min`` and ``math.prod`` are used directly.
    """
    degrees = [as_degree(v) for v in values]
    if not degrees:
        raise ValueError("tnorm requires at least one degree")
    if check_kind(kind) is TNorm.MIN:
        return min(degrees)
    return math.prod(degrees, start=ONE)


def implication(kind: TNorm, u1: RationalLike, u2: RationalLike) -> Fraction:
    """S-implication paired with ``kind``: Kleene-Dienes for ``MIN``,
    Reichenbach for ``PRODUCT``."""
    a = as_degree(u1)
    b = as_degree(u2)
    if check_kind(kind) is TNorm.MIN:
        return max(ONE - a, b)
    return ONE - a + a * b


def negate(u: RationalLike) -> Fraction:
    """Standard negator 1 - u."""
    return ONE - as_degree(u)


def format_exact(value: RationalLike) -> str:
    """Render a degree as an exact fraction string, e.g. ``25/36`` or ``1``.

    A numerator or denominator of more digits than
    ``sys.get_int_max_str_digits()`` raises a ValueError that says so."""
    degree = Fraction(value)
    try:
        return str(degree)
    except ValueError:  # the interpreter's message would ask to raise the limit
        limit = _max_str_digits()
        raise ValueError(f"degree needs more than {limit} digits in its numerator or denominator") from None


def format_decimal(value: RationalLike) -> str:
    """Render a degree as a decimal with three places, rounding half up.

    Display only; comparisons in this package are always exact.
    """
    units, remainder = divmod(Fraction(value) * 1000, 1)
    if remainder >= Fraction(1, 2):
        units += 1
    whole, frac = divmod(int(units), 1000)
    return f"{whole}.{frac:03d}"
