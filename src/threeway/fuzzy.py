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
from fractions import Fraction
from typing import Iterable, Union

#: Alias used throughout the package for exact degrees in [0, 1].
Degree = Fraction

RationalLike = Union[Fraction, int, str]

ZERO = Fraction(0)
ONE = Fraction(1)


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
    degree = Fraction(value)
    if not ZERO <= degree <= ONE:
        raise ValueError(f"degree {degree} outside [0, 1]")
    return degree


def parse_degree(text: str) -> Fraction:
    """Parse a degree from decimal ("0.3" means exactly 3/10) or fraction
    ("1/3") notation."""
    try:
        degree = Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse degree from {text!r}") from exc
    return as_degree(degree)


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
    """Render a degree as an exact fraction string, e.g. ``25/36`` or ``1``."""
    return str(Fraction(value))


def format_decimal(value: RationalLike) -> str:
    """Render a degree as a decimal with three places, rounding half up.

    Display only; comparisons in this package are always exact.
    """
    units, remainder = divmod(Fraction(value) * 1000, 1)
    if remainder >= Fraction(1, 2):
        units += 1
    whole, frac = divmod(int(units), 1000)
    return f"{whole}.{frac:03d}"
