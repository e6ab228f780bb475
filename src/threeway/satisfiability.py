"""Satisfiability-based three-way decision on set-valued tables.

The degree to which an object satisfies an atom is
``|s_a(x) & {v}| / |s_a(x)|``, the probability that its actual value is
``v``; composite formulas fold atom degrees through a T-norm. Two region
constructions follow: one thresholds per-formula meaning sets, the other
thresholds acceptance/rejection confidence computed with the paired
implication and the standard negator. Formulas here are strict: ``NA`` is
not an admissible atom value, and an ``{NA}`` cell satisfies every atom
on that attribute to degree 0.

The region builders run on an integer kernel (end of this module) that
reads each column once and folds integer denominators; they call none of
``sat_degree``, ``sat_profile``, ``alpha_meaning_set``, ``confidence`` or
``confidence_closed``, which evaluate the defining expressions and serve
as references.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .fuzzy import ONE, ZERO, TNorm, as_degree, implication, negate, tnorm
from .language import DEFAULT_MAX_FORMULAS, Formula, STRICT, enumerate_cdl
from .table import NA, SetValuedTable


@dataclass(frozen=True, eq=False)
class SatProfile:
    """Per-object satisfiability degrees of one formula."""

    formula: Formula
    degrees: Mapping[str, Fraction]
    kind: TNorm


@dataclass(frozen=True)
class Confidence:
    """Degrees to which a formula supports an acceptance or a rejection
    rule for the given class."""

    formula: Formula
    accept: Fraction
    reject: Fraction
    class_ref: frozenset[str]


def _check_strict(st: SetValuedTable, p: Formula) -> None:
    for atom in p.atoms:
        domain = st.schema(atom.attr).domain
        if atom.value == NA or atom.value not in domain:
            raise ValueError(f"atom ({atom.attr}={atom.value}) is not strict-mode")


def sat_degree(st: SetValuedTable, x: str, p: Formula, kind: TNorm) -> Fraction:
    """Degree to which object ``x`` satisfies the strict formula ``p``."""
    _check_strict(st, p)
    st.check_objects(x)
    atom_degrees = []
    for atom in p.atoms:
        cell = st.cell(x, atom.attr)
        atom_degrees.append(Fraction(len(cell & {atom.value}), len(cell)))
    return tnorm(kind, atom_degrees)


def sat_profile(st: SetValuedTable, p: Formula, kind: TNorm) -> SatProfile:
    """Degrees of ``p`` for every object, computed in one pass."""
    return SatProfile(p, {x: sat_degree(st, x, p, kind) for x in st.objects}, kind)


def alpha_meaning_set(st: SetValuedTable, p: Formula, alpha, kind: TNorm) -> frozenset[str]:
    """Objects satisfying ``p`` to a degree of at least ``alpha`` (exact
    rational comparison)."""
    threshold = as_degree(alpha)
    profile = sat_profile(st, p, kind)
    return frozenset(x for x, d in profile.degrees.items() if d >= threshold)


def description_regions_alpha_meaning(
    st: SetValuedTable,
    attrs: Sequence[str],
    alpha,
    x_set: Iterable[str],
    kind: TNorm,
    max_formulas: int = DEFAULT_MAX_FORMULAS,
) -> tuple[frozenset[Formula], frozenset[Formula]]:
    """Formulas whose nonempty thresholded meaning set lies inside the
    class (positive) or its complement (negative).

    These two regions are disjoint by construction: a nonempty set cannot
    be inside both the class and its complement.
    """
    members = st.class_set(x_set)
    attrs = st.attr_subset(attrs)
    formulas = enumerate_cdl(tuple(map(st.schema, attrs)), STRICT, max_formulas)
    threshold = as_degree(alpha)
    a, b = threshold.numerator, threshold.denominator
    inside, outside = _strict_columns(st, attrs, members)

    def hit(columns, p) -> bool:
        # Some object reaches alpha: 1/N >= a/b, or any degree when a is 0.
        return any(not a or n and a * n <= b for n in _denominators(columns, p, kind))

    dpos: set[Formula] = set()
    dneg: set[Formula] = set()
    for p in formulas:
        hit_in, hit_out = hit(inside, p), hit(outside, p)
        if hit_in and not hit_out:
            dpos.add(p)
        elif hit_out and not hit_in:
            dneg.add(p)
    return frozenset(dpos), frozenset(dneg)


def confidence(st: SetValuedTable, p: Formula, x_set: Iterable[str], kind: TNorm) -> Confidence:
    """Evaluate the defining fuzzy-logic expression directly.

    accept = T( T over x of I(D(x), 1_X(x)), N(T over x of I(D(x), 1_Xc(x))) )
    and reject swaps the class with its complement. T and I are the paired
    operators of ``kind``; N is the standard negator. Closed forms are
    available separately for cross-checking.
    """
    members = st.class_set(x_set)
    profile = sat_profile(st, p, kind)
    degrees = [profile.degrees[x] for x in st.objects]
    inside = [ONE if x in members else ZERO for x in st.objects]

    def toward(indicator: list[Fraction]) -> Fraction:
        return tnorm(kind, (implication(kind, d, i) for d, i in zip(degrees, indicator)))

    co_indicator = [ONE - i for i in inside]
    accept = tnorm(kind, (toward(inside), negate(toward(co_indicator))))
    reject = tnorm(kind, (toward(co_indicator), negate(toward(inside))))
    return Confidence(p, accept, reject, members)


def confidence_closed(
    st: SetValuedTable, p: Formula, x_set: Iterable[str], kind: TNorm
) -> Confidence:
    """Closed forms of the confidence degrees.

    MIN:     accept = min(1 - max degree over the complement,
                          max degree over the class)
    PRODUCT: accept = prod over the complement of (1 - D)
                      * (1 - prod over the class of (1 - D))
    reject swaps the index sets. Max over an empty set counts as 0 and a
    product over an empty set as 1.
    """
    members = st.class_set(x_set)
    profile = sat_profile(st, p, kind)
    inside = [profile.degrees[x] for x in st.objects if x in members]
    outside = [profile.degrees[x] for x in st.objects if x not in members]

    if kind is TNorm.MIN:
        def one_sided(pro: list[Fraction], contra: list[Fraction]) -> Fraction:
            hi_contra = max(contra, default=ZERO)
            hi_pro = max(pro, default=ZERO)
            return min(ONE - hi_contra, hi_pro)

    else:
        def one_sided(pro: list[Fraction], contra: list[Fraction]) -> Fraction:
            miss_contra = ONE
            for d in contra:
                miss_contra *= ONE - d
            miss_pro = ONE
            for d in pro:
                miss_pro *= ONE - d
            return miss_contra * (ONE - miss_pro)

    return Confidence(p, one_sided(inside, outside), one_sided(outside, inside), members)


def description_regions_confidence(
    st: SetValuedTable,
    attrs: Sequence[str],
    alpha,
    x_set: Iterable[str],
    kind: TNorm,
    max_formulas: int = DEFAULT_MAX_FORMULAS,
) -> tuple[frozenset[Formula], frozenset[Formula]]:
    """Formulas whose acceptance (resp. rejection) confidence passes the
    threshold. Overlap is possible and resolved at rule derivation."""
    members = st.class_set(x_set)
    threshold = as_degree(alpha)
    attrs = st.attr_subset(attrs)
    formulas = enumerate_cdl(tuple(map(st.schema, attrs)), STRICT, max_formulas)
    inside, outside = _strict_columns(st, attrs, members)
    dpos: set[Formula] = set()
    dneg: set[Formula] = set()
    for p in formulas:
        # The closed forms of :func:`confidence_closed`, from the
        # denominators: max D is 1/min N, and 1 - D is (N - 1)/N.
        ns_in = [n for n in _denominators(inside, p, kind) if n]
        ns_out = [n for n in _denominators(outside, p, kind) if n]
        if kind is TNorm.MIN:
            hi_in = Fraction(1, min(ns_in)) if ns_in else ZERO
            hi_out = Fraction(1, min(ns_out)) if ns_out else ZERO
            accept = min(ONE - hi_out, hi_in)
            reject = min(ONE - hi_in, hi_out)
        else:
            miss_in = Fraction(math.prod(n - 1 for n in ns_in), math.prod(ns_in))
            miss_out = Fraction(math.prod(n - 1 for n in ns_out), math.prod(ns_out))
            accept = miss_out * (ONE - miss_in)
            reject = miss_in * (ONE - miss_out)
        if accept >= threshold:
            dpos.add(p)
        if reject >= threshold:
            dneg.add(p)
    return frozenset(dpos), frozenset(dneg)


# --------------------------------------------------------------------------
# Integer kernel. A strict formula holds on an object to degree 0 or 1/N
# for an integer N: the largest |cell| over its atoms under MIN, their
# product under PRODUCT, and 0 when some atom's value is not in its cell.


def _strict_columns(
    st: SetValuedTable, attrs: tuple[str, ...], members: frozenset[str]
) -> tuple[dict, dict]:
    """For the class and for its complement, each attribute's columns read
    once: ``columns[a][v]`` lists, per object, |cell| when the cell holds
    ``v`` and 0 otherwise. An ``{NA}`` cell holds no domain value."""

    def columns(objects: list[str]) -> dict[str, dict[str, list[int]]]:
        out = {}
        for a in attrs:
            cells = [st.cells[(x, a)] for x in objects]
            out[a] = {v: [len(c) if v in c else 0 for c in cells] for v in st.schema(a).domain}
        return out

    return (
        columns([x for x in st.objects if x in members]),
        columns([x for x in st.objects if x not in members]),
    )


def _denominators(columns: dict, p: Formula, kind: TNorm) -> list[int]:
    """N of ``p`` on each object of ``columns``."""
    per_object = zip(*(columns[atom.attr][atom.value] for atom in p.atoms))
    if kind is TNorm.MIN:
        return [0 if 0 in ns else max(ns) for ns in per_object]
    if kind is TNorm.PRODUCT:
        return [math.prod(ns) for ns in per_object]
    raise ValueError(f"unknown T-norm kind {kind!r}")
