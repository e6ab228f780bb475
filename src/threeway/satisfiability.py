"""Satisfiability-based three-way decision on set-valued tables.

The degree to which an object satisfies an atom is
``|s_a(x) & {v}| / |s_a(x)|``, the probability that its actual value is
``v``; composite formulas fold atom degrees through a T-norm. Two region
constructions follow: one thresholds per-formula meaning sets, the other
thresholds acceptance/rejection confidence computed with the paired
implication and the standard negator. Formulas here are strict: ``NA`` is
not an admissible atom value, and an ``{NA}`` cell satisfies every atom
on that attribute to degree 0.

The region builders run on an integer search (end of this module): a
depth-first walk over the set-enumeration tree of strict formulas, in
which each formula's degrees 1/N follow from its parent's and one atom
column, and a subtree is skipped when none of its formulas can enter a
region. Two bounds make that safe, because adding an atom never lowers N:
an object that misses alpha on a formula misses it on every extension,
and a formula's acceptance (rejection) confidence is at most the class
(complement) side's max D under MIN, 1 - prod (1 - D) under PRODUCT,
which never grows down the tree. The same walk, cut nowhere, gives every
formula's degrees (:func:`strict_degrees`). No production path calls
``sat_degree``, ``sat_profile``, ``alpha_meaning_set``, ``confidence`` or
``confidence_closed``, which evaluate the defining expressions and serve
as references.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

from .fuzzy import ONE, ZERO, TNorm, as_degree, implication, negate, tnorm
from .language import DEFAULT_MAX_FORMULAS, STRICT, Atom, Formula, check_cdl_size, formula_sort_key_for
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


def strict_degrees(
    st: SetValuedTable, attrs: Sequence[str], kind: TNorm, max_formulas: int = DEFAULT_MAX_FORMULAS
) -> list[tuple[Formula, dict[str, int]]]:
    """Every strict formula on ``attrs`` in ``enumerate_cdl`` order, each with
    ``{object: N}`` over the objects that satisfy it to degree 1/N > 0."""
    attrs = st.attr_subset(attrs)
    schemas = tuple(map(st.schema, attrs))
    check_cdl_size(schemas, STRICT, max_formulas)
    out = []

    def visit(atoms, _, ns) -> bool:
        out.append((Formula(atoms), ns))
        return True

    # With an empty class every object is on the complement side.
    _search(st, attrs, frozenset(), kind, visit)
    key = formula_sort_key_for(schemas)
    out.sort(key=lambda entry: key(entry[0]))
    return out


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
    check_cdl_size(tuple(map(st.schema, attrs)), STRICT, max_formulas)
    threshold = as_degree(alpha)
    a, b = threshold.numerator, threshold.denominator
    # Alpha 0 is met by every object on every formula. Any other alpha is
    # met by the objects of degree 1/N with N <= b/a, the only ones the
    # search keeps; their set only shrinks down the tree, so a subtree
    # without them on either side has no formula in a region.
    everyone = (bool(members), len(members) < len(st.objects))
    dpos: set[Formula] = set()
    dneg: set[Formula] = set()

    def visit(atoms, hits_in, hits_out) -> bool:
        hit_in, hit_out = (bool(hits_in), bool(hits_out)) if a else everyone
        if hit_in != hit_out:
            (dpos if hit_in else dneg).add(Formula(atoms))
        return hit_in or hit_out

    _search(st, attrs, members, kind, visit, b // a if a else math.inf)
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
    check_cdl_size(tuple(map(st.schema, attrs)), STRICT, max_formulas)
    a, b = threshold.numerator, threshold.denominator
    # The closed forms of :func:`confidence_closed` on degrees 1/N, compared
    # with alpha = a/b by cross-multiplying. accept is at most the class
    # side's bound, max D under MIN and 1 - prod (1 - D) under PRODUCT,
    # and reject the complement's; neither bound grows down the tree.
    if kind is TNorm.MIN:
        def side(ns: dict) -> tuple[bool, bool]:
            # Whether max D = 1/min N, and whether 1 - max D, reach alpha.
            m = min(ns.values(), default=0)
            return (not a or 0 < m and a * m <= b), (not m or b * (m - 1) >= a * m)

        def judge(ns_in: dict, ns_out: dict) -> tuple[bool, bool, bool]:
            hi_in, lo_in = side(ns_in)
            hi_out, lo_out = side(ns_out)
            return hi_in and lo_out, hi_out and lo_in, hi_in or hi_out

    else:  # PRODUCT; the search rejects any other kind.
        def judge(ns_in: dict, ns_out: dict) -> tuple[bool, bool, bool]:
            # prod (1 - D) = p / q on each side.
            p_in, q_in = math.prod(n - 1 for n in ns_in.values()), math.prod(ns_in.values())
            p_out, q_out = math.prod(n - 1 for n in ns_out.values()), math.prod(ns_out.values())
            return (
                b * p_out * (q_in - p_in) >= a * q_out * q_in,
                b * p_in * (q_out - p_out) >= a * q_in * q_out,
                b * (q_in - p_in) >= a * q_in or b * (q_out - p_out) >= a * q_out,
            )

    dpos: set[Formula] = set()
    dneg: set[Formula] = set()

    def visit(atoms, ns_in, ns_out) -> bool:
        accept, reject, descend = judge(ns_in, ns_out)
        if accept or reject:
            p = Formula(atoms)
            if accept:
                dpos.add(p)
            if reject:
                dneg.add(p)
        return descend

    _search(st, attrs, members, kind, visit)
    return frozenset(dpos), frozenset(dneg)


# --------------------------------------------------------------------------
# Search. A strict formula holds on an object to degree 0 or 1/N for an
# integer N: the largest |cell| over its atoms under MIN, their product
# under PRODUCT, and 0 when some atom's value is not in its cell. Adding an
# atom never lowers N and never brings back an object of degree 0, so each
# formula's denominators follow from its parent's and one atom column.


def _search(
    st: SetValuedTable,
    attrs: tuple[str, ...],
    members: frozenset[str],
    kind: TNorm,
    visit: Callable[[tuple[Atom, ...], dict, dict], bool],
    cap: float = math.inf,
) -> None:
    """Depth first over the set-enumeration tree of the strict formulas on
    ``attrs``, whose children add one atom on a later attribute.

    Each formula reached is passed to ``visit`` as its atoms and, for the
    class and for its complement, ``{object: N}`` over the objects of
    degree 1/N > 0 with N <= ``cap``; its children are searched only when
    ``visit`` returns true.
    """
    if kind is TNorm.MIN:
        fold = max
    elif kind is TNorm.PRODUCT:
        fold = operator.mul
    else:
        raise ValueError(f"unknown T-norm kind {kind!r}")
    inside = [x for x in st.objects if x in members]
    outside = [x for x in st.objects if x not in members]
    sides = [x not in members for x in st.objects]
    # Per attribute, per value: an atom and its columns {object: |cell|}
    # over the class and the complement objects whose cell holds the value.
    # An {NA} cell holds no domain value.
    levels = []
    for a in attrs:
        columns = {v: ({}, {}) for v in st.schema(a).domain}
        cells, codes = st.column(a)
        held = [[(columns[v], len(cell)) for v in cell if v in columns] for cell in cells]
        for x, side, c in zip(st.objects, sides, codes):
            for pair, n in held[c]:
                pair[side][x] = n
        levels.append([(Atom(a, v), *pair) for v, pair in columns.items()])

    def grow(ns: dict, column: dict) -> dict:
        return {x: n for x in ns.keys() & column.keys() if (n := fold(ns[x], column[x])) <= cap}

    # A stack, not a recursive closure, which would be a reference cycle
    # holding the search state until the next garbage collection. The
    # empty conjunction holds on every object to degree 1.
    stack = [((), 0, dict.fromkeys(inside, 1), dict.fromkeys(outside, 1))]
    while stack:
        prefix, start, ns_in, ns_out = stack.pop()
        for j in range(start, len(levels)):
            for atom, column_in, column_out in levels[j]:
                atoms = prefix + (atom,)
                child_in, child_out = grow(ns_in, column_in), grow(ns_out, column_out)
                if visit(atoms, child_in, child_out) and j + 1 < len(levels):
                    stack.append((atoms, j + 1, child_in, child_out))
