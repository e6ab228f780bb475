"""Satisfiability-based three-way decision on set-valued tables.

The degree to which an object satisfies an atom is
``|s_a(x) & {v}| / |s_a(x)|``, the probability that its actual value is
``v``; composite formulas fold atom degrees through a T-norm. Two region
constructions follow: one thresholds per-formula meaning sets, the other
thresholds acceptance/rejection confidence computed with the paired
implication and the standard negator. Formulas here are strict: ``NA`` is
not an admissible atom value, and an ``{NA}`` cell satisfies every atom
on that attribute to degree 0.

The region builders run on an integer search (at the end): a depth-first
walk over the set-enumeration tree of strict formulas, in which each
formula's degrees 1/N, as (N, object bitset) levels, are ANDed from its
parent's and one atom column, and a subtree is skipped when none of its
formulas can enter a region. Two bounds make that safe, because adding
an atom never lowers N: an object that misses alpha on a formula misses
it on every extension, and a formula's acceptance (rejection) confidence
is at most the class (complement) side's max D under MIN and
1 - prod (1 - D) under PRODUCT, neither growing down the tree. The same
walk, cut nowhere, lists each size in order (:func:`strict_degrees`).
No production path calls ``sat_degree``, ``sat_profile``,
``alpha_meaning_set``, ``confidence`` or ``confidence_closed``, which
evaluate the defining expressions and serve as references.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from itertools import accumulate, compress, repeat
from operator import and_, or_
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .fuzzy import ONE, ZERO, TNorm, as_degree, check_kind, degree_terms, implication, negate, tnorm
from .language import DEFAULT_MAX_FORMULAS, STRICT, Atom, Formula, _formula, check_cdl_size
from .table import NA, SetValuedTable, _bits


class SatProfile(NamedTuple):
    """Per-object satisfiability degrees of one formula."""

    formula: Formula
    degrees: Mapping[str, Fraction]
    kind: TNorm


class Confidence(NamedTuple):
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
    ``{object: N}``, in object order, over its objects of degree 1/N > 0."""
    attrs = st.attr_subset(attrs)
    check_cdl_size(tuple(map(st.schema, attrs)), STRICT, max_formulas)
    by_size = [[] for _ in attrs]

    def visit(atoms, ns, bits) -> tuple[bool, bool, bool]:
        at = {i: n for n, b, below in zip(ns, bits, (0, *bits)) for i in _bits(b & ~below)}
        by_size[len(atoms) - 1].append((_formula((atoms,)), {st.objects[i]: at[i] for i in sorted(at)}))
        return False, False, True

    _search(st, attrs, kind, visit)
    return [entry for entries in by_size for entry in entries]


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
    a, b = degree_terms(alpha)
    # Alpha 0 is met by every object on every formula. Any other alpha is
    # met by the objects of degree 1/N with N <= b/a, the only ones the
    # search keeps; their set only shrinks down the tree, so a subtree
    # without them on either side has no formula in a region.
    everyone = (bool(members), len(members) < len(st.objects))
    inside = sum(1 << i for i, x in enumerate(st.objects) if x in members)
    outside = ~inside

    def judge(_, __, bits) -> tuple[bool, bool, bool]:
        hits = reduce(or_, bits, 0)
        hit_in, hit_out = (bool(hits & inside), bool(hits & outside)) if a else everyone
        return hit_in and not hit_out, hit_out and not hit_in, hit_in or hit_out

    return _search(st, attrs, kind, judge, b // a if a else math.inf)


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
    attrs = st.attr_subset(attrs)
    check_cdl_size(tuple(map(st.schema, attrs)), STRICT, max_formulas)
    a, b = degree_terms(alpha)
    # The closed forms of :func:`confidence_closed` on degrees 1/N, compared
    # with alpha = a/b by cross-multiplying. accept is at most the class
    # side's bound, max D under MIN and 1 - prod (1 - D) under PRODUCT,
    # and reject the complement's; neither bound grows down the tree.
    inside = sum(1 << i for i, x in enumerate(st.objects) if x in members)
    outside = ~inside
    if kind is TNorm.MIN:
        def side(ns, bits, mask) -> tuple[bool, bool]:
            # Whether max D = 1/min N, and whether 1 - max D, reach alpha.
            m = next(compress(ns, map(and_, bits, repeat(mask))), 0)
            return (not a or 0 < m and a * m <= b), (not m or b * (m - 1) >= a * m)

        def judge(_, ns, bits) -> tuple[bool, bool, bool]:
            hi_in, lo_in = side(ns, bits, inside)
            hi_out, lo_out = side(ns, bits, outside)
            return hi_in and lo_out, hi_out and lo_in, hi_in or hi_out

    else:  # PRODUCT; the search rejects any other kind.
        def judge(_, ns, bits) -> tuple[bool, bool, bool]:
            # prod (1 - D) = p / q per side: (N - 1)^c / N^c for its c objects at N.
            p_in = q_in = p_out = q_out = 1
            for n, h in zip(ns, bits):
                c, d = (h & inside).bit_count(), (h & outside).bit_count()
                p_in, q_in, p_out, q_out = p_in * (n - 1) ** c, q_in * n**c, p_out * (n - 1) ** d, q_out * n**d
            return (
                b * p_out * (q_in - p_in) >= a * q_out * q_in,
                b * p_in * (q_out - p_out) >= a * q_in * q_out,
                b * (q_in - p_in) >= a * q_in or b * (q_out - p_out) >= a * q_out,
            )

    return _search(st, attrs, kind, judge)


# --------------------------------------------------------------------------
# Search. A strict formula holds on an object to degree 0 or 1/N for an
# integer N: the largest |cell| over its atoms under MIN, their product
# under PRODUCT, and 0 when some atom's value is not in its cell. Adding an
# atom never lowers N and never brings back an object of degree 0, so each
# formula's levels follow from its parent's and one atom column.


def _search(
    st: SetValuedTable, attrs: tuple[str, ...], kind: TNorm, visit: Callable[..., tuple[bool, bool, bool]],
    cap: float = math.inf,
) -> tuple[frozenset[Formula], frozenset[Formula]]:
    """Depth first, children in order, over the set-enumeration tree of the
    strict formulas on ``attrs``, whose children add an atom on a later
    attribute; returns the (positive, negative) regions ``visit`` fills.

    ``visit`` gets a formula's atoms and levels: denominators ``ns`` and
    bitsets (bit i for ``st.objects[i]``) of its objects of degree 1/N > 0
    with N <= ``cap``. Under MIN level k holds those with N <= ns[k], a
    ladder over the cell sizes, ascending, so a child's levels are its
    parent's ANDed with its atom's; under PRODUCT, those with N = ns[k].
    It returns whether the formula is in each region, and whether its
    children are searched. Each size comes in ``enumerate_cdl`` order.
    """
    check_kind(kind)
    cap = min(cap, math.prod(len(st.schema(a).domain) for a in attrs))  # an int from here
    sizes = sorted({len(c) for a in attrs for c in st.column(a)[0] if len(c) <= cap})
    # Per attribute, per value: an atom and its column ({NA} holds no value).
    levels = []
    for a in attrs:
        cells, codes = st.column(a)
        held = [0] * len(cells)
        for i, c in enumerate(codes):
            held[c] |= 1 << i
        exact = {v: [reduce(or_, (h for c, h in zip(cells, held) if v in c and len(c) == n), 0) for n in sizes]
                 for v in st.schema(a).domain}
        levels.append([(Atom(a, v), tuple(accumulate(hs, or_)) if kind is TNorm.MIN else tuple(zip(sizes, hs)))
                       for v, hs in exact.items()])
    everyone = (1 << len(st.objects)) - 1
    if kind is TNorm.MIN:
        def grow(ns, bits, column):
            return ns, tuple(map(and_, bits, column))
    else:
        def grow(ns, bits, column):
            out: dict[int, int] = {}
            for n, b in zip(ns, bits):
                for m, h in column:
                    if n * m > cap:
                        break
                    if b & h:
                        out[n * m] = out.get(n * m, 0) | b & h
            return out.keys(), out.values()

    # The root, the empty conjunction, holds every object at N = 1. A stack, not a
    # recursive closure, which would be a reference cycle holding the state until collected.
    root = (tuple(sizes), (everyone,) * len(sizes)) if kind is TNorm.MIN else ((1,), (everyone,))
    stack = [((), 0, *root)]
    dpos: set[Formula] = set()
    dneg: set[Formula] = set()
    while stack:
        prefix, start, ns, bits = stack.pop()
        children = []
        for j in range(start, len(levels)):
            for atom, column in levels[j]:
                atoms = prefix + (atom,)
                child_ns, child_bits = grow(ns, bits, column)
                pos, neg, below = visit(atoms, child_ns, child_bits)
                if pos or neg:
                    p = _formula((atoms,))
                    if pos:
                        dpos.add(p)
                    if neg:
                        dneg.add(p)
                if below and j + 1 < len(levels):
                    children.append((atoms, j + 1, child_ns, child_bits))
        stack += children[::-1]
    return frozenset(dpos), frozenset(dneg)
