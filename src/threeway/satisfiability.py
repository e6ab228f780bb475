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
1 - prod (1 - D) under PRODUCT, neither growing down the tree. Under MIN
the levels are only the N bounds a judge reads: one for alpha-meaning,
two for confidence. When alpha > 0 a formula with no object left is not
visited, as neither it nor an extension is in a region. The walk meets
each size in rule order, so each region comes out as lists of atoms in
that order (``_alpha_meaning_ranked``, ``_confidence_ranked``), which the
CLI prints with no sort; the public builders are frozenset views of them.
The same walk, cut nowhere, lists every formula (:func:`strict_degrees`).
No production path calls ``sat_degree``, ``sat_profile``,
``alpha_meaning_set``, ``confidence`` or ``confidence_closed``, which
evaluate the defining expressions and serve as references.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from itertools import compress
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
    return _frozen(_alpha_meaning_ranked(st, attrs, alpha, x_set, kind, max_formulas))


def _alpha_meaning_ranked(
    st: SetValuedTable, attrs: Sequence[str], alpha, x_set: Iterable[str], kind: TNorm, max_formulas: int
) -> tuple[list[tuple[Atom, ...]], list[tuple[Atom, ...]]]:
    """:func:`description_regions_alpha_meaning` as the atoms of each
    region's formulas, in rule order."""
    attrs, inside = _class_bits(st, attrs, x_set, max_formulas)
    a, b = degree_terms(alpha)
    # Alpha 0 is met by every object on every formula, and no level is
    # read. Any other alpha is met by the objects of degree 1/N with
    # N <= b/a, the one rung the search keeps; their set only shrinks down
    # the tree, so a subtree without them on either side has no formula in
    # a region.
    everyone = (inside != 0, inside.bit_count() < len(st.objects))
    outside = ~inside

    def judge(_, __, bits) -> tuple[bool, bool, bool]:
        hits = reduce(or_, bits, 0)
        hit_in, hit_out = (bool(hits & inside), bool(hits & outside)) if a else everyone
        return hit_in and not hit_out, hit_out and not hit_in, hit_in or hit_out

    return _search(st, attrs, kind, judge, (b // a,) if a else (), a > 0)


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
    return _frozen(_confidence_ranked(st, attrs, alpha, x_set, kind, max_formulas))


def _confidence_ranked(
    st: SetValuedTable, attrs: Sequence[str], alpha, x_set: Iterable[str], kind: TNorm, max_formulas: int
) -> tuple[list[tuple[Atom, ...]], list[tuple[Atom, ...]]]:
    """:func:`description_regions_confidence` as the atoms of each
    region's formulas, in rule order.

    The closed forms of :func:`confidence_closed` on degrees 1/N, compared
    with alpha = a/b by cross-multiplying. accept is at most the class
    side's bound, max D under MIN and 1 - prod (1 - D) under PRODUCT, and
    reject the complement's; neither bound grows down the tree.
    """
    attrs, inside = _class_bits(st, attrs, x_set, max_formulas)
    outside = ~inside
    a, b = degree_terms(alpha)
    if kind is TNorm.MIN:
        # A side's max D = 1/min N reaches alpha iff the side holds an object
        # at N <= b/a (always at alpha 0), and 1 - max D iff it holds none at
        # N < b/(b - a) (none at all at alpha 1): two rungs.
        reach, miss = b // a if a else 0, (b - 1) // (b - a) if a < b else math.inf
        rungs = sorted({reach, miss})
        k, m = rungs.index(reach), rungs.index(miss)

        def judge(_, __, bits) -> tuple[bool, bool, bool]:
            near, far = bits[k], bits[m]
            hi_in, hi_out = (near & inside, near & outside) if a else (True, True)
            return hi_in and not far & outside, hi_out and not far & inside, hi_in or hi_out

        return _search(st, attrs, kind, judge, rungs, a > 0)

    def judge(_, ns, bits) -> tuple[bool, bool, bool]:  # PRODUCT; the search rejects any other kind.
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

    return _search(st, attrs, kind, judge, None, a > 0)


# --------------------------------------------------------------------------
# Search. A strict formula holds on an object to degree 0 or 1/N for an
# integer N: the largest |cell| over its atoms under MIN, their product
# under PRODUCT, and 0 when some atom's value is not in its cell. Adding an
# atom never lowers N and never brings back an object of degree 0, so each
# formula's levels follow from its parent's and one atom column.


def _class_bits(
    st: SetValuedTable, attrs: Sequence[str], x_set: Iterable[str], max_formulas: int
) -> tuple[tuple[str, ...], int]:
    """The checks every builder makes first, in order (the class, the
    attributes, the language size); returns the checked ``attrs`` and the
    class as a bitset, bit i for ``st.objects[i]``."""
    members = st.class_set(x_set)
    attrs = st.attr_subset(attrs)
    check_cdl_size(tuple(map(st.schema, attrs)), STRICT, max_formulas)
    return attrs, sum(1 << i for i, x in enumerate(st.objects) if x in members)


def _frozen(regions) -> tuple[frozenset[Formula], ...]:
    """The formulas of each region of atom tuples, as a frozenset."""
    return tuple(frozenset(map(_formula, zip(region))) for region in regions)


def _search(
    st: SetValuedTable, attrs: tuple[str, ...], kind: TNorm, visit: Callable[..., tuple[bool, bool, bool]],
    bounds: Sequence[float] | None = None, skip_empty: bool = False,
) -> tuple[list[tuple[Atom, ...]], list[tuple[Atom, ...]]]:
    """Depth first, children in order, over the set-enumeration tree of the
    strict formulas on ``attrs``, whose children add an atom on a later
    attribute; returns the atoms of the (positive, negative) region
    formulas ``visit`` finds, each list in ``enumerate_cdl`` order.

    ``visit`` gets a formula's atoms and levels: denominators ``ns`` and
    bitsets (bit i for ``st.objects[i]``) of its objects of degree 1/N > 0.
    ``bounds`` are the N bounds the judge reads, ascending. Under MIN level
    k holds the objects with N <= bounds[k], so a child's levels are its
    parent's ANDed with its atom's; under PRODUCT, those with N = ns[k],
    one level per N up to the last bound. ``None`` is the full ladder:
    every cell size under MIN, no bound under PRODUCT. ``visit`` returns
    whether the formula is in each region, and whether its children are
    searched. With ``skip_empty`` a formula with no object left on its
    levels is not visited, for it and its extensions are in no region.
    Each size comes in ``enumerate_cdl`` order, whatever is cut.
    """
    check_kind(kind)
    sizes = sorted({len(c) for a in attrs for c in st.column(a)[0]})
    if kind is TNorm.MIN:
        bounds = sizes if bounds is None else bounds
    else:
        cap = math.prod(len(st.schema(a).domain) for a in attrs) if bounds is None else max(bounds, default=0)
    # Per attribute, per value: an atom and its column ({NA} holds no value).
    levels = []
    for a in attrs:
        cells, codes = st.column(a)
        held = [0] * len(cells)
        for i, c in enumerate(codes):
            held[c] |= 1 << i
        exact = {v: [reduce(or_, (h for c, h in zip(cells, held) if v in c and len(c) == n), 0) for n in sizes]
                 for v in st.schema(a).domain}
        if kind is TNorm.MIN:
            levels.append([(Atom(a, v), tuple(reduce(or_, compress(hs, (s <= n for s in sizes)), 0) for n in bounds))
                           for v, hs in exact.items()])
        else:
            levels.append([(Atom(a, v), tuple((n, h) for n, h in zip(sizes, hs) if h and n <= cap))
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
    root = (tuple(bounds), (everyone,) * len(bounds)) if kind is TNorm.MIN else ((1,), (everyone,))
    stack = [((), 0, *root)]
    dpos: list[list[tuple[Atom, ...]]] = [[] for _ in attrs]  # per size
    dneg: list[list[tuple[Atom, ...]]] = [[] for _ in attrs]
    while stack:
        prefix, start, ns, bits = stack.pop()
        pos_found, neg_found = dpos[len(prefix)], dneg[len(prefix)]
        children = []
        for j in range(start, len(levels)):
            for atom, column in levels[j]:
                child_ns, child_bits = grow(ns, bits, column)
                if skip_empty and not any(child_bits):
                    continue
                atoms = prefix + (atom,)
                pos, neg, below = visit(atoms, child_ns, child_bits)
                if pos:
                    pos_found.append(atoms)
                if neg:
                    neg_found.append(atoms)
                if below and j + 1 < len(levels):
                    children.append((atoms, j + 1, child_ns, child_bits))
        stack += children[::-1]
    return [atoms for found in dpos for atoms in found], [atoms for found in dneg for atoms in found]
