"""Similarity-based three-way decision on set-valued tables.

The similarity degree of two distinct objects on one attribute is the
probability that they take the same actual value:
``|s_a(x) & s_a(y)| / (|s_a(x)| * |s_a(y)|)``; an object is fully similar
to itself. Degrees over attribute subsets combine through a T-norm. From
the degrees, two region constructions follow: one thresholds similarity
classes, the other thresholds positive/negative approximability computed
with the paired fuzzy implication. ``NA`` participates as an ordinary
token here, so ``{NA}`` cells match each other and object descriptions
may carry ``NA`` atoms.

``similarity_matrix`` and the region builders run on an integer kernel
(end of this module) over distinct rows; the builders call none of
``similarity``, ``similarity_single``, ``alpha_similarity_class``,
``approximability`` or ``approximability_closed``, which evaluate the
defining expressions and serve as references.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import GuardExceededError, UnknownIdError
from .fuzzy import ONE, TNorm, as_degree, implication, tnorm
from .language import DEFAULT_MAX_FORMULAS, Atom, Formula
from .table import SetValuedTable


@dataclass(frozen=True, eq=False)
class SimilarityMatrix:
    """Symmetric grid of pairwise similarity degrees with unit diagonal."""

    objects: tuple[str, ...]
    attrs: tuple[str, ...]
    kind: TNorm
    entries: dict[tuple[str, str], Fraction]

    def degree(self, x: str, y: str) -> Fraction:
        try:
            return self.entries[(x, y)]
        except KeyError:
            raise UnknownIdError(f"no entry for pair ({x!r}, {y!r})") from None


@dataclass(frozen=True)
class Approximability:
    """Degrees to which an object's description implies class membership
    (positive) or non-membership (negative)."""

    object: str
    positive: Fraction
    negative: Fraction
    class_ref: frozenset[str]


def similarity_single(st: SetValuedTable, a: str, x: str, y: str) -> Fraction:
    """Similarity degree of two objects on one attribute."""
    st.check_objects(x, y)
    if x == y:
        return ONE
    sx = st.cell(x, a)
    sy = st.cell(y, a)
    return Fraction(len(sx & sy), len(sx) * len(sy))


def similarity(st: SetValuedTable, attrs: Sequence[str], kind: TNorm, x: str, y: str) -> Fraction:
    """Similarity degree over an attribute subset, folded with ``kind``."""
    attrs = st.attr_subset(attrs)
    if not attrs:
        raise ValueError("attribute subset must be nonempty")
    st.check_objects(x, y)
    if x == y:
        return ONE
    return tnorm(kind, (similarity_single(st, a, x, y) for a in attrs))


def similarity_matrix(st: SetValuedTable, attrs: Sequence[str], kind: TNorm) -> SimilarityMatrix:
    """Full symmetric matrix of pairwise degrees, expanded from the
    degree table over distinct rows."""
    attrs = _checked_attrs(st, attrs)
    row_of, table = _row_degrees(st, attrs, kind)
    degrees = [[Fraction(num, den) for num, den in line] for line in table]
    entries: dict[tuple[str, str], Fraction] = {}
    for i, x in enumerate(st.objects):
        entries[(x, x)] = ONE
        line = degrees[row_of[i]]
        for j in range(i + 1, len(st.objects)):
            y = st.objects[j]
            entries[(x, y)] = entries[(y, x)] = line[row_of[j]]
    return SimilarityMatrix(st.objects, attrs, kind, entries)


def alpha_similarity_class(m: SimilarityMatrix, x: str, alpha) -> frozenset[str]:
    """Objects similar to ``x`` to a degree of at least ``alpha``.

    The comparison is exact-rational, so 1/3 passes a 0.3 threshold.
    """
    threshold = as_degree(alpha)
    if (x, x) not in m.entries:
        raise UnknownIdError(f"unknown object {x!r}")
    return frozenset(y for y in m.objects if m.degree(x, y) >= threshold)


def cdes(
    st: SetValuedTable,
    attrs: Sequence[str],
    x: str,
    max_formulas: int = DEFAULT_MAX_FORMULAS,
) -> frozenset[Formula]:
    """Conjunctive descriptions of an object: one formula per choice of a
    cell token for each attribute, ``NA`` admitted as an atom value."""
    attrs = _checked_attrs(st, attrs)
    st.check_objects(x)
    count = 1
    for a in attrs:
        count *= len(st.cell(x, a))
    if count > max_formulas:
        raise GuardExceededError(f"{count} descriptions exceed the cap of {max_formulas}")
    token_lists = [st.ordered_cell(x, a) for a in attrs]
    out = set()
    for values in itertools.product(*token_lists):
        out.add(Formula(tuple(Atom(a, v) for a, v in zip(attrs, values))))
    return frozenset(out)


def description_regions_alpha_sim(
    st: SetValuedTable,
    attrs: Sequence[str],
    alpha,
    x_set: Iterable[str],
    kind: TNorm,
    max_formulas: int = DEFAULT_MAX_FORMULAS,
) -> tuple[frozenset[Formula], frozenset[Formula]]:
    """Union of object descriptions over objects whose similarity class
    lies inside the class (positive) or its complement (negative).

    The two regions may overlap; the conflict is resolved at rule
    derivation, not here.
    """
    members = st.class_set(x_set)
    attrs = _checked_attrs(st, attrs)
    a, b = _ratio(alpha)

    def decide(line, others, inside):
        # The class of x holds x; it stays on x's side unless some object
        # of the other side is alpha-similar to x.
        clear = not any(k and num * b >= a * den for (num, den), k in zip(line, others))
        return inside and clear, not inside and clear

    return _object_regions(st, attrs, kind, members, decide, max_formulas)


def approximability(
    st: SetValuedTable,
    attrs: Sequence[str],
    kind: TNorm,
    x_set: Iterable[str],
    x: str,
) -> Approximability:
    """Evaluate the defining fuzzy-logic expression directly.

    positive = T over all objects y of I(G(x, y), 1_X(y)) and negative is
    the same with the complement indicator; T and I are the paired
    operators of ``kind``. Closed forms are available separately for
    cross-checking.
    """
    members = st.class_set(x_set)
    st.check_objects(x)
    degrees = [similarity(st, attrs, kind, x, y) for y in st.objects]
    pos = tnorm(
        kind,
        (
            implication(kind, g, ONE if y in members else 0)
            for g, y in zip(degrees, st.objects)
        ),
    )
    neg = tnorm(
        kind,
        (
            implication(kind, g, 0 if y in members else ONE)
            for g, y in zip(degrees, st.objects)
        ),
    )
    return Approximability(x, pos, neg, members)


def approximability_closed(
    st: SetValuedTable,
    attrs: Sequence[str],
    kind: TNorm,
    x_set: Iterable[str],
    x: str,
) -> Approximability:
    """Closed forms: with MIN, positive is min over the complement of
    (1 - G); with PRODUCT it is the product of (1 - G) over the
    complement. Negative swaps the index set. Empty index sets give 1."""
    members = st.class_set(x_set)
    st.check_objects(x)
    complement = [y for y in st.objects if y not in members]
    inside = [y for y in st.objects if y in members]

    def fold(ys: list[str]) -> Fraction:
        values = [ONE - similarity(st, attrs, kind, x, y) for y in ys]
        if not values:
            return ONE
        return tnorm(kind, values)

    return Approximability(x, fold(complement), fold(inside), members)


def description_regions_approx(
    st: SetValuedTable,
    attrs: Sequence[str],
    alpha,
    x_set: Iterable[str],
    kind: TNorm,
    max_formulas: int = DEFAULT_MAX_FORMULAS,
) -> tuple[frozenset[Formula], frozenset[Formula]]:
    """Union of object descriptions over objects passing the positive
    (resp. negative) approximability threshold."""
    members = st.class_set(x_set)
    a, b = _ratio(alpha)
    attrs = _checked_attrs(st, attrs)

    def decide(line, others, inside):
        # The closed forms of :func:`approximability_closed`: the degree
        # toward x's own side folds 1 - G over the other side, and the
        # degree toward the other side is 0, since G(x, x) = 1.
        num, den = _fold_complements(kind, line, others)
        toward = num * b >= a * den
        return (toward, a == 0) if inside else (a == 0, toward)

    return _object_regions(st, attrs, kind, members, decide, max_formulas)


# --------------------------------------------------------------------------
# Integer kernel. Objects with the same row on ``attrs`` have the same
# degree to every other object, so degrees are computed once per pair of
# distinct rows, as unreduced integer (num, den) pairs, and thresholds are
# compared by cross-multiplying.


def _checked_attrs(st: SetValuedTable, attrs: Sequence[str]) -> tuple[str, ...]:
    attrs = st.attr_subset(attrs)
    if not attrs:
        raise ValueError("attribute subset must be nonempty")
    return attrs


def _ratio(alpha) -> tuple[int, int]:
    threshold = as_degree(alpha)
    return threshold.numerator, threshold.denominator


def _fold(kind: TNorm, pairs: Iterable[tuple[int, int]]) -> tuple[int, int]:
    """T-norm of nonnegative integer ratios (num, den), den > 0."""
    num, den = 1, 1
    if kind is TNorm.MIN:
        for n, d in pairs:
            if n * den < num * d:
                num, den = n, d
    elif kind is TNorm.PRODUCT:
        for n, d in pairs:
            num, den = num * n, den * d
    else:
        raise ValueError(f"unknown T-norm kind {kind!r}")
    return num, den


def _row_degrees(
    st: SetValuedTable, attrs: tuple[str, ...], kind: TNorm
) -> tuple[list[int], list[list[tuple[int, int]]]]:
    """Each object's row index, and the degree table over distinct rows.

    ``table[s][t]`` is the degree between an object of row ``s`` and a
    different object of row ``t``; on the diagonal that is the fold of
    1/|cell|, not 1, which only an object and itself reach.
    """
    index: dict[tuple[frozenset[str], ...], int] = {}
    row_of = [
        index.setdefault(tuple(st.cells[(x, a)] for a in attrs), len(index)) for x in st.objects
    ]
    rows = list(index)
    table = [[(0, 1)] * len(rows) for _ in rows]
    for i, s in enumerate(rows):
        for j in range(i, len(rows)):
            pairs = ((len(sx & sy), len(sx) * len(sy)) for sx, sy in zip(s, rows[j]))
            table[i][j] = table[j][i] = _fold(kind, pairs)
    return row_of, table


def _fold_complements(
    kind: TNorm, line: list[tuple[int, int]], counts: list[int]
) -> tuple[int, int]:
    """T over ``counts[t]`` objects of each row t of 1 - G, where ``line[t]``
    is G; 1 over no objects. MIN takes 1 - max G, PRODUCT multiplies
    (1 - G)^count."""
    if kind is TNorm.MIN:
        top, base = 0, 1
        for (num, den), k in zip(line, counts):
            if k and num * base > top * den:
                top, base = num, den
        return base - top, base
    num, den = 1, 1
    for (n, d), k in zip(line, counts):
        if k:
            num *= (d - n) ** k
            den *= d**k
    return num, den


def _object_regions(st, attrs, kind, members, decide, max_formulas):
    """Union of the descriptions of the objects that ``decide`` puts in each
    region, in object order, so the description guard fires on the same
    object as a per-object evaluation would.

    ``decide(line, others, inside)`` returns (positive, negative) for an
    object of a row with degree line ``line``, class membership ``inside``,
    and ``others[t]`` objects of row t on the other side of the class; it
    runs once per row and membership.
    """
    row_of, table = _row_degrees(st, attrs, kind)
    # others[inside][t]: objects of row t on the other side from an object
    # whose membership is ``inside``; that object itself is never counted.
    others = {True: [0] * len(table), False: [0] * len(table)}
    for x, s in zip(st.objects, row_of):
        others[x not in members][s] += 1
    decided: dict[tuple[int, bool], tuple[bool, bool]] = {}
    dpos: set[Formula] = set()
    dneg: set[Formula] = set()
    for x, s in zip(st.objects, row_of):
        inside = x in members
        if (s, inside) not in decided:
            decided[(s, inside)] = decide(table[s], others[inside], inside)
        pos, neg = decided[(s, inside)]
        if pos:
            dpos |= cdes(st, attrs, x, max_formulas)
        if neg:
            dneg |= cdes(st, attrs, x, max_formulas)
    return frozenset(dpos), frozenset(dneg)
