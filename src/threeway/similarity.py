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
    """Full symmetric matrix of pairwise degrees."""
    attrs = st.attr_subset(attrs)
    if not attrs:
        raise ValueError("attribute subset must be nonempty")
    entries: dict[tuple[str, str], Fraction] = {}
    for i, x in enumerate(st.objects):
        entries[(x, x)] = ONE
        for y in st.objects[i + 1 :]:
            g = similarity(st, attrs, kind, x, y)
            entries[(x, y)] = g
            entries[(y, x)] = g
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
    attrs = st.attr_subset(attrs)
    if not attrs:
        raise ValueError("attribute subset must be nonempty")
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
    complement = frozenset(st.objects) - members
    matrix = similarity_matrix(st, attrs, kind)
    dpos: set[Formula] = set()
    dneg: set[Formula] = set()
    for x in st.objects:
        sim_class = alpha_similarity_class(matrix, x, alpha)
        if sim_class <= members:
            dpos |= cdes(st, attrs, x, max_formulas)
        elif sim_class <= complement:
            dneg |= cdes(st, attrs, x, max_formulas)
    return frozenset(dpos), frozenset(dneg)


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
    threshold = as_degree(alpha)
    dpos: set[Formula] = set()
    dneg: set[Formula] = set()
    for x in st.objects:
        apr = approximability(st, attrs, kind, members, x)
        if apr.positive >= threshold:
            dpos |= cdes(st, attrs, x, max_formulas)
        if apr.negative >= threshold:
            dneg |= cdes(st, attrs, x, max_formulas)
    return frozenset(dpos), frozenset(dneg)
