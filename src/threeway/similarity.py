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

``similarity_matrix`` and the region builders run on one kernel (end of
this module): distinct rows as tuples of per-attribute cell codes, exact
integer degrees tabulated once per pair of cells on each attribute, and
per-cell bitsets of the rows within a threshold. Under ``min``,
G(x, y) >= alpha iff every per-attribute degree is, and G(x, y) > 0 iff
the cells overlap on every attribute (the tolerance relation of
Kryszkiewicz, Information Sciences 1998), so a row's neighbours are the
AND of its cells' bitsets. The builders call none of ``similarity``,
``similarity_single``, ``alpha_similarity_class``, ``approximability`` or
``approximability_closed``, which evaluate the defining expressions and
serve as references.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cache, reduce
from operator import and_, getitem
from typing import Iterable, NamedTuple, Sequence

from .errors import GuardExceededError, UnknownIdError
from .fuzzy import ONE, TNorm, as_degree, check_kind, degree_terms, implication, tnorm
from .language import DEFAULT_MAX_FORMULAS, Atom, Formula, _formula
from .table import NA, SetValuedTable, _bits


class SimilarityMatrix(NamedTuple):
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


class Approximability(NamedTuple):
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
    st.check_objects(x, y)
    if x == y:
        return ONE
    return tnorm(kind, (similarity_single(st, a, x, y) for a in attrs))


def similarity_matrix(st: SetValuedTable, attrs: Sequence[str], kind: TNorm) -> SimilarityMatrix:
    """Full symmetric matrix of pairwise degrees, expanded from the degrees
    between distinct rows, which fold the kernel's cell-pair degrees."""
    attrs = st.attr_subset(attrs)
    check_kind(kind)
    rows = _Rows(st, attrs)
    if kind is TNorm.MIN:
        # Each cell pair's degree as its rank among all cell-pair degrees.
        values = sorted({Fraction(*p) for table in rows.pairs for line in table for p in line})
        rank = {v: i for i, v in enumerate(values)}
        ranks = [[[rank[Fraction(*p)] for p in line] for line in table] for table in rows.pairs]

        def degree(s, t):
            return values[min(r[c][e] for r, c, e in zip(ranks, rows.rows[s], rows.rows[t]))]
    else:
        fraction = cache(Fraction)

        def degree(s, t):
            return fraction(*rows.product(s, t))

    degree = cache(degree)
    entries: dict[tuple[str, str], Fraction] = {}
    for i, x in enumerate(st.objects):
        entries[(x, x)] = ONE
        for j in range(i + 1, len(st.objects)):
            y = st.objects[j]
            entries[(x, y)] = entries[(y, x)] = degree(rows.row_of[i], rows.row_of[j])
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
    return frozenset(_describer(st, attrs)(st.position(x), max_formulas))


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
    attrs = st.attr_subset(attrs)
    a, b = degree_terms(alpha)
    exact = check_kind(kind) is TNorm.MIN or a in (0, b)

    def judge(others):
        # The class of x holds x; it stays on x's side unless some object
        # of the other side is alpha-similar to x. A product is at most the
        # minimum of its factors, so under prod only a candidate can be.
        return not any(n * b >= a * d for n, d, _ in others)

    return _object_regions(st, attrs, members, lambda n, d: n * b >= a * d, None if exact else judge, max_formulas)


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
    attrs = st.attr_subset(attrs)
    a, b = degree_terms(alpha)
    # The closed forms of :func:`approximability_closed`: toward x's own side
    # 1 - G folds over the other side. A candidate (G > 1 - alpha) decides
    # under min, and under prod at alpha 0 and 1; else every candidate (G > 0)
    # folds in. Toward the other side the degree is 0, as G(x, x) = 1; it
    # reaches alpha only at alpha = 0, where every object is in both regions.
    exact = check_kind(kind) is TNorm.MIN or a in (0, b)
    lowers = (lambda n, d: n * b > (b - a) * d) if exact else (lambda n, d: n > 0)

    def judge(others):
        num = den = 1
        for n, d, count in others:
            num *= (d - n) ** count
            den *= d**count
            if num * b < a * den:
                break  # every further factor is at most 1
        return num * b >= a * den

    dpos, dneg = _object_regions(st, attrs, members, lowers, None if exact else judge, max_formulas)
    return (dpos, dneg) if a else (dpos | dneg,) * 2


# --------------------------------------------------------------------------
# Kernel. Objects with the same row on ``attrs`` have the same degree to
# every other object, so they merge into distinct rows; bitsets of rows are
# Python ints, and thresholds are compared by cross-multiplying.


class _Rows:
    """The distinct rows of ``st`` on ``attrs``."""

    def __init__(self, st: SetValuedTable, attrs: tuple[str, ...]):
        # A row is the tuple of the table's own cell codes on attrs.
        columns = [st.column(a) for a in attrs]
        index: dict[tuple[int, ...], int] = {}
        self.row_of = [index.setdefault(row, len(index)) for row in zip(*(codes for _, codes in columns))]
        self.rows = list(index)
        # pairs[i][c][e]: |c & e| and |c| * |e| for the cells coded c and e
        # on attrs[i]; two different objects sharing cell c get 1/|c|.
        self.pairs = [[[(len(c & e), len(c) * len(e)) for e in cs] for c in cs] for cs, _ in columns]

    def within(self, test) -> list[int]:
        """Per row, the bitset of the rows whose cell passes ``test(num, den)``
        against the row's cell on every attribute."""
        by_cell = []
        for i, table in enumerate(self.pairs):
            holders = [0] * len(table)
            for t, row in enumerate(self.rows):
                holders[row[i]] |= 1 << t
            by_cell.append([sum(h for h, p in zip(holders, line) if test(*p)) for line in table])
        return [reduce(and_, map(getitem, by_cell, row)) for row in self.rows]

    def product(self, s: int, t: int) -> tuple[int, int]:
        """The PRODUCT degree of different objects of rows s and t."""
        num = den = 1
        for table, c, e in zip(self.pairs, self.rows[s], self.rows[t]):
            n, d = table[c][e]
            num, den = num * n, den * d
        return num, den


def _object_regions(st, attrs, members, test, judge, max_formulas):
    """Union of the descriptions of the objects in each region (positive,
    negative); an object is only ever put in its own side's region.

    An object's candidates are the rows within ``test`` of its row that
    hold objects on the other side of the class ``members``. Without a
    ``judge``, ``test`` is exact, so the object is in its region iff it has
    no candidate. Otherwise ``judge`` decides: it gets the candidates as a
    lazy stream of (PRODUCT degree numerator, denominator, number of those
    objects), one item per row, and returns whether the object is in its
    region; it is asked only when a candidate exists. Objects of one row and
    membership share the verdict and their descriptions, so both are taken
    at the first such object. Those come in object order, so the description
    guard fires on the object a per-object evaluation would."""
    rows = _Rows(st, attrs)
    near = rows.within(test)
    # others[inside][t]: objects of row t on the other side from an object
    # whose membership is ``inside``; other_bits[inside]: the rows where that
    # is above 0; first[s, inside]: row s's first object with that membership.
    others = ([0] * len(rows.rows), [0] * len(rows.rows))
    first: dict[tuple[int, bool], int] = {}
    for i, (x, s) in enumerate(zip(st.objects, rows.row_of)):
        inside = x in members
        others[not inside][s] += 1
        first.setdefault((s, inside), i)
    other_bits = tuple(sum(1 << t for t, k in enumerate(ks) if k) for ks in others)
    describe = _describer(st, attrs)
    regions: tuple[set[Formula], set[Formula]] = (set(), set())
    for (s, inside), i in first.items():
        counts, mask = others[inside], near[s] & other_bits[inside]
        if not mask or judge and judge((*rows.product(s, t), counts[t]) for t in _bits(mask)):
            regions[not inside].update(describe(i, max_formulas))
    return frozenset(regions[0]), frozenset(regions[1])


def _describer(st: SetValuedTable, attrs: tuple[str, ...]):
    """``describe(i, max_formulas)``: :func:`cdes` of the ``i``-th object on
    the checked ``attrs``, read from the columns. Each distinct cell's atoms,
    in domain order with ``NA`` last, are listed once from shared atoms."""
    columns = []
    for a in attrs:
        cells, codes = st.column(a)
        atoms = [Atom(a, v) for v in st.schema(a).domain + (NA,)]
        columns.append(([[p for p in atoms if p.value in cell] for cell in cells], codes))

    def describe(i: int, max_formulas=math.inf) -> list[Formula]:
        choices = [atoms_of[codes[i]] for atoms_of, codes in columns]
        count = math.prod(map(len, choices))
        if count > max_formulas:
            raise GuardExceededError(f"{count} descriptions exceed the cap of {max_formulas}")
        return list(map(_formula, zip(itertools.product(*choices))))

    return describe
