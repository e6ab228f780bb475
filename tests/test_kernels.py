"""Differential tests of the integer degree kernels.

Each region builder is compared with a reference copy of the builder it
replaced, which evaluates the defining fuzzy expressions object by object
or formula by formula through the public reference functions. Tables
draw their rows from a small pool, so identical rows with non-singleton
cells, ``{NA}`` cells and ``*`` cells all occur, and thresholds are drawn
from 0, 1 and the degrees the table attains, where a comparison is
exactly on its edge. The two satisfiability builders are also compared
on wider tables (4 or 5 attributes, up to 12 independent rows), where
their language search prunes subtrees below depth 2. The similarity
builders and matrix, the satisfiability builders and the language
search's degrees are compared on tables of 65-80 mostly distinct rows,
where the kernels' bitsets are wider than 64 bits, and edge cases put
the object under test past the 64th bit. The language search's
per-formula degrees are compared with the reference profile of every
formula, its visit order under a pruning visit with
``formula_sort_key_for``, and the complete-table language route with
reference copies that evaluate every formula's meaning set. The indexed
class-specific resolution is compared with a reference copy of the
per-cell peer scan.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from threeway import (
    NA,
    AttributeSchema,
    ClassSpecific,
    DescribedSet,
    DoNotCare,
    EmptyResolutionError,
    GuardExceededError,
    IncompleteTable,
    IncompleteTableError,
    Known,
    NotApplicable,
    Partial,
    ResolutionError,
    SetValuedTable,
    TNorm,
    UnresolvedReferenceError,
    alpha_meaning_set,
    approximability,
    cdef_family,
    cdes,
    confidence,
    description_regions_alpha_meaning,
    description_regions_alpha_sim,
    description_regions_approx,
    description_regions_complete,
    description_regions_confidence,
    enumerate_cdl,
    meaning_set,
    resolve_class_specific,
    sat_degree,
    sat_profile,
    similarity,
    similarity_matrix,
    to_set_valued,
)
from conftest import formula
from threeway.fuzzy import degree_terms
from threeway.language import STRICT, Formula, cdl_size, formula_sort_key_for
from threeway.satisfiability import _search, strict_degrees

DIFFERENTIAL = settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

DEEP = settings(DIFFERENTIAL, max_examples=40)


# --------------------------------------------------------------------------
# References: the builders as they were before the kernels, evaluating the
# defining expressions through the public reference functions.


def reference_alpha_sim(table, attrs, alpha, members, kind):
    complement = frozenset(table.objects) - members
    dpos, dneg = set(), set()
    for x in table.objects:
        sim_class = frozenset(
            y for y in table.objects if similarity(table, attrs, kind, x, y) >= alpha
        )
        if sim_class <= members:
            dpos |= cdes(table, attrs, x)
        elif sim_class <= complement:
            dneg |= cdes(table, attrs, x)
    return frozenset(dpos), frozenset(dneg)


def reference_approx(table, attrs, alpha, members, kind):
    dpos, dneg = set(), set()
    for x in table.objects:
        apr = approximability(table, attrs, kind, members, x)
        if apr.positive >= alpha:
            dpos |= cdes(table, attrs, x)
        if apr.negative >= alpha:
            dneg |= cdes(table, attrs, x)
    return frozenset(dpos), frozenset(dneg)


def reference_alpha_meaning(table, attrs, alpha, members, kind):
    complement = frozenset(table.objects) - members
    dpos, dneg = set(), set()
    for p in enumerate_cdl(tuple(map(table.schema, attrs)), STRICT):
        m = alpha_meaning_set(table, p, alpha, kind)
        if not m:
            continue
        if m <= members:
            dpos.add(p)
        elif m <= complement:
            dneg.add(p)
    return frozenset(dpos), frozenset(dneg)


def reference_confidence(table, attrs, alpha, members, kind):
    dpos, dneg = set(), set()
    for p in enumerate_cdl(tuple(map(table.schema, attrs)), STRICT):
        conf = confidence(table, p, members, kind)
        if conf.accept >= alpha:
            dpos.add(p)
        if conf.reject >= alpha:
            dneg.add(p)
    return frozenset(dpos), frozenset(dneg)


def reference_complete(table, attrs, members):
    complement = frozenset(table.objects) - members
    dpos, dneg = set(), set()
    for p in enumerate_cdl(tuple(map(table.schema, attrs)), STRICT):
        m = meaning_set(table, p)
        if not m:
            continue
        if m <= members:
            dpos.add(p)
        elif m <= complement:
            dneg.add(p)
    return frozenset(dpos), frozenset(dneg)


def reference_cdef_family(table, attrs):
    grouped = {}
    for p in enumerate_cdl(tuple(map(table.schema, attrs)), STRICT):
        grouped.setdefault(meaning_set(table, p), set()).add(p)
    return frozenset(DescribedSet(members, frozenset(fs)) for members, fs in grouped.items())


def reference_resolve(it, x, a):
    """Per-cell peer scan over every other object."""
    cell = it.cell(x, a)
    ref_cell = it.cell(x, cell.ref_attr)
    if not isinstance(ref_cell, Known):
        raise UnresolvedReferenceError(
            f"cell ({x}, {a}): reference cell ({x}, {cell.ref_attr}) is not a known value"
        )
    values = set()
    for y in it.objects:
        if y == x:
            continue
        peer_ref = it.cell(y, cell.ref_attr)
        peer_val = it.cell(y, a)
        if isinstance(peer_ref, Known) and peer_ref.value == ref_cell.value and isinstance(peer_val, Known):
            values.add(peer_val.value)
    if not values:
        raise EmptyResolutionError(
            f"cell ({x}, {a}): no peer object with {cell.ref_attr}={ref_cell.value} "
            f"supplies a known value"
        )
    return frozenset(values)


# --------------------------------------------------------------------------
# Strategies


def _schemas(draw, max_attrs=3):
    return tuple(
        AttributeSchema(f"a{i + 1}", tuple(str(v) for v in range(draw(st.integers(1, 3)))))
        for i in range(draw(st.integers(1, max_attrs)))
    )


def _cell_options(schemas):
    """Per attribute, every nonempty subset of its domain and ``{NA}``."""
    return {
        s.name: [
            frozenset(combo)
            for size in range(1, len(s.domain) + 1)
            for combo in itertools.combinations(s.domain, size)
        ]
        + [frozenset({NA})]
        for s in schemas
    }


@st.composite
def pooled_tables(draw):
    """A set-valued table whose rows repeat a few pooled rows, and a class."""
    schemas = _schemas(draw)
    options = _cell_options(schemas)
    pool = draw(
        st.lists(
            st.tuples(*(st.sampled_from(options[s.name]) for s in schemas)), min_size=1, max_size=4
        )
    )
    rows = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8))
    objects = tuple(f"x{j + 1}" for j in range(len(rows)))
    cells = {(x, s.name): row[i] for x, row in zip(objects, rows) for i, s in enumerate(schemas)}
    table = SetValuedTable(objects, schemas, cells)
    members = frozenset(x for x in objects if draw(st.booleans()))
    attrs = tuple(a for a in table.attribute_names if draw(st.booleans())) or table.attribute_names
    return table, attrs, members


def _class(draw, objects):
    """A class that is sometimes every object or none, where alpha 0 puts
    everything into one region."""
    members = frozenset(x for x in objects if draw(st.booleans()))
    extreme = draw(st.integers(0, 7))
    if extreme < 2:
        members = frozenset(objects) if extreme else frozenset()
    return members


def _independent_rows(draw, schemas, min_size, max_size):
    """A table of independently drawn rows over ``schemas``, searched on all
    its attributes, and a class from :func:`_class`."""
    options = _cell_options(schemas)
    rows = draw(
        st.lists(
            st.tuples(*(st.sampled_from(options[s.name]) for s in schemas)),
            min_size=min_size,
            max_size=max_size,
        )
    )
    objects = tuple(f"x{j + 1}" for j in range(len(rows)))
    cells = {(x, s.name): row[i] for x, row in zip(objects, rows) for i, s in enumerate(schemas)}
    table = SetValuedTable(objects, schemas, cells)
    return table, table.attribute_names, _class(draw, objects)


@st.composite
def complete_tables(draw):
    """A complete table of up to 10 rows on 1-4 attributes, rows often
    repeated, and a class from :func:`_class`."""
    schemas = _schemas(draw, max_attrs=4)
    pool = draw(
        st.lists(st.tuples(*(st.sampled_from(s.domain) for s in schemas)), min_size=1, max_size=5)
    )
    rows = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=10))
    objects = tuple(f"x{j + 1}" for j in range(len(rows)))
    cells = {
        (x, s.name): frozenset({row[i]}) for x, row in zip(objects, rows) for i, s in enumerate(schemas)
    }
    table = SetValuedTable(objects, schemas, cells)
    members = _class(draw, objects)
    attrs = tuple(a for a in table.attribute_names if draw(st.booleans())) or table.attribute_names
    return table, attrs, members


@st.composite
def deep_tables(draw):
    """A set-valued table on 4 or 5 attributes with up to 12 independently
    drawn rows, so that the language search prunes subtrees below depth 2."""
    schemas = tuple(
        AttributeSchema(f"a{i + 1}", tuple(str(v) for v in range(draw(st.integers(1, 3)))))
        for i in range(draw(st.integers(4, 5)))
    )
    return _independent_rows(draw, schemas, 1, 12)


@st.composite
def wide_tables(draw):
    """A set-valued table of 65-80 independently drawn rows on 3 or 4
    attributes of three values each, so that most rows are distinct and
    the kernel's row bitsets run past 64 bits."""
    schemas = tuple(
        AttributeSchema(f"a{i + 1}", ("0", "1", "2")) for i in range(draw(st.integers(3, 4)))
    )
    return _independent_rows(draw, schemas, 65, 80)


def _alpha(draw, attained):
    return draw(st.sampled_from(sorted({Fraction(0), Fraction(1), *attained})))


def _case(draw):
    table, attrs, members = draw(pooled_tables())
    kind = draw(st.sampled_from(list(TNorm)))
    return table, attrs, members, kind


# --------------------------------------------------------------------------
# Builders against their references


@DIFFERENTIAL
@given(st.data())
def test_alpha_sim_matches_reference(data):
    table, attrs, members, kind = _case(data.draw)
    attained = {similarity(table, attrs, kind, x, y) for x in table.objects for y in table.objects}
    alpha = _alpha(data.draw, attained)
    got = description_regions_alpha_sim(table, attrs, alpha, members, kind)
    assert got == reference_alpha_sim(table, attrs, alpha, members, kind)


@DIFFERENTIAL
@given(st.data())
def test_approx_matches_reference(data):
    table, attrs, members, kind = _case(data.draw)
    attained = set()
    for x in table.objects:
        apr = approximability(table, attrs, kind, members, x)
        attained |= {apr.positive, apr.negative}
    alpha = _alpha(data.draw, attained)
    got = description_regions_approx(table, attrs, alpha, members, kind)
    assert got == reference_approx(table, attrs, alpha, members, kind)


@DIFFERENTIAL
@given(st.data())
def test_alpha_meaning_matches_reference(data):
    table, attrs, members, kind = _case(data.draw)
    language = enumerate_cdl(tuple(map(table.schema, attrs)), STRICT)
    attained = {sat_degree(table, x, p, kind) for p in language for x in table.objects}
    alpha = _alpha(data.draw, attained)
    got = description_regions_alpha_meaning(table, attrs, alpha, members, kind)
    assert got == reference_alpha_meaning(table, attrs, alpha, members, kind)


@DIFFERENTIAL
@given(st.data())
def test_confidence_matches_reference(data):
    table, attrs, members, kind = _case(data.draw)
    attained = set()
    for p in enumerate_cdl(tuple(map(table.schema, attrs)), STRICT):
        conf = confidence(table, p, members, kind)
        attained |= {conf.accept, conf.reject}
    alpha = _alpha(data.draw, attained)
    got = description_regions_confidence(table, attrs, alpha, members, kind)
    assert got == reference_confidence(table, attrs, alpha, members, kind)


# The deep cases evaluate the reference on up to 1023 formulas each, so
# they run fewer examples and take alpha from a few common thresholds and
# the degrees of a few drawn formulas rather than of the whole language.
COMMON_ALPHAS = {Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(3, 5)}


def _deep_case(draw):
    table, attrs, members = draw(deep_tables())
    kind = draw(st.sampled_from(list(TNorm)))
    language = enumerate_cdl(tuple(map(table.schema, attrs)), STRICT)
    sample = draw(st.lists(st.sampled_from(language), min_size=1, max_size=4))
    return table, attrs, members, kind, sample


@DEEP
@given(st.data())
def test_alpha_meaning_matches_reference_deep(data):
    table, attrs, members, kind, sample = _deep_case(data.draw)
    attained = {sat_degree(table, x, p, kind) for p in sample for x in table.objects}
    alpha = _alpha(data.draw, attained | COMMON_ALPHAS)
    got = description_regions_alpha_meaning(table, attrs, alpha, members, kind)
    assert got == reference_alpha_meaning(table, attrs, alpha, members, kind)


@DEEP
@given(st.data())
def test_confidence_matches_reference_deep(data):
    table, attrs, members, kind, sample = _deep_case(data.draw)
    attained = set()
    for p in sample:
        conf = confidence(table, p, members, kind)
        attained |= {conf.accept, conf.reject}
    alpha = _alpha(data.draw, attained | COMMON_ALPHAS)
    got = description_regions_confidence(table, attrs, alpha, members, kind)
    assert got == reference_confidence(table, attrs, alpha, members, kind)


# The wide cases evaluate the references on 65-80 objects, quadratic in
# them, so they run fewer examples. Alpha is drawn from the degrees G the
# table attains, which are alpha-sim's edges, and from 1 - G, where
# approx's test under min is strict.
WIDE = settings(DIFFERENTIAL, max_examples=5)


def _wide_alpha(draw, table, attrs, kind):
    # The matrix is checked against the reference below; here it only
    # supplies the attained degrees.
    attained = set(similarity_matrix(table, attrs, kind).entries.values())
    return _alpha(draw, attained | {1 - g for g in attained})


@pytest.mark.parametrize("kind", list(TNorm))
@WIDE
@given(wide_tables(), st.data())
def test_alpha_sim_matches_reference_wide(kind, case, data):
    table, attrs, members = case
    alpha = _wide_alpha(data.draw, table, attrs, kind)
    got = description_regions_alpha_sim(table, attrs, alpha, members, kind)
    assert got == reference_alpha_sim(table, attrs, alpha, members, kind)


@pytest.mark.parametrize("kind", list(TNorm))
@WIDE
@given(wide_tables(), st.data())
def test_approx_matches_reference_wide(kind, case, data):
    table, attrs, members = case
    alpha = _wide_alpha(data.draw, table, attrs, kind)
    got = description_regions_approx(table, attrs, alpha, members, kind)
    assert got == reference_approx(table, attrs, alpha, members, kind)


@pytest.mark.parametrize("kind", list(TNorm))
@WIDE
@given(wide_tables())
def test_matrix_matches_pairwise_similarity_wide(kind, case):
    table, attrs, _ = case
    matrix = similarity_matrix(table, attrs, kind)
    for x in table.objects:
        for y in table.objects:
            assert matrix.degree(x, y) == similarity(table, attrs, kind, x, y), (x, y)


@DIFFERENTIAL
@given(pooled_tables(), st.sampled_from(list(TNorm)))
def test_matrix_matches_pairwise_similarity(case, kind):
    table, attrs, _ = case
    matrix = similarity_matrix(table, attrs, kind)
    for x in table.objects:
        for y in table.objects:
            assert matrix.degree(x, y) == similarity(table, attrs, kind, x, y), (x, y)


def _two_objects(row1, row2):
    schemas = (AttributeSchema("a", ("0", "1")), AttributeSchema("b", ("0", "1", "2")))
    cells = {("x1", a): frozenset(v) for a, v in row1.items()}
    cells.update({("x2", a): frozenset(v) for a, v in row2.items()})
    return SetValuedTable(("x1", "x2"), schemas, cells), ("a", "b")


def test_shared_row_degree_is_not_one():
    """Two different objects with the same non-singleton row are similar
    to degree fold(1/|cell|); only an object and itself reach 1."""
    row = {"a": "01", "b": "012"}
    table, attrs = _two_objects(row, row)
    assert similarity_matrix(table, attrs, TNorm.MIN).degree("x1", "x2") == Fraction(1, 3)
    assert similarity_matrix(table, attrs, TNorm.PRODUCT).degree("x1", "x2") == Fraction(1, 6)
    assert similarity_matrix(table, attrs, TNorm.MIN).degree("x1", "x1") == 1
    # Alpha 1/2 leaves x1's class {x1}, inside the class {x1}.
    dpos, dneg = description_regions_alpha_sim(table, attrs, Fraction(1, 2), {"x1"}, TNorm.MIN)
    assert dpos == cdes(table, attrs, "x1") and dneg == cdes(table, attrs, "x2")


@pytest.mark.parametrize("kind,edge", [(TNorm.MIN, Fraction(1, 3)), (TNorm.PRODUCT, Fraction(1, 6))])
def test_shared_row_blocks_at_its_own_degree(kind, edge):
    """Two objects of one non-singleton row on opposite sides of the class
    are alpha-similar up to alpha = fold(1/|cell|) and no further."""
    row = {"a": "01", "b": "012"}
    table, attrs = _two_objects(row, row)
    assert description_regions_alpha_sim(table, attrs, edge, {"x1"}, kind) == (frozenset(), frozenset())
    above = edge + Fraction(1, 1000)
    descriptions = cdes(table, attrs, "x1")
    assert description_regions_alpha_sim(table, attrs, above, {"x1"}, kind) == (descriptions, descriptions)


def test_product_drops_min_candidates_below_alpha():
    """At alpha 1/3, x2 is a min candidate of x1 (both per-attribute degrees
    are 1/2) but its product 1/4 is below alpha, so under prod it does not
    block x1, and under min it does."""
    table, attrs = _two_objects({"a": "01", "b": "0"}, {"a": "01", "b": "01"})
    alpha = Fraction(1, 3)
    got = description_regions_alpha_sim(table, attrs, alpha, {"x1"}, TNorm.PRODUCT)
    assert got == (cdes(table, attrs, "x1"), cdes(table, attrs, "x2"))
    assert got == reference_alpha_sim(table, attrs, alpha, {"x1"}, TNorm.PRODUCT)
    assert description_regions_alpha_sim(table, attrs, alpha, {"x1"}, TNorm.MIN) == (frozenset(), frozenset())


def test_approx_prod_folds_past_a_partial_product():
    """x1's positive degree under prod is (1 - 1/2) * (1 - 1/2) = 1/4; at
    alpha 1/2 the fold reaches alpha after one factor and must go on."""
    schemas = (AttributeSchema("a", ("0", "1")),)
    cells = {("x1", "a"): frozenset("01"), ("x2", "a"): frozenset("0"), ("x3", "a"): frozenset("1")}
    table = SetValuedTable(("x1", "x2", "x3"), schemas, cells)
    got = description_regions_approx(table, ("a",), Fraction(1, 2), {"x1"}, TNorm.PRODUCT)
    assert got == (frozenset(), cdes(table, ("a",), "x2") | cdes(table, ("a",), "x3"))
    assert got == reference_approx(table, ("a",), Fraction(1, 2), {"x1"}, TNorm.PRODUCT)


@pytest.mark.parametrize("kind", list(TNorm))
@pytest.mark.parametrize(
    "builder,in_region,in_none",
    [
        # x1 (6 descriptions, in the class) and x2 are similar to degree 1/3
        # under min and 1/6 under prod; x1's degrees toward the class are
        # 2/3 and 5/6.
        (description_regions_alpha_sim, Fraction(1, 2), Fraction(1, 6)),
        (description_regions_approx, Fraction(1, 2), Fraction(9, 10)),
    ],
)
def test_description_guard_fires_only_in_a_region(kind, builder, in_region, in_none):
    table, attrs = _two_objects({"a": "01", "b": "012"}, {"a": "0", "b": "0"})
    with pytest.raises(GuardExceededError, match="^6 descriptions exceed the cap of 5$"):
        builder(table, attrs, in_region, {"x1"}, kind, max_formulas=5)
    assert builder(table, attrs, in_region, {"x1"}, kind, max_formulas=6)[0] == cdes(table, attrs, "x1")
    assert builder(table, attrs, in_none, {"x1"}, kind, max_formulas=5) == (frozenset(), frozenset())


@pytest.mark.parametrize(
    "call",
    [
        lambda t, kind: description_regions_alpha_sim(t, ("a1", "a2"), Fraction(1, 2), {"x1"}, kind),
        lambda t, kind: description_regions_approx(t, ("a1", "a2"), Fraction(1, 2), {"x1"}, kind),
        lambda t, kind: description_regions_alpha_meaning(t, ("a1", "a2"), Fraction(1, 2), {"x1"}, kind),
        lambda t, kind: description_regions_confidence(t, ("a1", "a2"), Fraction(1, 2), {"x1"}, kind),
        lambda t, kind: similarity_matrix(t, ("a1", "a2"), kind),
        lambda t, kind: strict_degrees(t, ("a1", "a2"), kind),
    ],
    ids=["alpha_sim", "approx", "alpha_meaning", "confidence", "similarity_matrix", "strict_degrees"],
)
def test_kernels_reject_unknown_kind(setvalued8, call):
    with pytest.raises(ValueError, match="unknown T-norm"):
        call(setvalued8, "min")


@pytest.mark.parametrize("builder", [description_regions_alpha_meaning, description_regions_confidence])
def test_language_guard_comes_first(setvalued8, builder):
    """The size guard raises before the T-norm kind is even looked at,
    and a cap equal to the language size passes."""
    attrs = ("a1", "a2")
    total = cdl_size(tuple(map(setvalued8.schema, attrs)))
    with pytest.raises(GuardExceededError, match=f"^{total} formulas exceed the cap of {total - 1}$"):
        builder(setvalued8, attrs, Fraction(1, 2), {"x1"}, "min", max_formulas=total - 1)
    builder(setvalued8, attrs, Fraction(1, 2), {"x1"}, TNorm.MIN, max_formulas=total)


# --------------------------------------------------------------------------
# Per-formula degrees of the language search, and the complete-table
# language route on top of it


def _assert_strict_degrees_match_profiles(table, attrs, kind):
    got = strict_degrees(table, attrs, kind)
    assert [p for p, _ in got] == enumerate_cdl(tuple(map(table.schema, attrs)), STRICT)
    for p, ns in got:
        want = {x: d for x, d in sat_profile(table, p, kind).degrees.items() if d}
        assert {x: Fraction(1, n) for x, n in ns.items()} == want, p
        assert list(ns) == sorted(ns, key=table.position), p


@pytest.mark.parametrize("kind", list(TNorm))
@DIFFERENTIAL
@given(pooled_tables())
def test_strict_degrees_match_sat_profile(kind, case):
    table, attrs, _ = case
    _assert_strict_degrees_match_profiles(table, attrs, kind)


@pytest.mark.parametrize("kind", list(TNorm))
@DEEP
@given(deep_tables())
def test_strict_degrees_match_sat_profile_deep(kind, case):
    table, attrs, _ = case
    _assert_strict_degrees_match_profiles(table, attrs, kind)


@pytest.mark.parametrize("kind", list(TNorm))
@WIDE
@given(wide_tables())
def test_strict_degrees_match_sat_profile_wide(kind, case):
    table, attrs, _ = case
    _assert_strict_degrees_match_profiles(table, attrs, kind)


@pytest.mark.parametrize("kind", list(TNorm))
@pytest.mark.parametrize("tables", [pooled_tables, deep_tables, wide_tables])
@DEEP
@given(st.data())
def test_search_visits_each_size_in_rank_order(tables, kind, data):
    """The search meets the formulas of each size in ``formula_sort_key_for``
    order, each once, whatever its visit prunes; here a cut like
    alpha-meaning's, which searches a subtree while some object has a
    degree of at least the drawn alpha, and above 0 at alpha 0."""
    table, attrs, _ = data.draw(tables())
    a, b = degree_terms(_alpha(data.draw, COMMON_ALPHAS))
    visited = []

    def visit(atoms, ns, bits):
        visited.append(atoms)
        return False, False, any(bits)

    _search(table, attrs, kind, visit, b // a if a else float("inf"))
    assert len(set(visited)) == len(visited)
    key = formula_sort_key_for(tuple(map(table.schema, attrs)))
    for size in range(1, len(attrs) + 1):
        keys = [key(Formula(atoms)) for atoms in visited if len(atoms) == size]
        assert keys == sorted(keys), size


# --------------------------------------------------------------------------
# The satisfiability builders on tables of 65-80 objects, where the search's
# object bitsets run past 64 bits. Alpha is drawn from the degrees 1/N the
# table attains (alpha-meaning's edges, where N meets the cap b // a), from
# the confidences of a few drawn formulas, and from COMMON_ALPHAS.


def _sample_formulas(draw, table, attrs):
    language = enumerate_cdl(tuple(map(table.schema, attrs)), STRICT)
    return draw(st.lists(st.sampled_from(language), min_size=1, max_size=3))


@pytest.mark.parametrize("kind", list(TNorm))
@WIDE
@given(wide_tables(), st.data())
def test_alpha_meaning_matches_reference_wide(kind, case, data):
    table, attrs, members = case
    # The degrees are checked against the reference in the test above;
    # here they only supply the edges.
    attained = {Fraction(1, n) for _, ns in strict_degrees(table, attrs, kind) for n in ns.values()}
    alpha = _alpha(data.draw, attained | COMMON_ALPHAS)
    got = description_regions_alpha_meaning(table, attrs, alpha, members, kind)
    assert got == reference_alpha_meaning(table, attrs, alpha, members, kind)


@pytest.mark.parametrize("kind", list(TNorm))
@WIDE
@given(wide_tables(), st.data())
def test_confidence_matches_reference_wide(kind, case, data):
    table, attrs, members = case
    attained = set()
    for p in _sample_formulas(data.draw, table, attrs):
        conf = confidence(table, p, members, kind)
        attained |= {conf.accept, conf.reject}
    alpha = _alpha(data.draw, attained | COMMON_ALPHAS)
    got = description_regions_confidence(table, attrs, alpha, members, kind)
    assert got == reference_confidence(table, attrs, alpha, members, kind)


# Edge cases on 70 objects: x1-x69 hold {0} on a1 and a2, and x70, whose
# bit is past the 64th, holds the given cells. The class is {x70}.


def _edge_table(a1, a2):
    objects = tuple(f"x{j}" for j in range(1, 71))
    schemas = tuple(AttributeSchema(a, ("0", "1", "2")) for a in ("a1", "a2"))
    cells = {(x, a): frozenset({"0"}) for x in objects for a in ("a1", "a2")}
    cells[("x70", "a1")], cells[("x70", "a2")] = frozenset(a1), frozenset(a2)
    return SetValuedTable(objects, schemas, cells)


def _edge_regions(table, alpha, kind):
    """The alpha-meaning and confidence positive regions for class {x70},
    each checked against its reference."""
    attrs, members = ("a1", "a2"), frozenset({"x70"})
    regions = []
    for builder, reference in (
        (description_regions_alpha_meaning, reference_alpha_meaning),
        (description_regions_confidence, reference_confidence),
    ):
        got = builder(table, attrs, alpha, members, kind)
        assert got == reference(table, attrs, alpha, members, kind)
        regions.append(got[0])
    return regions


@pytest.mark.parametrize("kind", list(TNorm))
def test_na_cell_drops_its_object_on_that_attribute(kind):
    table = _edge_table({NA}, "01")
    x70 = {p: ns["x70"] for p, ns in strict_degrees(table, ("a1", "a2"), kind) if "x70" in ns}
    assert x70 == {formula("a2=0"): 2, formula("a2=1"): 2}
    # (a2=1) holds on x70 alone; every formula with an a1 atom holds on
    # no object of the class.
    meaning, conf = _edge_regions(table, Fraction(1, 2), kind)
    assert meaning == conf == {formula("a2=1")}


@pytest.mark.parametrize("kind", list(TNorm))
def test_alpha_at_one_over_n_keeps_the_object(kind):
    """x70 satisfies (a1=1), (a1=2) and each (a1=v)&(a2=1) to degree
    exactly 1/3 under either T-norm, and (a2=1) to degree 1."""
    table = _edge_table("012", "1")
    third = {formula("a1=1"), formula("a1=2")} | {formula(f"a1={v}&a2=1") for v in "012"}
    assert _edge_regions(table, Fraction(1, 3), kind) == [third | {formula("a2=1")}] * 2
    above = Fraction(1, 3) + Fraction(1, 10**9)
    assert _edge_regions(table, above, kind) == [{formula("a2=1")}] * 2


def test_product_above_the_cap_drops_the_object():
    """x70 satisfies (a1=1), (a2=1) and (a2=2) to degree 1/2, and each
    (a1=u)&(a2=v) with u in {0, 1} and v in {1, 2} to degree 1/2 under MIN
    and 1/4 under PRODUCT."""
    table = _edge_table("01", "12")
    atoms = {formula("a1=1"), formula("a2=1"), formula("a2=2")}
    pairs = {formula(f"a1={u}&a2={v}") for u in "01" for v in "12"}
    for kind, n in ((TNorm.MIN, 2), (TNorm.PRODUCT, 4)):
        degrees = dict(strict_degrees(table, ("a1", "a2"), kind))
        assert [degrees[p] for p in pairs] == [{"x70": n}] * 4
    assert _edge_regions(table, Fraction(1, 3), TNorm.MIN) == [atoms | pairs] * 2
    assert _edge_regions(table, Fraction(1, 3), TNorm.PRODUCT) == [atoms] * 2
    assert _edge_regions(table, Fraction(1, 4), TNorm.PRODUCT) == [atoms | pairs] * 2


@DIFFERENTIAL
@given(complete_tables())
def test_complete_regions_match_reference(case):
    table, attrs, members = case
    assert description_regions_complete(table, attrs, members) == reference_complete(table, attrs, members)


@DIFFERENTIAL
@given(complete_tables())
def test_cdef_family_matches_reference(case):
    table, attrs, _ = case
    assert cdef_family(table, attrs) == reference_cdef_family(table, attrs)


def test_complete_regions_reject_incomplete_table_first(setvalued8):
    """The completeness check comes before the class and attribute checks,
    as in ``partition`` and ``cdef_family``."""
    with pytest.raises(IncompleteTableError, match="^operation requires a complete table$"):
        description_regions_complete(setvalued8, ("nope",), {"nobody"})


# --------------------------------------------------------------------------
# Indexed class-specific resolution


@st.composite
def incomplete_tables(draw):
    schemas = _schemas(draw, max_attrs=3)
    names = [s.name for s in schemas]
    objects = tuple(f"x{j + 1}" for j in range(draw(st.integers(1, 8))))

    def cell(schema):
        variants = [st.sampled_from(schema.domain).map(Known), st.just(DoNotCare()), st.just(NotApplicable())]
        if len(schema.domain) >= 2:
            variants.append(
                st.sets(st.sampled_from(schema.domain), min_size=2).map(lambda v: Partial(frozenset(v)))
            )
        others = [n for n in names if n != schema.name]
        if others:
            variants.append(st.sampled_from(others).map(ClassSpecific))
        # Known cells dominate, so references usually resolve.
        return draw(st.one_of(variants[0], variants[0], *variants))

    cells = {(x, s.name): cell(s) for x in objects for s in schemas}
    return IncompleteTable(objects, schemas, cells)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ResolutionError as exc:
        return type(exc), str(exc)


@DIFFERENTIAL
@given(incomplete_tables())
def test_indexed_resolution_matches_peer_scan(it):
    slots = [
        (x, s.name)
        for x in it.objects
        for s in it.attributes
        if isinstance(it.cells[(x, s.name)], ClassSpecific)
    ]
    for x, a in slots:
        assert _outcome(resolve_class_specific, it, x, a) == _outcome(reference_resolve, it, x, a)
    # The whole table fails on its first failing cell in row order, with
    # that cell's error; otherwise every cell holds its resolution.
    first_failure = next(
        (o for o in (_outcome(reference_resolve, it, x, a) for x, a in slots) if isinstance(o, tuple)),
        None,
    )
    got = _outcome(to_set_valued, it)
    if first_failure is not None:
        assert got == first_failure
    else:
        for x, a in slots:
            assert got.cells[(x, a)] == reference_resolve(it, x, a)
