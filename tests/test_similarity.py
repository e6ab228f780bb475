import importlib
import itertools
import math
from fractions import Fraction as Fr

import pytest

import expected
from conftest import ATTR_ORDER, formulas
from threeway import (
    TNorm,
    alpha_similarity_class,
    approximability,
    approximability_closed,
    cdes,
    description_regions_alpha_sim,
    description_regions_approx,
    object_description,
    parse_table,
    partition,
    similarity,
    similarity_matrix,
    similarity_single,
    to_set_valued,
)
from threeway.fuzzy import format_decimal

OBJECTS = tuple(f"x{i}" for i in range(1, 9))


def expected_degree(table, x, y):
    if x == y:
        return Fr(1)
    return table.get((x, y), table.get((y, x), Fr(0)))


class TestSingleAttribute:
    def test_half(self, setvalued8):
        assert similarity_single(setvalued8, "a1", "x4", "x6") == Fr(1, 2)

    def test_third(self, setvalued8):
        assert similarity_single(setvalued8, "a3", "x4", "x6") == Fr(1, 3)

    def test_reflexive(self, setvalued8):
        for a in ATTR_ORDER:
            for x in OBJECTS:
                assert similarity_single(setvalued8, a, x, x) == 1

    def test_equal_nonsingleton_cells_not_fully_similar(self, setvalued8):
        assert similarity_single(setvalued8, "a1", "x5", "x6") == Fr(1, 2)

    def test_na_matches_na(self, setvalued8):
        assert similarity_single(setvalued8, "a1", "x7", "x8") == 1

    def test_na_never_matches_domain_value(self, setvalued8):
        assert similarity_single(setvalued8, "a1", "x4", "x7") == 0


class TestCombined:
    def test_min_fold(self, setvalued8):
        assert similarity(setvalued8, ATTR_ORDER, TNorm.MIN, "x4", "x6") == Fr(1, 3)

    def test_product_fold(self, setvalued8):
        assert similarity(setvalued8, ATTR_ORDER, TNorm.PRODUCT, "x4", "x6") == Fr(1, 6)

    def test_na_pair_same_under_both(self, setvalued8):
        for kind in TNorm:
            assert similarity(setvalued8, ATTR_ORDER, kind, "x7", "x8") == Fr(1, 3)


class TestMatrix:
    @pytest.mark.parametrize(
        "kind,table", [(TNorm.MIN, expected.SIM8_MIN), (TNorm.PRODUCT, expected.SIM8_PROD)]
    )
    def test_exact_entries(self, setvalued8, kind, table):
        matrix = similarity_matrix(setvalued8, ATTR_ORDER, kind)
        for x in OBJECTS:
            for y in OBJECTS:
                assert matrix.degree(x, y) == expected_degree(table, x, y), (x, y)

    @pytest.mark.parametrize(
        "kind,table", [(TNorm.MIN, expected.SIM8_MIN), (TNorm.PRODUCT, expected.SIM8_PROD)]
    )
    def test_three_decimal_rendering(self, setvalued8, kind, table):
        matrix = similarity_matrix(setvalued8, ATTR_ORDER, kind)
        for x in OBJECTS:
            for y in OBJECTS:
                want = format_decimal(expected_degree(table, x, y))
                assert format_decimal(matrix.degree(x, y)) == want, (x, y)

    def test_symmetry_and_diagonal(self, setvalued8):
        for kind in TNorm:
            matrix = similarity_matrix(setvalued8, ATTR_ORDER, kind)
            for x in OBJECTS:
                assert matrix.degree(x, x) == 1
                for y in OBJECTS:
                    assert matrix.degree(x, y) == matrix.degree(y, x)

    def test_complete_table_is_zero_one(self, complete6):
        blocks = partition(complete6, ATTR_ORDER)
        for kind in TNorm:
            matrix = similarity_matrix(complete6, ATTR_ORDER, kind)
            for x in complete6.objects:
                for y in complete6.objects:
                    inside = y in blocks.block_of(x)
                    assert matrix.degree(x, y) == (1 if inside else 0)

    def test_kind_dominance(self, setvalued8):
        m_min = similarity_matrix(setvalued8, ATTR_ORDER, TNorm.MIN)
        m_prod = similarity_matrix(setvalued8, ATTR_ORDER, TNorm.PRODUCT)
        for x in OBJECTS:
            for y in OBJECTS:
                assert m_min.degree(x, y) >= m_prod.degree(x, y)

    def test_attribute_monotonicity(self, setvalued8):
        for kind in TNorm:
            full = similarity_matrix(setvalued8, ATTR_ORDER, kind)
            for size in (1, 2):
                for attrs in itertools.combinations(ATTR_ORDER, size):
                    sub = similarity_matrix(setvalued8, attrs, kind)
                    for x in OBJECTS:
                        for y in OBJECTS:
                            assert full.degree(x, y) <= sub.degree(x, y)


class TestAlphaClasses:
    @pytest.mark.parametrize(
        "kind,classes",
        [(TNorm.MIN, expected.SIM8_CLASSES_MIN), (TNorm.PRODUCT, expected.SIM8_CLASSES_PROD)],
    )
    def test_all_objects_at_three_tenths(self, setvalued8, kind, classes):
        matrix = similarity_matrix(setvalued8, ATTR_ORDER, kind)
        for x, members in classes.items():
            assert alpha_similarity_class(matrix, x, Fr(3, 10)) == frozenset(members), x

    def test_zero_threshold_gives_universe(self, setvalued8):
        matrix = similarity_matrix(setvalued8, ATTR_ORDER, TNorm.MIN)
        assert alpha_similarity_class(matrix, "x1", 0) == frozenset(OBJECTS)

    def test_contains_self_at_threshold_one(self, setvalued8):
        matrix = similarity_matrix(setvalued8, ATTR_ORDER, TNorm.PRODUCT)
        for x in OBJECTS:
            assert x in alpha_similarity_class(matrix, x, 1)

    def test_antitone_in_threshold(self, setvalued8):
        matrix = similarity_matrix(setvalued8, ATTR_ORDER, TNorm.MIN)
        grid = [Fr(0), Fr(1, 4), Fr(1, 3), Fr(1, 2), Fr(1)]
        for x in OBJECTS:
            for lo, hi in zip(grid, grid[1:]):
                assert alpha_similarity_class(matrix, x, hi) <= alpha_similarity_class(
                    matrix, x, lo
                )

    def test_classes_cover_universe(self, setvalued8):
        matrix = similarity_matrix(setvalued8, ATTR_ORDER, TNorm.PRODUCT)
        union = frozenset()
        for x in OBJECTS:
            union |= alpha_similarity_class(matrix, x, Fr(3, 10))
        assert union == frozenset(OBJECTS)


class TestObjectDescriptions:
    def test_na_object(self, setvalued8):
        assert cdes(setvalued8, ATTR_ORDER, "x8") == formulas(
            ["a1=NA&a2=1&a3=0", "a1=NA&a2=2&a3=0", "a1=NA&a2=3&a3=0"]
        )

    def test_known_object(self, setvalued8):
        assert cdes(setvalued8, ATTR_ORDER, "x1") == formulas(["a1=1&a2=2&a3=3"])

    def test_complete_row_matches_object_description(self, complete6):
        for x in complete6.objects:
            row = complete6.known_row(x)
            assert cdes(complete6, ATTR_ORDER, x) == frozenset(
                {object_description(row, ATTR_ORDER, ATTR_ORDER)}
            )

    def test_size_is_cell_product(self, setvalued8):
        for x in OBJECTS:
            size = 1
            for a in ATTR_ORDER:
                size *= len(setvalued8.cell(x, a))
            assert len(cdes(setvalued8, ATTR_ORDER, x)) == size


class TestAlphaSimilarityRegions:
    def test_min_regions(self, setvalued8, class4):
        dpos, dneg = description_regions_alpha_sim(
            setvalued8, ATTR_ORDER, Fr(3, 10), class4, TNorm.MIN
        )
        assert dpos == formulas(expected.ALPHA_SIM_DPOS_MIN)
        assert dneg == formulas(expected.ALPHA_SIM_DNEG_MIN)

    def test_product_regions_overlap(self, setvalued8, class4):
        dpos, dneg = description_regions_alpha_sim(
            setvalued8, ATTR_ORDER, Fr(3, 10), class4, TNorm.PRODUCT
        )
        assert dpos == formulas(expected.ALPHA_SIM_DPOS_PROD)
        assert dneg == formulas(expected.ALPHA_SIM_DNEG_PROD)
        assert dpos & dneg == formulas(expected.ALPHA_SIM_OVERLAP_PROD)

    def test_universe_class_empties_negative(self, setvalued8):
        _, dneg = description_regions_alpha_sim(
            setvalued8, ATTR_ORDER, Fr(3, 10), OBJECTS, TNorm.MIN
        )
        assert dneg == frozenset()


class TestApproximability:
    def test_all_values(self, setvalued8, class4):
        for x, (pos_min, neg_min, pos_prod, neg_prod) in expected.APPROX8.items():
            got_min = approximability(setvalued8, ATTR_ORDER, TNorm.MIN, class4, x)
            got_prod = approximability(setvalued8, ATTR_ORDER, TNorm.PRODUCT, class4, x)
            assert (got_min.positive, got_min.negative) == (pos_min, neg_min), x
            assert (got_prod.positive, got_prod.negative) == (pos_prod, neg_prod), x

    def test_closed_form_agrees(self, setvalued8, class4):
        for kind in TNorm:
            for x in OBJECTS:
                generic = approximability(setvalued8, ATTR_ORDER, kind, class4, x)
                closed = approximability_closed(setvalued8, ATTR_ORDER, kind, class4, x)
                assert (generic.positive, generic.negative) == (
                    closed.positive,
                    closed.negative,
                ), (kind, x)

    def test_monotone_in_class(self, setvalued8, class4):
        larger = class4 | {"x5"}
        for kind in TNorm:
            for x in OBJECTS:
                small = approximability(setvalued8, ATTR_ORDER, kind, class4, x)
                big = approximability(setvalued8, ATTR_ORDER, kind, larger, x)
                assert big.positive >= small.positive
                assert big.negative <= small.negative


class TestApproxRegions:
    def test_min_regions(self, setvalued8, class4):
        dpos, dneg = description_regions_approx(
            setvalued8, ATTR_ORDER, Fr(4, 5), class4, TNorm.MIN
        )
        assert dpos == formulas(expected.APPROX_DPOS_MIN)
        assert dneg == formulas(expected.APPROX_DNEG_MIN)

    def test_product_regions(self, setvalued8, class4):
        dpos, dneg = description_regions_approx(
            setvalued8, ATTR_ORDER, Fr(4, 5), class4, TNorm.PRODUCT
        )
        assert dpos == formulas(expected.APPROX_DPOS_PROD)
        assert dneg == formulas(expected.APPROX_DNEG_PROD)

    def test_zero_threshold_universe_class(self, setvalued8):
        dpos, dneg = description_regions_approx(setvalued8, ATTR_ORDER, 0, OBJECTS, TNorm.MIN)
        everything = frozenset()
        for x in OBJECTS:
            everything |= cdes(setvalued8, ATTR_ORDER, x)
        assert dpos == everything
        assert dneg == everything

    def test_product_at_zero_threshold_forms_no_product(self, setvalued8, class4, product_calls):
        # At alpha 0 the closed forms put every object on its own side.
        dpos, dneg = description_regions_approx(setvalued8, ATTR_ORDER, 0, class4, TNorm.PRODUCT)
        assert product_calls == []
        everything = frozenset().union(*(cdes(setvalued8, ATTR_ORDER, x) for x in OBJECTS))
        assert dpos == dneg == everything


@pytest.fixture
def product_calls(monkeypatch):
    """The row pairs whose PRODUCT degree the similarity kernel forms. The
    package attribute ``similarity`` is the reference function, so the
    module is imported by name."""
    module = importlib.import_module("threeway.similarity")
    calls = []
    original = module._Rows.product

    def counted(self, s, t):
        calls.append((s, t))
        return original(self, s, t)

    monkeypatch.setattr(module._Rows, "product", counted)
    return calls


@pytest.mark.parametrize(
    "builder,alpha", [(description_regions_alpha_sim, Fr(3, 10)), (description_regions_approx, Fr(4, 5))]
)
def test_min_forms_no_product(setvalued8, class4, product_calls, builder, alpha):
    # Under min a candidate's existence decides; its degree is never read.
    dpos, dneg = builder(setvalued8, ATTR_ORDER, alpha, class4, TNorm.MIN)
    assert product_calls == []
    assert dpos or dneg


@pytest.fixture
def described(monkeypatch):
    """Positions of the objects whose descriptions the similarity kernel
    lists, one per call of its ``describe``."""
    module = importlib.import_module("threeway.similarity")
    calls = []
    original = module._describer

    def counted_describer(st, attrs):
        describe = original(st, attrs)

        def counted(i, max_formulas=math.inf):
            calls.append(i)
            return describe(i, max_formulas)

        return counted

    monkeypatch.setattr(module, "_describer", counted_describer)
    return calls


# y1 (in the class) and y2 (not) share one row.
MIXED_ROW = """\
@attributes a b
@domain a 1 2
@domain b 1 2
@objects
y1 1 {1|2}
y2 1 {1|2}
y3 2 1
y4 * 2
"""


@pytest.mark.parametrize("alpha", [Fr(0), Fr(1, 3), Fr(1, 2), Fr(1)])
@pytest.mark.parametrize("kind", list(TNorm))
@pytest.mark.parametrize("builder", [description_regions_alpha_sim, description_regions_approx])
@pytest.mark.parametrize("table", ["setvalued8", "mixed_row"])
def test_work_per_row_and_membership(setvalued8, class4, product_calls, described, table, builder, kind, alpha):
    # Objects of one row and membership share their verdict and their
    # descriptions; min, and prod at alpha 0 and 1, form no product, and
    # approx at alpha = 0 puts every object in both regions from one
    # description each.
    if table == "setvalued8":
        st, attrs, members = setvalued8, ATTR_ORDER, class4
    else:
        st, attrs, members = to_set_valued(parse_table(MIXED_ROW)), ("a", "b"), {"y1", "y3"}

    def key(x):
        return tuple(st.cell(x, a) for a in attrs), x in members

    builder(st, attrs, alpha, members, kind)
    keys = [key(st.objects[i]) for i in described]
    assert len(keys) == len(set(keys))
    if kind is TNorm.MIN or alpha in (0, 1):
        assert product_calls == []
    if builder is description_regions_approx and alpha == 0:
        assert set(keys) == {key(x) for x in st.objects}
