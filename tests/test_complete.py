import itertools

import pytest

import expected
from conftest import ATTR_ORDER, formula, formulas
from threeway import (
    GuardExceededError,
    IncompleteTableError,
    UnknownIdError,
    boolean_algebra,
    cdef_family,
    description_regions_complete,
    meaning_set,
    partition,
    regions_computational,
    regions_conceptual,
    regions_general,
)


def family(sets) -> frozenset:
    return frozenset(frozenset(s) for s in sets)


class TestPartition:
    def test_full_attrs(self, complete6):
        assert partition(complete6, ATTR_ORDER).block_family == family(
            expected.COMPLETE6_PARTITIONS[ATTR_ORDER]
        )

    def test_every_subset(self, complete6):
        for attrs, blocks in expected.COMPLETE6_PARTITIONS.items():
            assert partition(complete6, attrs).block_family == family(blocks), attrs

    def test_distinct_rows_give_singletons(self):
        from threeway import parse_table, to_set_valued

        src = "@attributes a\n@domain a 1 2 3\n@objects\nx1 1\nx2 2\nx3 3\n"
        st = to_set_valued(parse_table(src))
        assert partition(st, ("a",)).block_family == family([{"x1"}, {"x2"}, {"x3"}])

    def test_incomplete_rejected(self, setvalued8):
        with pytest.raises(IncompleteTableError):
            partition(setvalued8, ATTR_ORDER)

    def test_refinement_chain(self, complete6):
        for a1_attrs, a2_attrs in itertools.combinations(expected.COMPLETE6_PARTITIONS, 2):
            if not set(a1_attrs) <= set(a2_attrs):
                continue
            coarse = partition(complete6, a1_attrs)
            fine = partition(complete6, a2_attrs)
            for block in fine.blocks:
                assert any(block <= big for big in coarse.blocks)

    def test_block_of(self, complete6):
        assert partition(complete6, ATTR_ORDER).block_of("x4") == frozenset({"x4", "x5"})

    def test_block_of_every_object_and_unknown(self, complete6):
        blocks = partition(complete6, ("a1",))
        for block in blocks.blocks:
            for x in block:
                assert blocks.block_of(x) is block
        with pytest.raises(UnknownIdError):
            blocks.block_of("x99")


class TestComputationalRegions:
    def test_reference_class(self, complete6, class4):
        regions = regions_computational(complete6, ATTR_ORDER, class4)
        assert regions.pos == family(expected.COMPLETE6_POS)
        assert regions.neg == family(expected.COMPLETE6_NEG)
        assert regions.bnd == family(expected.COMPLETE6_BND)

    def test_universe(self, complete6):
        regions = regions_computational(complete6, ATTR_ORDER, complete6.objects)
        assert regions.pos == partition(complete6, ATTR_ORDER).block_family
        assert regions.neg == regions.bnd == frozenset()

    def test_empty_class(self, complete6):
        regions = regions_computational(complete6, ATTR_ORDER, ())
        assert regions.neg == partition(complete6, ATTR_ORDER).block_family
        assert regions.pos == regions.bnd == frozenset()

    def test_unknown_ids_rejected(self, complete6):
        with pytest.raises(Exception):
            regions_computational(complete6, ATTR_ORDER, {"bogus"})


class TestDefinableFamilies:
    def test_cdef_members(self, complete6):
        members = {ds.members for ds in cdef_family(complete6, ATTR_ORDER)}
        assert members == family(expected.COMPLETE6_CDEF)

    def test_pair_block_descriptions(self, complete6):
        by_members = {ds.members: ds for ds in cdef_family(complete6, ATTR_ORDER)}
        pair = by_members[frozenset({"x1", "x2"})]
        assert pair.descriptions == formulas(expected.COMPLETE6_PAIR_DESCRIPTIONS)

    def test_descriptions_define_their_members(self, complete6):
        for ds in cdef_family(complete6, ATTR_ORDER):
            for p in ds.descriptions:
                assert meaning_set(complete6, p) == ds.members

    def test_singletons_from_distinct_column(self):
        from threeway import parse_table, to_set_valued

        src = "@attributes a\n@domain a 1 2 3\n@objects\nx1 1\nx2 2\nx3 3\n"
        st = to_set_valued(parse_table(src))
        members = {ds.members for ds in cdef_family(st, ("a",))}
        assert members == family([{"x1"}, {"x2"}, {"x3"}])

    def test_conceptual_regions(self, complete6, class4):
        pos, neg = regions_conceptual(complete6, ATTR_ORDER, class4)
        assert {ds.members for ds in pos} == family(expected.COMPLETE6_CONCEPT_POS)
        assert {ds.members for ds in neg} == family(expected.COMPLETE6_CONCEPT_NEG)

    def test_conceptual_universe(self, complete6):
        pos, neg = regions_conceptual(complete6, ATTR_ORDER, complete6.objects)
        nonempty = {ds.members for ds in cdef_family(complete6, ATTR_ORDER) if ds.members}
        assert {ds.members for ds in pos} == nonempty
        assert not neg

    def test_conceptual_empty_class(self, complete6):
        pos, neg = regions_conceptual(complete6, ATTR_ORDER, ())
        nonempty = {ds.members for ds in cdef_family(complete6, ATTR_ORDER) if ds.members}
        assert {ds.members for ds in neg} == nonempty
        assert not pos


class TestBooleanAlgebra:
    def test_closure_of_partition(self, complete6):
        closure = boolean_algebra(partition(complete6, ATTR_ORDER).blocks)
        assert closure == family(expected.COMPLETE6_DEFINABLE)

    def test_union_beyond_blocks_present(self, complete6):
        closure = boolean_algebra(partition(complete6, ATTR_ORDER).blocks)
        assert frozenset({"x1", "x2", "x3"}) in closure

    def test_closures_coincide(self, complete6):
        from_blocks = boolean_algebra(partition(complete6, ATTR_ORDER).blocks)
        from_formulas = boolean_algebra(
            ds.members for ds in cdef_family(complete6, ATTR_ORDER)
        )
        assert from_blocks == from_formulas

    def test_blocks_inside_cdef(self, complete6):
        # every partition block is conjunctively definable
        for attrs in expected.COMPLETE6_PARTITIONS:
            if not attrs:
                continue
            members = {ds.members for ds in cdef_family(complete6, attrs)}
            assert partition(complete6, attrs).block_family <= members

    def test_singleton_family(self):
        s = frozenset({"x1"})
        assert boolean_algebra([s]) == frozenset({frozenset(), s})

    def test_guard(self):
        blocks = [frozenset({f"x{i}"}) for i in range(20)]
        with pytest.raises(GuardExceededError):
            boolean_algebra(blocks, max_subsets=2**16)


class TestGeneralRegions:
    def test_reference_class(self, complete6, class4):
        regions = regions_general(complete6, ATTR_ORDER, class4)
        assert regions.pos == family(expected.COMPLETE6_GENERAL_POS)
        assert regions.neg == family(expected.COMPLETE6_GENERAL_NEG)

    def test_empty_class(self, complete6):
        assert regions_general(complete6, ATTR_ORDER, ()).pos == frozenset()

    def test_general_pos_extends_conceptual(self, complete6, class4):
        general = regions_general(complete6, ATTR_ORDER, class4).pos
        conceptual, _ = regions_conceptual(complete6, ATTR_ORDER, class4)
        assert {ds.members for ds in conceptual} <= general


class TestDescriptionRegions:
    def test_reference_class(self, complete6, class4):
        dpos, dneg = description_regions_complete(complete6, ATTR_ORDER, class4)
        assert dpos == formulas(expected.COMPLETE6_DPOS)
        assert dneg == formulas(expected.COMPLETE6_DNEG)

    def test_universe(self, complete6):
        dpos, dneg = description_regions_complete(complete6, ATTR_ORDER, complete6.objects)
        nonempty = {
            formula(text)
            for text, members in expected.COMPLETE6_LANGUAGE.values()
            if members
        }
        assert dpos == nonempty
        assert not dneg

    def test_disjoint(self, complete6):
        for size in (1, 2, 3):
            for attrs in itertools.combinations(ATTR_ORDER, size):
                dpos, dneg = description_regions_complete(complete6, attrs, {"x1", "x3", "x5"})
                assert not dpos & dneg
