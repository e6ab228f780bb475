import pytest

import expected
import threeway.table
from threeway import (
    AttributeSchema,
    ClassSpecific,
    DoNotCare,
    DomainInferenceWarning,
    EmptyResolutionError,
    GuardExceededError,
    IncompleteTable,
    Known,
    NotApplicable,
    Partial,
    TableParseError,
    UnresolvedReferenceError,
    is_complete,
    parse_table,
    possible_worlds,
    resolve_class_specific,
    to_set_valued,
    world_count,
)


class TestParsing:
    def test_eight_object_structure(self, incomplete8):
        assert incomplete8.objects == tuple(f"x{i}" for i in range(1, 9))
        assert incomplete8.attribute_names == ("a1", "a2", "a3")
        assert incomplete8.schema("a2").domain == ("1", "2", "3")
        assert incomplete8.cell("x1", "a1") == Known("1")
        assert incomplete8.cell("x2", "a2") == ClassSpecific("a3")
        assert incomplete8.cell("x4", "a3") == DoNotCare()
        assert incomplete8.cell("x6", "a3") == Partial(frozenset({"1", "3"}))
        assert incomplete8.cell("x7", "a1") == NotApplicable()

    def test_complete_table_all_known(self, incomplete8, complete6_source):
        it = parse_table(complete6_source)
        assert all(isinstance(c, Known) for c in it.cells.values())

    def test_singleton_partial_rejected(self):
        src = "@attributes a\n@domain a 1 2\n@objects\nx1 {1}\n"
        with pytest.raises(TableParseError, match="2 distinct"):
            parse_table(src)

    def test_unknown_reference_attribute(self):
        src = "@attributes a b\n@domain a 1 2\n@domain b 1 2\n@objects\nx1 ^(c) 1\n"
        with pytest.raises(TableParseError, match="unknown reference"):
            parse_table(src)

    def test_value_outside_domain(self):
        src = "@attributes a\n@domain a 1 2\n@objects\nx1 9\n"
        with pytest.raises(TableParseError, match="outside the domain"):
            parse_table(src)

    def test_duplicate_object(self):
        src = "@attributes a\n@domain a 1 2\n@objects\nx1 1\nx1 2\n"
        with pytest.raises(TableParseError, match="duplicate object"):
            parse_table(src)

    def test_error_carries_position(self):
        src = "@attributes a\n@domain a 1 2\n@objects\nx1 9\n"
        with pytest.raises(TableParseError) as exc:
            parse_table(src)
        assert exc.value.line == 4
        assert exc.value.column == 4

    def test_star_without_domain_rejected(self):
        src = "@attributes a\n@objects\nx1 *\n"
        with pytest.raises(TableParseError, match="declares no @domain"):
            parse_table(src)

    def test_domain_inference_warns_and_collects_tokens(self):
        src = "@attributes a\n@objects\nx1 1\nx2 {2|3}\n"
        with pytest.warns(DomainInferenceWarning):
            it = parse_table(src)
        assert it.schema("a").domain == ("1", "2", "3")

    def test_na_not_allowed_in_domain(self):
        src = "@attributes a\n@domain a 1 NA\n@objects\nx1 1\n"
        with pytest.raises(TableParseError, match="cannot be a domain value"):
            parse_table(src)

    def test_comments_and_blank_lines_ignored(self, complete6_source):
        noisy = "# leading\n\n" + complete6_source.replace("x1 1 2 3", "x1 1 2 3  # trailing")
        it = parse_table(noisy)
        assert it.cell("x1", "a3") == Known("3")


class TestResolution:
    def test_reference_resolution(self, incomplete8):
        assert resolve_class_specific(incomplete8, "x2", "a2") == frozenset({"1", "2"})

    def test_no_peers_is_empty_resolution(self):
        src = "@attributes a b\n@domain a 1 2\n@domain b 1 2\n@objects\nx1 ^(b) 1\n"
        it = parse_table(src)
        with pytest.raises(EmptyResolutionError):
            resolve_class_specific(it, "x1", "a")

    def test_unknown_reference_cell(self, setvalued8_source):
        src = setvalued8_source.replace("x2 1 ^(a3) 3", "x2 1 ^(a3) *")
        it = parse_table(src)
        with pytest.raises(UnresolvedReferenceError):
            resolve_class_specific(it, "x2", "a2")

    def test_non_reference_cell_rejected(self, incomplete8):
        with pytest.raises(ValueError):
            resolve_class_specific(incomplete8, "x1", "a1")


class TestResolutionWork:
    """Each column builds one peer index per (reference attribute,
    attribute) pair, and each distinct (class-specific cell, reference
    cell) pair resolves once, at its first holder in object order, up to
    the column's first failure."""

    @pytest.fixture
    def calls(self, monkeypatch):
        log = {"peers": [], "resolve": []}
        peer_values, resolve = threeway.table._peer_values, threeway.table._resolve

        def counted_peers(it, ref_attr, a, *pairs):
            log["peers"].append((ref_attr, a))
            return peer_values(it, ref_attr, a, *pairs)

        def counted_resolve(x, a, ref_attr, ref, peers):
            log["resolve"].append((x, a, ref_attr))
            return resolve(x, a, ref_attr, ref, peers)

        monkeypatch.setattr(threeway.table, "_peer_values", counted_peers)
        monkeypatch.setattr(threeway.table, "_resolve", counted_resolve)
        return log

    def test_shared_pairs_resolve_once(self, calls):
        src = (
            "@attributes a b c\n@domain a 1 2 3\n@domain b 1 2\n@domain c 1 2\n@objects\n"
            "x1 1 1 1\nx2 2 2 1\nx3 ^(b) 1 2\nx4 ^(c) 2 1\nx5 ^(b) 1 1\n"
            "x6 ^(b) 2 2\nx7 ^(c) 1 2\nx8 ^(c) 2 1\nx9 3 2 2\n"
        )
        st = to_set_valued(parse_table(src))
        assert sorted(calls["peers"]) == [("b", "a"), ("c", "a")]
        assert calls["resolve"] == [("x3", "a", "b"), ("x4", "a", "c"), ("x6", "a", "b"), ("x7", "a", "c")]
        assert [st.cell(x, "a") for x in ("x3", "x4", "x5", "x6", "x7", "x8")] == [
            frozenset(v) for v in ({"1"}, {"1", "2"}, {"1"}, {"2", "3"}, {"3"}, {"1", "2"})
        ]

    def test_interleaved_references_code_in_first_holder_order(self, calls):
        """A column whose class-specific cells name two references resolves
        its pairs in first-holder order across both, and codes the resolved
        sets after the sets of its other cells, in that order."""
        src = (
            "@attributes a b c\n@domain a 1 2 3\n@domain b 1 2\n@domain c 1 2\n@objects\n"
            "x1 1 1 1\nx2 ^(c) 1 2\nx3 ^(b) 2 1\nx4 3 2 2\nx5 ^(c) 2 1\nx6 ^(b) 1 2\nx7 2 2 1\n"
        )
        st = to_set_valued(parse_table(src))
        assert calls["peers"] == [("c", "a"), ("b", "a")]
        assert calls["resolve"] == [("x2", "a", "c"), ("x3", "a", "b"), ("x5", "a", "c"), ("x6", "a", "b")]
        sets = tuple(frozenset(v) for v in ({"1"}, {"3"}, {"2"}, {"2", "3"}, {"1", "2"}))
        assert st.column("a") == (sets, (0, 1, 3, 1, 4, 0, 2))

    def test_columns_stop_at_their_first_failure(self, calls):
        src = (
            "@attributes a b c\n@domain a 1 2\n@domain b 1 2 3\n@domain c 1 2\n@objects\n"
            "x1 1 1 1\nx2 ^(b) 1 ^(a)\nx3 2 2 2\nx4 ^(b) 3 1\nx5 ^(b) 2 1\nx6 ^(b) 1 2\n"
        )
        with pytest.raises(UnresolvedReferenceError, match=r"^cell \(x2, c\): reference cell \(x2, a\)"):
            to_set_valued(parse_table(src))
        assert calls["peers"] == [("b", "a"), ("a", "c")]
        assert calls["resolve"] == [("x2", "a", "b"), ("x4", "a", "b"), ("x2", "c", "a")]


class TestSetValuedConversion:
    def test_eight_object_cells(self, setvalued8):
        for (x, a), values in expected.SETVALUED8_CELLS.items():
            assert setvalued8.cell(x, a) == frozenset(values), (x, a)

    def test_complete_table_singletons(self, complete6):
        assert all(len(v) == 1 for v in complete6.cells.values())
        assert complete6.known_row("x4") == expected.COMPLETE6_ROWS["x4"]

    def test_partial_cell_passthrough(self, setvalued8):
        assert setvalued8.cell("x6", "a3") == frozenset({"1", "3"})

    def test_idempotent_on_complete(self, complete6_source):
        it = parse_table(complete6_source)
        st = to_set_valued(it)
        for (x, a), cell in it.cells.items():
            assert st.cell(x, a) == frozenset({cell.value})

    def test_equal_cells_share_one_instance(self, setvalued8_source):
        it = parse_table(setvalued8_source)
        assert it.cell("x1", "a1") is it.cell("x3", "a1")
        assert it.cell("x5", "a1") is it.cell("x6", "a1")
        st = to_set_valued(it)
        assert st.cell("x1", "a1") is st.cell("x3", "a1")
        assert st.cell("x5", "a1") is st.cell("x6", "a1")
        assert st.cell("x7", "a1") is st.cell("x8", "a1")

    def test_cell_instance_shared_across_attributes(self):
        star = DoNotCare()
        schemas = (AttributeSchema("a", ("1", "2")), AttributeSchema("b", ("3",)))
        it = IncompleteTable(("x1", "x2"), schemas, {(x, a.name): star for x in ("x1", "x2") for a in schemas})
        st = to_set_valued(it)
        assert st.cell("x2", "a") == frozenset({"1", "2"})
        assert st.cell("x2", "b") == frozenset({"3"})

    def test_cells_stay_in_domain(self, setvalued8):
        for (x, a), values in setvalued8.cells.items():
            domain = set(setvalued8.schema(a).domain)
            assert values
            assert values <= domain | {"NA"}
            if "NA" in values:
                assert values == frozenset({"NA"})


class TestCompleteness:
    def test_complete(self, complete6):
        assert is_complete(complete6)

    def test_incomplete(self, setvalued8):
        assert not is_complete(setvalued8)

    def test_na_only_table_not_complete(self):
        src = "@attributes a\n@domain a 1 2\n@objects\nx1 NA\n"
        assert not is_complete(to_set_valued(parse_table(src)))


class TestPossibleWorlds:
    def test_single_row_count(self, setvalued8):
        worlds = list(possible_worlds(setvalued8, rows={"x4"}))
        assert len(worlds) == 3
        assert world_count(setvalued8, ["x4"]) == 3

    def test_two_row_count(self, setvalued8):
        worlds = list(possible_worlds(setvalued8, rows={"x4", "x6"}))
        assert len(worlds) == 12
        assert world_count(setvalued8, ["x4", "x6"]) == 12

    def test_complete_table_single_world(self, complete6):
        (world,) = possible_worlds(complete6)
        assert world == expected.COMPLETE6_ROWS

    def test_counts_match_product_of_cell_sizes(self, setvalued8):
        total = world_count(setvalued8, ["x7", "x8"])
        assert total == 3
        assert len(list(possible_worlds(setvalued8, rows=["x7", "x8"]))) == total

    def test_deterministic_lexicographic_order(self, setvalued8):
        worlds = list(possible_worlds(setvalued8, rows={"x4"}))
        assert [w["x4"]["a3"] for w in worlds] == ["0", "1", "3"]

    def test_guard(self, setvalued8):
        with pytest.raises(GuardExceededError):
            possible_worlds(setvalued8, max_worlds=10)

    def test_unknown_row(self, setvalued8):
        with pytest.raises(Exception):
            possible_worlds(setvalued8, rows={"nope"})


class TestSchemaInvariants:
    def test_na_rejected_in_domain(self):
        with pytest.raises(ValueError):
            AttributeSchema("a", ("1", "NA"))

    def test_mixed_na_cell_rejected(self, setvalued8):
        from threeway import SetValuedTable

        cells = dict(setvalued8.cells)
        cells[("x7", "a1")] = frozenset({"NA", "0"})
        with pytest.raises(ValueError, match="mixes"):
            SetValuedTable(setvalued8.objects, setvalued8.attributes, cells)

    def test_first_bad_cell_in_order_is_reported(self):
        schemas = (AttributeSchema("a", ("1",)), AttributeSchema("b", ("1", "2")))
        two = Known("2")
        cells = {("x1", "a"): Known("1"), ("x1", "b"): two, ("x2", "a"): two, ("x2", "b"): Known("9")}
        with pytest.raises(ValueError, match=r"cell \(x2, a\): value '2' outside domain"):
            IncompleteTable(("x1", "x2"), schemas, cells)

    def test_set_shared_across_attributes_is_checked_in_each(self):
        from threeway import SetValuedTable

        schemas = (AttributeSchema("a", ("1", "2")), AttributeSchema("b", ("1",)))
        both = frozenset({"1", "2"})
        cells = {("x1", "a"): both, ("x1", "b"): frozenset({"1"}), ("x2", "a"): both, ("x2", "b"): both}
        with pytest.raises(ValueError, match=r"cell \(x2, b\) holds tokens outside the domain"):
            SetValuedTable(("x1", "x2"), schemas, cells)

    @pytest.mark.parametrize(
        "stray",
        [("x9", "a"), ("x1", "z"), 7, ("x1", "b", "extra")],
        ids=["unknown object", "unknown attribute", "not a pair", "three items"],
    )
    def test_first_missing_cell_in_grid_order_is_reported(self, stray):
        """A stray key with the right cell count leaves a hole; the error
        names the first hole in object, then attribute, order."""
        schemas = (AttributeSchema("a", ("1",)), AttributeSchema("b", ("1",)))
        one = Known("1")
        cells = {("x1", "a"): one, ("x2", "a"): one, ("x2", "b"): one, stray: one}
        with pytest.raises(ValueError, match=r"^missing cell \(x1, b\)$"):
            IncompleteTable(("x1", "x2"), schemas, cells)

    def test_cell_count_checked_before_holes(self):
        schemas = (AttributeSchema("a", ("1",)),)
        with pytest.raises(ValueError, match="not total"):
            IncompleteTable(("x1", "x2"), schemas, {("x1", "a"): Known("1")})
