"""``complete._ranked_regions``, the kernel of eq-complete, on drawn
complete tables against the dict-based ``reference_partition``: its
blocks come in first-member order with members in object order, each key
is the block row's domain-rank tuple, each block lies in the region its
class says, and a region's sorted keys order the block descriptions as
``formula_sort_key_for`` does.
"""

from __future__ import annotations

import warnings

from hypothesis import HealthCheck, given, settings, strategies as st

from test_eq_complete_order import complete_table
from test_table_columns import DictTable, reference_partition
from threeway import object_description, parse_table, partition, regions_computational, to_set_valued
from threeway.complete import _ranked_regions
from threeway.language import formula_sort_key_for


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(drawn=complete_table(), data=st.data())
def test_kernel_matches_the_reference(drawn, data):
    text, _ = drawn
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        table = to_set_valued(parse_table(text))
    position = table.position
    names = table.attribute_names
    # Any subset in declaration order; the empty one is the one-block partition.
    subset = data.draw(st.lists(st.sampled_from(names), unique=True))
    attrs = table.attr_subset(subset) if subset else ()
    members = frozenset(data.draw(st.lists(st.sampled_from(table.objects), unique=True)))
    regions = _ranked_regions(table, attrs, members)

    # Blocks in first-member order, members in object order, in every
    # region and across the three.
    dict_table = DictTable(table.objects, table.attributes, dict(table.cells))
    reference = [sorted(block, key=position) for block in reference_partition(dict_table, attrs)]
    for region in regions:
        blocks = list(region.values())
        assert blocks == sorted(blocks, key=lambda b: position(b[0]))
    merged = sorted((b for region in regions for b in region.values()), key=lambda b: position(b[0]))
    assert merged == reference

    # Each block lies in the region its class says.
    for block in regions[0].values():
        assert members.issuperset(block)
    for block in regions[1].values():
        assert members.isdisjoint(block)
    for block in regions[2].values():
        assert not members.issuperset(block) and not members.isdisjoint(block)

    # Each key is the domain-rank tuple of every member's row.
    for region in regions:
        for key, block in region.items():
            for x in block:
                row = table.known_row(x)
                assert key == tuple(table.schema(a).domain.index(row[a]) for a in attrs)

    # Sorted keys are the rule order of the block descriptions.
    if attrs:
        order = formula_sort_key_for(tuple(map(table.schema, attrs)))
        for region in regions:
            rows = (table.known_row(region[key][0]) for key in sorted(region))
            descriptions = [object_description(row, attrs, names) for row in rows]
            assert descriptions == sorted(descriptions, key=order)
            assert len(set(map(order, descriptions))) == len(descriptions)

    # The public functions are views of the kernel.
    assert partition(table, attrs).blocks == tuple(map(frozenset, reference))
    assert regions_computational(table, attrs, members) == tuple(
        frozenset(map(frozenset, region.values())) for region in regions
    )
