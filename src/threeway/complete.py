"""Three-way decision on complete tables.

Covers the classical route (equivalence classes and structured regions),
the conjunctive-language route (definable-set families and their
regions), the Boolean-algebra closure connecting the two, and the
formula-level description regions used for rule derivation. The language
route runs on the satisfiability search under MIN: on a complete table
every degree is 0 or 1, and a meaning set is the alpha-meaning set at 1.
"""

from __future__ import annotations

import itertools
from typing import Iterable, NamedTuple, Sequence

from .errors import GuardExceededError, IncompleteTableError, UnknownIdError
from .fuzzy import TNorm
from .language import DEFAULT_MAX_FORMULAS, Formula
from .satisfiability import description_regions_alpha_meaning, strict_degrees
from .table import SetValuedTable, is_complete

#: Default cap on union-closure computations, counted in subsets of the family.
DEFAULT_MAX_CLOSURE = 2**16


class Partition(NamedTuple):
    """Disjoint nonempty blocks covering the universe, in table order."""

    blocks: tuple[frozenset[str], ...]

    def block_of(self, x: str) -> frozenset[str]:
        for block in self.blocks:
            if x in block:
                return block
        raise UnknownIdError(f"object {x!r} not in this partition")

    @property
    def block_family(self) -> frozenset[frozenset[str]]:
        return frozenset(self.blocks)


class StructuredRegions(NamedTuple):
    """Positive, negative, and boundary parts of a family of building blocks."""

    pos: frozenset[frozenset[str]]
    neg: frozenset[frozenset[str]]
    bnd: frozenset[frozenset[str]]


class DescribedSet(NamedTuple):
    """An object set together with every formula whose meaning set it is."""

    members: frozenset[str]
    descriptions: frozenset[Formula]


def _require_complete(t: SetValuedTable) -> None:
    if not is_complete(t):
        raise IncompleteTableError("operation requires a complete table")


def _split(t: SetValuedTable, members: frozenset[str], items: Iterable, objects_of=lambda y: y) -> tuple[frozenset, ...]:
    """POS, NEG and BND of ``items``: those whose object set lies inside the
    class ``members``, inside its complement, or neither. Items with the
    empty set are dropped."""
    complement = frozenset(t.objects) - members
    groups = (set(), set(), set())
    for item in items:
        y = objects_of(item)
        if y:
            groups[0 if y <= members else 1 if y <= complement else 2].add(item)
    return tuple(map(frozenset, groups))


def partition(t: SetValuedTable, attrs: Sequence[str]) -> Partition:
    """Group objects that agree on every attribute of ``attrs``.

    The empty attribute set yields the single block containing the whole
    universe (all objects vacuously agree).
    """
    _require_complete(t)
    attrs = t.attr_subset(attrs) if attrs else ()
    # Equal cells of a column share one code.
    keys = zip(*(t.column(a)[1] for a in attrs)) if attrs else itertools.repeat(())
    keyed: dict[tuple[int, ...], list[str]] = {}
    for x, key in zip(t.objects, keys):
        keyed.setdefault(key, []).append(x)
    # Dicts keep insertion order, so blocks follow their first member.
    return Partition(tuple(frozenset(block) for block in keyed.values()))


def regions_computational(
    t: SetValuedTable, attrs: Sequence[str], x_set: Iterable[str]
) -> StructuredRegions:
    """Split the partition blocks by inclusion in the class or its complement."""
    members = t.class_set(x_set)
    return StructuredRegions(*_split(t, members, partition(t, attrs).blocks))


def cdef_family(
    t: SetValuedTable,
    attrs: Sequence[str],
    max_formulas: int = DEFAULT_MAX_FORMULAS,
) -> frozenset[DescribedSet]:
    """All conjunctively definable sets, each with its full description set."""
    _require_complete(t)
    grouped: dict[frozenset[str], set[Formula]] = {}
    for p, ns in strict_degrees(t, attrs, TNorm.MIN, max_formulas):
        grouped.setdefault(frozenset(ns), set()).add(p)
    return frozenset(
        DescribedSet(members, frozenset(formulas)) for members, formulas in grouped.items()
    )


def regions_conceptual(
    t: SetValuedTable,
    attrs: Sequence[str],
    x_set: Iterable[str],
    max_formulas: int = DEFAULT_MAX_FORMULAS,
) -> tuple[frozenset[DescribedSet], frozenset[DescribedSet]]:
    """Nonempty definable sets included in the class / in its complement."""
    members = t.class_set(x_set)
    pos, neg, _ = _split(t, members, cdef_family(t, attrs, max_formulas), lambda ds: ds.members)
    return pos, neg


def boolean_algebra(
    blocks: Iterable[frozenset[str]],
    max_subsets: int = DEFAULT_MAX_CLOSURE,
) -> frozenset[frozenset[str]]:
    """Close a set family under arbitrary unions by subset enumeration.

    The union of the empty subfamily contributes the empty set. Input
    duplicates are collapsed before the guard is applied.
    """
    family = tuple(set(blocks))
    if 2 ** len(family) > max_subsets:
        raise GuardExceededError(
            f"2^{len(family)} closure subsets exceed the cap of {max_subsets}"
        )
    out: set[frozenset[str]] = set()
    for size in range(len(family) + 1):
        for combo in itertools.combinations(family, size):
            out.add(frozenset().union(*combo))
    return frozenset(out)


def regions_general(
    t: SetValuedTable,
    attrs: Sequence[str],
    x_set: Iterable[str],
    max_subsets: int = DEFAULT_MAX_CLOSURE,
) -> StructuredRegions:
    """Regions over the union-closed definable family of the partition blocks.

    Nonempty definable sets are split by inclusion; the boundary is the
    complement within the family, never computed independently.
    """
    members = t.class_set(x_set)
    definable = boolean_algebra(partition(t, attrs).blocks, max_subsets)
    return StructuredRegions(*_split(t, members, definable))


def description_regions_complete(
    t: SetValuedTable,
    attrs: Sequence[str],
    x_set: Iterable[str],
    max_formulas: int = DEFAULT_MAX_FORMULAS,
) -> tuple[frozenset[Formula], frozenset[Formula]]:
    """Formula-level regions on a complete table.

    The positive region collects every formula whose nonempty meaning set
    lies inside the class; the negative region is symmetric with the
    complement. The boundary is implicit (everything else). These are the
    alpha-meaning regions at alpha 1 under MIN.
    """
    _require_complete(t)
    return description_regions_alpha_meaning(t, attrs, 1, x_set, TNorm.MIN, max_formulas)
