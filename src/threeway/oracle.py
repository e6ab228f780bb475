"""Independent brute-force verification.

Everything in this module recomputes its expected values from first
principles with code paths separate from the main implementations: a
possible-world counter for product-kind degrees, a row-grouping
partitioner, a direct conjunctive-family enumeration, and a fixpoint
union closure. The minimum kind is deliberately not world-checked: a
minimum of per-attribute probabilities is not a joint probability, so
only axioms and closed forms can vouch for it.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .errors import GuardExceededError, IncompleteTableError
from .fuzzy import ZERO, TNorm, as_degree
from .language import Atom, Formula
from .similarity import alpha_similarity_class, description_regions_alpha_sim, similarity_matrix
from .satisfiability import strict_degrees
from .table import DEFAULT_MAX_WORLDS, SetValuedTable, is_complete

#: Default cap on union-closure size, in number of closed sets.
DEFAULT_MAX_CLOSURE_SETS = 2**16


class OracleReport(NamedTuple):
    """One check: passes iff expected equals actual exactly."""

    check: str
    inputs: str
    expected: object
    actual: object

    @property
    def passed(self) -> bool:
        return self.expected == self.actual


def _normalized_attrs(st: SetValuedTable, attrs: Sequence[str] | None) -> tuple[str, ...]:
    return st.attribute_names if attrs is None else st.attr_subset(attrs)


def oracle_similarity(
    st: SetValuedTable,
    attrs: Sequence[str],
    x: str,
    y: str,
    max_worlds: int = DEFAULT_MAX_WORLDS,
) -> Fraction:
    """Fraction of joint completions of rows ``x`` and ``y`` (restricted to
    ``attrs``) in which the two completed rows agree on every attribute.

    Applies to distinct objects only; self-similarity is definitional.
    """
    attrs = _normalized_attrs(st, attrs)
    if x == y:
        raise ValueError("joint-world similarity is defined for distinct objects only")
    cells_x = [sorted(st.cell(x, a)) for a in attrs]
    cells_y = [sorted(st.cell(y, a)) for a in attrs]
    total = 1
    for cell in cells_x + cells_y:
        total *= len(cell)
    if total > max_worlds:
        raise GuardExceededError(f"{total} joint worlds exceed the cap of {max_worlds}")
    agree = 0
    for row_x in itertools.product(*cells_x):
        for row_y in itertools.product(*cells_y):
            if row_x == row_y:
                agree += 1
    return Fraction(agree, total)


def oracle_sat_degree(
    st: SetValuedTable,
    x: str,
    p: Formula,
    max_worlds: int = DEFAULT_MAX_WORLDS,
) -> Fraction:
    """Fraction of completions of row ``x`` (restricted to the formula's
    attributes) whose completed values classically satisfy ``p``."""
    st.check_objects(x)
    cells = [sorted(st.cell(x, atom.attr)) for atom in p.atoms]
    total = 1
    for cell in cells:
        total *= len(cell)
    if total > max_worlds:
        raise GuardExceededError(f"{total} worlds exceed the cap of {max_worlds}")
    hits = 0
    for chosen in itertools.product(*cells):
        if all(value == atom.value for value, atom in zip(chosen, p.atoms)):
            hits += 1
    return Fraction(hits, total)


def _partition_blocks(st: SetValuedTable, attrs: Sequence[str]) -> frozenset[frozenset[str]]:
    if not is_complete(st):
        raise IncompleteTableError("brute-force partition requires a complete table")
    groups: dict[tuple[str, ...], set[str]] = {}
    for obj in st.objects:
        key = tuple(next(iter(st.cell(obj, a))) for a in attrs)
        groups.setdefault(key, set()).add(obj)
    return frozenset(frozenset(g) for g in groups.values())


def _conjunctive_sets(st: SetValuedTable, attrs: Sequence[str]) -> frozenset[frozenset[str]]:
    """Meaning sets of every conjunctive value choice, enumerated directly."""
    if not is_complete(st):
        raise IncompleteTableError("brute-force families require a complete table")
    per_attr: list[list[str | None]] = []
    for a in attrs:
        per_attr.append([None] + list(st.schema(a).domain))
    family: set[frozenset[str]] = set()
    for combo in itertools.product(*per_attr):
        if all(v is None for v in combo):
            continue
        members = set()
        for obj in st.objects:
            if all(
                v is None or st.cell(obj, a) == frozenset({v})
                for a, v in zip(attrs, combo)
            ):
                members.add(obj)
        family.add(frozenset(members))
    return frozenset(family)


def _union_closure(
    family: Iterable[frozenset[str]], max_sets: int = DEFAULT_MAX_CLOSURE_SETS
) -> frozenset[frozenset[str]]:
    """Close a family under arbitrary unions by fixpoint iteration."""
    generators = set(family)
    closed: set[frozenset[str]] = {frozenset()} | generators
    changed = True
    while changed:
        changed = False
        fresh = set()
        for left in closed:
            for right in generators:
                union = left | right
                if union not in closed and union not in fresh:
                    fresh.add(union)
        if fresh:
            if len(closed) + len(fresh) > max_sets:
                raise GuardExceededError(f"union closure exceeds the cap of {max_sets} sets")
            closed |= fresh
            changed = True
    return frozenset(closed)


def oracle_closure_equality(
    st: SetValuedTable,
    attrs: Sequence[str] | None = None,
    max_sets: int = DEFAULT_MAX_CLOSURE_SETS,
) -> OracleReport:
    """Compare the union closures of the partition blocks and of the
    conjunctively definable family; they must be the same set family."""
    attrs = _normalized_attrs(st, attrs)
    from_blocks = _union_closure(_partition_blocks(st, attrs), max_sets)
    from_formulas = _union_closure(_conjunctive_sets(st, attrs), max_sets)
    return OracleReport(
        check="union-closure-equality",
        inputs=f"attrs={','.join(attrs)}",
        expected=from_blocks,
        actual=from_formulas,
    )


def oracle_classical_reduction(
    st: SetValuedTable,
    attrs: Sequence[str],
    x_set: Iterable[str],
    alpha,
) -> OracleReport:
    """On a complete table, thresholded similarity classes must coincide
    with equivalence classes for any positive threshold, and the
    similarity-route description regions must equal the descriptions of
    the included blocks. The class is checked first, then the attributes,
    then the threshold, as in the region builders."""
    members = st.class_set(x_set)
    attrs = _normalized_attrs(st, attrs)
    threshold = as_degree(alpha)
    if threshold == 0:
        raise ValueError("classical reduction holds for thresholds in (0, 1] only")
    complement = frozenset(st.objects) - members
    blocks = _partition_blocks(st, attrs)
    block_of = {obj: block for block in blocks for obj in block}

    def block_description(block: frozenset[str]) -> Formula:
        obj = next(iter(block))
        return Formula(tuple(Atom(a, next(iter(st.cell(obj, a)))) for a in attrs))

    expected = {
        "classes": {obj: block_of[obj] for obj in st.objects},
        "dpos": frozenset(block_description(b) for b in blocks if b <= members),
        "dneg": frozenset(block_description(b) for b in blocks if b <= complement),
    }
    actual = {}
    for kind in (TNorm.MIN, TNorm.PRODUCT):
        matrix = similarity_matrix(st, attrs, kind)
        classes = {obj: alpha_similarity_class(matrix, obj, threshold) for obj in st.objects}
        dpos, dneg = description_regions_alpha_sim(st, attrs, threshold, members, kind)
        actual[kind.value] = {"classes": classes, "dpos": dpos, "dneg": dneg}
    return OracleReport(
        check="classical-reduction",
        inputs=f"attrs={','.join(attrs)} alpha={threshold}",
        expected={kind.value: expected for kind in (TNorm.MIN, TNorm.PRODUCT)},
        actual=actual,
    )


def run_all_checks(
    st: SetValuedTable,
    attrs: Sequence[str] | None = None,
    x_set: Iterable[str] | None = None,
    alpha=None,
    max_worlds: int = DEFAULT_MAX_WORLDS,
) -> list[OracleReport]:
    """Run every applicable check for a table.

    Product-kind similarity and satisfiability degrees are compared with
    their possible-world fractions on every object pair and every strict
    formula. Both are read from the kernels the region builders and the
    CLI run on: one ``similarity_matrix`` and one ``strict_degrees`` per
    call. Complete tables
    additionally get the closure-equality check on every nonempty
    attribute subset and the classical-reduction check. When no class is
    supplied, the first half of the objects is used; the default
    threshold is 1/2.
    """
    attrs = _normalized_attrs(st, attrs)
    reports: list[OracleReport] = []
    matrix = similarity_matrix(st, attrs, TNorm.PRODUCT)
    for i, x in enumerate(st.objects):
        for y in st.objects[i + 1 :]:
            reports.append(
                OracleReport(
                    check="similarity-product-vs-worlds",
                    inputs=f"{x},{y}",
                    expected=oracle_similarity(st, attrs, x, y, max_worlds),
                    actual=matrix.degree(x, y),
                )
            )
    for p, ns in strict_degrees(st, attrs, TNorm.PRODUCT):
        for x in st.objects:
            reports.append(
                OracleReport(
                    check="sat-degree-product-vs-worlds",
                    inputs=f"{x} |= {p}",
                    expected=oracle_sat_degree(st, x, p, max_worlds),
                    actual=Fraction(1, ns[x]) if x in ns else ZERO,
                )
            )
    if is_complete(st):
        for size in range(1, len(attrs) + 1):
            for combo in itertools.combinations(attrs, size):
                reports.append(oracle_closure_equality(st, combo))
        members = frozenset(x_set) if x_set is not None else frozenset(
            st.objects[: (len(st.objects) + 1) // 2]
        )
        threshold = as_degree(alpha) if alpha is not None else Fraction(1, 2)
        reports.append(oracle_classical_reduction(st, attrs, members, threshold))
    return reports
