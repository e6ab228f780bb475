"""The id and attribute-subset contract of every route entry point:
unknown objects, attributes and class members raise UnknownIdError, a
repeated attribute or an empty subset raises ValueError, each before any
work starts. ``partition`` alone reads the empty subset as the one-block
partition. The region builders check their inputs in one order: class,
attributes, language-size guard (satisfiability route), threshold,
T-norm."""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

import pytest

from threeway import (
    Atom,
    Formula,
    GuardExceededError,
    TNorm,
    UnknownIdError,
    approximability,
    approximability_closed,
    cdef_family,
    cdes,
    confidence,
    confidence_closed,
    description_regions_alpha_meaning,
    description_regions_alpha_sim,
    description_regions_approx,
    description_regions_complete,
    description_regions_confidence,
    oracle_classical_reduction,
    oracle_closure_equality,
    oracle_sat_degree,
    oracle_similarity,
    partition,
    possible_worlds,
    regions_computational,
    regions_conceptual,
    regions_general,
    sat_degree,
    similarity,
    similarity_matrix,
)
from threeway.satisfiability import strict_degrees

MIN = TNorm.MIN
ALPHA = Fraction(3, 5)


class Args(NamedTuple):
    x: str = "x1"
    y: str = "x2"
    attrs: tuple[str, ...] = ("a1", "a2")
    members: tuple[str, ...] = ("x1", "x3")


def formula(attrs) -> Formula:
    # "1" lies in every domain of both fixture tables.
    return Formula(tuple(Atom(a, "1") for a in attrs))


OBJECT, ATTR, DUPLICATE, CLASS = "unknown object", "unknown attribute", "duplicate attribute", "unknown class member"
EMPTY = "empty attribute subset"
FLAWS = {
    OBJECT: (Args(x="x9"), UnknownIdError),
    ATTR: (Args(attrs=("a1", "zz")), UnknownIdError),
    DUPLICATE: (Args(attrs=("a1", "a1")), ValueError),
    CLASS: (Args(members=("x1", "x99")), UnknownIdError),
    EMPTY: (Args(attrs=()), ValueError),
}
MESSAGES = {EMPTY: "^attribute subset must be nonempty$"}

# name -> (fixture, call, flaws the call can carry)
ENTRY_POINTS = {
    "similarity": ("setvalued8", lambda t, c: similarity(t, c.attrs, MIN, c.x, c.y), {OBJECT, ATTR, DUPLICATE, EMPTY}),
    "similarity_matrix": ("setvalued8", lambda t, c: similarity_matrix(t, c.attrs, MIN), {ATTR, DUPLICATE, EMPTY}),
    "cdes": ("setvalued8", lambda t, c: cdes(t, c.attrs, c.x), {OBJECT, ATTR, DUPLICATE, EMPTY}),
    "approximability": (
        "setvalued8",
        lambda t, c: approximability(t, c.attrs, MIN, c.members, c.x),
        {OBJECT, ATTR, DUPLICATE, CLASS, EMPTY},
    ),
    "approximability_closed": (
        "setvalued8",
        lambda t, c: approximability_closed(t, c.attrs, MIN, c.members, c.x),
        {OBJECT, ATTR, DUPLICATE, CLASS, EMPTY},
    ),
    "description_regions_alpha_sim": (
        "setvalued8",
        lambda t, c: description_regions_alpha_sim(t, c.attrs, ALPHA, c.members, MIN),
        {ATTR, DUPLICATE, CLASS, EMPTY},
    ),
    "description_regions_approx": (
        "setvalued8",
        lambda t, c: description_regions_approx(t, c.attrs, ALPHA, c.members, MIN),
        {ATTR, DUPLICATE, CLASS, EMPTY},
    ),
    "description_regions_alpha_meaning": (
        "setvalued8",
        lambda t, c: description_regions_alpha_meaning(t, c.attrs, ALPHA, c.members, MIN),
        {ATTR, DUPLICATE, CLASS, EMPTY},
    ),
    "description_regions_confidence": (
        "setvalued8",
        lambda t, c: description_regions_confidence(t, c.attrs, ALPHA, c.members, MIN),
        {ATTR, DUPLICATE, CLASS, EMPTY},
    ),
    "description_regions_complete": (
        "complete6",
        lambda t, c: description_regions_complete(t, c.attrs, c.members),
        {ATTR, DUPLICATE, CLASS, EMPTY},
    ),
    "regions_conceptual": (
        "complete6",
        lambda t, c: regions_conceptual(t, c.attrs, c.members),
        {ATTR, DUPLICATE, CLASS, EMPTY},
    ),
    "regions_general": (
        "complete6",
        lambda t, c: regions_general(t, c.attrs, c.members),
        {ATTR, DUPLICATE, CLASS},
    ),
    "cdef_family": ("complete6", lambda t, c: cdef_family(t, c.attrs), {ATTR, DUPLICATE, EMPTY}),
    "sat_degree": ("setvalued8", lambda t, c: sat_degree(t, c.x, formula(c.attrs), MIN), {OBJECT, ATTR}),
    "confidence": (
        "setvalued8",
        lambda t, c: confidence(t, formula(c.attrs), c.members, MIN),
        {ATTR, CLASS},
    ),
    "confidence_closed": (
        "setvalued8",
        lambda t, c: confidence_closed(t, formula(c.attrs), c.members, MIN),
        {ATTR, CLASS},
    ),
    "strict_degrees": ("setvalued8", lambda t, c: strict_degrees(t, c.attrs, MIN), {ATTR, DUPLICATE, EMPTY}),
    "partition": ("complete6", lambda t, c: partition(t, c.attrs), {ATTR, DUPLICATE}),
    "regions_computational": (
        "complete6",
        lambda t, c: regions_computational(t, c.attrs, c.members),
        {ATTR, DUPLICATE, CLASS},
    ),
    "oracle_similarity": (
        "setvalued8",
        lambda t, c: oracle_similarity(t, c.attrs, c.x, c.y),
        {OBJECT, ATTR, DUPLICATE, EMPTY},
    ),
    "oracle_closure_equality": ("complete6", lambda t, c: oracle_closure_equality(t, c.attrs), {ATTR, DUPLICATE, EMPTY}),
    "oracle_classical_reduction": (
        "complete6",
        lambda t, c: oracle_classical_reduction(t, c.attrs, c.members, ALPHA),
        {ATTR, DUPLICATE, CLASS, EMPTY},
    ),
    "oracle_sat_degree": ("setvalued8", lambda t, c: oracle_sat_degree(t, c.x, formula(c.attrs)), {OBJECT, ATTR}),
    "possible_worlds": ("setvalued8", lambda t, c: possible_worlds(t, rows=[c.x, c.y]), {OBJECT}),
}

CASES = [(name, flaw) for name, (_, _, flaws) in ENTRY_POINTS.items() for flaw in FLAWS if flaw in flaws]


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_valid_arguments_pass(request, name):
    fixture, call, _ = ENTRY_POINTS[name]
    call(request.getfixturevalue(fixture), Args())


@pytest.mark.parametrize("name,flaw", CASES, ids=[f"{n}-{f}" for n, f in CASES])
def test_invalid_argument_raises(request, name, flaw):
    fixture, call, _ = ENTRY_POINTS[name]
    args, error = FLAWS[flaw]
    with pytest.raises(error, match=MESSAGES.get(flaw)):
        call(request.getfixturevalue(fixture), args)


def test_empty_subset_is_one_block(complete6):
    universe = frozenset(complete6.objects)
    assert partition(complete6, ()).blocks == (universe,)
    split = regions_computational(complete6, (), Args().members)
    assert (split.pos, split.neg, split.bnd) == (frozenset(), frozenset(), {universe})
    assert regions_general(complete6, (), Args().members) == split
    # The one block lies inside the class when the class is everything.
    whole = regions_computational(complete6, (), complete6.objects)
    assert (whole.pos, whole.neg, whole.bnd) == ({universe}, frozenset(), frozenset())
    assert regions_general(complete6, (), complete6.objects) == whole


# Flaws in check order, each as (keyword overrides, error, message).
ORDERED_FLAWS = {
    "class": ({"x_set": ("x1", "x99")}, UnknownIdError, "class contains unknown objects"),
    "attributes": ({"attrs": ()}, ValueError, "attribute subset must be nonempty"),
    "guard": ({"max_formulas": 0}, GuardExceededError, "exceed the cap of 0"),
    "threshold": ({"alpha": Fraction(3, 2)}, ValueError, "outside"),
    "kind": ({"kind": "min"}, ValueError, "unknown T-norm kind"),
}
BUILDERS = {
    description_regions_alpha_sim: ("class", "attributes", "threshold", "kind"),
    description_regions_approx: ("class", "attributes", "threshold", "kind"),
    description_regions_alpha_meaning: ("class", "attributes", "guard", "threshold", "kind"),
    description_regions_confidence: ("class", "attributes", "guard", "threshold", "kind"),
}
ORDER_CASES = [
    (builder, first, later)
    for builder, order in BUILDERS.items()
    for i, first in enumerate(order)
    for later in order[i + 1 :]
]


@pytest.mark.parametrize(
    "builder,first,later",
    ORDER_CASES,
    ids=[f"{b.__name__}-{f}-before-{l}" for b, f, l in ORDER_CASES],
)
def test_builders_check_inputs_in_order(setvalued8, builder, first, later):
    """With two flawed inputs, the one checked first is reported."""
    args = {"attrs": ("a1", "a2"), "alpha": ALPHA, "x_set": ("x1", "x3"), "kind": MIN}
    args.update(ORDERED_FLAWS[later][0])
    args.update(ORDERED_FLAWS[first][0])
    _, error, message = ORDERED_FLAWS[first]
    with pytest.raises(error, match=message):
        builder(setvalued8, **args)
