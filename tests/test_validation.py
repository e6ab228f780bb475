"""The id and attribute-subset contract of every route entry point:
unknown objects, attributes and class members raise UnknownIdError, a
repeated attribute raises ValueError, each before any work starts."""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

import pytest

from threeway import (
    Atom,
    Formula,
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
FLAWS = {
    OBJECT: (Args(x="x9"), UnknownIdError),
    ATTR: (Args(attrs=("a1", "zz")), UnknownIdError),
    DUPLICATE: (Args(attrs=("a1", "a1")), ValueError),
    CLASS: (Args(members=("x1", "x99")), UnknownIdError),
}

# name -> (fixture, call, flaws the call can carry)
ENTRY_POINTS = {
    "similarity": ("setvalued8", lambda t, c: similarity(t, c.attrs, MIN, c.x, c.y), {OBJECT, ATTR, DUPLICATE}),
    "similarity_matrix": ("setvalued8", lambda t, c: similarity_matrix(t, c.attrs, MIN), {ATTR, DUPLICATE}),
    "cdes": ("setvalued8", lambda t, c: cdes(t, c.attrs, c.x), {OBJECT, ATTR, DUPLICATE}),
    "approximability": (
        "setvalued8",
        lambda t, c: approximability(t, c.attrs, MIN, c.members, c.x),
        {OBJECT, ATTR, DUPLICATE, CLASS},
    ),
    "approximability_closed": (
        "setvalued8",
        lambda t, c: approximability_closed(t, c.attrs, MIN, c.members, c.x),
        {OBJECT, ATTR, DUPLICATE, CLASS},
    ),
    "description_regions_alpha_sim": (
        "setvalued8",
        lambda t, c: description_regions_alpha_sim(t, c.attrs, ALPHA, c.members, MIN),
        {ATTR, DUPLICATE, CLASS},
    ),
    "description_regions_approx": (
        "setvalued8",
        lambda t, c: description_regions_approx(t, c.attrs, ALPHA, c.members, MIN),
        {ATTR, DUPLICATE, CLASS},
    ),
    "description_regions_alpha_meaning": (
        "setvalued8",
        lambda t, c: description_regions_alpha_meaning(t, c.attrs, ALPHA, c.members, MIN),
        {ATTR, DUPLICATE, CLASS},
    ),
    "description_regions_confidence": (
        "setvalued8",
        lambda t, c: description_regions_confidence(t, c.attrs, ALPHA, c.members, MIN),
        {ATTR, DUPLICATE, CLASS},
    ),
    "description_regions_complete": (
        "complete6",
        lambda t, c: description_regions_complete(t, c.attrs, c.members),
        {ATTR, DUPLICATE, CLASS},
    ),
    "regions_conceptual": (
        "complete6",
        lambda t, c: regions_conceptual(t, c.attrs, c.members),
        {ATTR, DUPLICATE, CLASS},
    ),
    "regions_general": (
        "complete6",
        lambda t, c: regions_general(t, c.attrs, c.members),
        {ATTR, DUPLICATE, CLASS},
    ),
    "cdef_family": ("complete6", lambda t, c: cdef_family(t, c.attrs), {ATTR, DUPLICATE}),
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
    "partition": ("complete6", lambda t, c: partition(t, c.attrs), {ATTR, DUPLICATE}),
    "regions_computational": (
        "complete6",
        lambda t, c: regions_computational(t, c.attrs, c.members),
        {ATTR, DUPLICATE, CLASS},
    ),
    "oracle_similarity": (
        "setvalued8",
        lambda t, c: oracle_similarity(t, c.attrs, c.x, c.y),
        {OBJECT, ATTR, DUPLICATE},
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
    with pytest.raises(error):
        call(request.getfixturevalue(fixture), args)
