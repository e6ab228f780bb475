"""Differential test of :func:`merge` and :func:`apply_rules`.

Both keep one index per formula and one set of matched decisions. They
are compared here with copies of the versions they replaced, which kept
one dict per decision plus a conflict set, and scanned the rules once
for accept and once for reject. The rule sets drawn range over a small
schema, so that formulas repeat within and across sources, and cover
every decision, several provenances and defaults, and empty sets.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, Mapping

import pytest
from hypothesis import given, settings, strategies as st

from threeway import (
    Atom,
    Decision,
    Formula,
    IncompleteTableError,
    Provenance,
    Rule,
    RuleSet,
    apply_rules,
    merge,
)
from threeway.language import satisfies

DIFFERENTIAL = settings(max_examples=400, deadline=None, derandomize=True)

DOMAIN = {"a": ("0", "1"), "b": ("0", "1"), "c": ("0", "1", "2")}

# Every formula over the schema, in attribute-declaration order.
FORMULAS = [
    Formula(Atom(a, v) for a, v in zip(attrs, values))
    for size in (1, 2, 3)
    for attrs in itertools.combinations(DOMAIN, size)
    for values in itertools.product(*(DOMAIN[a] for a in attrs))
]

PROVENANCES = [
    Provenance("alpha-sim", "min", Fraction(1, 3), "x1"),
    Provenance("confidence", "prod", Fraction(3, 5), "x2"),
    Provenance("eq"),
]


# --------------------------------------------------------------------------
# References: merge and apply_rules as they were before the one index.


def _default_key(p: Formula):
    return (len(p.atoms), p.atoms)


def ref_apply_rules(rs: RuleSet, row: Mapping[str, str]) -> Decision:
    mentioned = {atom.attr for rule in rs.rules for atom in rule.lhs.atoms}
    missing = mentioned - set(row)
    if missing:
        raise IncompleteTableError(f"row lacks values on {sorted(missing)!r}")
    accepted = any(
        satisfies(row, rule.lhs) for rule in rs.rules if rule.decision is Decision.ACCEPT
    )
    rejected = any(
        satisfies(row, rule.lhs) for rule in rs.rules if rule.decision is Decision.REJECT
    )
    if accepted and rejected:
        return Decision.NON_COMMIT
    if accepted:
        return Decision.ACCEPT
    if rejected:
        return Decision.REJECT
    return rs.default


def ref_merge(rulesets: Iterable[RuleSet]) -> RuleSet:
    pos: dict[Formula, Rule] = {}
    neg: dict[Formula, Rule] = {}
    other: dict[Formula, Rule] = {}
    for rs in rulesets:
        for rule in rs.rules:
            target = {
                Decision.ACCEPT: pos,
                Decision.REJECT: neg,
                Decision.NON_COMMIT: other,
            }[rule.decision]
            target.setdefault(rule.lhs, rule)
    conflicts = set(pos) & set(neg)
    rules = [rule for p, rule in pos.items() if p not in conflicts]
    rules += [rule for p, rule in neg.items() if p not in conflicts]
    rules += [
        Rule(p, Decision.NON_COMMIT, pos[p].provenance) for p in conflicts
    ]
    rules += [rule for p, rule in other.items() if p not in conflicts and p not in pos and p not in neg]
    rules.sort(key=lambda r: _default_key(r.lhs))
    return RuleSet(tuple(rules))


# --------------------------------------------------------------------------
# Strategies.

rules = st.builds(
    Rule, st.sampled_from(FORMULAS), st.sampled_from(Decision), st.sampled_from(PROVENANCES)
)
rulesets = st.builds(
    RuleSet, st.lists(rules, max_size=8).map(tuple), st.sampled_from(Decision)
)
sources = st.lists(rulesets, max_size=4)
rows = st.fixed_dictionaries({a: st.sampled_from(values) for a, values in DOMAIN.items()})


@DIFFERENTIAL
@given(sources)
def test_merge_matches_reference(rss):
    assert merge(rss) == ref_merge(rss)


@DIFFERENTIAL
@given(sources, rows)
def test_apply_rules_matches_reference(rss, row):
    for rs in [*rss, merge(rss)]:
        assert apply_rules(rs, row) is ref_apply_rules(rs, row)


@DIFFERENTIAL
@given(rulesets.filter(lambda rs: rs.rules), rows, st.data())
def test_incomplete_row_raises_like_reference(rs, row, data):
    attr = data.draw(st.sampled_from(sorted({a.attr for rule in rs.rules for a in rule.lhs.atoms})))
    del row[attr]
    with pytest.raises(IncompleteTableError) as new:
        apply_rules(rs, row)
    with pytest.raises(IncompleteTableError) as ref:
        ref_apply_rules(rs, row)
    assert str(new.value) == str(ref.value)
