"""The satisfiability search's rank-ordered regions, which the CLI prints
with no sort and no rule derivation, on drawn tables with ``{NA}``,
partial and whole-domain cells and on complete tables, under both
T-norms, at alpha 0, 1, every attained 1/N and 1 - 1/N, and just above
each.

* The ordered lists equal the public builders' frozensets sorted by
  ``formula_sort_key_for``, and the builders equal the references.
* The accept, reject and non-commit lists of ``cli._rule_groups``, and the
  rules text and rule set made from them, equal ``derive_rules``' groups.
* Every verdict of a judge on its judge-sized ladder equals the one the
  full ladder's degrees give, and a subtree is cut only when no formula in
  it is in a region.
* ``visit`` never sees a formula with no object left when alpha > 0, and
  ``strict_degrees`` sees every formula.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import threeway.satisfiability as sat
from test_kernels import complete_tables, deep_tables, pooled_tables, reference_alpha_meaning, reference_confidence
from threeway import TNorm
from threeway.cli import _render_text, _rule_groups, _ruleset, _shown, _strip_na_atoms
from threeway.fuzzy import degree_terms
from threeway.language import STRICT, Formula, enumerate_cdl, formula_sort_key_for
from threeway.rules import Decision, Provenance, derive_rules, render
from threeway.satisfiability import description_regions_alpha_meaning, description_regions_confidence, strict_degrees

RANKED = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

#: Below every gap between two degrees the drawn tables attain.
ABOVE = Fraction(1, 10**6)

BUILDERS = {
    "alpha-meaning": (sat._alpha_meaning_ranked, description_regions_alpha_meaning, reference_alpha_meaning),
    "confidence": (sat._confidence_ranked, description_regions_confidence, reference_confidence),
}


def _full_ladder(table, attrs, kind) -> dict[tuple, dict[str, int]]:
    """Each formula's atoms and ``{object: N}`` from the full ladder."""
    return {p.atoms: ns for p, ns in strict_degrees(table, attrs, kind)}


def _alphas(degrees) -> list[Fraction]:
    """0, 1, every attained 1/N and 1 - 1/N, and just above each."""
    edges = {Fraction(1, n) for ns in degrees.values() for n in ns.values()}
    edges |= {1 - e for e in edges}
    return sorted({Fraction(0), Fraction(1)} | {e + d for e in edges for d in (0, ABOVE) if e + d <= 1})


def _verdict(method, kind, ns, objects, members, alpha) -> tuple[bool, bool]:
    """Whether the formula of degrees ``ns`` is in DPOS and in DNEG, from
    the defining forms on exact degrees."""
    if method == "alpha-meaning":
        met = {x for x in objects if alpha == 0 or x in ns and Fraction(1, ns[x]) >= alpha}
        return bool(met) and met <= members, bool(met) and not met & members
    d = {x: Fraction(1, ns[x]) if x in ns else Fraction(0) for x in objects}
    inside = [d[x] for x in objects if x in members]
    outside = [d[x] for x in objects if x not in members]

    def one_sided(pro, contra):
        if kind is TNorm.MIN:
            return min(1 - max(contra, default=0), max(pro, default=0))
        miss_pro = miss_contra = Fraction(1)
        for g in pro:
            miss_pro *= 1 - g
        for g in contra:
            miss_contra *= 1 - g
        return miss_contra * (1 - miss_pro)

    return one_sided(inside, outside) >= alpha, one_sided(outside, inside) >= alpha


def _spy(calls):
    """``_search`` recording each call's bounds and cut, and every visit
    with its levels and verdict."""
    search = sat._search

    def spied(st, attrs, kind, visit, bounds=None, skip_empty=False):
        seen = []

        def recorded(atoms, ns, bits):
            verdict = visit(atoms, ns, bits)
            seen.append((atoms, tuple(bits), verdict))
            return verdict

        calls.append((bounds, skip_empty, seen))
        return search(st, attrs, kind, recorded, bounds, skip_empty)

    return spied


def _check(table, attrs, members, kind, method, alpha):
    ranked, builder, reference = BUILDERS[method]
    degrees = _full_ladder(table, attrs, kind)
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sat, "_search", _spy(calls))
        pos, neg = ranked(table, attrs, alpha, members, kind, 10**6)
    (bounds, skip_empty, seen), = calls

    # The ordered lists are the builder's frozensets in rule order, and
    # the builder is the reference.
    key = formula_sort_key_for(tuple(map(table.schema, attrs)))
    dpos, dneg = builder(table, attrs, alpha, members, kind)
    assert (dpos, dneg) == reference(table, attrs, alpha, members, kind)
    assert list(map(Formula, pos)) == sorted(dpos, key=key)
    assert list(map(Formula, neg)) == sorted(dneg, key=key)
    # --strip-na-atoms has no {NA} atom to drop from a strict formula.
    assert _strip_na_atoms(dpos, [], attrs) == dpos and _strip_na_atoms(dneg, [], attrs) == dneg

    # The rule groups are derive_rules' groups, as atoms, texts and rules.
    provenance = Provenance(method, kind.value, alpha, "X")
    derived = derive_rules(dpos, dneg, provenance, sort_key=key)
    groups = _rule_groups(pos, neg, pos, neg)
    for decision, atoms in zip(Decision, groups):
        assert [r.lhs.atoms for r in derived.by_decision(decision)] == list(atoms)
    assert _ruleset(groups, provenance) == derived
    assert _render_text(_rule_groups(pos, neg, *_shown((pos, neg))), Decision.NON_COMMIT) == render(derived)

    # Judge-sized ladders: under MIN one rung for alpha-meaning, two for
    # confidence; each verdict is the full ladder's, and a cut subtree has
    # no formula in a region.
    a, _ = degree_terms(alpha)
    if kind is TNorm.MIN:
        assert len(bounds) <= (1 if method == "alpha-meaning" else 2)
    assert skip_empty == (a > 0)
    for atoms, bits, (in_pos, in_neg, below) in seen:
        verdict = _verdict(method, kind, degrees[atoms], table.objects, members, alpha)
        assert (bool(in_pos), bool(in_neg)) == verdict, atoms
        if not below:
            for longer, ns in degrees.items():
                if longer[: len(atoms)] == atoms and len(longer) > len(atoms):
                    assert _verdict(method, kind, ns, table.objects, members, alpha) == (False, False)
        # No empty node is visited when alpha > 0.
        assert any(bits) or not a


def _case(draw, tables):
    table, attrs, members = draw(tables())
    kind = draw(st.sampled_from(list(TNorm)))
    method = draw(st.sampled_from(sorted(BUILDERS)))
    alpha = draw(st.sampled_from(_alphas(_full_ladder(table, attrs, kind))))
    return table, attrs, members, kind, method, alpha


@pytest.mark.parametrize("tables", [pooled_tables, complete_tables])
@RANKED
@given(st.data())
def test_ranked_regions_match_the_references(tables, data):
    _check(*_case(data.draw, tables))


@settings(RANKED, max_examples=20)
@given(st.data())
def test_ranked_regions_match_the_references_deep(data):
    _check(*_case(data.draw, deep_tables))


@pytest.mark.parametrize("tables", [pooled_tables, deep_tables])
@pytest.mark.parametrize("kind", list(TNorm))
@settings(RANKED, max_examples=20)
@given(st.data())
def test_strict_degrees_visits_every_formula(tables, kind, data):
    table, attrs, _ = data.draw(tables())
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sat, "_search", _spy(calls))
        strict_degrees(table, attrs, kind)
    (bounds, skip_empty, seen), = calls
    assert bounds is None and not skip_empty
    visited = [atoms for atoms, _, _ in seen]
    assert sorted(visited) == sorted(p.atoms for p in enumerate_cdl(tuple(map(table.schema, attrs)), STRICT))
