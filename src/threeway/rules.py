"""Turn description regions into three-way decision rule sets.

Acceptance rules come from the positive region minus the negative one,
rejection rules from the symmetric difference, and formulas caught in
both become explicit non-commitment rules so the conflict stays visible.
Anything not matched by a rule falls to the non-commitment default.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from itertools import repeat
from typing import Callable, Iterable, Mapping, NamedTuple

from .errors import IncompleteTableError
from .fuzzy import format_exact
from .language import Formula, formula_json, render_formula, satisfies, write_json


class Decision(enum.Enum):
    ACCEPT = "accept"
    REJECT = "reject"
    NON_COMMIT = "non-commit"


_MARKS = {Decision.ACCEPT: "(A)", Decision.REJECT: "(R)", Decision.NON_COMMIT: "(N)"}


class Provenance(NamedTuple):
    """Where a rule came from: method id, T-norm name, threshold, class label."""

    method: str
    tnorm: str | None = None
    alpha: Fraction | None = None
    class_label: str = ""


class Rule(NamedTuple):
    lhs: Formula
    decision: Decision
    provenance: Provenance


class RuleSet(NamedTuple):
    """Ordered rules plus the implicit non-commitment default."""

    rules: tuple[Rule, ...]
    default: Decision = Decision.NON_COMMIT

    def by_decision(self, decision: Decision) -> tuple[Rule, ...]:
        return tuple(r for r in self.rules if r.decision == decision)


def _default_key(p: Formula):
    return (len(p.atoms), p.atoms)


def derive_rules(
    dpos: Iterable[Formula],
    dneg: Iterable[Formula],
    provenance: Provenance,
    sort_key: Callable[[Formula], object] | None = None,
) -> RuleSet:
    """Split two formula regions into accept / reject / explicit
    non-commitment rules.

    ``sort_key`` fixes the rule order; callers that enumerated the
    language pass its enumeration key so output order is reproducible.
    """
    pos = frozenset(dpos)
    neg = frozenset(dneg)
    key = sort_key or _default_key
    groups = ((Decision.ACCEPT, pos - neg), (Decision.REJECT, neg - pos), (Decision.NON_COMMIT, pos & neg))
    rules: list[Rule] = []
    for decision, lhs in groups:
        rules += map(Rule, sorted(lhs, key=key), repeat(decision), repeat(provenance))
    return RuleSet(tuple(rules))


def apply_rules(rs: RuleSet, row: Mapping[str, str]) -> Decision:
    """Classify a complete row.

    Accept if only acceptance rules match, reject if only rejection rules
    match, non-commit on conflict or when nothing matches. The row must
    assign a value to every attribute any rule mentions; classifying
    incomplete rows is undefined.
    """
    mentioned = {atom.attr for rule in rs.rules for atom in rule.lhs.atoms}
    missing = mentioned - set(row)
    if missing:
        raise IncompleteTableError(f"row lacks values on {sorted(missing)!r}")
    matched = {rule.decision for rule in rs.rules if satisfies(row, rule.lhs)} - {Decision.NON_COMMIT}
    if len(matched) == 1:
        return matched.pop()
    return Decision.NON_COMMIT if matched else rs.default


def merge(rulesets: Iterable[RuleSet]) -> RuleSet:
    """Combine rule sets derived from different attribute subsets.

    Per formula and decision the first rule counts. Accept plus reject
    becomes non-commit with the accept rule's provenance; a lone accept or
    reject wins over an explicit non-commit.
    """
    first: dict[Formula, dict[Decision, Rule]] = {}
    for rs in rulesets:
        for rule in rs.rules:
            first.setdefault(rule.lhs, {}).setdefault(rule.decision, rule)
    rules = []
    for p, by in first.items():
        accept, reject = by.get(Decision.ACCEPT), by.get(Decision.REJECT)
        if accept and reject:
            rules.append(Rule(p, Decision.NON_COMMIT, accept.provenance))
        else:
            rules.append(accept or reject or by[Decision.NON_COMMIT])
    rules.sort(key=lambda r: _default_key(r.lhs))
    return RuleSet(tuple(rules))


def render(rs: RuleSet, fmt: str = "text") -> str:
    """Serialize a rule set; output bytes are deterministic."""
    if fmt == "text":
        lines = []
        for decision in (Decision.ACCEPT, Decision.REJECT, Decision.NON_COMMIT):
            mark = _MARKS[decision] + " "
            lines += [mark + render_formula(rule.lhs) for rule in rs.by_decision(decision)]
        lines.append(f"{_MARKS[rs.default]} otherwise")
        return "\n".join(lines) + "\n"
    if fmt == "json":
        parts: list[str] = []
        write_json(_payload(rs), parts.append)
        return "".join(parts)
    raise ValueError(f"unknown format {fmt!r}")


def rules_json(rs: RuleSet) -> dict:
    """JSON-ready form following the documented schema."""
    return _payload(rs, formula_json)


def _payload(rs: RuleSet, lhs: Callable[[Formula], object] = lambda p: p) -> dict:
    """:func:`rules_json` with each rule's left side as ``lhs`` of it; by
    default the :class:`Formula` itself, a leaf of ``write_json``."""
    prov = rs.rules[0].provenance if rs.rules else Provenance(method="")
    return {
        "method": prov.method,
        "tnorm": prov.tnorm,
        "alpha": None if prov.alpha is None else format_exact(prov.alpha),
        "class": prov.class_label,
        "rules": [{"lhs": lhs(rule.lhs), "decision": rule.decision.value} for rule in rs.rules],
        "default": rs.default.value,
    }
