"""Output checks, run outside the timed window.

Each op's stdout is parsed back into its two formula regions (or, for
``eq-complete``, its three block lists) and compared with values
recomputed independently on a seeded sample: the possible-world oracle
for degrees, and the closed forms for approximability and confidence.
MIN degrees are checked through the oracle attribute by attribute (or
atom by atom), since the minimum of per-attribute degrees is not a
joint probability.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction

from threeway import (
    Atom,
    Formula,
    TNorm,
    approximability_closed,
    confidence_closed,
    oracle_sat_degree,
    oracle_similarity,
    parse_degree,
    sat_degree,
    similarity,
)

#: Objects (similarity route) or formulas (satisfiability route) sampled
#: per op. Each is checked against every object of the table, so degrees
#: that are nonzero, where a wrong kernel shows, are always among them.
SAMPLE = 16


def _option(argv, flag, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def _formula(pairs) -> tuple[tuple[str, str], ...]:
    return tuple((p["attr"], p["value"]) for p in pairs)


def _text_formula(text: str) -> tuple[tuple[str, str], ...]:
    return tuple(tuple(atom.strip("()").split("=")) for atom in text.split("&"))


def parse_regions(argv, out: str):
    """(dpos, dneg) of a formula-region op, read from any output form."""
    if argv[0] == "regions" and "json" in argv:
        data = json.loads(out)
        return {_formula(f) for f in data["dpos"]}, {_formula(f) for f in data["dneg"]}
    if argv[0] == "regions":
        lines = out.splitlines()
        dpos = {_text_formula(l[5:]) for l in lines if l.startswith("DPOS ")}
        dneg = {_text_formula(l[5:]) for l in lines if l.startswith("DNEG ")}
        return dpos, dneg
    if "json" in argv:
        rules = [(r["decision"], _formula(r["lhs"])) for r in json.loads(out)["rules"]]
    else:
        marks = {"(A)": "accept", "(R)": "reject", "(N)": "non-commit"}
        rules = [
            (marks[mark], _text_formula(rest))
            for mark, rest in (l.split(" ", 1) for l in out.splitlines())
            if rest != "otherwise"
        ]
    dpos = {f for d, f in rules if d in ("accept", "non-commit")}
    dneg = {f for d, f in rules if d in ("reject", "non-commit")}
    return dpos, dneg


def _cdes(st, attrs, x):
    return {tuple(zip(attrs, values)) for values in itertools.product(*(st.cells[(x, a)] for a in attrs))}


def _sim(st, attrs, kind, x, y) -> Fraction:
    if x == y:
        return Fraction(1)
    if kind is TNorm.PRODUCT:
        return oracle_similarity(st, attrs, x, y)
    return min(oracle_similarity(st, [a], x, y) for a in attrs)


def _sat(st, x, p: Formula, kind) -> Fraction:
    if kind is TNorm.PRODUCT:
        return oracle_sat_degree(st, x, p)
    return min(oracle_sat_degree(st, x, Formula((atom,))) for atom in p.atoms)


def _language(st, attrs):
    domains = [st.schema(a).domain for a in attrs]
    for size in range(1, len(attrs) + 1):
        for combo in itertools.combinations(range(len(attrs)), size):
            for values in itertools.product(*(domains[i] for i in combo)):
                yield tuple((attrs[i], v) for i, v in zip(combo, values))


def _as_formula(pairs) -> Formula:
    return Formula(tuple(Atom(a, v) for a, v in pairs))


def check_op(st, argv, out: str, rng: random.Random) -> list[str]:
    """Mismatches between one op's output and the independent references."""
    method = _option(argv, "--method")
    kind = TNorm(_option(argv, "--tnorm", "min"))
    attrs = tuple(a for a in st.attribute_names if a != "d")
    if "--attrs" in argv:
        attrs = tuple(_option(argv, "--attrs").split(","))
    members = frozenset(x for x in st.objects if st.cells[(x, "d")] == {"yes"})
    complement = frozenset(st.objects) - members
    errors: list[str] = []

    if method == "eq-complete":
        return _check_partition(st, attrs, members, out)

    alpha = parse_degree(_option(argv, "--alpha"))
    dpos, dneg = parse_regions(argv, out)

    if method in ("alpha-sim", "approx"):
        for x in rng.sample(st.objects, min(SAMPLE, len(st.objects))):
            for y in st.objects:
                if x != y and similarity(st, attrs, TNorm.PRODUCT, x, y) != oracle_similarity(st, attrs, x, y):
                    errors.append(f"product similarity of {x},{y} differs from the oracle")
            if method == "alpha-sim":
                cls = {y for y in st.objects if _sim(st, attrs, kind, x, y) >= alpha}
                pos = cls <= members
                neg = not pos and cls <= complement
            else:
                apr = approximability_closed(st, attrs, kind, members, x)
                pos, neg = apr.positive >= alpha, apr.negative >= alpha
            descriptions = _cdes(st, attrs, x)
            if pos and not descriptions <= dpos:
                errors.append(f"{method}: descriptions of {x} missing from DPOS")
            if neg and not descriptions <= dneg:
                errors.append(f"{method}: descriptions of {x} missing from DNEG")
        return errors

    language = list(_language(st, attrs))
    for p in rng.sample(language, min(SAMPLE, len(language))):
        formula = _as_formula(p)
        for x in st.objects:
            if sat_degree(st, x, formula, TNorm.PRODUCT) != oracle_sat_degree(st, x, formula):
                errors.append(f"product sat degree of {x} on {p} differs from the oracle")
        if method == "alpha-meaning":
            meaning = {x for x in st.objects if _sat(st, x, formula, kind) >= alpha}
            want_pos = bool(meaning) and meaning <= members
            want_neg = bool(meaning) and not want_pos and meaning <= complement
        else:
            conf = confidence_closed(st, formula, members, kind)
            want_pos, want_neg = conf.accept >= alpha, conf.reject >= alpha
        if want_pos != (p in dpos) or want_neg != (p in dneg):
            errors.append(f"{method}: region membership of {p} differs from the reference")
    return errors


def _check_partition(st, attrs, members, out: str) -> list[str]:
    groups: dict[tuple, list[str]] = {}
    for x in st.objects:
        groups.setdefault(tuple(st.cells[(x, a)] for a in attrs), []).append(x)
    want = {"pos": [], "neg": [], "bnd": []}
    for block in groups.values():
        inside = sum(x in members for x in block)
        name = "pos" if inside == len(block) else "neg" if inside == 0 else "bnd"
        want[name].append(",".join(block))
    got = {"pos": [], "neg": [], "bnd": []}
    for line in out.splitlines():
        name, _, rest = line.partition(" ")
        if name in got and rest.startswith("{"):
            got[name].append(rest.strip("{}"))
    if want != got:
        return ["eq-complete: blocks differ from an independent grouping of the rows"]
    return []
