"""Command-line front end.

Subcommands: ``regions``, ``rules``, ``similarity``, ``satisfiability``,
and ``oracle-check``. Exit codes: 0 success, 1 invalid configuration,
2 table parse error, 3 size guard exceeded, 4 oracle check failure.
Output bytes are deterministic for a fixed configuration.

:func:`main` is the one pipeline: it loads the ``--table``, passes it to
the subcommand's handler, ``(args, table) -> (output, exit code)``, and
writes the output (text, or a payload for ``write_json``) once.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from contextlib import nullcontext
from fractions import Fraction
from functools import cache
from itertools import compress
from typing import Sequence

from .complete import description_regions_complete, regions_computational
from .errors import GuardExceededError, TableParseError, ThreeWayError
from .fuzzy import TNorm, format_decimal, format_exact, parse_degree
from .language import (
    DEFAULT_MAX_FORMULAS,
    Atom,
    Formula,
    _formula,
    formula_rank_for,
    render_formula,
    write_json,
)
from .rules import Provenance, _payload, derive_rules
from .rules import render as render_rules
from .satisfiability import (
    description_regions_alpha_meaning,
    description_regions_confidence,
    strict_degrees,
)
from .similarity import (
    description_regions_alpha_sim,
    description_regions_approx,
    similarity_matrix,
)
from .table import DEFAULT_MAX_WORLDS, NA, SetValuedTable, is_complete, parse_table, to_set_valued

METHODS = ("eq-complete", "cdl-complete", "alpha-sim", "approx", "alpha-meaning", "confidence")
COMPLETE_METHODS = {"eq-complete", "cdl-complete"}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports usage problems itself
        return 0 if exc.code in (0, None) else 1
    try:
        output, code = args.handler(args, _load_table(args))
        _emit(args, output)
        return code
    except TableParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GuardExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ThreeWayError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="threeway",
        description="Induce three-way decision rules from complete and incomplete tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    regions = sub.add_parser("regions", help="compute description regions")
    _add_table_options(regions)
    _add_method_options(regions)
    regions.set_defaults(handler=_cmd_regions)

    rules = sub.add_parser("rules", help="derive three-way decision rules")
    _add_table_options(rules)
    _add_method_options(rules)
    rules.set_defaults(handler=_cmd_rules)

    similarity = sub.add_parser("similarity", help="print the pairwise similarity matrix")
    _add_table_options(similarity)
    similarity.add_argument("--tnorm", choices=[k.value for k in TNorm], default="min")
    similarity.add_argument("--exact", action="store_true", help="print exact fractions in text mode")
    similarity.set_defaults(handler=_cmd_similarity)

    satisfiability = sub.add_parser(
        "satisfiability", help="print per-formula satisfiability degrees"
    )
    _add_table_options(satisfiability)
    satisfiability.add_argument("--tnorm", choices=[k.value for k in TNorm], default="min")
    satisfiability.add_argument("--max-formulas", type=_cap, default=DEFAULT_MAX_FORMULAS)
    satisfiability.set_defaults(handler=_cmd_satisfiability)

    oracle = sub.add_parser("oracle-check", help="run brute-force consistency checks")
    _add_table_options(oracle)
    oracle.add_argument("--class", dest="class_ids", default=None)
    oracle.add_argument("--alpha", default=None)
    oracle.add_argument("--max-worlds", type=_cap, default=DEFAULT_MAX_WORLDS)
    oracle.set_defaults(handler=_cmd_oracle)

    return parser


def _add_table_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--table", required=True, help="path to an .itab file")
    p.add_argument("--attrs", default=None, help="comma-separated condition attributes")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", default=None, help="write output to a file instead of stdout")


def _add_method_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--method", choices=METHODS, required=True)
    p.add_argument("--class", dest="class_ids", default=None, help="comma-separated object ids")
    p.add_argument("--class-column", default=None, help="decision attribute naming the class")
    p.add_argument("--class-value", default=None, help="target value in the decision column")
    p.add_argument("--tnorm", choices=[k.value for k in TNorm], default=None)
    p.add_argument("--alpha", default=None, help="threshold as a decimal or fraction")
    p.add_argument(
        "--strip-na-atoms",
        nargs="*",
        default=None,
        metavar="ATTR",
        help=f"drop ({NA}) atoms from emitted rules; no argument strips every attribute",
    )
    p.add_argument("--max-formulas", type=_cap, default=DEFAULT_MAX_FORMULAS)


def _cap(text: str) -> int:
    """A size-guard cap: a nonnegative integer, checked at parse time."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


def _load_table(args) -> SetValuedTable:
    """The ``--table`` file; its parse warnings are printed, also when it fails."""
    with open(args.table, encoding="utf-8-sig") as f:
        text = f.read()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            return to_set_valued(parse_table(text))
        finally:
            for w in caught:
                _warn(str(w.message))


def _split_csv(value: str) -> list[str]:
    items = [part.strip() for part in value.split(",") if part.strip()]
    if not items:
        raise ValueError("empty comma-separated list")
    return items


def _resolve_attrs(args, st: SetValuedTable, exclude: str | None = None) -> tuple[str, ...]:
    if args.attrs is None:
        names = tuple(a for a in st.attribute_names if a != exclude)
    else:
        names = st.attr_subset(dict.fromkeys(_split_csv(args.attrs)))
        if exclude in names:
            raise ValueError(f"decision column {exclude!r} cannot be a condition attribute")
    if not names:
        raise ValueError("no condition attributes left")
    return names


def _resolve_class(args, st: SetValuedTable) -> tuple[frozenset[str], str, str | None]:
    """Returns (class set, printable label, excluded decision column)."""
    if args.class_ids is not None and args.class_column is not None:
        raise ValueError("use either --class or --class-column, not both")
    if args.class_column is not None and args.class_value is None:
        raise ValueError("--class-column requires --class-value")
    if args.class_value is not None and args.class_column is None:
        raise ValueError("--class-value requires --class-column")
    if args.class_ids is not None:
        members = st.class_set(_split_csv(args.class_ids))
        return members, ",".join(sorted(members, key=st.position)), None
    if args.class_column is not None:
        column = args.class_column
        cells, codes = st.column(column)
        if args.class_value not in st.schema(column).domain:
            raise ValueError(f"class value {args.class_value!r} is not in the domain of decision column {column!r}")
        # Each distinct decision cell is tested once; a *, partial or NA
        # cell leaves the class of its objects open.
        open_cells = [len(cell) != 1 or NA in cell for cell in cells]
        undecided = list(compress(st.objects, map(open_cells.__getitem__, codes)))
        if undecided:
            shown = ", ".join(undecided[:5]) + (", ..." if len(undecided) > 5 else "")
            raise ValueError(
                f"decision column {column!r} holds no single known value for "
                f"{len(undecided)} object(s): {shown}"
            )
        holds = [args.class_value in cell for cell in cells]
        members = frozenset(compress(st.objects, map(holds.__getitem__, codes)))
        return members, f"{column}={args.class_value}", column
    raise ValueError("a class is required: pass --class or --class-column/--class-value")


def _resolve_kind_alpha(args, method: str) -> tuple[TNorm, Fraction | None]:
    if method in COMPLETE_METHODS:
        if args.tnorm is not None or args.alpha is not None:
            _warn(f"--tnorm/--alpha ignored for method {method}")
        return TNorm.MIN, None
    kind = TNorm(args.tnorm) if args.tnorm else TNorm.MIN
    if args.alpha is None:
        raise ValueError(f"method {method} requires --alpha")
    return kind, parse_degree(args.alpha)


def _emit(args, payload) -> None:
    """Write ``payload`` to ``--out`` (UTF-8 text) or to stdout: a ``str``
    as it is, any other payload through ``write_json``."""
    with open(args.out, "w", encoding="utf-8") if args.out is not None else nullcontext(sys.stdout) as f:
        if isinstance(payload, str):
            f.write(payload)
        else:
            write_json(payload, f.write)


def _block_descriptions(st, attrs, regions) -> tuple[set[Formula], set[Formula]]:
    """The formula describing each block of the positive and negative regions.

    On a complete table every cell is a singleton, so a block's only
    description is the row of any member: per attribute of ``attrs``, in
    declaration order, the shared atom of its code. The atoms are valid by
    construction, so the formula is built unchecked."""
    position = st.cells.positions.__getitem__
    pos, neg = ([position(next(iter(b))) for b in blocks] for blocks in (regions.pos, regions.neg))
    reps, atoms = pos + neg, []
    for a in attrs:
        cells, codes = st.column(a)
        atoms.append(map([Atom(a, v) for (v,) in cells].__getitem__, map(codes.__getitem__, reps)))
    formulas = list(map(_formula, zip(zip(*atoms))))
    return set(formulas[:len(pos)]), set(formulas[len(pos):])


def _strip_na_atoms(formulas, strip: list[str], attrs) -> frozenset[Formula]:
    targets = set(attrs) if strip == [] else set(strip)
    out = set()
    for p in formulas:
        kept = tuple(a for a in p.atoms if not (a.value == NA and a.attr in targets))
        if kept:  # a nonempty subset of a formula's atoms is a formula
            out.add(_formula((kept,)))
    return frozenset(out)


def _method_regions(args, st):
    """The part of a ``rules`` or ``regions`` run that every method shares.

    Returns the rule order's :func:`formula_rank_for` key, eq-complete's
    structured regions (None for the other methods), the method's
    (DPOS, DNEG) with the ``--strip-na-atoms`` atoms dropped, and the
    rules' provenance.
    """
    method = args.method
    members, label, excluded = _resolve_class(args, st)
    attrs = _resolve_attrs(args, st, exclude=excluded)
    list(map(st.schema, args.strip_na_atoms or ()))  # unknown names fail as --attrs does
    kind, alpha = _resolve_kind_alpha(args, method)
    if method in COMPLETE_METHODS and not is_complete(st):
        raise ValueError(f"method {method} requires a complete table")
    structured = None
    if method == "eq-complete":
        structured = regions_computational(st, attrs, members)
        dpos, dneg = _block_descriptions(st, attrs, structured)
    elif method == "cdl-complete":
        dpos, dneg = description_regions_complete(st, attrs, members, args.max_formulas)
    else:
        # Looked up per run, so that a replaced module attribute is the one called.
        build = globals()["description_regions_" + method.replace("-", "_")]
        dpos, dneg = build(st, attrs, alpha, members, kind, args.max_formulas)
    if args.strip_na_atoms is not None:
        dpos, dneg = (_strip_na_atoms(d, args.strip_na_atoms, attrs) for d in (dpos, dneg))
    provenance = Provenance(method, None if method in COMPLETE_METHODS else kind.value, alpha, label)
    key = formula_rank_for(tuple(map(st.schema, attrs)))
    return key, structured, dpos, dneg, provenance


def _block_lists(st, blocks) -> list[list[str]]:
    """The blocks in object order, each block's members in object order."""
    position = st.cells.positions.__getitem__
    ordered = [sorted(block, key=position) for block in blocks]
    ordered.sort(key=lambda block: position(block[0]))
    return ordered


def _cmd_regions(args, st):
    key, structured, dpos, dneg, provenance = _method_regions(args, st)
    if structured is not None:
        payload = {name: _block_lists(st, getattr(structured, name)) for name in ("pos", "neg", "bnd")}
    else:
        payload = {"dpos": sorted(dpos, key=key), "dneg": sorted(dneg, key=key)}
    if args.format == "json":
        return payload, 0
    if structured is not None:
        lines = [f"{name} {{{','.join(block)}}}" for name, blocks in payload.items() for block in blocks]
    else:
        lines = [f"{name.upper()} {render_formula(p)}" for name, ps in payload.items() for p in ps]
    ruleset = derive_rules(dpos, dneg, provenance, sort_key=key)
    lines.append(render_rules(ruleset, "text").rstrip("\n"))
    return "\n".join(lines) + "\n", 0


def _cmd_rules(args, st):
    key, _, dpos, dneg, provenance = _method_regions(args, st)
    ruleset = derive_rules(dpos, dneg, provenance, sort_key=key)
    return _payload(ruleset) if args.format == "json" else render_rules(ruleset, "text"), 0


def _cmd_similarity(args, st):
    kind = TNorm(args.tnorm)
    matrix = similarity_matrix(st, _resolve_attrs(args, st), kind)
    # Few distinct degrees: each is rendered once, keyed on its terms, as hashing a Fraction is slow.
    fmt = format_exact if args.exact or args.format == "json" else format_decimal
    render = cache(lambda num, den: fmt(Fraction(num, den)))
    degrees = ([matrix.entries[x, y] for y in matrix.objects] for x in matrix.objects)
    cells = [[render(g.numerator, g.denominator) for g in row] for row in degrees]
    if args.format == "json":
        return {"objects": list(matrix.objects), "attrs": list(matrix.attrs), "tnorm": kind.value,
                "entries": cells}, 0
    width = max(len(c) for row in [*cells, matrix.objects] for c in row)
    header = " " * width + " " + " ".join(f"{y:>{width}}" for y in matrix.objects)
    lines = [header]
    for x, row in zip(matrix.objects, cells):
        lines.append(f"{x:>{width}} " + " ".join(f"{c:>{width}}" for c in row))
    return "\n".join(lines) + "\n", 0


def _cmd_satisfiability(args, st):
    attrs = _resolve_attrs(args, st)
    kind = TNorm(args.tnorm)
    # Degrees are 1/N; each distinct N is rendered once.
    render = cache(lambda n: format_exact(Fraction(1, n)))
    entries = [(f"p{i}", p, {x: render(n) for x, n in ns.items()})
               for i, (p, ns) in enumerate(strict_degrees(st, attrs, kind, args.max_formulas), start=1)]
    if args.format == "json":
        return [{"label": label, "formula": p, "tnorm": kind.value, "degrees": nonzero}
                for label, p, nonzero in entries], 0
    lines = []
    for label, p, nonzero in entries:
        shown = " ".join(f"{x}:{d}" for x, d in nonzero.items())
        lines.append(f"{label}\t{render_formula(p)}\t{shown}".rstrip())
    return "\n".join(lines) + "\n", 0


def _cmd_oracle(args, st):
    from .oracle import run_all_checks

    attrs = _resolve_attrs(args, st)
    members = None if args.class_ids is None else st.class_set(_split_csv(args.class_ids))
    alpha = None if args.alpha is None else parse_degree(args.alpha)
    reports = run_all_checks(
        st, attrs, x_set=members, alpha=alpha, max_worlds=args.max_worlds
    )
    failures = [r for r in reports if not r.passed]
    code = 4 if failures else 0
    if args.format == "json":
        return [
            {
                "check": r.check,
                "inputs": r.inputs,
                "passed": r.passed,
                "expected": _summary(r.expected),
                "actual": _summary(r.actual),
            }
            for r in reports
        ], code
    by_check: dict[str, list] = {}
    for r in reports:
        by_check.setdefault(r.check, []).append(r)
    lines = []
    for check, group in by_check.items():
        ok = sum(1 for r in group if r.passed)
        lines.append(f"{check}: {ok}/{len(group)} ok")
    for r in failures:
        lines.append(
            f"FAIL {r.check} [{r.inputs}] expected={_summary(r.expected)} "
            f"actual={_summary(r.actual)}"
        )
    return "\n".join(lines) + "\n", code


def _summary(value) -> str:
    if isinstance(value, Fraction):
        return format_exact(value)
    text = _stable_repr(value)
    return text if len(text) <= 200 else text[:197] + "..."


def _stable_repr(value) -> str:
    """``repr`` with set members sorted, so the text does not depend on
    string hashing."""
    if isinstance(value, (set, frozenset)):
        members = ", ".join(sorted(map(_stable_repr, value)))
        return f"{type(value).__name__}({{{members}}})" if value else f"{type(value).__name__}()"
    if isinstance(value, dict):
        items = ", ".join(f"{_stable_repr(k)}: {_stable_repr(v)}" for k, v in value.items())
        return f"{{{items}}}"
    return repr(value)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
