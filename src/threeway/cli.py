"""Command-line front end.

Subcommands: ``regions``, ``rules``, ``similarity``, ``satisfiability``,
and ``oracle-check``. Exit codes: 0 success, 1 invalid configuration,
2 table parse error, 3 size guard exceeded, 4 oracle check failure.
Output bytes are deterministic for a fixed configuration.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from fractions import Fraction
from functools import cache
from pathlib import Path
from typing import Sequence

from .complete import description_regions_complete, regions_computational
from .errors import GuardExceededError, TableParseError, ThreeWayError
from .fuzzy import TNorm, format_decimal, format_exact, parse_degree
from .language import (
    DEFAULT_MAX_FORMULAS,
    Formula,
    formula_sort_key_for,
    render_formula,
    write_json,
)
from .oracle import OracleReport, run_all_checks
from .rules import Provenance, _payload, derive_rules
from .rules import render as render_rules
from .satisfiability import (
    description_regions_alpha_meaning,
    description_regions_confidence,
    strict_degrees,
)
from .similarity import (
    _describer,
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
        return args.handler(args)
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
    similarity.add_argument("--tnorm", choices=[k.value for k in TNorm], default=None)
    similarity.add_argument("--exact", action="store_true", help="print exact fractions in text mode")
    similarity.set_defaults(handler=_cmd_similarity)

    satisfiability = sub.add_parser(
        "satisfiability", help="print per-formula satisfiability degrees"
    )
    _add_table_options(satisfiability)
    satisfiability.add_argument("--tnorm", choices=[k.value for k in TNorm], default=None)
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


def _load_table(args) -> SetValuedTable:
    text = Path(args.table).read_text(encoding="utf-8")
    return to_set_valued(parse_table(text))


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
    if args.class_ids and args.class_column:
        raise ValueError("use either --class or --class-column, not both")
    if args.class_column and args.class_value is None:
        raise ValueError("--class-column requires --class-value")
    if args.class_value is not None and not args.class_column:
        raise ValueError("--class-value requires --class-column")
    if args.class_ids:
        members = st.class_set(_split_csv(args.class_ids))
        return members, ",".join(sorted(members, key=st.position)), None
    if args.class_column:
        column = args.class_column
        cells, codes = st.column(column)
        if args.class_value not in st.schema(column).domain:
            raise ValueError(f"class value {args.class_value!r} is not in the domain of decision column {column!r}")
        # A *, partial or NA decision cell leaves the object's class open.
        undecided = [x for x, c in zip(st.objects, codes) if len(cells[c]) != 1 or NA in cells[c]]
        if undecided:
            shown = ", ".join(undecided[:5]) + (", ..." if len(undecided) > 5 else "")
            raise ValueError(
                f"decision column {column!r} holds no single known value for "
                f"{len(undecided)} object(s): {shown}"
            )
        members = frozenset(x for x, c in zip(st.objects, codes) if args.class_value in cells[c])
        return members, f"{column}={args.class_value}", column
    raise ValueError("a class is required: pass --class or --class-column/--class-value")


def _resolve_kind_alpha(args, method: str) -> tuple[TNorm, Fraction | None]:
    if method in COMPLETE_METHODS:
        if args.tnorm is not None or args.alpha is not None:
            print(f"warning: --tnorm/--alpha ignored for method {method}", file=sys.stderr)
        return TNorm.MIN, None
    kind = TNorm(args.tnorm) if args.tnorm else TNorm.MIN
    if args.alpha is None:
        raise ValueError(f"method {method} requires --alpha")
    return kind, parse_degree(args.alpha)


@contextmanager
def _output(args):
    """The ``write`` of ``--out`` (UTF-8 text) or of stdout."""
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            yield f.write
    else:
        yield sys.stdout.write


def _emit(args, text: str) -> None:
    with _output(args) as write:
        write(text)


def _emit_json(args, payload) -> None:
    with _output(args) as write:
        write_json(payload, write)


def _block_descriptions(st, attrs, regions) -> tuple[set[Formula], set[Formula]]:
    """The formula describing each block of the positive and negative
    regions: on a complete table an object's only description is its row."""
    describe = _describer(st, attrs)
    sides = (regions.pos, regions.neg)
    return tuple({p for b in blocks for p in describe(st.position(next(iter(b))))} for blocks in sides)


def _strip_na_atoms(formulas, strip: list[str], attrs) -> frozenset[Formula]:
    targets = set(attrs) if strip == [] else set(strip)
    out = set()
    for p in formulas:
        kept = tuple(a for a in p.atoms if not (a.value == NA and a.attr in targets))
        if kept:
            out.add(Formula(kept))
    return frozenset(out)


def _method_regions(args):
    """The part of a ``rules`` or ``regions`` run that every method shares.

    Returns the table, the formula sort key, eq-complete's structured
    regions (None for the other methods), the method's (DPOS, DNEG) with
    the ``--strip-na-atoms`` atoms dropped, and the rules' provenance.
    """
    method = args.method
    st = _load_table(args)
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
    return st, formula_sort_key_for(tuple(map(st.schema, attrs))), structured, dpos, dneg, provenance


def _block_lists(st, blocks) -> list[list[str]]:
    ordered = [sorted(block, key=st.position) for block in blocks]
    return sorted(ordered, key=lambda block: st.position(block[0]))


def _cmd_regions(args) -> int:
    st, key, structured, dpos, dneg, provenance = _method_regions(args)
    if structured is not None:
        payload = {name: _block_lists(st, getattr(structured, name)) for name in ("pos", "neg", "bnd")}
        lines = [f"{name} {{{','.join(block)}}}" for name, blocks in payload.items() for block in blocks]
    else:
        pos, neg = sorted(dpos, key=key), sorted(dneg, key=key)
        payload = {"dpos": pos, "dneg": neg}
        lines = [f"DPOS {render_formula(p)}" for p in pos] + [f"DNEG {render_formula(p)}" for p in neg]
    if args.format == "json":
        _emit_json(args, payload)
        return 0
    ruleset = derive_rules(dpos, dneg, provenance, sort_key=key)
    lines.append(render_rules(ruleset, "text").rstrip("\n"))
    _emit(args, "\n".join(lines) + "\n")
    return 0


def _cmd_rules(args) -> int:
    _, key, _, dpos, dneg, provenance = _method_regions(args)
    ruleset = derive_rules(dpos, dneg, provenance, sort_key=key)
    if args.format == "json":
        _emit_json(args, _payload(ruleset))
    else:
        _emit(args, render_rules(ruleset, "text"))
    return 0


def _cmd_similarity(args) -> int:
    st = _load_table(args)
    attrs = _resolve_attrs(args, st)
    kind = TNorm(args.tnorm) if args.tnorm else TNorm.MIN
    matrix = similarity_matrix(st, attrs, kind)
    # Few distinct degrees: each is rendered once, keyed on its terms, as hashing a Fraction is slow.
    fmt = format_exact if args.exact or args.format == "json" else format_decimal
    render = cache(lambda num, den: fmt(Fraction(num, den)))
    degrees = ([matrix.entries[x, y] for y in matrix.objects] for x in matrix.objects)
    cells = [[render(g.numerator, g.denominator) for g in row] for row in degrees]
    if args.format == "json":
        payload = {"objects": list(matrix.objects), "attrs": list(matrix.attrs), "tnorm": kind.value,
                   "entries": cells}
        _emit_json(args, payload)
        return 0
    width = max(len(c) for row in [*cells, matrix.objects] for c in row)
    header = " " * width + " " + " ".join(f"{y:>{width}}" for y in matrix.objects)
    lines = [header]
    for x, row in zip(matrix.objects, cells):
        lines.append(f"{x:>{width}} " + " ".join(f"{c:>{width}}" for c in row))
    _emit(args, "\n".join(lines) + "\n")
    return 0


def _cmd_satisfiability(args) -> int:
    st = _load_table(args)
    attrs = _resolve_attrs(args, st)
    kind = TNorm(args.tnorm) if args.tnorm else TNorm.MIN
    # Degrees are 1/N; each distinct N is rendered once.
    render = cache(lambda n: format_exact(Fraction(1, n)))
    entries = [(f"p{i}", p, {x: render(n) for x, n in ns.items()})
               for i, (p, ns) in enumerate(strict_degrees(st, attrs, kind, args.max_formulas), start=1)]
    if args.format == "json":
        payload = [{"label": label, "formula": p, "tnorm": kind.value, "degrees": nonzero}
                   for label, p, nonzero in entries]
        _emit_json(args, payload)
        return 0
    lines = []
    for label, p, nonzero in entries:
        shown = " ".join(f"{x}:{d}" for x, d in nonzero.items())
        lines.append(f"{label}\t{render_formula(p)}\t{shown}".rstrip())
    _emit(args, "\n".join(lines) + "\n")
    return 0


def _cmd_oracle(args) -> int:
    st = _load_table(args)
    attrs = _resolve_attrs(args, st)
    members = st.class_set(_split_csv(args.class_ids)) if args.class_ids else None
    alpha = parse_degree(args.alpha) if args.alpha else None
    reports = run_all_checks(
        st, attrs, x_set=members, alpha=alpha, max_worlds=args.max_worlds
    )
    failures = [r for r in reports if not r.passed]
    if args.format == "json":
        payload = [
            {
                "check": r.check,
                "inputs": r.inputs,
                "passed": r.passed,
                "expected": _summary(r.expected),
                "actual": _summary(r.actual),
            }
            for r in reports
        ]
        _emit_json(args, payload)
    else:
        lines = []
        by_check: dict[str, list[OracleReport]] = {}
        for r in reports:
            by_check.setdefault(r.check, []).append(r)
        for check, group in by_check.items():
            ok = sum(1 for r in group if r.passed)
            lines.append(f"{check}: {ok}/{len(group)} ok")
        for r in failures:
            lines.append(
                f"FAIL {r.check} [{r.inputs}] expected={_summary(r.expected)} "
                f"actual={_summary(r.actual)}"
            )
        _emit(args, "\n".join(lines) + "\n")
    return 4 if failures else 0


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
