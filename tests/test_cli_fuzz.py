"""Fuzzed command lines: ``main(argv)`` runs in process on drawn argument
lists (subcommands, flags in any order, out-of-range caps and
thresholds, thresholds with exponents up to 10**7 either way, stray
tokens) over valid and broken ``.itab`` texts. Every run must end within
a second with a documented exit code, 0 to 4, and no exception may leave
``main``. Tables and ``--out`` files stay in one temporary directory.
"""

from __future__ import annotations

import contextlib
import io
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import DATA
from threeway.cli import COMPLETE_METHODS, METHODS, main

DECISION_TABLE = (
    "@attributes a1 a2 d\n@domain a1 0 1\n@domain d yes no\n@objects\n"
    "x1 0 1 yes\nx2 1 {1|2} no\nx3 * 2 yes\nx4 NA ^(a1) no\n"
)
TABLES = (
    (DATA / "complete6.itab").read_text(),
    (DATA / "setvalued8.itab").read_text(),
    DECISION_TABLE,
)
CAPS = ("-1", "0", "3", "1/0", "nan", "1e999", "99999999999999999999", "ten", "")
ALPHAS = ("-1", "0", "1", "0.5", "1/3", "3/2", "1/0", "nan", "inf", "1e999", "-0", "half", "")
FLAG_VALUES = {
    "--table": ("TABLE", "MISSING", "DIRECTORY"),
    "--method": (*METHODS, "none"),
    "--class": ("x1", "x1,x2,x3", "x2,x1,x1", "x99", ",", ""),
    "--class-column": ("d", "a1", "zz", ""),
    "--class-value": ("yes", "1", "maybe", ""),
    "--tnorm": ("min", "prod", "max"),
    "--alpha": ALPHAS,
    "--max-formulas": CAPS,
    "--max-worlds": CAPS,
    "--attrs": ("a1", "a1,a2", "a2,a1", "a1,a1", "zz", ",", "d", ""),
    "--format": ("text", "json", "xml"),
    "--out": ("OUT", "DIRECTORY", "NESTED"),
}
BARE_FLAGS = ("--exact", "--strip-na-atoms", "--help", "-h", "--")
# Stray tokens; no "e", so exponents come from EXPONENTS alone.
TOKENS = st.text(alphabet="abdxy0123/.,-=*{}|^()NA @", min_size=0, max_size=6)
# Decimals such as "1e-10000000": out of range, past the interpreter's
# digit limit for int strings (4300 by default), or an exact degree.
EXPONENTS = st.builds(
    "{}e{}{}".format,
    st.sampled_from(("0", "1", "3", "0.5", "25", "-1")),
    st.sampled_from(("", "+", "-")),
    st.sampled_from((4299, 4300, 4301, 10**7)) | st.integers(0, 10**7),
)


@st.composite
def itab_text(draw) -> bytes:
    """A fixture table, often broken: lines dropped, repeated or cut
    short, tokens replaced, or bytes that are not UTF-8."""
    lines = draw(st.sampled_from(TABLES)).splitlines()
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(("drop", "repeat", "cut", "token")))
        if edit == "drop":
            del lines[i]
        elif edit == "repeat":
            lines.insert(i, lines[i])
        elif edit == "cut":
            lines[i] = lines[i][: draw(st.integers(0, len(lines[i])))]
        else:
            tokens = lines[i].split() or [""]
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(TOKENS)
            lines[i] = " ".join(tokens)
        if not lines:
            break
    data = "\n".join(lines).encode("utf-8")
    return data + b"\xff\n" if draw(st.integers(0, 9)) == 0 else data


@st.composite
def command_line(draw) -> list[str]:
    command = draw(st.sampled_from(("regions", "rules", "similarity", "satisfiability", "oracle-check", "bogus")))
    argv = [command]
    if draw(st.integers(0, 9)):
        argv += ["--table", "TABLE"]
    # Mostly well-formed method options, so that runs get past argparse.
    if command in ("regions", "rules") and draw(st.integers(0, 4)):
        alpha = draw(st.just("1/2") | EXPONENTS)
        argv += ["--method", draw(st.sampled_from(METHODS)), "--class", "x1,x2", "--alpha", alpha]
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.integers(0, 9))
        if kind < 7:
            flag = draw(st.sampled_from(sorted(FLAG_VALUES)))
            values = st.sampled_from(FLAG_VALUES[flag])
            if flag == "--alpha":
                values |= EXPONENTS
            # Paths are never stray tokens, so nothing is written outside the work directory.
            argv += [flag, draw(values if flag in ("--table", "--out") else values | TOKENS)]
        elif kind < 9:
            argv.append(draw(st.sampled_from(BARE_FLAGS)))
        else:
            argv.append(draw(TOKENS))
    return argv


def _run(argv) -> tuple[int, str, float]:
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue(), time.perf_counter() - start


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.mark.filterwarnings("ignore::threeway.DomainInferenceWarning")
@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=itab_text(), argv=command_line())
def test_main_exits_with_a_documented_code(workdir, data, argv):
    table = workdir / "table.itab"
    table.write_bytes(data)
    paths = {
        "TABLE": table,
        "MISSING": workdir / "missing.itab",
        "DIRECTORY": workdir,
        "OUT": workdir / "out.txt",
        "NESTED": workdir / "missing" / "out.txt",
    }
    argv = [str(paths.get(token, token)) for token in argv]
    code, _, seconds = _run(argv)
    assert code in range(5), argv
    assert seconds < 1, argv


@settings(max_examples=100, deadline=None)
@given(
    command=st.sampled_from(("rules", "regions")),
    method=st.sampled_from([m for m in METHODS if m not in COMPLETE_METHODS]),
    alpha=EXPONENTS,
    fmt=st.sampled_from(("text", "json")),
)
def test_alpha_exponents_end_within_a_second(command, method, alpha, fmt):
    """Every drawn exponent reaches the threshold parser on a valid table.
    A refused threshold exits 1 before anything is written to stdout."""
    argv = [command, "--table", str(DATA / "setvalued8.itab"), "--method", method,
            "--class", "x1,x2", "--alpha", alpha, "--format", fmt]
    code, out, seconds = _run(argv)
    assert code in (0, 1), argv
    assert code == 0 or out == "", argv
    assert seconds < 1, argv

