"""The lean import: ``import threeway.cli`` leaves the oracle unloaded and
imports neither ``dataclasses``, ``inspect`` nor ``pathlib``; the oracle's names
load on first use; the package's ``similarity`` stays the reference
function; the two incomplete-table routes import neither each other;
and the value records, now named tuples, keep their reprs, defaults,
methods, copies and pickles.
"""

from __future__ import annotations

import ast
import copy
import json
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

import threeway
from conftest import DATA
from threeway import (
    Approximability,
    Atom,
    Confidence,
    Decision,
    DescribedSet,
    Formula,
    Partition,
    Provenance,
    Rule,
    RuleSet,
    SatProfile,
    SimilarityMatrix,
    StructuredRegions,
    TNorm,
)

SRC = DATA.parent.parent / "src"

ORACLE_NAMES = (
    "OracleReport",
    "oracle_classical_reduction",
    "oracle_closure_equality",
    "oracle_sat_degree",
    "oracle_similarity",
    "run_all_checks",
)

#: Standard modules the CLI does without: they cost start-up time.
HEAVY = ("dataclasses", "inspect", "pathlib")

# Reports whether the oracle and which of HEAVY were loaded after importing
# the CLI in a fresh interpreter. It runs under ``-S``: a site ``.pth`` file
# may preload modules the CLI never asks for.
PROBE = f"""
import sys
import threeway.cli
loaded = [name for name in {HEAVY!r} if name in sys.modules]
oracle = "threeway.oracle" in sys.modules
import json
print(json.dumps({{"oracle": oracle, "loaded": loaded}}))
"""

P = Formula((Atom("a1", "1"),))
P_TEXT = "Formula(atoms=(Atom(attr='a1', value='1'),))"
PROV_TEXT = "Provenance(method='m', tnorm=None, alpha=None, class_label='')"

# Each record with its repr, which is the text of the dataclass it replaced.
RECORDS = [
    (Provenance("m"), PROV_TEXT),
    (
        Provenance("alpha-sim", "prod", Fraction(1, 3), "x1,x2"),
        "Provenance(method='alpha-sim', tnorm='prod', alpha=Fraction(1, 3), class_label='x1,x2')",
    ),
    (
        Rule(P, Decision.ACCEPT, Provenance("m")),
        f"Rule(lhs={P_TEXT}, decision=<Decision.ACCEPT: 'accept'>, provenance={PROV_TEXT})",
    ),
    (RuleSet(()), "RuleSet(rules=(), default=<Decision.NON_COMMIT: 'non-commit'>)"),
    (
        RuleSet((Rule(P, Decision.REJECT, Provenance("m")),), Decision.ACCEPT),
        f"RuleSet(rules=(Rule(lhs={P_TEXT}, decision=<Decision.REJECT: 'reject'>, "
        f"provenance={PROV_TEXT}),), default=<Decision.ACCEPT: 'accept'>)",
    ),
    (
        Partition((frozenset({"x1"}), frozenset({"x2"}))),
        "Partition(blocks=(frozenset({'x1'}), frozenset({'x2'})))",
    ),
    (
        StructuredRegions(frozenset({frozenset({"x1"})}), frozenset(), frozenset()),
        "StructuredRegions(pos=frozenset({frozenset({'x1'})}), neg=frozenset(), bnd=frozenset())",
    ),
    (
        DescribedSet(frozenset({"x1"}), frozenset({P})),
        f"DescribedSet(members=frozenset({{'x1'}}), descriptions=frozenset({{{P_TEXT}}}))",
    ),
    (
        SimilarityMatrix(("x1",), ("a1",), TNorm.MIN, {("x1", "x1"): Fraction(1)}),
        "SimilarityMatrix(objects=('x1',), attrs=('a1',), kind=<TNorm.MIN: 'min'>, "
        "entries={('x1', 'x1'): Fraction(1, 1)})",
    ),
    (
        Approximability("x1", Fraction(1, 2), Fraction(0), frozenset({"x1"})),
        "Approximability(object='x1', positive=Fraction(1, 2), negative=Fraction(0, 1), "
        "class_ref=frozenset({'x1'}))",
    ),
    (
        SatProfile(P, {"x1": Fraction(1, 2)}, TNorm.PRODUCT),
        f"SatProfile(formula={P_TEXT}, degrees={{'x1': Fraction(1, 2)}}, kind=<TNorm.PRODUCT: 'prod'>)",
    ),
    (
        Confidence(P, Fraction(1), Fraction(0), frozenset({"x1"})),
        f"Confidence(formula={P_TEXT}, accept=Fraction(1, 1), reject=Fraction(0, 1), "
        "class_ref=frozenset({'x1'}))",
    ),
]


def _probe() -> dict:
    out = subprocess.run(
        [sys.executable, "-S", "-c", PROBE], cwd=SRC, check=True, capture_output=True, text=True
    ).stdout
    return json.loads(out)


def test_cli_import_leaves_the_oracle_and_the_records_out():
    assert _probe() == {"oracle": False, "loaded": []}


def test_package_similarity_stays_the_reference_function():
    # Importing the submodule binds the package attribute to the module only
    # on its first load, which ``threeway/__init__`` does before binding the
    # name to the function; a PEP 562 ``__getattr__`` would not be consulted.
    probe = (
        "import threeway.cli, threeway.similarity, sys\n"
        "from threeway import similarity\n"
        "print(similarity is sys.modules['threeway.similarity'].similarity)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], cwd=SRC, check=True, capture_output=True, text=True
    ).stdout
    assert out == "True\n"


def _imported_modules(path) -> set[str]:
    """Last dotted component of every module that ``path`` imports."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            # ``from . import m`` and ``from threeway import m`` name modules.
            if node.module in (None, "threeway"):
                found.update(alias.name for alias in node.names)
            else:
                found.add(node.module.rsplit(".", 1)[-1])
    return found


@pytest.mark.parametrize("route,other", [("similarity", "satisfiability"), ("satisfiability", "similarity")])
def test_routes_do_not_import_each_other(route, other):
    assert other not in _imported_modules(SRC / "threeway" / f"{route}.py")


@pytest.mark.parametrize("name", ORACLE_NAMES)
def test_lazy_names_are_the_oracle_objects(name):
    from threeway import oracle

    assert getattr(threeway, name) is getattr(oracle, name)


def test_unknown_package_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        threeway.no_such_name
    assert not hasattr(threeway, "no_such_name")
    with pytest.raises(ImportError):
        from threeway import no_such_name  # noqa: F401


@pytest.mark.parametrize("record, text", RECORDS, ids=[type(r).__name__ for r, _ in RECORDS])
def test_record_repr_copy_and_pickle(record, text):
    assert repr(record) == text
    for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(clone) is type(record)
        assert repr(clone) == text


def test_record_defaults():
    prov = Provenance("m")
    assert (prov.method, prov.tnorm, prov.alpha, prov.class_label) == ("m", None, None, "")
    assert RuleSet(()).default is Decision.NON_COMMIT
    assert RuleSet(rules=()).rules == ()


def test_record_methods():
    from threeway import OracleReport

    prov = Provenance("m")
    q = Formula((Atom("a2", "0"),))
    rs = RuleSet((Rule(P, Decision.ACCEPT, prov), Rule(q, Decision.REJECT, prov), Rule(q, Decision.ACCEPT, prov)))
    assert [r.lhs for r in rs.by_decision(Decision.ACCEPT)] == [P, q]
    assert rs.by_decision(Decision.NON_COMMIT) == ()
    matrix = SimilarityMatrix(("x1", "x2"), ("a1",), TNorm.MIN, {("x1", "x2"): Fraction(1, 3)})
    assert matrix.degree("x1", "x2") == Fraction(1, 3)
    with pytest.raises(threeway.UnknownIdError):
        matrix.degree("x2", "x9")
    assert OracleReport("c", "i", Fraction(1, 2), Fraction(1, 2)).passed is True
    assert OracleReport("c", "i", Fraction(1, 2), Fraction(1, 3)).passed is False
    assert pickle.loads(pickle.dumps(OracleReport("c", "i", 1, 2))).passed is False


def test_partition_hash_equality_and_block_of():
    blocks = (frozenset({"x1", "x3"}), frozenset({"x2"}))
    p = Partition(blocks)
    assert p == Partition(blocks) and p != Partition(blocks[::-1])
    assert hash(p) == hash((blocks,))  # the hash of the dataclass it replaced
    assert p.block_of("x3") is blocks[0]
    with pytest.raises(threeway.UnknownIdError, match="^object 'x9' not in this partition$"):
        p.block_of("x9")


def test_records_are_read_only():
    prov = Provenance("m")
    with pytest.raises(AttributeError):
        prov.method = "other"
