import json
import os
import subprocess
import sys
from fractions import Fraction as Fr
from pathlib import Path

import pytest

import expected
from conftest import DATA, formula, formulas
import threeway.cli
from threeway.cli import main
from threeway.fuzzy import format_decimal

COMPLETE6 = str(DATA / "complete6.itab")
SETVALUED8 = str(DATA / "setvalued8.itab")
COMPLETE40 = str(DATA / "complete40.itab")
SRC = str(Path(__file__).resolve().parents[1] / "src")


def subprocess_env(**extra) -> dict[str, str]:
    """Environment in which a child ``python -m threeway`` imports this checkout."""
    env = {**os.environ, **extra}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    return env


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def formula_set_from_json(entries):
    return frozenset(
        formula("&".join(f"{atom['attr']}={atom['value']}" for atom in lhs)) for lhs in entries
    )


class TestRegionsCommand:
    def test_alpha_sim_json(self, capsys):
        code, out, _ = run(
            capsys,
            "regions", "--table", SETVALUED8, "--method", "alpha-sim",
            "--tnorm", "min", "--alpha", "0.3", "--class", "x1,x2,x3,x4",
            "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert formula_set_from_json(data["dpos"]) == formulas(expected.ALPHA_SIM_DPOS_MIN)
        assert formula_set_from_json(data["dneg"]) == formulas(expected.ALPHA_SIM_DNEG_MIN)

    def test_alpha_sim_text_includes_rules(self, capsys):
        code, out, _ = run(
            capsys,
            "regions", "--table", SETVALUED8, "--method", "alpha-sim",
            "--tnorm", "min", "--alpha", "0.3", "--class", "x1,x2,x3,x4",
        )
        assert code == 0
        lines = out.splitlines()
        assert sum(1 for l in lines if l.startswith("DPOS")) == 2
        assert sum(1 for l in lines if l.startswith("DNEG")) == 3
        assert sum(1 for l in lines if l.startswith("(A)")) == 2
        assert sum(1 for l in lines if l.startswith("(R)")) == 3
        assert lines[-1] == "(N) otherwise"

    def test_confidence_product_regions(self, capsys):
        code, out, _ = run(
            capsys,
            "regions", "--table", SETVALUED8, "--method", "confidence",
            "--tnorm", "prod", "--alpha", "0.6", "--class", "x1,x2,x3,x4",
            "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        want_pos = formulas(
            expected.SETVALUED8_LANGUAGE[l] for l in expected.CONFIDENCE_DPOS_PROD
        )
        want_neg = formulas(
            expected.SETVALUED8_LANGUAGE[l] for l in expected.CONFIDENCE_DNEG_PROD
        )
        assert formula_set_from_json(data["dpos"]) == want_pos
        assert formula_set_from_json(data["dneg"]) == want_neg

    def test_eq_complete_structured_regions(self, capsys):
        code, out, _ = run(
            capsys,
            "regions", "--table", COMPLETE6, "--method", "eq-complete",
            "--class", "x1,x2,x3,x4", "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert [set(b) for b in data["pos"]] == expected.COMPLETE6_POS
        assert [set(b) for b in data["neg"]] == expected.COMPLETE6_NEG
        assert [set(b) for b in data["bnd"]] == expected.COMPLETE6_BND

    def test_complete_method_warns_on_tnorm(self, capsys):
        code, _, err = run(
            capsys,
            "regions", "--table", COMPLETE6, "--method", "eq-complete",
            "--class", "x1,x2", "--tnorm", "prod",
        )
        assert code == 0
        assert "ignored" in err

    def test_attribute_subset(self, capsys):
        code, out, _ = run(
            capsys,
            "similarity", "--table", SETVALUED8, "--tnorm", "min",
            "--attrs", "a2,a3", "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["attrs"] == ["a2", "a3"]
        idx = {x: i for i, x in enumerate(data["objects"])}
        # dropping a1 can only raise the degree
        assert data["entries"][idx["x4"]][idx["x7"]] == "0"
        assert data["entries"][idx["x5"]][idx["x6"]] == "1/2"

    def test_unknown_attr_is_1(self, capsys):
        code, _, _ = run(
            capsys, "similarity", "--table", SETVALUED8, "--attrs", "zz",
        )
        assert code == 1

    def test_strip_na_atoms(self, capsys):
        code, out, _ = run(
            capsys,
            "regions", "--table", SETVALUED8, "--method", "alpha-sim",
            "--tnorm", "min", "--alpha", "0.3", "--class", "x1,x2,x3,x4",
            "--format", "json", "--strip-na-atoms",
        )
        assert code == 0
        data = json.loads(out)
        assert formula_set_from_json(data["dneg"]) == formulas(
            ["a2=1&a3=0", "a2=2&a3=0", "a2=3&a3=0"]
        )


class TestRulesCommand:
    def test_description_route_rule_list(self, capsys):
        code, out, _ = run(
            capsys,
            "rules", "--table", COMPLETE6, "--method", "cdl-complete",
            "--class", "x1,x2,x3,x4",
        )
        assert code == 0
        lines = out.splitlines()
        assert sum(1 for l in lines if l.startswith("(A)")) == 7
        assert sum(1 for l in lines if l.startswith("(R)")) == 3
        assert lines[-1] == "(N) otherwise"

    def test_eq_complete_rule_list(self, capsys):
        code, out, _ = run(
            capsys,
            "rules", "--table", COMPLETE6, "--method", "eq-complete",
            "--class", "x1,x2,x3,x4",
        )
        assert code == 0
        lines = out.splitlines()
        assert sum(1 for l in lines if l.startswith("(A)")) == 2
        assert sum(1 for l in lines if l.startswith("(R)")) == 1

    def test_product_overlap_marked_non_commit(self, capsys):
        code, out, _ = run(
            capsys,
            "rules", "--table", SETVALUED8, "--method", "alpha-sim",
            "--tnorm", "prod", "--alpha", "0.3", "--class", "x1,x2,x3,x4",
            "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        non_commit = formula_set_from_json(
            [r["lhs"] for r in data["rules"] if r["decision"] == "non-commit"]
        )
        assert non_commit == formulas(expected.ALPHA_SIM_OVERLAP_PROD)
        accepts = [r for r in data["rules"] if r["decision"] == "accept"]
        assert formulas(["a1=0&a2=3&a3=0"]) <= formula_set_from_json(
            [r["lhs"] for r in accepts]
        )

    def test_json_schema_fields(self, capsys):
        code, out, _ = run(
            capsys,
            "rules", "--table", SETVALUED8, "--method", "approx",
            "--tnorm", "prod", "--alpha", "0.8", "--class", "x1,x2,x3,x4",
            "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["method"] == "approx"
        assert data["tnorm"] == "prod"
        assert data["alpha"] == "4/5"
        assert data["default"] == "non-commit"

    def test_repeated_class_id_is_labelled_once(self, capsys):
        argv = ["rules", "--table", SETVALUED8, "--method", "confidence", "--tnorm", "min",
                "--alpha", "1/2", "--format", "json"]
        code, out, _ = run(capsys, *argv, "--class", "x2,x1,x1")
        assert code == 0
        assert json.loads(out)["class"] == "x1,x2"
        assert run(capsys, *argv, "--class", "x1,x2") == (0, out, "")

    def test_class_column_form(self, capsys):
        code, out, _ = run(
            capsys,
            "rules", "--table", COMPLETE6, "--method", "eq-complete",
            "--class-column", "a3", "--class-value", "3",
        )
        assert code == 0
        lines = out.splitlines()
        assert sum(1 for l in lines if l.startswith("(A)")) == 1
        assert sum(1 for l in lines if l.startswith("(R)")) == 3
        assert "(A) (a1=1)&(a2=2)" in lines

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "rules.json"
        code, out, _ = run(
            capsys,
            "rules", "--table", COMPLETE6, "--method", "cdl-complete",
            "--class", "x1,x2,x3,x4", "--format", "json", "--out", str(target),
        )
        assert code == 0
        assert out == ""
        data = json.loads(target.read_text())
        assert data["method"] == "cdl-complete"


class TestSimilarityCommand:
    def test_text_matches_expected_rendering(self, capsys):
        code, out, _ = run(capsys, "similarity", "--table", SETVALUED8, "--tnorm", "min")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split() == [f"x{i}" for i in range(1, 9)]
        grid = {}
        for line in lines[1:]:
            parts = line.split()
            grid[parts[0]] = parts[1:]
        objects = [f"x{i}" for i in range(1, 9)]
        for i, x in enumerate(objects):
            for j, y in enumerate(objects):
                if x == y:
                    want = Fr(1)
                else:
                    want = expected.SIM8_MIN.get((x, y), expected.SIM8_MIN.get((y, x), Fr(0)))
                assert grid[x][j] == format_decimal(want), (x, y)

    def test_json_exact(self, capsys):
        code, out, _ = run(
            capsys, "similarity", "--table", SETVALUED8, "--tnorm", "prod", "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        idx = {x: i for i, x in enumerate(data["objects"])}
        assert data["entries"][idx["x4"]][idx["x6"]] == "1/6"
        assert data["entries"][idx["x5"]][idx["x6"]] == "1/4"
        assert data["entries"][idx["x1"]][idx["x1"]] == "1"

    def test_exact_text(self, capsys):
        code, out, _ = run(
            capsys, "similarity", "--table", SETVALUED8, "--tnorm", "min", "--exact"
        )
        assert code == 0
        assert "1/3" in out


class TestSatisfiabilityCommand:
    def test_json_degrees(self, capsys):
        code, out, _ = run(
            capsys, "satisfiability", "--table", SETVALUED8, "--tnorm", "prod",
            "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert len(data) == 47
        by_label = {entry["label"]: entry for entry in data}
        for label, by_object in expected.SAT8.items():
            degrees = by_label[label]["degrees"]
            want = {x: str(pair[1]) for x, pair in by_object.items()}
            assert degrees == want, label

    def test_text_omits_zero_rows(self, capsys):
        code, out, _ = run(capsys, "satisfiability", "--table", SETVALUED8, "--tnorm", "min")
        assert code == 0
        lines = {l.split("\t")[0]: l for l in out.splitlines()}
        assert lines["p9"].endswith("(a1=0)&(a2=1)")
        assert "x4:1/3" in lines["p13"]


class TestExitCodes:
    def test_parse_error_is_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.itab"
        bad.write_text("@attributes a\n@domain a 1 2\n@objects\nx1 {1}\n")
        code, _, err = run(
            capsys, "rules", "--table", str(bad), "--method", "cdl-complete", "--class", "x1"
        )
        assert code == 2
        assert "error" in err

    def test_guard_exceeded_is_3(self, capsys):
        code, _, _ = run(
            capsys,
            "regions", "--table", SETVALUED8, "--method", "alpha-meaning",
            "--tnorm", "min", "--alpha", "0.5", "--class", "x1,x2,x3,x4",
            "--max-formulas", "5",
        )
        assert code == 3

    def test_missing_alpha_is_1(self, capsys):
        code, _, err = run(
            capsys,
            "regions", "--table", SETVALUED8, "--method", "alpha-sim",
            "--tnorm", "min", "--class", "x1,x2,x3,x4",
        )
        assert code == 1
        assert "alpha" in err

    def test_unknown_class_id_is_1(self, capsys):
        code, _, _ = run(
            capsys,
            "regions", "--table", COMPLETE6, "--method", "eq-complete", "--class", "zz",
        )
        assert code == 1

    def test_bad_flag_is_1(self, capsys):
        code, _, _ = run(capsys, "regions", "--table", COMPLETE6, "--method", "bogus")
        assert code == 1

    def test_incomplete_table_for_complete_method_is_1(self, capsys):
        code, _, err = run(
            capsys,
            "rules", "--table", SETVALUED8, "--method", "eq-complete", "--class", "x1",
        )
        assert code == 1
        assert "complete" in err

    def test_oracle_failure_is_4(self, capsys, monkeypatch):
        import threeway.oracle as oracle_mod
        from threeway import similarity_matrix

        def corrupted(st, attrs, kind):
            matrix = similarity_matrix(st, attrs, kind)
            matrix.entries[("x4", "x6")] = Fr(1, 3)
            return matrix

        monkeypatch.setattr(oracle_mod, "similarity_matrix", corrupted)
        code, out, _ = run(capsys, "oracle-check", "--table", SETVALUED8)
        assert code == 4
        assert "similarity-product-vs-worlds: 27/28 ok" in out
        assert "FAIL similarity-product-vs-worlds [x4,x6] expected=1/6 actual=1/3" in out

    def test_oracle_pass_is_0(self, capsys):
        code, out, _ = run(capsys, "oracle-check", "--table", SETVALUED8)
        assert code == 0
        assert "28/28 ok" in out

    @pytest.mark.parametrize(
        "command,flag",
        [
            ("regions", "--max-formulas"),
            ("rules", "--max-formulas"),
            ("satisfiability", "--max-formulas"),
            ("oracle-check", "--max-worlds"),
        ],
    )
    def test_negative_cap_is_usage_error(self, capsys, command, flag):
        method = ("--method", "alpha-meaning", "--alpha", "1/2", "--class", "x1")
        extra = method if command in ("regions", "rules") else ()
        code, out, err = run(capsys, command, "--table", SETVALUED8, *extra, flag, "-1")
        assert code == 1
        assert out == ""
        assert "usage:" in err
        assert f"argument {flag}: must be nonnegative, got -1" in err

    @pytest.mark.parametrize("command", ["regions", "rules"])
    def test_max_worlds_belongs_to_oracle_check(self, capsys, command):
        method = ("--method", "alpha-meaning", "--alpha", "1/2", "--class", "x1")
        code, out, err = run(capsys, command, "--table", SETVALUED8, *method, "--max-worlds", "5")
        assert code == 1
        assert out == ""
        assert "usage:" in err
        assert "unrecognized arguments: --max-worlds 5" in err

    def test_zero_cap_is_accepted(self, capsys):
        code, _, err = run(
            capsys, "satisfiability", "--table", SETVALUED8, "--max-formulas", "0"
        )
        assert code == 3
        assert "cap of 0" in err

    def test_undecided_class_column_is_1(self, capsys, tmp_path):
        rows = ["x1 0 yes", "x2 1 *", "x3 0 {yes|no}", "x4 1 NA", "x5 0 no"]
        rows += [f"x{i} 1 *" for i in range(6, 10)]
        table = tmp_path / "undecided.itab"
        table.write_text(
            "@attributes a d\n@domain a 0 1\n@domain d yes no\n@objects\n" + "\n".join(rows) + "\n"
        )
        code, out, err = run(
            capsys,
            "rules", "--table", str(table), "--method", "alpha-meaning", "--alpha", "1/2",
            "--class-column", "d", "--class-value", "yes",
        )
        assert code == 1
        assert out == ""
        assert "decision column 'd' holds no single known value for 7 object(s): " \
            "x2, x3, x4, x6, x7, ..." in err


    @pytest.mark.parametrize("command", ["rules", "regions"])
    def test_class_value_outside_domain_is_1(self, capsys, command):
        """A value the decision column cannot hold names no class; it used
        to give an empty class and exit 0 with reject rules only."""
        code, out, err = run(
            capsys,
            command, "--table", COMPLETE40, "--method", "eq-complete",
            "--class-column", "d", "--class-value", "maybe",
        )
        assert code == 1
        assert out == ""
        assert "class value 'maybe' is not in the domain of decision column 'd'" in err

    @pytest.mark.parametrize("command", ["rules", "regions"])
    @pytest.mark.parametrize(
        "argv,message",
        [
            (("--class", "x1", "--max-formulas", "ten"), "argument --max-formulas: invalid int value: 'ten'"),
            (("--class", "x1", "--attrs", " , "), "error: empty comma-separated list"),
            (
                ("--class-column", "d", "--class-value", "yes", "--attrs", "a1,d"),
                "error: decision column 'd' cannot be a condition attribute",
            ),
            (("--class", "x1", "--class-column", "d"), "error: use either --class or --class-column, not both"),
            (("--class-column", "d"), "error: --class-column requires --class-value"),
            (("--class-value", "yes"), "error: --class-value requires --class-column"),
            (("--class", "x1", "--class-value", "yes"), "error: --class-value requires --class-column"),
            ((), "error: a class is required: pass --class or --class-column/--class-value"),
        ],
        ids=[
            "non-integer-cap", "empty-attrs", "decision-column-in-attrs", "class-and-class-column",
            "class-column-alone", "class-value-alone", "class-and-class-value", "no-class",
        ],
    )
    def test_configuration_error_is_1(self, capsys, command, argv, message):
        code, out, err = run(capsys, command, "--table", COMPLETE40, "--method", "eq-complete", *argv)
        assert (code, out) == (1, "")
        assert message in err

    @pytest.mark.parametrize("command", ["rules", "regions"])
    def test_no_condition_attribute_left_is_1(self, capsys, tmp_path, command):
        table = tmp_path / "decision_only.itab"
        table.write_text("@attributes d\n@domain d yes no\n@objects\nx1 yes\nx2 no\n")
        code, out, err = run(
            capsys, command, "--table", str(table), "--method", "eq-complete",
            "--class-column", "d", "--class-value", "yes",
        )
        assert (code, out, err) == (1, "", "error: no condition attributes left\n")

    @pytest.mark.parametrize("command", ["rules", "regions"])
    @pytest.mark.parametrize("names", [["nope"], ["a1", "nope"]])
    def test_unknown_strip_na_attribute_is_1(self, capsys, command, names):
        """Each --strip-na-atoms name is checked against the table, with
        the error that --attrs gives for the same name."""
        common = (
            command, "--table", SETVALUED8, "--method", "confidence", "--alpha", "1/2",
            "--class", "x1,x2",
        )
        code, out, err = run(capsys, *common, "--strip-na-atoms", *names)
        assert (code, out) == (1, "")
        assert err == run(capsys, *common, "--attrs", "nope")[2] == "error: unknown attribute 'nope'\n"
        assert run(capsys, *common, "--strip-na-atoms", "a1")[0] == 0


class TestEntryPoints:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "regions" in capsys.readouterr().out

    def test_usage_error_exits_one(self, capsys):
        assert main(["regions"]) == 1

    def test_module_entry(self):
        proc = subprocess.run(
            [sys.executable, "-m", "threeway", "oracle-check", "--table", SETVALUED8],
            capture_output=True,
            text=True,
            env=subprocess_env(),
        )
        assert proc.returncode == 0
        assert "28/28 ok" in proc.stdout


class TestDeterminism:
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_repeated_runs_byte_identical(self, capsys, fmt):
        argv = (
            "regions", "--table", SETVALUED8, "--method", "confidence",
            "--tnorm", "prod", "--alpha", "0.6", "--class", "x1,x2,x3,x4",
            "--format", fmt,
        )
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second

    def test_oracle_json_independent_of_hash_seed(self):
        argv = [
            sys.executable, "-m", "threeway", "oracle-check", "--table", COMPLETE6,
            "--format", "json", "--class", "x1,x2", "--alpha", "1/2",
        ]
        outputs = [
            subprocess.run(
                argv, env=subprocess_env(PYTHONHASHSEED=seed), capture_output=True, check=True, timeout=120
            ).stdout
            for seed in ("1", "2")
        ]
        assert outputs[0] == outputs[1]

    def test_json_round_trip(self, capsys):
        code, out, _ = run(
            capsys,
            "rules", "--table", SETVALUED8, "--method", "alpha-meaning",
            "--tnorm", "min", "--alpha", "0.5", "--class", "x1,x2,x3,x4",
            "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert json.dumps(data, indent=2) + "\n" == out


BUILDERS = (
    "regions_computational",
    "description_regions_complete",
    "description_regions_alpha_sim",
    "description_regions_approx",
    "description_regions_alpha_meaning",
    "description_regions_confidence",
)


class TestRegionBuilderCalls:
    @pytest.mark.parametrize("command", ["regions", "rules"])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize(
        "builder,argv",
        [
            ("description_regions_alpha_sim", ("--table", SETVALUED8, "--method", "alpha-sim", "--alpha", "0.3")),
            ("description_regions_alpha_meaning", ("--table", SETVALUED8, "--method", "alpha-meaning", "--alpha", "0.5")),
            ("regions_computational", ("--table", COMPLETE6, "--method", "eq-complete")),
            ("description_regions_complete", ("--table", COMPLETE6, "--method", "cdl-complete")),
        ],
    )
    def test_each_run_builds_regions_once(self, capsys, monkeypatch, command, fmt, builder, argv):
        calls = []
        for name in BUILDERS:
            def counted(*args, _name=name, _original=getattr(threeway.cli, name), **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(threeway.cli, name, counted)
        code, _, _ = run(capsys, command, *argv, "--class", "x1,x2,x3,x4", "--format", fmt)
        assert code == 0
        assert calls == [builder]
