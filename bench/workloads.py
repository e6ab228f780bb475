"""Workloads and the metric catalogue of the benchmark.

A workload is a set of generated tables plus a fixed list of CLI calls
("ops"). Every op runs ``threeway.cli.main(argv)`` in process on one
table. ``block`` says which building-block type an op exercises, which
splits a pass into ``threshold_s`` and ``graded_s``.
"""

from __future__ import annotations

from dataclasses import dataclass

from gen import TableSpec
from tracing import MODULES

CLASS = ("--class-column", "d", "--class-value", "yes")


@dataclass(frozen=True)
class Op:
    table: str
    block: str  # "threshold" or "graded"
    argv: tuple[str, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    tables: dict[str, TableSpec]
    ops: tuple[Op, ...]


def _op(table: str, block: str, *argv: str) -> Op:
    return Op(table, block, argv + CLASS)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sim-route",
            "n=200 m=3 d=3, ~55% distinct rows; alpha-sim and approx with min and prod. "
            "Similarity kernel: O(n^3) object checks, double matrix build in text "
            "regions, rows to merge.",
            {"t": TableSpec(n=200, m=3, d=3)},
            (
                _op("t", "threshold", "regions", "--method", "alpha-sim", "--tnorm", "min",
                    "--alpha", "1/3"),
                _op("t", "threshold", "rules", "--method", "alpha-sim", "--tnorm", "prod",
                    "--alpha", "1/4", "--format", "json"),
                _op("t", "graded", "rules", "--method", "approx", "--tnorm", "min",
                    "--alpha", "0.5"),
                _op("t", "graded", "regions", "--method", "approx", "--tnorm", "prod",
                    "--alpha", "1/1000000", "--format", "json"),
            ),
        ),
        Workload(
            "sat-route",
            "n=48 m=5 d=3, all rows distinct; alpha-meaning and confidence with min "
            "and prod over 1023 formulas. Many empty meaning sets leave room to "
            "prune; no rows to merge.",
            {"t": TableSpec(n=48, m=5, d=3, distinct=True)},
            (
                _op("t", "threshold", "rules", "--method", "alpha-meaning", "--tnorm", "min",
                    "--alpha", "1/2"),
                _op("t", "threshold", "regions", "--method", "alpha-meaning", "--tnorm", "prod",
                    "--alpha", "1/3", "--format", "json"),
                _op("t", "graded", "rules", "--method", "confidence", "--tnorm", "min",
                    "--alpha", "3/5", "--format", "json"),
                _op("t", "graded", "rules", "--method", "confidence", "--tnorm", "prod",
                    "--alpha", "3/5"),
            ),
        ),
        Workload(
            "ingest",
            "n=2000 m=8: eq-complete (d=3), confidence and alpha-meaning on a1 "
            "(d=4, 5% ^(a1) cells). Parsing and quadratic validation dominate; "
            "only user of complete.",
            {
                "complete": TableSpec(n=2000, m=8, d=3, mix=(("known", 1.0),)),
                "incomplete": TableSpec(n=2000, m=8, d=4, class_specific=0.05),
            },
            (
                _op("complete", "threshold", "regions", "--method", "eq-complete"),
                _op("incomplete", "graded", "rules", "--method", "confidence", "--tnorm", "min",
                    "--alpha", "1/2", "--attrs", "a1", "--format", "json"),
                _op("incomplete", "threshold", "rules", "--method", "alpha-meaning", "--tnorm",
                    "prod", "--alpha", "1/2", "--attrs", "a1"),
            ),
        ),
    )
}


def _e2e(name, unit, doc):
    return {"name": name, "unit": unit, "better": "lower", "doc": doc}


# Times are wall seconds scaled to the nominal host speed by the reference
# chunks run around each op and set-up (see run.py).
END_TO_END = (
    _e2e("pass_s", "s", "time of one pass over the op list; median over passes"),
    _e2e("threshold_s", "s", "part of a pass in alpha-sim, alpha-meaning and eq-complete ops"),
    _e2e("graded_s", "s", "part of a pass in approx and confidence ops"),
    _e2e("setup_s", "s", "import threeway, generate and write the tables; median over the run"),
    _e2e("peak_rss_mib", "MiB", "peak resident memory of the benchmark process"),
)


def _layer(name, unit, moves, on, better="lower"):
    return {"name": name, "unit": unit, "better": better, "moves": moves, "on": on}


PER_LAYER = (
    _layer("table.parse_s", "s", "pass_s, threshold_s, graded_s", "ingest"),
    _layer("table.to_set_valued_s", "s", "pass_s, threshold_s, graded_s", "ingest"),
    _layer("table.cells", "count", "pass_s, threshold_s, graded_s", "ingest"),
    _layer("table.class_specific_cells", "count", "pass_s, threshold_s, graded_s", "ingest"),
    _layer("language.enumerate_s", "s", "pass_s", "sat-route"),
    _layer("language.formulas", "count", "pass_s", "sat-route"),
    _layer("similarity.matrix_s", "s", "threshold_s, peak_rss_mib", "sim-route"),
    _layer("similarity.matrix_calls", "count", "threshold_s, peak_rss_mib", "sim-route"),
    _layer("similarity.distinct_row_share", "share", "threshold_s, peak_rss_mib", "sim-route"),
    _layer("similarity.approx_s", "s", "graded_s", "sim-route"),
    _layer("similarity.pair_degrees", "count", "graded_s", "sim-route"),
    _layer("satisfiability.profile_s", "s", "threshold_s", "sat-route, less on ingest"),
    _layer("satisfiability.profiles", "count", "threshold_s", "sat-route, less on ingest"),
    _layer("satisfiability.empty_meaning_share", "share", "threshold_s", "sat-route, less on ingest"),
    _layer("satisfiability.confidence_s", "s", "graded_s", "sat-route, less on ingest"),
    _layer("satisfiability.region_yield", "share", "graded_s", "sat-route, less on ingest",
           "higher"),
    _layer("satisfiability.distinct_row_share", "share", "graded_s", "sat-route, less on ingest"),
    _layer("fuzzy.tnorm_calls", "count", "graded_s", "sim-route, sat-route"),
    _layer("fuzzy.implication_calls", "count", "graded_s", "sim-route, sat-route"),
    _layer("complete.partition_s", "s", "threshold_s", "ingest"),
    _layer("complete.blocks", "count", "threshold_s", "ingest"),
    _layer("rules.derive_s", "s", "pass_s", "sat-route, ingest"),
    _layer("rules.render_s", "s", "pass_s", "sat-route, ingest"),
    _layer("rules.count", "count", "pass_s", "sat-route, ingest"),
    _layer("rules.output_bytes", "count", "pass_s", "sat-route, ingest"),
    _layer("cli.self_s", "s", "threshold_s", "ingest"),
    _layer("trace.overhead_s", "s", "-", "all"),
) + tuple(
    _layer(f"{module}.op_share", "share", "the end-to-end time of its layer", "all")
    for module in MODULES
)
