"""In-memory span tracing of the threeway modules, from outside them.

:class:`Tracer` replaces the modules' public functions with wrappers
wherever callers look them up: the defining module's globals, the
globals of every module that imported the name (``cli`` imports
``rules.render`` as ``render_rules``), and the package namespace, where
``threeway.similarity`` is the function, not the module. A span records
(name, start, end, parent); counts are taken at the same boundaries.
Nothing under ``src/`` changes.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from functools import wraps
from statistics import median, median_low

# Spanned functions: (module, function). Every span is attributed to its
# module; a span's self time is its duration minus that of its children.
SPANNED = (
    ("cli", "main"),
    ("table", "parse_table"),
    ("table", "to_set_valued"),
    ("language", "enumerate_cdl"),
    ("similarity", "similarity_matrix"),
    ("similarity", "approximability"),
    ("similarity", "description_regions_alpha_sim"),
    ("similarity", "description_regions_approx"),
    ("satisfiability", "sat_profile"),
    ("satisfiability", "confidence"),
    ("satisfiability", "description_regions_alpha_meaning"),
    ("satisfiability", "description_regions_confidence"),
    ("complete", "partition"),
    ("complete", "regions_computational"),
    ("rules", "derive_rules"),
    ("rules", "render"),
)

# Counted but not spanned: called per pair or per degree, where a span
# would cost more than the work it times.
COUNTED = (
    ("similarity", "similarity"),
    ("satisfiability", "alpha_meaning_set"),
    ("fuzzy", "tnorm"),
    ("fuzzy", "implication"),
)

MODULES = ("cli", "table", "language", "similarity", "satisfiability", "complete", "rules")


def _distinct_rows(st, attrs) -> tuple[int, int]:
    rows = {tuple(st.cells[(x, a)] for a in attrs) for x in st.objects}
    return len(rows), len(st.objects)


def _observe(name: str, counts: Counter, args, result) -> None:
    """Counters read off a call's arguments and result."""
    if name == "table.parse_table":
        from threeway.table import ClassSpecific

        counts["table.cells"] += len(result.cells)
        counts["table.class_specific_cells"] += sum(
            isinstance(c, ClassSpecific) for c in result.cells.values()
        )
    elif name == "language.enumerate_cdl":
        counts["language.formulas"] += len(result)
    elif name == "similarity.similarity_matrix":
        distinct, n = _distinct_rows(args[0], result.attrs)
        counts["similarity.distinct_rows"] += distinct
        counts["similarity.rows"] += n
    elif name == "satisfiability.alpha_meaning_set":
        counts["satisfiability.empty_meanings"] += not result
    elif name in (
        "satisfiability.description_regions_alpha_meaning",
        "satisfiability.description_regions_confidence",
    ):
        distinct, n = _distinct_rows(args[0], args[1])
        counts["satisfiability.distinct_rows"] += distinct
        counts["satisfiability.rows"] += n
        if name.endswith("confidence"):
            counts["satisfiability.region_formulas"] += len(result[0] | result[1])
    elif name == "complete.partition":
        counts["complete.blocks"] += len(result.blocks)
    elif name == "rules.derive_rules":
        counts["rules.count"] += len(result.rules)
    elif name == "rules.render":
        counts["rules.output_bytes"] += len(result.encode())


class Tracer:
    """Spans and counts of one traced pass; install, run, uninstall."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _span(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            counts[name] += 1
            _observe(name, counts, args, result)
            return result

        return wrapper

    def _count(self, name: str, fn):
        counts = self.counts

        @wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            result = fn(*args, **kwargs)
            _observe(name, counts, args, result)
            return result

        return wrapper

    def install(self) -> None:
        package = {k: m for k, m in sys.modules.items() if k == "threeway" or k.startswith("threeway.")}
        for table, make in ((SPANNED, self._span), (COUNTED, self._count)):
            for module, func in table:
                original = getattr(package[f"threeway.{module}"], func)
                wrapper = make(f"{module}.{func}", original)
                for mod in package.values():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def self_times(self) -> dict[str, float]:
        """Self time per module, summed over spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = Counter()
        for (name, start, end, _), covered in zip(self.spans, child):
            out[name.split(".")[0]] += end - start - covered
        return out

    def total(self, name: str) -> float:
        return sum(end - start for n, start, end, _ in self.spans if n == name)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the pass just traced."""
        c = self.counts
        selfs = self.self_times()
        op_time = self.total("cli.main")

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        out = {
            "table.parse_s": self.total("table.parse_table"),
            "table.to_set_valued_s": self.total("table.to_set_valued"),
            "table.cells": c["table.cells"],
            "table.class_specific_cells": c["table.class_specific_cells"],
            "language.enumerate_s": self.total("language.enumerate_cdl"),
            "language.formulas": c["language.formulas"],
            "similarity.matrix_s": self.total("similarity.similarity_matrix"),
            "similarity.matrix_calls": c["similarity.similarity_matrix"],
            "similarity.distinct_row_share": ratio(c["similarity.distinct_rows"], c["similarity.rows"]),
            "similarity.approx_s": self.total("similarity.approximability"),
            "similarity.pair_degrees": c["similarity.similarity"],
            "satisfiability.profile_s": self.total("satisfiability.sat_profile"),
            "satisfiability.profiles": c["satisfiability.sat_profile"],
            "satisfiability.empty_meaning_share": ratio(
                c["satisfiability.empty_meanings"], c["satisfiability.alpha_meaning_set"]
            ),
            "satisfiability.confidence_s": self.total("satisfiability.confidence"),
            "satisfiability.region_yield": ratio(
                c["satisfiability.region_formulas"], c["satisfiability.confidence"]
            ),
            "satisfiability.distinct_row_share": ratio(
                c["satisfiability.distinct_rows"], c["satisfiability.rows"]
            ),
            "fuzzy.tnorm_calls": c["fuzzy.tnorm"],
            "fuzzy.implication_calls": c["fuzzy.implication"],
            "complete.partition_s": self.total("complete.partition"),
            "complete.blocks": c["complete.blocks"],
            "rules.derive_s": self.total("rules.derive_rules"),
            "rules.render_s": self.total("rules.render"),
            "rules.count": c["rules.count"],
            "rules.output_bytes": c["rules.output_bytes"],
            "cli.self_s": selfs["cli"],
        }
        for module in MODULES:
            out[f"{module}.op_share"] = ratio(selfs[module], op_time)
        return out


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over traced passes; counts stay whole."""
    out = {}
    for k, first in passes[0].items():
        values = [p[k] for p in passes]
        out[k] = median_low(values) if isinstance(first, int) else median(values)
    return out
