"""Benchmark of the threeway CLI.

    python3 bench/run.py --workload sim-route --seed 1 --seconds 36 --trace 0
    python3 bench/run.py --list-metrics
    python3 bench/run.py --record-digests

Run from the root of a checkout: the program is imported from ``src/``
there, never from an installed copy. Set-up imports it, generates the
workload's tables from ``--seed`` and writes them as ``.itab`` files
under ``.bench_work/``. Each op is an in-process
``threeway.cli.main(argv)`` call with stdout captured; a pass runs every
op once. Passes repeat until ``--seconds`` is used up, each followed by a
repeat of the set-up; ``setup_s`` is the median of the set-ups, the
first timed from process start.

A shared virtual machine can change speed by up to 2x within minutes (a
2-vCPU KVM guest on a Xeon host did), so a fixed pure-Python reference
chunk runs after every set-up and every op. Each op's and set-up's
seconds are scaled to the nominal host speed, at which a chunk takes
``REF_NOMINAL_S``, by the mean of the two chunks on either side. The
reported times are these scaled seconds; the raw wall times and the
chunk times are in the diagnostics.

Outputs are checked after timing ends. The last line of stdout is the
result object and the line before it holds diagnostics, among them
``host_ref_s`` and ``error_rate`` (failed over attempted ops). With
``--trace 1`` untraced and traced passes alternate, and the per-layer
metrics are reported instead of the end-to-end ones.
"""

import time

START = time.perf_counter()

import argparse
import contextlib
import hashlib
import io
import json
import random
import resource
import shutil
import sys
from fractions import Fraction
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 1
#: Iterations of the reference chunk, the count it must reach, and the
#: seconds it takes at the nominal host speed that times are scaled to.
REF_ITERATIONS = 80000
REF_ABOVE = 19153
REF_NOMINAL_S = 0.4

sys.path.insert(0, str(HERE))

from gen import generate  # noqa: E402
from workloads import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402


def import_program():
    """Import ``threeway`` afresh from this checkout's ``src/``."""
    src = ROOT / "src"
    if not (src / "threeway" / "__init__.py").is_file():
        raise SystemExit(f"error: no threeway sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "threeway" or n.startswith("threeway.")]:
        del sys.modules[name]
    import threeway.cli

    if Path(threeway.cli.__file__).resolve().parents[1] != src.resolve():
        raise SystemExit(f"error: threeway was imported from {threeway.cli.__file__}")
    return threeway.cli


def set_up(workload, seed: int, directory: Path):
    """Import the program, generate the tables and write them."""
    cli = import_program()
    rng = random.Random(seed)
    directory.mkdir(parents=True, exist_ok=True)
    paths, shapes = {}, {}
    for key, spec in workload.tables.items():
        text, shapes[key] = generate(spec, rng)
        paths[key] = directory / f"{key}.itab"
        paths[key].write_text(text, encoding="utf-8")
    return cli, paths, shapes


def run_op(cli, argv):
    """One op: (seconds, exit code, stdout); an exception counts as code -1."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except Exception as exc:  # an op that raises is a failed op, not a crash
        code = -1
        out.write(f"{type(exc).__name__}: {exc}")
    return time.perf_counter() - start, code, out.getvalue()


def host_ref() -> float:
    """Seconds for the reference chunk: a fixed loop of exact-rational arithmetic."""
    start = time.perf_counter()
    above = 0
    for i in range(REF_ITERATIONS):
        above += Fraction(i % 97, 97) + Fraction(1, i % 13 + 1) > 1
    if above != REF_ABOVE:
        raise AssertionError(f"reference loop counted {above}")
    return time.perf_counter() - start


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` at the nominal host speed, from the reference chunks around them."""
    return seconds * 2 * REF_NOMINAL_S / (before + after)


def run_pass(cli, ops, argvs, ref: float):
    """Run every op once with a reference chunk after each; ``ref`` is the
    chunk just before the first op.

    Returns the scaled time per block type, the raw wall time of the ops,
    the chunk times and each op's result.
    """
    blocks = {"threshold": 0.0, "graded": 0.0}
    wall, refs, results = 0.0, [], []
    for op, argv in zip(ops, argvs):
        seconds, code, out = run_op(cli, argv)
        after = host_ref()
        blocks[op.block] += scaled(seconds, ref, after)
        wall += seconds
        refs.append(after)
        results.append((code, out))
        ref = after
    return blocks, wall, refs, results


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def op_argvs(workload, paths):
    return [(op.argv[0], "--table", str(paths[op.table]), *op.argv[1:]) for op in workload.ops]


def check_outputs(workload, seed, paths, passes):
    """Per op: a list of reasons it failed (empty when it passed)."""
    import check
    from threeway import parse_table, to_set_valued

    first = passes[0]
    recorded = None
    if seed == DEFAULT_SEED and DIGESTS.is_file():
        recorded = json.loads(DIGESTS.read_text())[workload.name]
    rng = random.Random(seed)
    tables = {key: to_set_valued(parse_table(p.read_text())) for key, p in paths.items()}
    failures = []
    for i, op in enumerate(workload.ops):
        code, out = first[i]
        reasons = []
        if code != 0:
            reasons.append(f"exit code {code}: {out[:200]}")
        elif any(p[i][1] != out for p in passes[1:]):
            reasons.append("output changed between passes")
        elif recorded is not None and digest(out) != recorded[i]:
            reasons.append("output digest differs from the one recorded for the default seed")
        else:
            reasons += check.check_op(tables[op.table], op.argv, out, rng)
        failures.append(reasons)
    return failures


def measure(workload, seed: int, seconds: float, trace: bool):
    directory = WORK / f"{workload.name}-{seed}"
    cli, paths, shapes = set_up(workload, seed, directory)
    raw_setups = [time.perf_counter() - START]
    ref = host_ref()
    refs = [ref]
    setups = [scaled(raw_setups[0], ref, ref)]
    argvs = op_argvs(workload, paths)
    if trace:
        from tracing import Tracer

    plain, walls, traced, layers, outputs, spans, laps = [], [], [], [], [], [], []
    begin = time.perf_counter()
    # Start another pass only if at least half of it fits in the budget.
    while not laps or time.perf_counter() - begin + median(laps) / 2 <= seconds:
        lap = time.perf_counter()
        blocks, wall, chunks, results = run_pass(cli, workload.ops, argvs, ref)
        plain.append(blocks)
        walls.append(wall)
        refs += chunks
        outputs.append(results)
        ref = chunks[-1]
        if trace:
            tracer = Tracer()
            tracer.install()
            try:
                blocks, _, chunks, results = run_pass(cli, workload.ops, argvs, ref)
            finally:
                tracer.uninstall()
            traced.append(sum(blocks.values()))
            layers.append(tracer.layer_metrics())
            spans.append(tracer.spans)
            outputs.append(results)
            ref = chunks[-1]
        # Set-up is repeated between passes, so that its samples, like the
        # passes, span the whole run and the host's drift over it.
        start = time.perf_counter()
        cli, paths, _ = set_up(workload, seed, directory)
        raw_setups.append(time.perf_counter() - start)
        after = host_ref()
        setups.append(scaled(raw_setups[-1], ref, after))
        refs.append(after)
        ref = after
        laps.append(time.perf_counter() - lap)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failures = check_outputs(workload, seed, paths, outputs)
    attempted = len(outputs) * len(workload.ops)
    failed = len(outputs) * sum(bool(r) for r in failures)
    diagnostics = {
        "workload": workload.name,
        "seed": seed,
        "passes": len(plain),
        "pass_scaled_s": [sum(b.values()) for b in plain],
        "pass_wall_s": walls,
        "host_ref_s": median(refs),
        "host_ref_samples_s": refs,
        "setup_scaled_s": setups,
        "setup_wall_s": raw_setups,
        "error_rate": failed / attempted,
        "failures": {str(i): r for i, r in enumerate(failures) if r},
        "tables": shapes,
    }
    if trace:
        from tracing import median_metrics

        metrics = median_metrics(layers)
        metrics["trace.overhead_s"] = median(traced) - median(sum(b.values()) for b in plain)
        trace_file = WORK / f"trace-{workload.name}-{seed}.json"
        trace_file.write_text(json.dumps({"passes": spans}))
        diagnostics["trace_file"] = str(trace_file.relative_to(ROOT))
        units = {m["name"]: m["unit"] for m in PER_LAYER}
    else:
        metrics = {
            "pass_s": median(sum(b.values()) for b in plain),
            "threshold_s": median(b["threshold"] for b in plain),
            "graded_s": median(b["graded"] for b in plain),
            "setup_s": median(setups),
            "peak_rss_mib": peak_rss_mib,
        }
        units = {m["name"]: m["unit"] for m in END_TO_END}
    shutil.rmtree(directory)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return diagnostics, result


def list_metrics() -> None:
    print(f"end-to-end metrics (--trace 0; times scaled to a {REF_NOMINAL_S} s reference chunk):")
    for m in END_TO_END:
        print(f"  {m['name']:<36} {m['unit']:<6} {m['better']} is better; {m['doc']}")
    print("per-layer metrics (--trace 1): name, unit, end-to-end metric it should move, on")
    for m in PER_LAYER:
        print(f"  {m['name']:<36} {m['unit']:<6} {m['moves']:<28} {m['on']}")
    print("workloads:")
    for w in WORKLOADS.values():
        print(f"  {w.name}: {w.why}")
        for key, spec in w.tables.items():
            print(f"    table {key}: {spec}")
        for op in w.ops:
            print(f"    op [{op.block}] {op.table}: {' '.join(op.argv)}")
    print("diagnostics (line before the result): host_ref_s s, error_rate share")


def record_digests() -> None:
    """Write the stdout digests of every op at the default seed."""
    recorded = {}
    for name, workload in WORKLOADS.items():
        directory = WORK / f"record-{name}"
        cli, paths, _ = set_up(workload, DEFAULT_SEED, directory)
        _, _, _, results = run_pass(cli, workload.ops, op_argvs(workload, paths), host_ref())
        if any(code != 0 for code, _ in results):
            raise SystemExit(f"error: an op of {name} failed; nothing recorded")
        recorded[name] = [digest(out) for _, out in results]
        shutil.rmtree(directory)
    DIGESTS.write_text(json.dumps(recorded, indent=2) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list-metrics", action="store_true")
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args()
    if args.list_metrics:
        list_metrics()
        return 0
    if args.record_digests:
        record_digests()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    diagnostics, result = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"diagnostics": diagnostics}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
