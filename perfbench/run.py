#!/usr/bin/env python3
"""Seeded benchmark for splicekit.

Drives the public CLI entry point ``splicekit.cli.main`` in-process: one
command on one graph file per operation, one thread, closed loop (the next
operation starts when the previous one returns). Inputs are generated from
the seed and written as graph documents during set-up; every output is
checked exactly after the timed phase. A fixed reference task runs before
every operation, and times are reported scaled to a nominal host speed
(see speed.py); the run record holds the unscaled wall times as well.

    python3 perfbench/run.py --workload report_small --seed 1 --seconds 50 --trace 0

With --trace 0 the result holds the end-to-end metrics; with --trace 1 the
run times the same operations untraced and then traced, and the result
holds the per-layer metrics. The line before the result is the run record.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
# Reference tasks timed right before each set-up; their median scales it.
SETUP_REFERENCES = 11
TAIL_BEYOND = 10
WORKLOAD_NAMES = ("report_small", "invariants_scaling", "report_large_det")
# Overrides search budgets and the group cap, and ignores invalid values.
ENUM_CAP_VAR = "SPLICEKIT_ENUM_CAP"


def import_splicekit():
    """Import splicekit from this checkout's source tree; returns the CLI module.

    The benchmark's other modules import splicekit, so they are imported
    only after this has run."""
    if not (SRC / "splicekit" / "cli.py").is_file():
        raise FileNotFoundError(f"no splicekit source at {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import splicekit.cli

    if Path(splicekit.cli.__file__).resolve().parent != (SRC / "splicekit").resolve():
        raise ImportError(f"splicekit imported from {splicekit.cli.__file__}, not {SRC}")
    return splicekit.cli


def execute(main, argv) -> tuple[float, object, str]:
    """Run one operation; returns (latency, exit code, stdout). A raised
    exception is described in place of the exit code."""
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # the operation failed; the run goes on
        code = f"raised {type(exc).__name__}: {exc}"
    return time.perf_counter() - start, code, out.getvalue()


def closed_loop(main, ops, seconds: float) -> tuple[list, list[float]]:
    """Run ops in order, cycling, each right after one timed reference task,
    until `seconds` have passed and at least one whole pass ran. Returns
    ([(op index, latency, code, stdout)], [reference time before each])."""
    from speed import time_reference

    results, refs = [], []
    # Repeats of an operation print the same text; keeping one copy stops
    # peak memory from growing with the number of passes.
    outputs: dict[str, str] = {}
    start = time.perf_counter()
    while len(results) < len(ops) or time.perf_counter() - start < seconds:
        index = len(results) % len(ops)
        refs.append(time_reference())
        latency, code, text = execute(main, ops[index].argv)
        results.append((index, latency, code, outputs.setdefault(text, text)))
    return results, refs


def tail(latencies: list[float]) -> tuple[float, int, int]:
    """(value, percentile, samples beyond it) for the highest whole
    percentile with at least TAIL_BEYOND samples beyond its nearest-rank
    value; the maximum when there are too few samples."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100, 0
    pct = math.floor(100 * (n - TAIL_BEYOND) / n)
    rank = math.ceil(pct * n / 100)
    return xs[rank - 1], pct, n - rank


def check_results(ops, results) -> tuple[int, dict[str, int]]:
    """Failed operation count and failure reasons. Each distinct output is
    checked once; a repeat of an operation must reproduce its first output."""
    from checks import GraphFacts, check_output

    facts: dict[str, GraphFacts] = {}
    verdicts: dict[tuple[int, object, str], str | None] = {}
    first: dict[int, str] = {}
    reasons: Counter[str] = Counter()
    for index, _, code, text in results:
        op = ops[index]
        key = (index, code, text)
        if key not in verdicts:
            if op.name not in facts:
                facts[op.name] = GraphFacts(op.graph)
            verdicts[key] = check_output(op, facts[op.name], code, text)
        reason = verdicts[key]
        if reason is None and first.setdefault(index, text) != text:
            reason = "output changed between runs of the same operation"
        if reason is not None:
            reasons[f"{op.command} {op.name}: {reason}"] += 1
    return sum(reasons.values()), dict(reasons)


def git_commit() -> str | None:
    """The checked-out commit, read from .git; None outside a git work tree."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def set_up(workload: str, seed: int, count: int | None, main, run_dir: Path):
    """SETUP_REPEATS times: generate the inputs, write them, run the first
    operation once. Returns (inputs of the last set-up, seconds of each,
    median reference time right before each)."""
    from speed import time_reference
    from workloads import WORKLOADS

    build = WORKLOADS[workload]
    times, refs = [], []
    for rep in range(SETUP_REPEATS):
        refs.append(statistics.median(time_reference() for _ in range(SETUP_REFERENCES)))
        directory = run_dir / f"setup{rep}"
        start = time.perf_counter()
        directory.mkdir(parents=True)
        inputs = build(seed, directory) if count is None else build(seed, directory, count)
        execute(main, inputs.ops[0].argv)
        times.append(time.perf_counter() - start)
        if rep + 1 < SETUP_REPEATS:
            shutil.rmtree(directory)
    return inputs, times, refs


def setup_time(import_s: float, times: list[float], refs: list[float]) -> tuple[float, float]:
    """(scaled, wall) set-up time: the import plus the median set-up, each
    scaled by the reference time right before it. The host's speed changed
    between set-ups of one run; scaled by one reference time for the whole
    set-up, `setup_s` of `invariants_scaling` had a quartile spread of 28%
    of its median over ten seeds, against 8% this way."""
    from speed import scaled

    return (scaled(import_s, refs[0])
            + statistics.median(scaled(t, ref) for t, ref in zip(times, refs)),
            import_s + statistics.median(times))


def operation_medians(indices: list[int], times: list[float]) -> list[float]:
    """The median time of each operation, in order of first appearance."""
    by_op: dict[int, list[float]] = {}
    for index, t in zip(indices, times):
        by_op.setdefault(index, []).append(t)
    return [statistics.median(ts) for ts in by_op.values()]


def end_to_end(results, refs: list[float], setup: tuple[float, float]) -> tuple[dict, dict]:
    """(metrics, run record additions) of an untraced run.

    Each time is scaled by the reference times around it. The latency
    metrics and ops_per_s take one sample per operation, its median time
    over the run: every operation counts once however many passes the run
    made, and one slow sample of one operation does not move them.
    `setup` is the (scaled, wall) set-up time."""
    from speed import local_reference, scaled

    indices = [r[0] for r in results]
    raw = [r[1] for r in results]
    latencies = [scaled(t, ref) for t, ref in zip(raw, local_reference(refs))]
    per_op = operation_medians(indices, latencies)
    tail_value, tail_pct, beyond = tail(per_op)
    metrics = {
        "latency_p50_s": (statistics.median(per_op), "s"),
        "latency_tail_s": (tail_value, "s"),
        "ops_per_s": (len(per_op) / sum(per_op), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "setup_s": (setup[0], "s"),
    }
    raw_per_op = operation_medians(indices, raw)
    wall = {
        "latency_p50_s": statistics.median(raw_per_op),
        "latency_tail_s": tail(raw_per_op)[0],
        "ops_per_s": len(raw_per_op) / sum(raw_per_op),
        "setup_s": setup[1],
    }
    return metrics, {"samples": len(results), "passes": len(results) / len(per_op),
                     "tail_percentile": tail_pct, "tail_operations_beyond": beyond,
                     "reference_median_s": statistics.median(refs), "wall": wall}


def per_layer(tracer, results, refs: list[float], traced_ops: int) -> tuple[dict, dict]:
    """(metrics, run record additions) of a traced run, whose results hold
    the untraced operations followed by the same operations traced. The two
    totals are scaled by the reference times, each half by its own, so a
    change in host speed between the halves does not count as overhead."""
    from speed import local_reference, scaled
    from tracing import LAYER_UNITS, layer_metrics

    local = local_reference(refs[:traced_ops]) + local_reference(refs[traced_ops:])
    times = [scaled(r[1], ref) for r, ref in zip(results, local)]
    untraced = sum(times[:traced_ops])
    traced = sum(times[traced_ops:])
    values = layer_metrics(tracer.spans, traced_ops, traced - untraced)
    metrics = {name: (value, LAYER_UNITS[name]) for name, value in values.items()}
    return metrics, {"traced_ops": traced_ops, "untraced_total_s": untraced,
                     "traced_total_s": traced, "overhead_share": traced / untraced - 1,
                     "undecided_frac": values["conditions.undecided_frac"],
                     "wall": {"untraced_total_s": sum(r[1] for r in results[:traced_ops]),
                              "traced_total_s": sum(r[1] for r in results[traced_ops:])}}


def run(workload: str, seed: int, seconds: float, traced: bool, count: int | None = None,
        entry=None, write: bool = True) -> tuple[dict, dict]:
    """One benchmark run; returns (result, run record). `count` shrinks the
    inputs and `entry` replaces the CLI entry point, for tests."""
    started = time.perf_counter()
    cli = import_splicekit()
    import_s = time.perf_counter() - started

    def main(argv):
        # Looked up per call, so the traced phase reaches the wrapped entry point.
        return cli.main(argv) if entry is None else entry(argv)

    run_dir = WORK / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        inputs, setup_runs, setup_refs = set_up(workload, seed, count, main, run_dir)
        ops = inputs.ops
        if traced:
            from speed import time_reference
            from tracing import Tracer

            results, refs = closed_loop(main, ops, seconds / 2)
            replay = [r[0] for r in results]
            with Tracer() as tracer:
                for position, index in enumerate(replay):
                    tracer.op = position
                    refs.append(time_reference())
                    results.append((index,) + execute(main, ops[index].argv))
            metrics, extra = per_layer(tracer, results, refs, len(replay))
        else:
            results, refs = closed_loop(main, ops, seconds)
            metrics, extra = end_to_end(results, refs,
                                        setup_time(import_s, setup_runs, setup_refs))
        failed, reasons = check_results(ops, results)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "inputs": inputs.sizes,
        "operations": len(ops),
        "attempted": len(results),
        "failed": failed,
        "failed_frac": failed / len(results),
        "failures": reasons,
        "import_s": import_s,
        "setup_runs_s": setup_runs,
        "setup_references_s": setup_refs,
        **extra,
    }
    result = {
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    if write:
        OUT.mkdir(exist_ok=True)
        stem = f"{workload}-seed{seed}-trace{int(traced)}"
        # [op index, wall latency, reference time before it]
        latencies = [[r[0], r[1], ref] for r, ref in zip(results, refs)]
        (OUT / f"{stem}.json").write_text(
            json.dumps({"run": record, "result": result, "latencies": latencies}, indent=1) + "\n")
        if traced:
            tracer.write(OUT / f"{stem}-spans.jsonl")
    return result, record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if ENUM_CAP_VAR in os.environ:
        print(f"refusing to run: {ENUM_CAP_VAR} is set and changes search budgets "
              "and the group cap", file=sys.stderr)
        return 2
    try:
        result, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (FileNotFoundError, ImportError) as exc:
        print(f"cannot run the benchmark: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"run": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
