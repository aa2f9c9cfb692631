"""Tests for the benchmark itself, on smoke-sized inputs.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

import run

cli = run.import_splicekit()

import checks  # noqa: E402  (needs the source path set up by run)
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from splicekit import fixtures, graph  # noqa: E402
from splicekit.splice import tree_determinant  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def units(result: dict) -> dict[str, str]:
    return {name: metric["unit"] for name, metric in result["metrics"].items()}


def rewriting(transform):
    """CLI entry point whose stdout passes through transform(argv, text)."""

    def entry(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        sys.stdout.write(transform(argv, out.getvalue()))
        return code

    return entry


def test_end_to_end_metrics_have_their_units():
    result, record = run.run("invariants_scaling", 1, 0, False, count=1, write=False)
    assert units(result) == {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert result["correct"] and result["attempted"] == 7 and result["failed"] == 0
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert record["nproc"] >= 1 and record["python"] and record["inputs"]["units"] == 1


def test_layer_metrics_have_their_units():
    result, record = run.run("report_small", 1, 0, True, count=4, write=False)
    assert units(result) == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert result["correct"] and result["attempted"] == 18
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert values["cli.main.self_s"] > 0
    assert values["graph.is_negative_definite.calls"] > 0
    assert values["discriminant.elements_enumerated"] > 0
    assert record["traced_ops"] == 9
    overhead = (record["traced_total_s"] - record["untraced_total_s"]) / 9
    assert values["trace.overhead_s"] == pytest.approx(overhead)


def test_tracer_records_nested_spans_and_restores_bindings():
    original = graph.is_negative_definite
    g1 = fixtures.g1()
    with tracing.Tracer() as tracer:
        tracer.op = 0
        assert graph.is_negative_definite is not original
        sys.modules["splicekit.reporting"].analysis_report(g1)
    assert graph.is_negative_definite is original
    assert sys.modules["splicekit.reporting"].is_negative_definite is original
    names = {span.id: span.name for span in tracer.spans}
    assert tracer.spans[0].name == "reporting.analysis_report" and tracer.spans[0].parent is None
    assert "linalg.determinant" in names.values()
    assert all(span.op == 0 and span.end >= span.start for span in tracer.spans)
    assert all(span.parent is not None for span in tracer.spans[1:])
    searched = [s for s in tracer.spans if s.name == "conditions.check_semigroup"]
    assert searched and all(s.attrs["search_nodes"] > 0 for s in searched)


def test_changed_golden_byte_fails_the_operation():
    def drop_a_space(argv, text):
        return text.replace('\n  "name"', '\n "name"', 1) if argv[-1].endswith("/g1.json") else text

    result, record = run.run("report_small", 1, 0, False, count=2,
                             entry=rewriting(drop_a_space), write=False)
    assert result["attempted"] == 7 and result["failed"] == 1 and not result["correct"]
    assert list(record["failures"]) == ["report g1: report differs from the golden file"]


def test_flipped_verdict_fails_the_operation():
    def flip_3_3(argv, text):
        if not argv[-1].endswith("/c000.json"):
            return text
        report = json.loads(text)
        report["conditions"]["okuma33"]["ok"] = not report["conditions"]["okuma33"]["ok"]
        return json.dumps(report, indent=2) + "\n"

    result, _ = run.run("report_small", 1, 0, False, count=2,
                        entry=rewriting(flip_3_3), write=False)
    assert result["failed"] == 1 and not result["correct"]


def output_of(op) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(op.argv))
    return code, out.getvalue()


def test_conflicting_verdicts_are_reported(tmp_path):
    g90 = workloads.report_small(1, tmp_path, count=1).ops[2]  # fails congruence and 3.3
    op = dataclasses.replace(g90, golden=None)
    code, text = output_of(op)
    facts = checks.GraphFacts(op.graph)
    assert checks.check_output(op, facts, code, text) is None
    report = json.loads(text)
    report["conditions"]["congruence"]["ok"] = True
    report["conditions"]["congruence"]["edges"] = []
    reason = checks.check_output(op, facts, code, json.dumps(report))
    assert reason == "condition 3.3 verdict differs from semigroup and congruence"


@pytest.mark.parametrize("path, change", [
    (("conditions", "semigroup", "edges", 0, "witness", 0, 1), 1),
    (("conditions", "congruence", "edges", 0, "witness", 0, 1), 1),
    (("conditions", "okuma33", "branches", 0, "exponents", 0, 1), 1),
    (("determinant",), 1),
])
def test_corrupted_report_fields_fail(tmp_path, path, change):
    g1 = workloads.report_small(1, tmp_path, count=1).ops[0]
    op = dataclasses.replace(g1, golden=None)  # so each field's own check must catch it
    code, text = output_of(op)
    facts = checks.GraphFacts(op.graph)
    assert checks.check_output(op, facts, code, text) is None
    report = json.loads(text)
    *parents, last = path
    holder = report
    for key in parents:
        holder = holder[key]
    holder[last] += change
    assert checks.check_output(op, facts, code, json.dumps(report)) is not None


@pytest.mark.parametrize("command, corrupt", [
    ("det", lambda p: p.update(determinant=p["determinant"] + 1)),
    ("splice", lambda p: p["weights"][0].__setitem__(2, p["weights"][0][2] + 1)),
    ("maximal", lambda p: p["weights"][-1].__setitem__(2, p["weights"][-1][2] * 2)),
    ("group", lambda p: p.update(order=p["order"] * 2)),
    ("group", lambda p: p["generators"].update(
        {k: list(reversed(v)) for k, v in p["generators"].items()})),
])
def test_corrupted_invariants_fail(tmp_path, command, corrupt):
    ops = workloads.invariants_scaling(2, tmp_path, count=1).ops
    op = next(o for o in ops if o.command == command)
    code, text = output_of(op)
    facts = checks.GraphFacts(op.graph)
    assert checks.check_output(op, facts, code, text) is None
    payload = json.loads(text)
    corrupt(payload)
    assert checks.check_output(op, facts, code, json.dumps(payload)) is not None


def test_scaled_times_follow_the_reference():
    refs = [0.002] * 30 + [0.004] * 30
    local = speed.local_reference(refs, window=5)
    assert local[:26] == [0.002] * 26 and local[-26:] == [0.004] * 26
    assert speed.scaled(0.1, 0.002) == pytest.approx(speed.scaled(0.2, 0.004))
    assert speed.scaled(0.1, speed.REFERENCE_S) == pytest.approx(0.1)


def test_each_operation_counts_once_at_its_median():
    times = [1.0, 3.0, 2.0, 3.0, 50.0]  # operation 0: 1, 2, 50; operation 1: 3, 3
    results = [(i % 2, latency, 0, "") for i, latency in enumerate(times)]
    metrics, extra = run.end_to_end(results, [speed.REFERENCE_S] * 5, (0.5, 0.7))
    assert extra["samples"] == 5 and extra["passes"] == 2.5
    assert metrics["latency_p50_s"][0] == pytest.approx(2.5)  # of 2 and 3
    assert metrics["latency_tail_s"][0] == pytest.approx(3.0)
    assert metrics["ops_per_s"][0] == pytest.approx(2 / 5)
    assert metrics["setup_s"][0] == 0.5 and extra["wall"]["setup_s"] == 0.7


def test_set_up_is_scaled_part_by_part():
    ref = speed.REFERENCE_S
    scaled, wall = run.setup_time(0.1, [0.4, 0.8, 0.6], [ref, 2 * ref, 2 * ref])
    assert scaled == pytest.approx(0.1 + 0.4) and wall == pytest.approx(0.1 + 0.6)


def test_workload_names_match_the_functions():
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)


def test_tail_keeps_ten_samples_beyond():
    assert run.tail([float(i) for i in range(1, 101)]) == (90.0, 90, 10)
    assert run.tail([float(i) for i in range(1, 12)]) == (1.0, 9, 10)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100, 0)


def test_small_corpus_relabelling_is_seeded_and_keeps_the_graphs(tmp_path):
    a, b, c = ([op.graph for op in workloads.report_small(seed, tmp_path, count=8).ops]
               for seed in (1, 1, 2))
    assert a == b and a != c
    assert a[:5] == c[:5] == list(fixtures.fixture_graphs().values())

    def shape(g):
        return tree_determinant(g), len(g.ids), sorted(g.weights), sorted(map(g.degree, g.ids))

    assert sorted(map(shape, a)) == sorted(map(shape, c))
    assert len(workloads.small_corpus()) == 38


def bench_command(cwd, env=None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "report_small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


def test_refuses_to_run_with_enum_cap_set():
    proc = bench_command(run.ROOT, env={**os.environ, run.ENUM_CAP_VAR: "10"})
    assert proc.returncode != 0 and proc.stdout == ""
    assert run.ENUM_CAP_VAR in proc.stderr


def test_fails_without_the_program(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = bench_command(tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""
