"""Tests of the benchmark itself: the gate must fail wrong outputs, and the
tracer's counters must repeat.

Run from the repository root with ``python3 -m pytest ckbench/tests -q``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

REFERENCE = workloads.load_reference()
ORACLE = workloads.Oracle()
ARROW = "nh-plus->so(4)"


def atlas_item(key=ARROW):
    return next(i for i in workloads.atlas_rows() if i.key == key)


def judged(workload, item, output, runs=3):
    """(attempted, failed) when the gate sees output for item runs times."""
    runner = run.Runner(workload, [item], 0, workloads.child_env())
    runner.outputs[(item.key, output)] += runs
    attempted, failed, _ = runner.judge(REFERENCE, ORACLE)
    return attempted, failed


def reference_report(key=ARROW):
    return json.loads(json.dumps(REFERENCE["atlas"][key]))


def test_reference_output_passes_the_gate():
    output = json.dumps(REFERENCE["atlas"][ARROW], indent=2)
    assert judged(workloads.WORKLOADS["atlas"], atlas_item(), output) == (3, 0)


def test_corrupted_basis_fails_atlas_and_deep_bound():
    report = reference_report()
    basis = report["constraints"]["groebner"]
    basis[0] = basis[0].replace("1/2", "1/3")
    output = json.dumps(report, indent=2)
    atlas = workloads.WORKLOADS["atlas"]
    assert judged(atlas, atlas_item(), output) == (3, 3)
    problems = atlas.check(atlas_item(), output, REFERENCE, ORACLE)
    assert "basis differs from sympy.groebner of raw" in problems
    report["degree_bound"] = workloads.DEEP_BOUND
    deep = workloads.WORKLOADS["deep-bound"]
    assert deep.check(atlas_item(), json.dumps(report), REFERENCE, ORACLE) == [
        "basis differs from the default-bound basis"]


def test_wrong_verdict_fails():
    report = reference_report()
    report["verdict"] = "fail"
    output = json.dumps(report, indent=2)
    assert judged(workloads.WORKLOADS["atlas"], atlas_item(), output) == (3, 3)
    control = reference_report("galilei-unextended-w1")
    control["verdict"] = "pass"
    problems = workloads.WORKLOADS["atlas"].check(
        atlas_item("galilei-unextended-w1"), json.dumps(control, indent=2),
        REFERENCE, ORACLE)
    assert "verdict 'pass', want 'closes-but-not-ck'" in problems


def test_exception_in_item_fails():
    output = workloads.error_output(RuntimeError("boom"))
    assert judged(workloads.WORKLOADS["atlas"], atlas_item(), output) == (3, 3)


def test_groebner_gate():
    workload = workloads.WORKLOADS["groebner"]
    items = {i.key: i for i in workload.build(7, REFERENCE)}
    item = items[ARROW + "#0"]
    good = workload.encode(workload.call(item.spec))
    assert judged(workload, item, good) == (3, 0)
    data = json.loads(good)
    for broken in (
        dict(data, basis=data["basis"][1:]),
        dict(data, residues_zero=False),
        dict(data, ideal_equals=False),
    ):
        assert judged(workload, item, json.dumps(broken)) == (3, 3)
    katsura = items["katsura-2"]
    good = json.loads(workload.encode(workload.call(katsura.spec)))
    good["basis"][-1] = good["basis"][-1].replace("79/210", "79/211")
    assert judged(workload, katsura, json.dumps(good)) == (3, 3)


class FailingCli(workloads.Cli):
    """A ``cli`` workload whose child process exits with code 3."""

    def argv(self, spec, spans_path=None):
        return [sys.executable, "-c",
                "import sys; print('{}'); sys.exit(3)"]


def test_child_exiting_nonzero_fails():
    workload = FailingCli()
    items = workload.build(0, REFERENCE)[:1]
    runner = run.Runner(workload, items, 0, workloads.child_env())
    passes = runner.passes(0)
    assert len(passes) == run.MIN_PASSES
    attempted, failed, problems = runner.judge(REFERENCE, ORACLE)
    assert (attempted, failed) == (run.MIN_PASSES, run.MIN_PASSES)
    assert problems[0]["problems"][0].startswith("exit code 3")


def test_cli_output_must_match_reference():
    workload = workloads.WORKLOADS["cli"]
    item = workload.build(0, REFERENCE)[-1]
    stdout = REFERENCE["cli"][item.key]
    good = json.dumps({"returncode": 0, "stdout": stdout, "stderr": ""})
    assert judged(workload, item, good) == (3, 0)
    report = json.loads(stdout)
    report["ok"] = False
    bad = json.dumps({"returncode": 0, "stdout": json.dumps(report, indent=2),
                      "stderr": ""})
    assert judged(workload, item, bad) == (3, 3)


def test_self_time_subtracts_child_spans():
    tracer = spans.Tracer()
    tracer.begin_item(0)
    outer = tracer._name_id("outer")
    inner = tracer._name_id("inner")
    for name, parent, start, end in ((outer, -1, 0.0, 10.0),
                                     (inner, 0, 1.0, 4.0),
                                     (inner, 0, 5.0, 7.0)):
        tracer.name.append(name)
        tracer.parent.append(parent)
        tracer.item.append(0)
        tracer.start.append(start)
        tracer.end.append(end)
    figures = tracer.item_figures()[0]
    assert figures["outer.self_s"] == pytest.approx(5.0)
    assert figures["inner.self_s"] == pytest.approx(5.0)
    assert figures["inner.calls"] == 2


def traced_counters(workload, item):
    tracer = spans.Tracer()
    tracer.begin_item(0)
    with spans.installed(tracer):
        workload.call(item.spec)
    return spans.counter_signature(tracer.item_figures()[0])


def test_counters_repeat_and_tracer_uninstalls():
    atlas = workloads.WORKLOADS["atlas"]
    item = atlas_item("iso(3)->so(4)")
    first = traced_counters(atlas, item)
    assert first == traced_counters(atlas, item)
    assert first["uea.reducer_init.calls"] == 1
    assert first["expand.pairs"] == 15
    assert not hasattr(workloads.ck.run_expansion, "__wrapped__")
    assert not hasattr(workloads.ck.expand.uea_commutator, "__wrapped__")


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "atlas",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
