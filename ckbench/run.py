"""The ckexpand benchmark: one workload, one seed, a fixed measuring time.

Run from the repository root:

    python3 ckbench/run.py --workload atlas --seed 1 --seconds 20 --trace 0

Workloads are described in ``workloads.py``.  A run:

1. times ``SETUP_PROBES`` fresh interpreters that import ``ckexpand`` and
   build the workload's inputs (``setup_s`` is their median);
2. builds the inputs here, warms up, then runs passes over the items in a
   seeded order, one item at a time, for ``--seconds`` seconds;
3. checks every output outside the timed window (``failed`` counts the
   item runs whose output is wrong);
4. prints the metrics by name and unit, then as its last line one JSON
   object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Times are reported in reference-speed seconds.  The machine this runs on
is shared, and its speed drifts by up to a factor of two within seconds,
for the program and for any other code alike.  So after each item, outside
the timed window, the run times the fixed loop of ``calibration.py``, which
uses nothing of the program: in-process for in-process items, as a fresh
interpreter for items and set-up probes that are child processes.  An
item's times are scaled by the reference calibration time over the mean
of the calibrations taken just before and just after it; the speed drifts
too fast for a wider window.  The unscaled figures go into the record.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` spends half
the time untraced and half with the span tracer of ``spans.py`` installed
and reports the per-layer metrics, including the tracing overhead.  A full
record of each run (environment, metrics, failures, per-pass counters) and,
for traced runs, the spans are written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import calibration
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 5
MIN_PASSES = 2
PROBE_CALIBRATIONS = 2

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "pass_cpu_s": "s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def speed_factor(calibrations) -> float:
    return calibration.REFERENCE_S / statistics.median(calibrations)


@dataclass
class Pass:
    items: list = field(default_factory=list)  # run-wide item indices
    walls: list = field(default_factory=list)
    cpus: list = field(default_factory=list)
    # one before the first item and one after each item
    calibrations: list = field(default_factory=list)
    rss_kb: int = 0

    @property
    def speed(self) -> float:
        return speed_factor(self.calibrations)

    def item_speeds(self) -> list:
        cals = self.calibrations
        return [2 * calibration.REFERENCE_S / (cals[i] + cals[i + 1])
                for i in range(len(cals) - 1)]

    def scaled(self, values) -> list:
        return [v * s for v, s in zip(values, self.item_speeds())]


class Runner:
    """Runs items of one workload and keeps every output for the gate."""

    def __init__(self, workload, items, seed: int, env):
        self.workload = workload
        self.items = items
        self.order = random.Random(seed)
        self.env = env
        self.outputs: Counter = Counter()  # (item key, output) -> runs
        self.count = 0

    def calibrate(self) -> float:
        return self.workload.calibrate(self.env)

    def run_one(self, item, tracer=None):
        index = self.count
        self.count += 1
        if tracer is not None:
            tracer.begin_item(index)
        return (index, *self.workload.run(item.spec, self.env, tracer))

    def warm_up(self):
        warm = self.items if self.workload.in_process else [
            self.items[0], self.items[-1]]
        for item in warm:
            self.run_one(item)

    def passes(self, seconds: float, tracer=None) -> list:
        done = []
        deadline = time.perf_counter() + seconds
        while len(done) < MIN_PASSES or time.perf_counter() < deadline:
            order = list(self.items)
            self.order.shuffle(order)
            p = Pass(calibrations=[self.calibrate()])
            for item in order:
                index, output, wall, cpu, rss = self.run_one(item, tracer)
                self.outputs[(item.key, output)] += 1
                p.items.append(index)
                p.walls.append(wall)
                p.cpus.append(cpu)
                p.rss_kb = max(p.rss_kb, rss)
                p.calibrations.append(self.calibrate())
            done.append(p)
        return done

    def judge(self, reference, oracle):
        """(attempted, failed, problems) over every recorded output."""
        by_key = {item.key: item for item in self.items}
        attempted = sum(self.outputs.values())
        failed = 0
        problems = []
        for (key, output), runs in self.outputs.items():
            found = self.workload.check(by_key[key], output, reference, oracle)
            if found:
                failed += runs
                problems.append({"item": key, "runs": runs, "problems": found})
        return attempted, failed, problems


def probe_setup(workload: str, seed: int, env, child_calibration) -> dict:
    """One set-up probe, with the speed factor of calibrations around it."""
    calibrations = [child_calibration(env) for _ in range(PROBE_CALIBRATIONS)]
    out = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed)],
        capture_output=True, text=True, env=env, cwd=ROOT, check=True,
    )
    calibrations += [child_calibration(env) for _ in range(PROBE_CALIBRATIONS)]
    probe = json.loads(out.stdout.strip().splitlines()[-1])
    probe["speed"] = speed_factor(calibrations)
    return probe


def end_to_end(passes, probes, rss_kb, scaled=True) -> dict:
    """The end-to-end metrics, in reference-speed seconds unless not scaled."""
    def times(p, values):
        return p.scaled(values) if scaled else values

    walls = [w for p in passes for w in times(p, p.walls)]
    return {
        "setup_s": statistics.median(
            p["setup_s"] * (p["speed"] if scaled else 1) for p in probes),
        "pass_s": statistics.median(sum(times(p, p.walls)) for p in passes),
        "pass_cpu_s": statistics.median(sum(times(p, p.cpus)) for p in passes),
        "item_p50_ms": statistics.median(walls) * 1000,
        "item_p90_ms": statistics.quantiles(walls, n=10)[8] * 1000,
        "items_per_s": len(walls) / sum(walls),
        "peak_rss_mb": rss_kb / 1024,
    }


def per_layer(tracer, traced, untraced, probes):
    """Layer metrics averaged over traced passes, and whether every traced
    pass produced exactly the same counters."""
    figures = tracer.item_figures()
    totals = []
    for p in traced:
        total = Counter()
        for index in p.items:
            total.update(figures.get(index, {}))
        totals.append(total)
    signatures = [spans.counter_signature(t) for t in totals]
    per_pass = [spans.layer_metrics(t, p.speed) for t, p in zip(totals, traced)]
    metrics = {name: statistics.fmean(m[name] for m in per_pass)
               for name in per_pass[0]}
    metrics["cli.import_s"] = statistics.median(
        p["import_s"] * p["speed"] for p in probes)
    metrics["trace.overhead_s"] = (
        statistics.median(sum(p.scaled(p.walls)) for p in traced)
        - statistics.median(sum(p.scaled(p.walls)) for p in untraced))
    repeat = all(s == signatures[0] for s in signatures)
    return metrics, signatures[0], repeat


def git_commit(root: Path):
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(load_before, kernel_implementation) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "kernel_implementation": kernel_implementation,
        "commit": git_commit(ROOT),
        "src_sha256": source_digest(ROOT),
        "loadavg_before": list(load_before),
        "loadavg_after": list(os.getloadavg()),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["atlas", "deep-bound", "groebner", "cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "ckexpand" / "__init__.py").is_file():
        print(f"error: no ckexpand sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    load_before = os.getloadavg()
    import workloads

    OUT.mkdir(exist_ok=True)
    env = workloads.child_env()
    probes = [probe_setup(args.workload, args.seed, env,
                          workloads.child_calibration)
              for _ in range(SETUP_PROBES)]
    workload = workloads.WORKLOADS[args.workload]
    reference = workloads.load_reference()
    runner = Runner(workload, workload.build(args.seed, reference), args.seed,
                    env)
    runner.warm_up()
    runner.outputs.clear()

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace}
    if args.trace:
        untraced = runner.passes(args.seconds / 2)
        tracer = spans.Tracer()
        if workload.in_process:
            with spans.installed(tracer):
                traced = runner.passes(args.seconds / 2, tracer)
        else:
            traced = runner.passes(args.seconds / 2, tracer)
        values, counters, repeat = per_layer(tracer, traced, untraced, probes)
        units = spans.LAYER_METRICS
        record["pass_counters"] = counters
        record["counters_repeat_across_passes"] = repeat
        record["passes"] = {"untraced": len(untraced), "traced": len(traced)}
        tracer.dump(OUT / f"{args.workload}-seed{args.seed}.spans.json")
    else:
        timed = runner.passes(args.seconds)
        rss_kb = (max(p.rss_kb for p in timed) if not workload.in_process
                  else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        values = end_to_end(timed, probes, rss_kb)
        units = END_TO_END
        record["passes"] = {"timed": len(timed)}
        record["unscaled"] = end_to_end(timed, probes, rss_kb, scaled=False)
        record["pass_walls"] = [p.walls for p in timed]
        record["pass_calibrations"] = [p.calibrations for p in timed]

    attempted, failed, problems = runner.judge(reference, workloads.Oracle())
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in units}
    record.update({
        "env": environment(load_before, workloads.ck.KERNEL_IMPLEMENTATION),
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "problems": problems[:20],
        "metrics": metrics,
    })
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w") as handle:
        json.dump(record, handle, indent=1)

    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{record['passes']} passes, {attempted} items, {failed} failed "
          f"(failed_share {failed / attempted})")
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:.6g} {m['unit']}")
    for p in problems[:5]:
        print(f"  FAILED {p['item']} x{p['runs']}: {'; '.join(p['problems'])}")
    print(f"  env {json.dumps(record['env'])}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
