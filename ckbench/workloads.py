"""The benchmark's workloads: inputs from a seed, the timed call per item,
and the correctness check for each item's output.

All load is closed loop from one process, one item at a time.

Why these workloads:

* ``atlas`` -- the 12 expansion arrows plus the negative control at the
  default degree bound, in-process.  This is what ``ck atlas`` and the
  library's ``run_atlas`` do; PBW products and the bracket passes dominate.
* ``deep-bound`` -- the same arrows at cofactor degree bound 3 (what users
  set with ``--degree-bound`` or ``CK_DEGREE_BOUND``).  Building the
  ``CentralReducer`` dominates here, so reducer changes show on it and
  pipeline-only changes show less.
* ``groebner`` -- library calls to ``groebner_basis``, ``reduce_mod_ideal``
  and ``ideal_equals`` on every arrow's raw constraint system (numeric and
  symbolic target), recombined by a seeded unimodular transformation so the
  ideal and its reduced basis stay known, plus katsura-2 and cyclic-3.  No
  PBW work and no reducer; about a fifth of the scalars carry a real
  denominator, against 2% on ``atlas``.
* ``cli`` -- one cold ``ck`` process per command, one at a time: ``expand``
  for every atlas arrow, and ``algebra --json`` and ``verify`` for every
  builtin algebra.  Work that moves into import time shows here and
  nowhere else.  The cheap ``algebra`` commands also put the median
  command inside the ``verify`` group instead of on the edge between
  ``verify`` and ``expand``, which keeps ``item_p50_ms`` steady.
"""

from __future__ import annotations

import json
import os
import random
import re
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = BENCH / "reference.json"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import ckexpand as ck  # noqa: E402

import calibration  # noqa: E402

if Path(ck.__file__).resolve().parent != SRC / "ckexpand":
    raise ImportError(f"ckexpand imported from {ck.__file__}, not from {SRC}")

UNKNOWNS = ("a1", "a2")
QQ_UNKNOWNS = ("x", "y", "z")
DEEP_BOUND = 3
# every raw system enters the groebner workload this many times, each
# time recombined differently
RECOMBINE_COPIES = 5
QQ_SYSTEMS = {
    "katsura-2": ["x + 2*y + 2*z - 1",
                  "x^2 + 2*y^2 + 2*z^2 - x",
                  "2*x*y + 2*y*z - y"],
    "cyclic-3": ["x + y + z", "x*y + y*z + z*x", "x*y*z - 1"],
}


@dataclass(frozen=True)
class Item:
    """One unit of load: ``key`` names it for the gate, ``spec`` feeds it."""

    key: str
    spec: object


def load_reference() -> dict:
    with open(REFERENCE) as handle:
        return json.load(handle)


def atlas_rows():
    return [Item(row[0], row) for row in ck.ATLAS]


def symbolic_rows():
    """One symbolic-target problem per distinct (initial, axis) of the atlas."""
    seen = []
    for _, initial, axis, _, expected_failure in ck.ATLAS:
        if not expected_failure and (initial, axis) not in seen:
            seen.append((initial, axis))
    return seen


def cli_commands():
    """argv lists of the ``cli`` workload: every atlas arrow, and two
    commands for every builtin."""
    commands = []
    for _, initial, axis, omega, expected_failure in ck.ATLAS:
        argv = ["expand", initial, "--axis", str(axis), "--omega", str(omega)]
        if expected_failure:
            argv.append("--expect-failure")
        commands.append(argv + ["--json"])
    for name in sorted(ck.BUILTIN_NAMES) + ["ext-galilei", "ck"]:
        commands.append(["algebra", name, "--json"])
        commands.append(["verify", name, "--json"])
    return commands


def error_output(exc: BaseException) -> str:
    return json.dumps({"error": f"{type(exc).__name__}: {exc}"})


class InProcess:
    """Items that run in this process: ``call`` is timed, ``encode`` is not.
    The tracer, if any, is installed around the whole pass."""

    in_process = True

    def calibrate(self, env) -> float:
        return calibration.in_process()

    def run(self, spec, env, tracer=None):
        """(output, wall s, cpu s, max RSS KiB or 0) of one item."""
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            result = self.call(spec)
        except Exception as exc:  # a failed item is counted, not fatal
            result = exc
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
        output = (error_output(result) if isinstance(result, Exception)
                  else self.encode(result))
        return output, wall, cpu, 0


# -- expansion workloads -------------------------------------------------------


class Expansions(InProcess):
    """``atlas`` and ``deep-bound``: make_problem + run_expansion per arrow."""

    def __init__(self, name: str, bound):
        self.name = name
        self.bound = bound

    def build(self, seed: int, reference: dict):
        return atlas_rows()

    def call(self, spec):
        name, initial, axis, omega, expected_failure = spec
        problem = ck.make_problem(
            initial, axis, omega, name=name, expected_failure=expected_failure
        )
        return ck.run_expansion(problem, degree_bound=self.bound).to_json_dict()

    def encode(self, result) -> str:
        return json.dumps(result, indent=2)

    def check(self, item: Item, output: str, reference: dict, oracle) -> list:
        data = json.loads(output)
        if "error" in data:
            return [data["error"]]
        expected_failure = item.spec[4]
        want = reference["atlas"][item.key]
        problems = []
        verdict = "closes-but-not-ck" if expected_failure else "pass"
        if data.get("verdict") != verdict:
            problems.append(f"verdict {data.get('verdict')!r}, want {verdict!r}")
        got_c, want_c = data.get("constraints"), want.get("constraints")
        if (got_c is None) != (want_c is None):
            problems.append("constraints present/absent unlike the reference")
        if self.bound is None:
            if output != json.dumps(want, indent=2):
                problems.append("to_json_dict() differs from the reference")
            if got_c is not None and not oracle.is_groebner_of(
                got_c["groebner"], got_c["raw"], got_c["unknowns"]
            ):
                problems.append("basis differs from sympy.groebner of raw")
        else:
            if data.get("degree_bound") != (self.bound if want_c else 0):
                problems.append(f"degree bound {data.get('degree_bound')}")
            if got_c is not None and want_c is not None and not oracle.same_basis(
                got_c["groebner"], want_c["groebner"]
            ):
                problems.append("basis differs from the default-bound basis")
        return problems


# -- groebner workload ---------------------------------------------------------


@dataclass(frozen=True)
class System:
    unknowns: tuple
    inputs: list        # recombined ParamPolys, the timed input
    originals: list     # the system as derived, reduced against the result
    reference: object   # RelationIdeal with the known basis, or None
    raw: tuple          # original generator strings (for sympy)
    expected: tuple     # expected basis strings, or None (sympy decides)


def parse_system(texts, unknowns):
    return [ck.ParamPoly.from_scalar(ck.parse_scalar(t), unknowns)
            for t in texts]


def recombine(gens, unknowns, rng: random.Random):
    """Same ideal, other generators: append the row p = sum c_k g_k, add
    c p to the first generator, shuffle.  The constants c come from the
    seed.  Each step is an invertible row operation, and its fixed shape
    keeps Buchberger's work within about 10% across seeds."""
    def const():
        return ck.Scalar.const(rng.choice((-2, -1, 1, 2)))

    extra = ck.ParamPoly(unknowns)
    for g in gens:
        extra = extra + g.scale(const())
    rows = [gens[0] + extra.scale(const()), *gens[1:], extra]
    rng.shuffle(rows)
    return rows


class Groebner(InProcess):
    """``groebner``: groebner_basis + reduce_mod_ideal + ideal_equals."""

    name = "groebner"

    def build(self, seed: int, reference: dict):
        rng = random.Random(seed)
        sources = []
        for row in reference["atlas"].values():
            if row.get("constraints"):
                c = row["constraints"]
                sources.append((row["arrow"], c["raw"], c["groebner"]))
        for row in reference["symbolic"]:
            sources.append((f"{row['initial']}-axis{row['axis']}-sym",
                            row["raw"], row["groebner"]))
        items = []
        for label, raw, basis in sources:
            originals = parse_system(raw, UNKNOWNS)
            known = ck.RelationIdeal(UNKNOWNS, list(originals),
                                     parse_system(basis, UNKNOWNS))
            for copy in range(RECOMBINE_COPIES):
                items.append(Item(f"{label}#{copy}", System(
                    UNKNOWNS, recombine(originals, UNKNOWNS, rng), originals,
                    known, tuple(raw), tuple(basis))))
        for label, raw in QQ_SYSTEMS.items():
            gens = parse_system(raw, QQ_UNKNOWNS)
            items.append(Item(label, System(
                QQ_UNKNOWNS, gens, gens, None, tuple(raw), None)))
        return items

    def call(self, system: System):
        ideal = ck.groebner_basis(system.inputs, system.unknowns)
        residues = [ck.reduce_mod_ideal(g, ideal) for g in system.originals]
        same = (ck.ideal_equals(ideal, system.reference)
                if system.reference is not None else None)
        return ideal, residues, same

    def encode(self, result) -> str:
        ideal, residues, same = result
        return json.dumps({
            "basis": [str(p) for p in ideal.groebner],
            "residues_zero": all(r.is_zero for r in residues),
            "ideal_equals": same,
        })

    def check(self, item: Item, output: str, reference: dict, oracle) -> list:
        data = json.loads(output)
        if "error" in data:
            return [data["error"]]
        system = item.spec
        problems = []
        if not data["residues_zero"]:
            problems.append("an original generator does not reduce to zero")
        if system.expected is not None:
            if data["ideal_equals"] is not True:
                problems.append("ideal_equals(result, known ideal) is false")
            if not oracle.same_basis(data["basis"], list(system.expected)):
                problems.append("basis differs from the known reduced basis")
        elif not oracle.is_groebner_of(data["basis"], list(system.raw),
                                       list(system.unknowns)):
            problems.append("basis differs from sympy.groebner")
        return problems


# -- cli workload ----------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    return env


def spawn_and_wait(argv, stdout_path, stderr_path, env):
    """Run one child to completion; returns (exit code, wall s, cpu s,
    max RSS in KiB) from its own resource usage."""
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(stdout_path),
         os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(stderr_path),
         os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    t0 = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    return (os.waitstatus_to_exitcode(status), wall,
            usage.ru_utime + usage.ru_stime, usage.ru_maxrss)


def child_calibration(env) -> float:
    """Wall seconds of the calibration loop as a fresh interpreter, scaled
    to the in-process reference so both kinds share one scale."""
    OUT.mkdir(exist_ok=True)
    _, wall, _, _ = spawn_and_wait(
        [sys.executable, str(BENCH / "calibration.py")],
        OUT / "calibration.stdout", OUT / "calibration.stderr", env)
    return wall * calibration.REFERENCE_S / calibration.REFERENCE_CHILD_S


class Cli:
    """``cli``: one cold ``ck`` process per command."""

    name = "cli"
    in_process = False

    def calibrate(self, env) -> float:
        return child_calibration(env)

    def build(self, seed: int, reference: dict):
        return [Item(" ".join(argv), argv) for argv in cli_commands()]

    def argv(self, spec, spans_path=None):
        if spans_path is None:
            return [sys.executable, "-m", "ckexpand.cli", *spec]
        return [sys.executable, str(BENCH / "traced_cli.py"),
                str(spans_path), *spec]

    def run(self, spec, env, tracer=None):
        """(output, wall s, cpu s, max RSS KiB) of one command; with a
        tracer, the command runs traced and its spans join the tracer as
        the tracer's current item."""
        OUT.mkdir(exist_ok=True)
        out, err = OUT / "cli.stdout", OUT / "cli.stderr"
        spans_path = OUT / "cli.spans.json" if tracer is not None else None
        code, wall, cpu, rss = spawn_and_wait(
            self.argv(spec, spans_path), out, err, env)
        if spans_path is not None and spans_path.exists():
            with open(spans_path) as handle:
                tracer.absorb(json.load(handle), tracer.current)
            spans_path.unlink()
        output = json.dumps({
            "returncode": code,
            "stdout": out.read_text(),
            "stderr": err.read_text()[-2000:],
        })
        return output, wall, cpu, rss

    def check(self, item: Item, output: str, reference: dict, oracle) -> list:
        data = json.loads(output)
        if "error" in data:
            return [data["error"]]
        problems = []
        if data["returncode"] != 0:
            problems.append(f"exit code {data['returncode']}: "
                            f"{data['stderr'].strip()[-300:]}")
        try:
            report = json.loads(data["stdout"])
        except json.JSONDecodeError:
            return problems + ["stdout is not JSON"]
        if item.spec[0] == "expand":
            want = ("closes-but-not-ck" if "--expect-failure" in item.spec
                    else "pass")
            if report.get("verdict") != want:
                problems.append(f"verdict {report.get('verdict')!r}")
        elif item.spec[0] == "verify" and report.get("ok") is not True:
            problems.append("verify reports ok != true")
        if data["stdout"] != reference["cli"].get(item.key):
            problems.append("stdout differs from the reference")
        return problems


WORKLOADS = {
    "atlas": Expansions("atlas", None),
    "deep-bound": Expansions("deep-bound", DEEP_BOUND),
    "groebner": Groebner(),
    "cli": Cli(),
}


# -- the independent oracle ----------------------------------------------------------


class Oracle:
    """sympy as the independent check of bases; imported on first use."""

    def __init__(self):
        self._sympy = None
        self._bases = {}

    @property
    def sympy(self):
        if self._sympy is None:
            import sympy
            self._sympy = sympy
        return self._sympy

    def expr(self, text: str):
        sp = self.sympy
        names = {n: sp.Symbol(n) for n in re.findall(r"[A-Za-z_]\w*", text)}
        return sp.parse_expr(text.replace("^", "**"), local_dict=names)

    def same_basis(self, got, want) -> bool:
        """Equal lists of basis elements, as text or as rational functions."""
        if list(got) == list(want):
            return True
        if len(got) != len(want):
            return False
        sp = self.sympy
        return all(sp.cancel(self.expr(a) - self.expr(b)) == 0
                   for a, b in zip(got, want))

    def is_groebner_of(self, basis, raw, unknowns) -> bool:
        """basis equals sympy's reduced grlex basis of raw (any order)."""
        key = (tuple(raw), tuple(unknowns))
        if key not in self._bases:
            self._bases[key] = self._groebner(*key)
        expected = self._bases[key]
        if len(expected) != len(basis):
            return False
        sp = self.sympy
        got = [self.expr(b) for b in basis]
        return all(any(sp.cancel(g - e) == 0 for e in expected) for g in got)

    def _groebner(self, raw, unknowns):
        sp = self.sympy
        gens = [self.expr(t) for t in raw]
        syms = [sp.Symbol(u) for u in unknowns]
        params = sorted(set().union(*(g.free_symbols for g in gens))
                        - set(syms), key=str)
        domain = sp.QQ.frac_field(*params) if params else sp.QQ
        return list(sp.groebner(gens, *syms, order="grlex",
                                domain=domain).exprs)
