"""Command-line interface: verbs, exit codes, deterministic JSON."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ckexpand import cli
from ckexpand.cli import VERBS, UsageError, main, parse_args
from ckexpand.expand import ATLAS
from ckexpand.liealg import BUILTIN_NAMES, make_ck_algebra
from oracles import argparse_oracle

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE_CLI = json.loads((ROOT / "ckbench" / "reference.json").read_text())["cli"]

BUILTINS = sorted(BUILTIN_NAMES) + ["ext-galilei", "ck"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def cold_env():
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    return env


def run_cold(*args, cwd=None):
    return subprocess.run(
        [sys.executable, *args], cwd=cwd,
        env=cold_env(), capture_output=True, text=True, timeout=300,
    )


def test_algebra_text(capsys):
    code, out, _ = run(capsys, "algebra", "poincare")
    assert code == 0
    assert "algebra poincare (6 generators" in out
    assert "[H,K1] = -P1" in out


def test_algebra_json_roundtrip(capsys, tmp_path):
    code, out, _ = run(capsys, "algebra", "ck", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["generators"] == ["H", "P1", "P2", "K1", "K2", "J"]
    assert sorted(data["parameters"]) == ["w1", "w2"]
    # feed the dump back in as a definition file
    path = tmp_path / "ck.json"
    path.write_text(out)
    code, out2, _ = run(capsys, "algebra", str(path), "--json")
    assert code == 0
    assert json.loads(out2)["brackets"] == data["brackets"]


def test_verify_passes_on_builtins(capsys):
    for name in ("galilei", "so4", "ext-galilei"):
        code, out, _ = run(capsys, "verify", name)
        assert code == 0
        assert "jacobi PASS" in out
        assert "NOT central" not in out


def test_verify_fails_on_broken_table(capsys, tmp_path):
    # [[H,P1],P2] + [[P1,P2],H] + [[P2,H],P1] = [P2,P2] + 0 - [H,P1] != 0
    bad = {
        "name": "broken",
        "generators": ["H", "P1", "P2"],
        "brackets": {"[H,P1]": "P2", "[H,P2]": "H"},
    }
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(bad))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 1
    assert "FAIL" in out


def test_contract(capsys):
    code, out, _ = run(capsys, "contract", "so31-ds", "--kind", "speed-space")
    assert code == 0
    assert "--(speed-space)-->" in out
    code, out, _ = run(capsys, "contract", "so31-ds", "--kind", "space-time", "--json")
    assert json.loads(out)["name"] == "iso(2,1)"


def test_expand_text_shows_the_constraint(capsys):
    code, out, _ = run(capsys, "expand", "poincare", "--axis", "1")
    assert code == 0
    assert "constraint: 4*c1*a1^2 - w1 = 0" in out
    assert "verdict: pass" in out
    assert "k = {K1, K2, J}" in out


def test_expand_numeric_omega(capsys):
    code, out, _ = run(
        capsys, "expand", "poincare", "--axis", "1", "--omega", "-1", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["target"] == "so(3,1)"
    assert data["verdict"] == "pass"
    # with omega = -1 on a w2 = -1 seed: 4*w2*c1*a1^2 + w1 -> 4*c1*a1^2 + 1
    assert data["constraints"]["raw"] == ["4*c1*a1^2 + 1"]


def test_expand_rational_omega_in_any_spelling(capsys):
    # n/d is read directly; 0.5 and 2/4 name the same rational, as they
    # did when every value went through fractions.Fraction
    runs = [
        run(capsys, "expand", "poincare", "--axis", "1", "--omega", omega,
            "--json")
        for omega in ("1/2", "0.5", "2/4")
    ]
    assert runs[1] == runs[0] and runs[2] == runs[0]
    code, out, _ = runs[0]
    data = json.loads(out)
    assert (code, data["omega_value"], data["target"]) == (0, "1/2", "so(2,2)")
    assert data["arrow"] == "poincare->w1=1/2"


def test_expand_failure_exit_codes(capsys):
    # the unextended w1 attempt fails unless marked as expected
    code, out, _ = run(capsys, "expand", "galilei", "--axis", "1")
    assert code == 1
    assert "closes-but-not-ck" in out
    code, _, _ = run(
        capsys, "expand", "galilei", "--axis", "1", "--expect-failure"
    )
    assert code == 0


def test_a_basis_missing_a_generator_fails_verification(capsys, monkeypatch):
    # the only membership proof is verify_expansion: a wrong basis gives a
    # residual and verdict fail (exit 1), not an input error (exit 2)
    import ckexpand.expand

    original = ckexpand.expand.groebner_basis

    def dropped_first(gens, unknowns):
        ideal = original(gens, unknowns)
        return ideal._replace(groebner=ideal.groebner[1:])

    monkeypatch.setattr(ckexpand.expand, "groebner_basis", dropped_first)
    code, out, _ = run(
        capsys, "expand", "euclid3", "--axis", "1", "--omega", "1", "--json"
    )
    assert code == 1
    data = json.loads(out)
    assert data["verdict"] == "fail"
    by_pair = {b["pair"]: b for b in data["brackets"]}
    assert not by_pair["[H,P1]"]["ok"]
    assert by_pair["[H,P1]"]["residual"] not in ("", "0")


def test_bad_input_exit_code_2(capsys, tmp_path):
    code, _, err = run(capsys, "algebra", "no-such-algebra")
    assert code == 2
    assert "error:" in err
    truncated = tmp_path / "truncated.json"
    definition = json.dumps(make_ck_algebra(1, 0).to_json_dict())
    truncated.write_text(definition[: len(definition) // 2])
    code, out, err = run(capsys, "algebra", str(truncated))
    assert (code, out) == (2, "")
    assert err.startswith("error:")
    code, _, err = run(capsys, "expand", "poincare", "--axis", "2")
    assert code == 2
    code, _, err = run(capsys, "expand", "poincare", "--axis", "1",
                       "--omega", "zero")
    assert code == 2
    code, _, _ = run(capsys, "contract", "poincare", "--kind", "bogus")
    assert code == 2


# every form of command line the argparse parser accepted, and the usage
# errors it refused with exit 2
PARSER_CASES = [
    "algebra so4",
    "algebra --json so4",
    "algebra so4 --js",
    "algebra -- so4",
    "algebra --json -- so4",
    "algebra -5",
    "verify ext-galilei --json --json",
    "contract so4 --kind space-time",
    "contract --kind=speed-space so4 --json",
    "contract so4 --kind space-time --kind speed-space",
    "contract so4 --ki speed-space",
    "expand poincare --axis 1",
    "expand --axis=2 poincare --omega=1/2",
    "expand poincare --axis 01",
    "expand poincare --axis 1 --omega -1",
    "expand poincare --axis 1 --omega=-3",
    "expand poincare --axis 1 --degree-bound -5",
    "expand poincare --axis 1 --deg 3 --expect",
    "expand galilei --ax 2 --om 2 --deg=0 --expect-failure --json",
    "expand poincare --axis 2 --axis 1",
    "atlas",
    "atlas --json --degree-bound 2",
    "atlas --degree-bound=3",
    "",
    "bogus so4",
    "--json algebra so4",
    "algebra",
    "atlas so4",
    "algebra so4 extra",
    "expand poincare",
    "expand --axis 1",
    "contract so4",
    "expand poincare --axis 3",
    "expand poincare --axis one",
    "expand poincare --axis",
    "expand poincare --axis --json",
    "expand poincare --axis 1 --degree-bound x",
    "contract so4 --kind bogus",
    "algebra so4 --bogus",
    "expand poincare --axis 1 --=1",
    "algebra so4 --json=1",
    "expand -- poincare --axis 1",
]
PARSED_FIELDS = ("name", "json", "axis", "omega", "degree_bound",
                 "expect_failure", "kind")


@pytest.mark.parametrize("argv", PARSER_CASES)
def test_parser_matches_the_argparse_oracle(capsys, argv):
    argv = argv.split()
    try:
        expected = argparse_oracle().parse_args(argv)
    except SystemExit as exc:
        assert exc.code == 2
        expected = None
    capsys.readouterr()
    if expected is None:
        with pytest.raises(UsageError):
            parse_args(argv)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("usage: ck") and "\nerror: " in err
        return
    handler, args = parse_args(argv)
    assert handler is expected.func
    for field in PARSED_FIELDS:
        assert getattr(args, field, None) == getattr(expected, field, None)


@pytest.mark.parametrize("argv", [
    "-h", "--help", "expand -h", "expand poincare --axis 1 --he", "atlas -h",
])
def test_help_names_every_verb_and_option(capsys, argv):
    code, out, err = run(capsys, *argv.split())
    assert (code, err) == (0, "")
    assert out.startswith("usage: ck")
    verb = argv.split()[0]
    if verb in VERBS:
        verbs = [verb]
    else:
        verbs = list(VERBS)
        assert cli.__doc__.strip() in out
    for verb in verbs:
        assert f"ck {verb} [-h]" in out
        for word in VERBS[verb][1].split():
            assert word in out


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
def test_a_closed_stdout_exits_141_quietly(buffered):
    # `ck algebra so4 | head -1`: the reader is gone before ck writes
    env = cold_env()
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ckexpand.cli", "algebra", "so4"],
            stdout=write, stderr=subprocess.PIPE, env=env, text=True,
            timeout=300,
        )
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (141, "")


def test_unknown_algebra_message_is_unquoted(capsys):
    code, out, err = run(capsys, "algebra", "nosuch")
    assert code == 2
    assert not out and err.startswith("error: unknown algebra 'nosuch'")


def test_atlas_text_and_exit(capsys):
    code, out, _ = run(capsys, "atlas")
    assert code == 0
    assert "13/13 arrows ok" in out
    assert out.count("PASS") == 13
    assert "expected failure" in out


def test_atlas_json_is_deterministic(capsys):
    code, out1, _ = run(capsys, "atlas", "--json")
    assert code == 0
    _, out2, _ = run(capsys, "atlas", "--json")
    assert out1 == out2
    data = json.loads(out1)
    assert data["total"] == 13
    assert data["passed"] == 13
    verdicts = [a["verdict"] for a in data["arrows"]]
    assert verdicts.count("pass") == 12
    assert verdicts.count("closes-but-not-ck") == 1


def test_degree_bound_flag(capsys):
    # the reduction is exact at any bound: a bound below the default, once
    # refused or answered wrongly, gives the default report except for the
    # recorded bound
    argv = ["expand", "ext-galilei", "--axis", "1", "--omega", "1", "--json"]
    code, default, _ = run(capsys, *argv)
    assert code == 0
    for bound in ("0", "1", "3"):
        code, out, _ = run(capsys, *argv, "--degree-bound", bound)
        assert code == 0
        data = json.loads(out)
        assert data["verdict"] == "pass"
        assert data["degree_bound"] == int(bound)
        data["degree_bound"] = json.loads(default)["degree_bound"]
        assert data == json.loads(default)
    code, out, _ = run(capsys, "expand", "ext-galilei", "--axis", "1",
                       "--omega", "1", "--degree-bound", "1")
    assert code == 0 and "verdict: pass" in out
    # a negative bound is refused up front, on the closure path too
    for argv in (
        ["expand", "galilei", "--axis", "1", "--omega", "1", "--expect-failure"],
        ["expand", "poincare", "--axis", "1"],
        ["atlas"],
    ):
        code, out, err = run(capsys, *argv, "--degree-bound", "-5")
        assert code == 2, argv
        assert not out and "degree bound must be >= 0, got -5" in err


@pytest.mark.parametrize("sym", ["a1", "c1", "xi", "w1"])
def test_seed_using_a_reserved_symbol_exits_2(capsys, tmp_path, sym):
    # a seed coefficient named like an unknown, a Casimir eigenvalue or the
    # expanded coefficient would be merged with it in the constraints
    seed = make_ck_algebra(0, sym)
    path = tmp_path / "seed.json"
    path.write_text(json.dumps(seed.to_json_dict()))
    code, out, err = run(capsys, "expand", str(path), "--axis", "1",
                         "--omega", "-1")
    assert code == 2
    assert not out and f"reserved symbol '{sym}'" in err


def test_seed_with_a_free_parameter_name_expands(capsys, tmp_path):
    path = tmp_path / "seed.json"
    path.write_text(json.dumps(make_ck_algebra(0, "q").to_json_dict()))
    code, out, _ = run(capsys, "expand", str(path), "--axis", "1",
                       "--omega", "-1")
    assert code == 0
    assert "constraint: 4*c1*q*a1^2 - 1 = 0" in out


def test_module_entry_point_matches_main(capsys):
    # what users run: a cold interpreter, the sources on the path
    argv = ["expand", "poincare", "--axis", "1", "--json"]
    proc = run_cold("-m", "ckexpand.cli", *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == run(capsys, *argv)[1]


def test_a_directory_named_like_a_builtin_does_not_shadow_it(capsys, tmp_path):
    (tmp_path / "so4").mkdir()
    proc = run_cold("-m", "ckexpand.cli", "algebra", "so4", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == run(capsys, "algebra", "so4")[1]
    assert "algebra so4 (6 generators" in proc.stdout


# what a fresh process has run of the lazily registered modules, read from
# each module's __dict__ without the attribute access that would load it
EXECUTED = """
import json, sys

def executed():
    defines = {"groebner": "groebner_basis", "uea": "uea_mul",
               "expand": "run_expansion"}
    return [name for name, attr in defines.items()
            if attr in object.__getattribute__(
                sys.modules["ckexpand." + name], "__dict__")]
"""
EXECUTED_PROBE = EXECUTED + """
import ckexpand.cli
code = ckexpand.cli.main(sys.argv[1:])
print(json.dumps({
    "code": code,
    "executed": executed(),
    "loaded": sorted(set(sys.modules) & {"dataclasses", "inspect", "argparse",
                                         "gettext", "locale", "fractions",
                                         "decimal", "numbers"}),
}))
"""


@pytest.mark.parametrize("argv, executed", [
    ("algebra euclid3 --json", []),
    ("contract poincare --kind space-time", []),
    ("verify ext-galilei --json", ["uea"]),
    ("expand nh-plus --axis 2 --omega 1 --json",
     ["groebner", "uea", "expand"]),
    ("expand nh-plus --axis 2 --omega 1/2 --json",
     ["groebner", "uea", "expand"]),
], ids=["algebra", "contract", "verify", "expand", "expand-ratio"])
def test_cold_command_runs_only_the_modules_it_needs(argv, executed):
    # dataclasses pulls in inspect, ast, dis and tokenize, and every
    # @dataclass compiles its methods with exec on each cold start;
    # argparse pulls in gettext, and its first parse locale; fractions
    # pulls in decimal and numbers
    proc = run_cold("-c", EXECUTED_PROBE, *argv.split())
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result == {"code": 0, "executed": executed, "loaded": []}


# each step's answer and the lazy modules run after it, in one process
LOOKUP_PROBE = EXECUTED + """
import ckexpand
package = object.__getattribute__(ckexpand, "__dict__")
eager = [name for name, value in package.items()
         if not name.startswith("_") and not isinstance(value, type(sys))]
steps = [["__wrapped__", hasattr(ckexpand, "__wrapped__"), executed()],
         ["_Span", hasattr(ckexpand, "_Span"), executed()]]
from ckexpand import cli
steps.append(["cli", cli is sys.modules["ckexpand.cli"], executed()])
value = ckexpand.ParamPoly
ran = executed()
steps.append(["ParamPoly",
              value is sys.modules["ckexpand.groebner"].ParamPoly, ran])
names = ckexpand.__all__
ran = executed()
modules = [sys.modules["ckexpand." + m].__all__
           for m in ("groebner", "uea", "expand")]
steps.append(["__all__", names == eager + sum(modules, []), ran])
print(json.dumps(steps))
"""


def test_cold_package_lookup_runs_only_the_module_it_searches():
    # underscore names are never searched; a submodule's name is not
    # searched either, so importing it runs only what it imports; a
    # groebner name stops at the first module; __all__ reads every lazy
    # module's own list
    proc = run_cold("-c", LOOKUP_PROBE)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [
        ["__wrapped__", False, []],
        ["_Span", False, []],
        ["cli", True, []],
        ["ParamPoly", True, ["groebner"]],
        ["__all__", True, ["groebner", "uea", "expand"]],
    ]


@pytest.mark.parametrize("argv", [
    "algebra euclid3 --json",
    "expand nh-plus --axis 2 --omega 1 --json",
], ids=["algebra", "expand"])
def test_traced_command_matches_the_untraced_one(tmp_path, argv):
    # ckbench/traced_cli.py imports only ckexpand.cli, then wraps engine
    # functions found through sys.modules: each lazy module must load there
    spans_out = tmp_path / "spans.json"
    traced = run_cold(str(ROOT / "ckbench" / "traced_cli.py"),
                      str(spans_out), *argv.split())
    plain = run_cold("-m", "ckexpand.cli", *argv.split())
    assert traced.returncode == 0, traced.stderr
    assert plain.returncode == 0, plain.stderr
    assert traced.stdout == plain.stdout
    data = json.loads(spans_out.read_text())
    entered = {data["names"][n] for n in data["name"]}
    if argv.startswith("expand"):
        assert entered >= {"expand.run_expansion", "uea.reducer_reduce",
                           "groebner.groebner_basis", "kernel.terms_mul"}


@pytest.mark.parametrize("command", sorted(REFERENCE_CLI))
def test_benchmark_command_stdout_matches_the_reference(capsys, command):
    code, out, _ = run(capsys, *command.split())
    assert code == 0
    assert out == REFERENCE_CLI[command]


@pytest.mark.parametrize("name", BUILTINS)
def test_definition_file_matches_builtin(capsys, tmp_path, name):
    # a builtin dumped to a file gets the same checks and the same answers
    code, out, _ = run(capsys, "algebra", name, "--json")
    assert code == 0
    path = tmp_path / f"{name}.json"
    path.write_text(out)
    commands = [["verify", "--json"]] + [
        ["contract", "--kind", kind, "--json"]
        for kind in ("space-time", "speed-space")
    ]
    for _, initial, axis, omega, expected_failure in ATLAS:
        if initial == name:
            commands.append(
                ["expand", "--axis", str(axis), "--omega", str(omega), "--json"]
                + (["--expect-failure"] if expected_failure else [])
            )
    for verb, *rest in commands:
        from_name = run(capsys, verb, name, *rest)
        from_file = run(capsys, verb, str(path), *rest)
        assert from_file == from_name, (verb, rest)
        assert from_name[0] == 0


def test_off_family_definition_exits_2(capsys, tmp_path):
    _, out, _ = run(capsys, "algebra", "poincare", "--json")
    data = json.loads(out)
    data["brackets"]["[H,P1]"] = "K2"
    path = tmp_path / "off.json"
    path.write_text(json.dumps(data))
    code, _, err = run(capsys, "expand", str(path), "--axis", "1")
    assert code == 2
    assert err.startswith("error:") and "[H,P1] = K2" in err
    # verify still runs Jacobi and says why it skips the Casimirs
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 1
    assert "Casimir checks skipped" in out and "[H,P1] = K2" in out
    _, out, _ = run(capsys, "verify", str(path), "--json")
    assert json.loads(out)["casimirs"] is None


MALFORMED = {
    "unknown-label": (
        {"generators": ["H", "P1"], "brackets": {"[H,Q1]": "P1"}},
        "'Q1'",
    ),
    "no-generators": ({"name": "x", "brackets": {}}, "'generators' must"),
    "top-level-array": (["H", "P1"], "JSON object"),
    "brackets-array": (
        {"generators": ["H"], "brackets": []},
        "'brackets' must",
    ),
    "null-value": (
        {"generators": ["H", "P1"], "brackets": {"[H,P1]": None}},
        "'[H,P1]'",
    ),
    "zero-division": (
        {"generators": ["H", "P1"], "brackets": {"[H,P1]": "1/0*P1"}},
        "'[H,P1]'",
    ),
    "parameters-number": (
        {"generators": ["H", "P1"], "parameters": 5, "brackets": {}},
        "'parameters' must",
    ),
    "duplicate-generator": (
        {"generators": ["H", "H"], "brackets": {}},
        "'H' is listed twice",
    ),
    "generator-in-denominator": (
        {"generators": ["H", "P1", "K1"], "brackets": {"[H,K1]": "P1/H"}},
        "'[H,K1]'",
    ),
    "nonlinear-value": (
        {"generators": ["H", "P1"], "brackets": {"[H,P1]": "H*P1"}},
        "'[H,P1]'",
    ),
    "name-number": (
        {"name": 5, "generators": ["H", "P1"], "brackets": {}},
        "'name' must",
    ),
    "label-not-a-symbol": (
        {"generators": ["H", "P-1"], "brackets": {"[H,P-1]": "H"}},
        "'P-1' is not a symbol",
    ),
    "parameter-not-a-symbol": (
        {"generators": ["H", "P1"], "parameters": ["x y"], "brackets": {}},
        "'x y' is not a symbol",
    ),
    "parameter-twice": (
        {"generators": ["H", "P1"], "parameters": ["w1", "w1"],
         "brackets": {"[H,P1]": "w1*P1"}},
        "'parameters' lists 'w1' twice",
    ),
    "parameter-named-like-a-generator": (
        {"generators": ["H", "P1"], "parameters": ["H"], "brackets": {}},
        "'parameters' lists 'H', which is a generator",
    ),
    "undeclared-parameter": (
        {"generators": ["H", "P1"], "parameters": [],
         "brackets": {"[H,P1]": "q*P1"}},
        "bracket '[H,P1]': 'q' is not declared in 'parameters'",
    ),
    "repeated-pair": (
        {
            "generators": ["H", "P1"],
            "brackets": {"[H,P1]": "P1", "[P1,H]": "H"},
        },
        "'[P1,H]'",
    ),
    "self-bracket": (
        {"generators": ["H", "P1"], "brackets": {"[H,H]": "P1"}},
        "error: self-bracket '[H,H]' must not be given",
    ),
    "key-without-brackets": (
        {"generators": ["H", "P1"], "brackets": {"H,P1": "P1"}},
        "error: bad bracket key 'H,P1'",
    ),
    "bad-character": (
        {"generators": ["H", "P1"], "brackets": {"[H,P1]": "P1 $ 2"}},
        "error: bracket '[H,P1]': bad character '$' at position 4 of "
        "expression 'P1 $ 2'",
    ),
    "non-integer-exponent": (
        {"generators": ["H", "P1"], "parameters": ["w1"],
         "brackets": {"[H,P1]": "P1^w1"}},
        "error: bracket '[H,P1]': exponent must be an integer",
    ),
    "unclosed-parenthesis": (
        {"generators": ["H", "P1"], "brackets": {"[H,P1]": "(P1"}},
        "error: bracket '[H,P1]': unexpected end of expression",
    ),
    "trailing-input": (
        {"generators": ["H", "P1"], "brackets": {"[H,P1]": "P1)"}},
        "error: bracket '[H,P1]': trailing input in expression: 'P1)'",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_definition_exits_2(capsys, tmp_path, case):
    data, named = MALFORMED[case]
    path = tmp_path / f"{case}.json"
    path.write_text(json.dumps(data))
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2
    assert err.startswith("error:")
    assert named in err


def test_a_negative_exponent_in_a_definition_reads_as_a_quotient(
        capsys, tmp_path):
    printed = []
    for name, value in (("power", "w1^-1*P1"), ("quotient", "P1/w1")):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({
            "name": "q", "generators": ["H", "P1"], "parameters": ["w1"],
            "brackets": {"[H,P1]": value},
        }))
        # a valid definition: verify runs it rather than exiting 2
        assert run(capsys, "verify", str(path))[0] == 0
        code, out, _ = run(capsys, "algebra", str(path), "--json")
        assert code == 0
        printed.append(out)
    assert printed[0] == printed[1]
    assert json.loads(printed[0])["brackets"] == {"[H,P1]": "((1)/(w1))*P1"}
