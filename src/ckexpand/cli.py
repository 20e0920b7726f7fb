"""Command-line front end: ck VERB ..., or ck [VERB] -h for help.

  ck algebra NAME [--json]   show a bracket table (or dump it as JSON)
  ck verify NAME [--json]    Jacobi identity + Casimir centrality checks
  ck contract NAME --kind K  Inonu-Wigner contraction along an axis
  ck expand NAME --axis A    run one expansion and report the verdict
  ck atlas                   run every expansion arrow in the atlas

NAME is a builtin algebra name or the path of a JSON definition file.
Options go before or after NAME, as --opt VALUE or --opt=VALUE, and a
unique prefix names an option; of a repeated option the last counts.
Exit codes: 0 success, 1 a verification failed, 2 bad input or a bad
command line, 141 stdout closed early (the shell's code for SIGPIPE).
"""

from __future__ import annotations

import json
import os
import sys
from types import SimpleNamespace

from . import expand, uea
from .liealg import (
    LieAlgebra,
    UnsupportedAlgebraError,
    builtin_algebra,
    check_structure,
    contract,
    identify,
)
from .poly import _coeff

__all__ = ["main"]


def _load_algebra(name: str) -> LieAlgebra:
    # only a file is a definition: a directory named like a builtin
    # must not shadow it
    if os.path.isfile(name):
        with open(name) as handle:
            return LieAlgebra.from_json_dict(json.load(handle))
    return builtin_algebra(name)


def _emit_json(data) -> None:
    print(json.dumps(data, indent=2))


def cmd_algebra(args) -> int:
    g = _load_algebra(args.name)
    if args.json:
        _emit_json(g.to_json_dict())
        return 0
    print(f"algebra {g.name} ({g.dim} generators: {' '.join(g.generators)})")
    if g.parameters:
        print(f"parameters: {' '.join(g.parameters)}")
    for key, value in g.bracket_table().items():
        print(f"  {key} = {value}")
    return 0


def cmd_verify(args) -> int:
    g = _load_algebra(args.name)
    report = check_structure(g)
    try:
        member = identify(g)
    except UnsupportedAlgebraError as exc:
        casimirs, skipped = None, exc
    else:
        casimirs = {}
        for index in (1, 2):
            element = uea.casimir(g, index, member)
            central, witness = uea.is_central(element)
            casimirs[f"C{index}"] = {
                "element": str(element),
                "central": central,
                "witness": None if central else witness[0],
            }
    ok = report.ok and (
        casimirs is None or all(c["central"] for c in casimirs.values())
    )
    if args.json:
        _emit_json(
            {
                "algebra": g.name,
                "antisymmetry_ok": report.antisymmetry_ok,
                "triples_checked": report.triples_checked,
                "jacobi_failures": [
                    [list(t), {g.generators[n]: str(c) for n, c in r.items()}]
                    for t, r in report.jacobi_failures
                ],
                "casimirs": casimirs,
                "ok": ok,
            }
        )
        return 0 if ok else 1
    print(
        f"{g.name}: jacobi {'PASS' if report.ok else 'FAIL'} "
        f"({report.triples_checked} triples)"
    )
    for triple, residual in report.jacobi_failures:
        print(f"  violated on {triple}: {g.combo_str(residual)}")
    if casimirs is None:
        print(f"  Casimir checks skipped: {skipped}")
    else:
        for label, info in casimirs.items():
            verdict = "central" if info["central"] else "NOT central"
            print(f"  {label} = {info['element']}  [{verdict}]")
    return 0 if ok else 1


def cmd_contract(args) -> int:
    g = _load_algebra(args.name)
    contracted = contract(g, args.kind)
    if args.json:
        _emit_json(contracted.to_json_dict())
        return 0
    print(f"{g.name} --({args.kind})--> {contracted.name}")
    for key, value in contracted.bracket_table().items():
        print(f"  {key} = {value}")
    return 0


def _print_expansion(report) -> None:
    problem = report.problem
    print(
        f"expansion {problem.name}: {problem.initial.name} -> "
        f"{problem.target.name} (axis {problem.axis}, "
        f"{problem.omega_symbol} = {problem.omega_value})"
    )
    if report.splits:
        for split in report.splits:
            print(f"  J{split.index} = {split.jpiece}")
    if report.J is not None:
        print(f"  J = {report.J}")
    if report.hypothesis is not None:
        hyp = report.hypothesis
        print(
            f"  split: k = {{{', '.join(hyp.k_labels)}}}, "
            f"t = {{{', '.join(hyp.t_labels)}}}"
            + ("" if hyp.holds else "  [shortcut hypotheses FAIL]")
        )
    if report.primed is not None:
        for label in problem.initial.generators:
            print(f"  {label}' = {report.primed[label]}")
    if report.constraints is not None:
        if report.constraints.generators:
            for eq in report.constraints.generators:
                print(f"  constraint: {eq} = 0")
            print(
                "  groebner basis: "
                + "; ".join(str(p) for p in report.constraints.groebner)
            )
        else:
            print("  no constraints: all brackets close exactly")
    if report.closure is not None:
        closing = "closes" if report.closure.closes else "does not close"
        print(f"  primed set {closing}; matches cell: "
              f"{report.closure.matches_cell}")
        for key, value in sorted(report.closure.table.items()):
            print(f"    {key}' = {value}")
    for remark in report.remarks:
        print(f"  note: {remark}")
    print(f"  verdict: {report.verdict}")


def cmd_expand(args) -> int:
    omega = args.omega
    if omega != "sym":
        try:
            omega = _coeff(omega)
        except (ValueError, ZeroDivisionError):
            raise expand.ExpansionError(
                f"omega must be 'sym' or a rational: {omega!r}"
            )
    problem = expand.make_problem(
        _load_algebra(args.name),
        args.axis,
        omega,
        expected_failure=args.expect_failure,
    )
    report = expand.run_expansion(problem, degree_bound=args.degree_bound)
    if args.json:
        _emit_json(report.to_json_dict())
    else:
        _print_expansion(report)
    return 0 if report.ok else 1


def cmd_atlas(args) -> int:
    reports = expand.run_atlas(args.degree_bound)
    ok = all(r.ok for r in reports)
    if args.json:
        _emit_json(
            {
                "arrows": [r.to_json_dict() for r in reports],
                "passed": sum(r.ok for r in reports),
                "total": len(reports),
                "ok": ok,
            }
        )
        return 0 if ok else 1
    for report in reports:
        status = "PASS" if report.ok else "FAIL"
        extra = " (expected failure)" if report.problem.expected_failure else ""
        print(f"{status}  {report.problem.name}: {report.verdict}{extra}")
    print(f"{sum(r.ok for r in reports)}/{len(reports)} arrows ok")
    return 0 if ok else 1


# NAME and each option: (converter, choices, default, help line), where a
# converter of None marks a flag and the default REQUIRED what must be given
REQUIRED = object()
OPTIONS = {
    "NAME": (str, (), REQUIRED, "a builtin algebra or a JSON definition file"),
    "--kind": (str, ("space-time", "speed-space"), REQUIRED,
               "the contraction to apply"),
    "--axis": (int, (1, 2), REQUIRED, "the axis to expand along"),
    "--omega": (str, (), "sym", "target coefficient: 'sym', an integer or "
                "a rational (default sym)"),
    "--degree-bound": (int, (), None, "a value >= 0 to record; the reduction "
                       "is exact at any value"),
    "--expect-failure": (None, (), False, "treat 'closes-but-not-ck' as the "
                         "desired outcome"),
    "--json": (None, (), False, "print the result as JSON"),
    "--help": (None, (), False, "print this help"),
}
# verb: (handler, NAME and the options it takes)
VERBS = {
    "algebra": (cmd_algebra, "NAME --json"),
    "verify": (cmd_verify, "NAME --json"),
    "contract": (cmd_contract, "NAME --kind --json"),
    "expand": (cmd_expand,
               "NAME --axis --omega --degree-bound --expect-failure --json"),
    "atlas": (cmd_atlas, "--degree-bound --json"),
}


class UsageError(Exception):
    """A malformed command line; its args are the verb (or None) and why."""


def _label(word) -> str:
    convert, choices, _, _ = OPTIONS[word]
    metavar = "|".join(map(str, choices)) or word[2:].upper()
    return word if convert is None or word == "NAME" else f"{word} {metavar}"


def _usage(verb) -> str:
    if verb is None:
        return f"usage: ck [-h] {'|'.join(VERBS)} ..."
    words = [_label(w) if OPTIONS[w][2] is REQUIRED else f"[{_label(w)}]"
             for w in VERBS[verb][1].split()]
    return " ".join(["usage: ck", verb, "[-h]", *words])


def _help(verb) -> int:
    if verb is None:
        lines = [__doc__.strip(), "", "Options of each verb:"]
        lines += [_usage(v).replace("usage:", " ") for v in VERBS]
    else:
        lines = [f"  {_label(word):<32}{OPTIONS[word][3]}"
                 for word in VERBS[verb][1].split() + ["--help"]]
    print("\n".join([_usage(verb), "", *lines]))
    return 0


def _option(verb, words, token, tokens):
    """The option that token names, whole or as a unique prefix, and its
    value: True for a flag, else what follows "=" or the next token."""
    given, eq, value = token.partition("=")
    found = [word for word in words if word.startswith(given)]
    if len(found) != 1:
        problem = "ambiguous" if found else "unknown"
        raise UsageError(verb, f"{problem} option {given}")
    option = found[0]
    convert, choices, _, _ = OPTIONS[option]
    if convert is None and eq:
        raise UsageError(verb, f"{option} takes no value")
    if convert is None:
        return option, True
    if not eq:
        value = next(tokens, None)
        if value is None or value.startswith("--"):
            raise UsageError(verb, f"{option} expects a value")
    try:
        converted = convert(value)
        if choices and converted not in choices:
            raise ValueError(value)
    except ValueError:
        raise UsageError(verb, f"invalid {option} {value!r}") from None
    return option, converted


def parse_args(argv):
    """Return the handler of argv and its arguments (for -h or --help, the
    help and the verb); raise UsageError where argparse, which this
    replaces, exited 2."""
    if argv[:1] in (["-h"], ["--help"]):
        return _help, None
    if not argv or argv[0] not in VERBS:
        raise UsageError(None, f"choose a verb from {', '.join(VERBS)}")
    verb, tokens = argv[0], iter(argv[1:])
    words = VERBS[verb][1].split() + ["--help"]
    values = {word: OPTIONS[word][2] for word in words}
    names = []
    for token in tokens:
        if token == "--":
            names.extend(tokens)
        elif token == "-h":
            values["--help"] = True
        elif token.startswith("--"):
            values.update([_option(verb, words, token, tokens)])
        else:
            names.append(token)
    if values.pop("--help"):
        return _help, verb
    if len(names) > ("NAME" in values):
        raise UsageError(verb, f"unexpected argument {names[-1]!r}")
    if names:
        values["NAME"] = names[0]
    missing = [word for word, value in values.items() if value is REQUIRED]
    if missing:
        raise UsageError(verb, f"missing {', '.join(missing)}")
    args = {word.lstrip("-").lower().replace("-", "_"): value
            for word, value in values.items()}
    return VERBS[verb][0], SimpleNamespace(**args)


def main(argv=None) -> int:
    try:
        handler, args = parse_args(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        verb, message = exc.args
        print(f"{_usage(verb)}\nerror: {message}", file=sys.stderr)
        return 2
    # ValueError covers ExpansionError, UnsupportedAlgebraError and
    # json.JSONDecodeError
    try:
        code = handler(args)
        sys.stdout.flush()  # a closed stdout raises here, not at exit
    except BrokenPipeError:
        # the reader has gone: send what is still buffered to devnull, so
        # that the flush at interpreter exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (KeyError, ValueError, OSError) as exc:
        # str() of a KeyError is the repr of its message, quotes and all
        message = exc.args[0] if isinstance(exc, KeyError) else exc
        print(f"error: {message}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
