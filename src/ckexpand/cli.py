"""Command-line front end.

Verbs:

  ck algebra NAME            show a bracket table (or dump it as JSON)
  ck verify NAME             Jacobi identity + Casimir centrality checks
  ck contract NAME --kind K  Inonu-Wigner contraction along an axis
  ck expand NAME --axis A    run one expansion and report the verdict
  ck atlas                   run every expansion arrow in the atlas

NAME is a builtin algebra name or the path of a JSON definition file.
Exit codes: 0 success, 1 a verification failed, 2 bad input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import expand, uea
from .liealg import (
    BUILTIN_NAMES,
    LieAlgebra,
    UnsupportedAlgebraError,
    builtin_algebra,
    check_structure,
    contract,
    identify,
)

__all__ = ["main"]

_BUILTINS = sorted(BUILTIN_NAMES) + ["ext-galilei", "ck"]
_BOUND_HELP = "a value >= 0 to record; the reduction is exact at any value"


def _load_algebra(name: str) -> LieAlgebra:
    if os.path.exists(name):
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
            omega = Fraction(omega)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ck",
        description="exact expansions and contractions of kinematical algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_name(p):
        p.add_argument(
            "name",
            help=f"builtin algebra ({', '.join(_BUILTINS)}) or JSON file path",
        )

    p = sub.add_parser("algebra", help="show or dump an algebra")
    add_name(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_algebra)

    p = sub.add_parser("verify", help="Jacobi and Casimir centrality checks")
    add_name(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("contract", help="Inonu-Wigner contraction")
    add_name(p)
    p.add_argument(
        "--kind", required=True, choices=["space-time", "speed-space"]
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_contract)

    p = sub.add_parser("expand", help="run one expansion")
    add_name(p)
    p.add_argument("--axis", required=True, type=int, choices=[1, 2])
    p.add_argument(
        "--omega",
        default="sym",
        help="target coefficient: 'sym', an integer or a rational (default sym)",
    )
    p.add_argument("--degree-bound", type=int, help=_BOUND_HELP)
    p.add_argument(
        "--expect-failure",
        action="store_true",
        help="treat 'closes-but-not-ck' as the desired outcome",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("atlas", help="run every expansion arrow")
    p.add_argument("--degree-bound", type=int, help=_BOUND_HELP)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_atlas)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; keep that contract
        return exc.code if exc.code is not None else 2
    # ValueError covers ExpansionError, UnsupportedAlgebraError and
    # json.JSONDecodeError
    try:
        return args.func(args)
    except (KeyError, ValueError, OSError) as exc:
        # str() of a KeyError is the repr of its message, quotes and all
        message = exc.args[0] if isinstance(exc, KeyError) else exc
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
