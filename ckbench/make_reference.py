"""Regenerate ``reference.json``, the outputs the benchmark's gate expects.

Run from the repository root with ``python3 ckbench/make_reference.py``.
The reference pins the engine's output byte for byte: rerun it only when a
change to the engine's output is intended and explained.
"""

import contextlib
import io
import json

import workloads
from workloads import ck


def main() -> None:
    atlas = {}
    for item in workloads.atlas_rows():
        report = workloads.WORKLOADS["atlas"].call(item.spec)
        atlas[item.key] = report
    symbolic = []
    for initial, axis in workloads.symbolic_rows():
        report = ck.run_expansion(ck.make_problem(initial, axis, "sym"))
        if report.verdict != "pass":
            raise SystemExit(f"{initial} axis {axis}: {report.verdict}")
        symbolic.append({
            "initial": initial,
            "axis": axis,
            "raw": [str(p) for p in report.constraints.generators],
            "groebner": [str(p) for p in report.constraints.groebner],
        })
    cli = {}
    from ckexpand import cli as ck_cli
    for argv in workloads.cli_commands():
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = ck_cli.main(argv)
        if code != 0:
            raise SystemExit(f"ck {' '.join(argv)} exited {code}")
        cli[" ".join(argv)] = buffer.getvalue()
    with open(workloads.REFERENCE, "w") as handle:
        json.dump({"atlas": atlas, "symbolic": symbolic, "cli": cli},
                  handle, indent=1)
        handle.write("\n")
    print(f"wrote {workloads.REFERENCE}: {len(atlas)} arrows, "
          f"{len(symbolic)} symbolic systems, {len(cli)} commands")


if __name__ == "__main__":
    main()
