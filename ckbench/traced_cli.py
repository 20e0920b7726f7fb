"""Run one ``ck`` command with the benchmark's span tracer installed.

Usage: traced_cli.py SPANS_OUT ARGS...  Behaves like ``ck ARGS...`` and
writes the command's spans and counters to SPANS_OUT when it ends.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import ckexpand.cli  # noqa: E402
import spans  # noqa: E402


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    tracer.begin_item(0)
    with spans.installed(tracer):
        code = ckexpand.cli.main(argv)
    sys.stdout.flush()
    tracer.dump(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
