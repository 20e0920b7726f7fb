"""Time one fresh interpreter's set-up for a workload.

Usage: setup_probe.py WORKLOAD SEED.  Prints one JSON line with
``import_s`` (``import ckexpand`` and ``ckexpand.cli``) and ``setup_s``
(that import plus building the workload's inputs).
"""

import json
import sys
import time
from pathlib import Path


def main() -> None:
    workload, seed = sys.argv[1], int(sys.argv[2])
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    t0 = time.perf_counter()
    import ckexpand  # noqa: F401
    import ckexpand.cli  # noqa: F401
    t1 = time.perf_counter()
    import workloads
    workloads.WORKLOADS[workload].build(seed, workloads.load_reference())
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "setup_s": t2 - t0}))


if __name__ == "__main__":
    main()
