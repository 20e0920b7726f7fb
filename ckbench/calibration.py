"""The calibration loop: fixed dict and Fraction arithmetic, the kind of
work the program does, written without the program.

Run as a script it performs the loop once in a fresh interpreter, which
times process start as well; imported, ``in_process()`` performs it here.
"""

import time
from fractions import Fraction

# the loop's time in-process, and as a whole fresh interpreter, on a 2-core
# x86-64 VM at 2.1 GHz in its fast state (Python 3.11.7)
REFERENCE_S = 0.0012
REFERENCE_CHILD_S = 0.068
# On that machine the program's in-process time moved as this power of the
# in-process loop's time: the loop is more sensitive to the drift than the
# program (log-log slope 0.6-0.8 over 15 runs per in-process workload).  A
# child process moved in step with the child calibration (power 1).
IN_PROCESS_EXPONENT = 0.8


def loop() -> dict:
    poly = {(i, j): Fraction(i + 1, j + 2) for i in range(5) for j in range(4)}
    square = {}
    for (a, b), c in poly.items():
        for (d, e), f in poly.items():
            key = (a + d, b + e)
            square[key] = square.get(key, 0) + c * f
    return square


def in_process() -> float:
    """One in-process run of the loop, as the time the program's work would
    take at the same speed: REFERENCE_S * (t / REFERENCE_S) ** exponent."""
    t0 = time.perf_counter()
    loop()
    ratio = (time.perf_counter() - t0) / REFERENCE_S
    return REFERENCE_S * ratio ** IN_PROCESS_EXPONENT


if __name__ == "__main__":
    loop()
