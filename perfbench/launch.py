"""Run one ``prsfam`` CLI job between two speed calibrations.

Usage: python launch.py CAL_OUT CLI_ARG...

The job runs exactly as ``python -m prsfam.cli CLI_ARG...`` would.
Before and after it, in the same process and so on the same CPU, a
fixed pure-Python kernel shaped like the package's correlation loops is
timed five times.  CAL_OUT receives ``[before, after, spent]``: the
median kernel time of each calibration and the total time both took.
On a shared machine the speed of a CPU drifts by a factor of up to two
over seconds to minutes.  run.py divides each job's wall time, less
``spent``, by its calibration, which removes most of that drift.
"""

from __future__ import annotations

import json
import runpy
import statistics
import sys
import time

KERNEL_RUNS = 5
_ROWS = [tuple((i * 7 + j) % 3 - 1 for j in range(40)) for i in range(12)]


def kernel() -> int:
    """Largest |running product-sum| over row pairs and shifts."""
    best = 0
    for a in _ROWS:
        for b in _ROWS:
            for d in range(8):
                acc = 0
                for x, y in zip(a[d:], b):
                    acc += x * y
                    v = acc if acc >= 0 else -acc
                    if v > best:
                        best = v
    return best


def calibrate() -> list[float]:
    times = []
    for _ in range(KERNEL_RUNS):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return times


def calibration(before: list[float], after: list[float]) -> list[float]:
    """``[before, after, spent]`` as described above."""
    return [statistics.median(before), statistics.median(after),
            sum(before) + sum(after)]


def main() -> None:
    cal_out, cli_args = sys.argv[1], sys.argv[2:]
    before = calibrate()
    sys.argv = ["prsfam.cli", *cli_args]
    try:
        runpy.run_module("prsfam.cli", run_name="__main__", alter_sys=True)
    finally:
        with open(cal_out, "w", encoding="utf-8") as fh:
            json.dump(calibration(before, calibrate()), fh)


if __name__ == "__main__":
    main()
