"""Record the golden outputs the benchmark checks seed-0 runs against.

    python3 perfbench/record_golden.py [WORKLOAD ...]

Runs each named workload (all by default) once at seed 0 and stores its
output under ``perfbench/golden/``.  Recording is deliberate: do it only
when a change is meant to alter the numbers, and say so in the change.
"""

from __future__ import annotations

import os
import sys

from run import prepare, run_child
from workloads import WORKLOADS, record_golden


def main(names) -> int:
    for workload in names or WORKLOADS:
        config = prepare(workload, 0)
        code, result, log_path = run_child("run", config)
        if code != 0 or result is None:
            print(f"{workload}: run failed with exit code {code}; see {log_path}", file=sys.stderr)
            return 1
        path = record_golden(workload, os.path.join(os.path.dirname(config), "out"))
        print(f"{workload}: recorded {path} (run {result['run_s']:.2f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
