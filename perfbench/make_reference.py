"""Regenerate reference.json: the constant of every job at seed 0.

    python3 perfbench/make_reference.py

Run only at a commit whose constants have been verified independently; the
benchmark then checks every later commit against this table two-sided.
Disk rotations (other seeds) agree with seed 0 to 1e-15 in S.
"""

import json
import sys

from run import BENCH, run_pass
from workloads import WORKLOADS

PATH = BENCH / "reference.json"


def main() -> int:
    if not PATH.exists():
        PATH.write_text("{}\n")
    table = {}
    for workload in WORKLOADS:
        rec = run_pass(workload, 0, False, 0, 600)
        if rec is None:
            return 1
        for job in rec["jobs"]:
            if job["observed"] is None:
                continue
            table[job["id"]] = job["observed"]
    PATH.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(table)} references to {PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
