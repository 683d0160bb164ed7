"""Self-test of the layer ledger's wrappers.

    python3 perfbench/selftest.py

Runs one traced child per workload (seed 0) and fails unless every
wrapper in ``ledger.TARGETS`` recorded at least one call on the
workload predicted to exercise it -- a wrapper patched where no caller
looks the name up records nothing -- and unless every run's outputs
passed their checks with all wrappers restored afterwards.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

from ledger import TARGETS, target_name
from run import ROOT, WORKLOADS, spawn


def main() -> int:
    failures = []
    scratch = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        for workload in WORKLOADS:
            record = spawn(workload, 0, 1, scratch, timeout_s=170.0)
            if "error" in record:
                failures.append(f"{workload}: {record['error']}")
                continue
            failures.extend(f"{workload}: {p}" for p in record["problems"])
            for target in TARGETS:
                name = target_name(target)
                if target[3] == workload and not record["target_calls"][name]:
                    failures.append(f"{workload}: {name} recorded no calls")
            print(f"{workload}: {sum(record['target_calls'].values())} "
                  f"spans, coverage {record['layers']['ledger.coverage']:.4f}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
