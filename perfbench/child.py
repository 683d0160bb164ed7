"""One workload run in a fresh process; prints one JSON line.

``run.py`` starts this script once per repetition, so the program's
process-wide caches start cold every time, as they do for a CLI user:

    python3 perfbench/child.py --workload fleet --seed 0 --trace 0 \
        --scratch .perfbench

Times are CPU seconds of this process (``time.process_time``): the
program runs on one thread, so on an idle machine they equal wall
seconds, and unlike wall seconds they do not count the time the process
waits for a core of a shared host.  ``setup_cpu_s`` is the CPU time from
the start of the process (interpreter, imports, inputs) to just before
the first workload call.  ``reference_s`` is the mean CPU time of
:func:`reference_work`, run just before and just after the calls;
``run.py`` scales every time by it (see README.md).  ``peak_rss_mb`` is
the peak resident set during the calls, counted from the resident set
at their start.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from ledger import Ledger, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def reference_work() -> float:
    """CPU seconds of a fixed computation that uses no program code:
    heap, dict and float work in the interpreter, pointer chasing through
    a table larger than the CPU caches (built and freed inside), and
    small NumPy matrix products -- the mix the workloads spend their
    time on."""
    import heapq
    import random

    import numpy

    start = time.process_time()
    rng = random.Random(1)
    heap, sums = [], {}
    for i in range(60000):
        key = rng.random()
        heapq.heappush(heap, (key, i))
        sums[i % 997] = sums.get(i % 997, 0.0) + key
        if len(heap) > 500:
            heapq.heappop(heap)
    order = list(range(300000))
    rng.shuffle(order)
    table = {i: float(i) for i in order}
    total, j = 0.0, 0
    for _ in range(150000):
        j = order[j]
        total += table[j]
    del order, table
    matrix = numpy.random.default_rng(1).random((64, 64))
    for i in range(3000):
        product = matrix @ matrix[:, :8]
        matrix[i % 64, i % 64] += 1e-9 * float(product[0, 0])
    return time.process_time() - start


def reset_peak_rss() -> None:
    """Restart the kernel's peak-RSS count at the current RSS (Linux)."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass


def peak_rss_mb() -> float:
    """Peak RSS since :func:`reset_peak_rss`, else since the start."""
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scratch", type=Path, required=True)
    args = parser.parse_args()

    import numpy
    import scipy
    from repro.perf import warmcache
    from repro.service.metrics import percentile

    workload = WORKLOADS[args.workload]
    inputs = workload.inputs(args.seed, args.scratch)
    ledger = Ledger() if args.trace else None
    latencies = []

    def timed(fn, *call_args):
        start = time.process_time()
        result = fn(*call_args)
        latencies.append(time.process_time() - start)
        return result

    if ledger is not None:
        ledger.install()
    setup_cpu_s = time.process_time()
    reference_s = reference_work()
    reset_peak_rss()
    start = time.perf_counter()
    cpu_start = time.process_time()
    try:
        outputs = workload.execute(inputs, timed)
    finally:
        wall_s = time.perf_counter() - start
        cpu_s = time.process_time() - cpu_start
        if ledger is not None:
            ledger.uninstall()
    peak_mb = peak_rss_mb()
    reference_s = (reference_s + reference_work()) / 2
    warm = warmcache.stats()
    outcome = workload.check(inputs, outputs)
    if ledger is not None:
        leftover = ledger.leftover_wrappers()
        outcome.require(leftover == 0, f"{leftover} wrapper(s) not restored")

    record = {
        "setup_cpu_s": setup_cpu_s,
        "cpu_s": cpu_s,
        "wall_s": wall_s,
        "reference_s": reference_s,
        "peak_rss_mb": peak_mb,
        "requests": len(latencies),
        "request_p50_ms": 1e3 * percentile(latencies, 0.50),
        "request_p99_ms": 1e3 * percentile(latencies, 0.99),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "problems": outcome.problems,
        "digests": outcome.digests,
        "figures": outcome.figures,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    if ledger is not None:
        totals = ledger.totals()
        record["layers"] = layer_metrics(totals, outcome.counts, warm, wall_s)
        record["target_calls"] = totals["target_calls"]
    print(json.dumps(record))


if __name__ == "__main__":
    main()
