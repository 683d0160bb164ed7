"""End-to-end benchmark with a per-layer ledger; see perfbench/README.md.

    python3 perfbench/run.py --workload fleet --seed 0 --seconds 25 --trace 0

Runs the workload's calls repeatedly, each time in a fresh child process
(``child.py``), until ``--seconds`` are used, and at least
``MIN_CHILDREN`` times; with ``--trace 1`` the children alternate
between untraced and traced.  Every child's outputs are checked.  The
last line of standard output is one JSON object: with ``--trace 0`` it
holds the end-to-end metrics of ``BENCHMARK.json`` (medians over the
untraced children); with ``--trace 1`` its per-layer metrics (medians
over the traced children).  Times are CPU seconds scaled to reference
speed (see ``child.py`` and README.md).  Earlier lines give the machine
fingerprint, the workload's simulated figures and the medians before
scaling.  Exits 2 when the program's source is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_CHILDREN = 3
MAX_CHILDREN = 60
#: CPU seconds ``child.reference_work`` takes at "reference speed"
#: (about that of the machine in README.md); times are scaled to it.
REFERENCE_S = 0.7
#: A run must end within 180 s; no child may start past this budget.
RUN_BUDGET_S = 150.0
#: BLAS pools are pinned to one thread: the arrays are small, and a pool
#: per process on a shared two-core host only adds noise.
THREAD_VARIABLES = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)


def fingerprint(versions: Dict[str, str]) -> Dict[str, object]:
    """Machine, toolchain and code identity of this set of runs."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(path.relative_to(ROOT).as_posix().encode())
        source.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        **versions,
        "commit": git_commit(),
        "src_sha256": source.hexdigest(),
    }


def git_commit() -> Optional[str]:
    """HEAD's commit read from ``.git`` (None outside a git checkout)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def spawn(workload: str, seed: int, trace: int, scratch: Path,
          timeout_s: float) -> Dict[str, object]:
    """Run one child; returns its record, or ``{"error": ...}``."""
    env = dict(os.environ, **{name: "1" for name in THREAD_VARIABLES})
    command = [
        sys.executable, str(HERE / "child.py"), "--workload", workload,
        "--seed", str(seed), "--trace", str(trace), "--scratch", str(scratch),
    ]
    started = time.monotonic()
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=timeout_s,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"child exceeded {timeout_s:.0f} s", "trace": trace}
    elapsed = time.monotonic() - started
    if proc.returncode != 0 or not proc.stdout.strip():
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"child exited {proc.returncode}: {tail[0]}",
                "trace": trace}
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["elapsed_s"] = elapsed
    record["trace"] = trace
    return record


def run_children(workload: str, seed: int, seconds: float,
                 trace: int, scratch: Path) -> List[Dict[str, object]]:
    """Children (alternating untraced and traced under ``trace``) until
    ``seconds`` are used and at least ``MIN_CHILDREN`` have run; no child
    starts that would likely end past ``seconds``, once the minimum is
    reached, or past ``RUN_BUDGET_S``."""
    records: List[Dict[str, object]] = []
    start = time.monotonic()
    while len(records) < MAX_CHILDREN:
        mode = trace and len(records) % 2
        elapsed = time.monotonic() - start
        records.append(spawn(workload, seed, mode, scratch,
                             max(RUN_BUDGET_S - elapsed, 10.0)))
        elapsed = time.monotonic() - start
        typical = statistics.median(
            r.get("elapsed_s", elapsed) for r in records
        )
        if elapsed + typical > RUN_BUDGET_S:
            break
        if len(records) >= MIN_CHILDREN and elapsed + typical > seconds:
            break
    return records


def median_of(records, key: str) -> float:
    return statistics.median(float(record[key]) for record in records)


def normalized(records, key: str) -> float:
    """Median over children of ``key`` scaled to reference speed."""
    return statistics.median(
        float(r[key]) * REFERENCE_S / r["reference_s"] for r in records
    )


def end_to_end(records) -> Dict[str, float]:
    return {
        "norm_cpu_s": normalized(records, "cpu_s"),
        "setup_s": normalized(records, "setup_cpu_s"),
        "peak_rss_mb": median_of(records, "peak_rss_mb"),
        "norm_requests_per_s": statistics.median(
            r["requests"] * r["reference_s"] / (r["cpu_s"] * REFERENCE_S)
            for r in records
        ),
        "norm_request_p50_ms": normalized(records, "request_p50_ms"),
        "norm_request_p99_ms": normalized(records, "request_p99_ms"),
    }


def per_layer(traced, untraced) -> Dict[str, float]:
    names = traced[0]["layers"]
    values = {
        name: statistics.median(r["layers"][name] for r in traced)
        for name in names
    }
    values["ledger.trace_overhead_pct"] = 100.0 * (
        normalized(traced, "cpu_s") / normalized(untraced, "cpu_s") - 1.0
    )
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    # A termination signal unwinds like an error: the running child is
    # killed and waited for, and the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    scratch = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        records = run_children(args.workload, args.seed, args.seconds,
                               args.trace, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    done = [r for r in records if "error" not in r]
    attempted = sum(int(r["attempted"]) for r in done)
    failed = sum(int(r["failed"]) for r in done)
    problems = [str(r["error"]) for r in records if "error" in r]
    attempted += len(problems)
    failed += len(problems)
    for record in done:
        problems.extend(record["problems"])
    if len({json.dumps(r["digests"]) for r in done}) > 1:
        problems.append("result digests differ between runs of one seed")
        failed += 1
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    untraced = [r for r in done if not r["trace"]]
    traced = [r for r in done if r["trace"]]
    if not untraced or (args.trace and not traced):
        print("error: no child run completed", file=sys.stderr)
        return 1

    print("# fingerprint " + json.dumps(fingerprint(untraced[0]["versions"])))
    figures = dict(untraced[0]["figures"])
    if "sim_days" in figures:
        figures["sim_days_per_norm_cpu_s"] = [
            figures["sim_days"][0] / normalized(untraced, "cpu_s"), "1/s"
        ]
    print(f"# {args.workload} seed {args.seed}: simulated figures "
          + json.dumps(figures))
    print(f"# {len(untraced)} untraced, {len(traced)} traced children; "
          f"medians before scaling: calls "
          f"{median_of(untraced, 'cpu_s'):.4f} CPU s, "
          f"{median_of(untraced, 'wall_s'):.4f} wall s; set-up "
          f"{median_of(untraced, 'setup_cpu_s'):.4f} CPU s; reference "
          f"{median_of(untraced, 'reference_s'):.4f} CPU s; child "
          f"{median_of(untraced, 'elapsed_s'):.4f} wall s")
    if args.trace:
        values, wanted = per_layer(traced, untraced), config["per_layer"]
    else:
        values, wanted = end_to_end(untraced), config["end_to_end"]
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in wanted
    }
    for name, metric in metrics.items():
        print(f"# {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
