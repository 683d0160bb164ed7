"""The four benchmark workloads: inputs from a seed, timed calls, checks.

Each workload is a :class:`Workload` with three steps, run by
``child.py`` in a fresh process:

* ``inputs(seed, scratch)`` builds the specs (counted as set-up);
* ``execute(inputs, timed)`` makes the user-level calls -- the only
  timed and traced region; ``timed(fn, *args)`` records each call's
  latency;
* ``check(inputs, outputs)`` verifies the outputs and returns an
  :class:`Outcome` (operations attempted and failed, failed checks,
  result digests, simulated figures, counts the ledger divides by).

Calls go through module attributes (``engine.run_scenario``, not a
name bound at import), so the ledger's wrappers see them.
"""

from __future__ import annotations

import hashlib
import math
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List

import numpy as np

#: ``fleet`` and ``storm`` replay fixed inputs (scenario seed 0): their
#: cost depends on the drawn trace and storms far more than any bound
#: allows (README.md, "Inputs and seeds").
FIXED_SCENARIO_SEED = 0
FLEET_SERVERS = 200
STORM_SERVERS = 64
STORM_JOBS = 40
STORM_INTERARRIVAL_S = 3600.0
STORM_COUNT = 10
STORM_MIN_FAULTS = 20
COSEARCH_SERVERS = 64
COSEARCH_MODELS = ("VGG16", "ResNet50", "BERT", "DLRM", "CANDLE", "NCF")
SERVICE_UNIVERSE = 32
SERVICE_REQUESTS = 6000
SERVICE_MEMORY_ENTRIES = 16
SERVICE_ZIPF_S = 1.1
SERVICE_SAMPLE = 2
TRACE_MODELS = ("DLRM", "BERT", "CANDLE", "VGG16")


@dataclass
class Outcome:
    """What ``check`` found; every field is JSON-native."""

    attempted: int
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    digests: List[str] = field(default_factory=list)
    #: Simulated figures, deterministic per (spec, seed): name -> [value,
    #: unit].
    figures: Dict[str, List[Any]] = field(default_factory=dict)
    #: Denominators and counters the per-layer metrics need.
    counts: Dict[str, float] = field(default_factory=dict)

    def require(self, ok: bool, problem: str) -> None:
        """Record a failed check; it counts as a failed operation."""
        if not ok:
            self.problems.append(problem)
            self.failed += 1


@dataclass(frozen=True)
class Workload:
    """One workload; why each was chosen is in ``BENCHMARK.json``."""

    inputs: Callable[[int, Path], Any]
    execute: Callable[[Any, Callable], Any]
    check: Callable[[Any, Any], Outcome]


def digest(result) -> str:
    """SHA-256 of a result's canonical JSON."""
    from repro.api.spec import canonical_json

    return hashlib.sha256(
        canonical_json(result.to_dict()).encode()
    ).hexdigest()


def _trace_scenario(name: str, seed: int, servers: int, jobs: int,
                    interarrival_s: float, max_sim_time_s: float):
    from repro.api.spec import ClusterSpec, FabricSpec
    from repro.cluster import ArrivalSpec, JobTemplateSpec, ScenarioSpec
    from repro.cluster.spec import SchedulerSpec

    return ScenarioSpec(
        name=name,
        seed=seed,
        cluster=ClusterSpec(servers=servers, degree=4, bandwidth_gbps=100.0),
        fabric=FabricSpec(kind="topoopt"),
        arrivals=ArrivalSpec(
            process="trace", count=jobs,
            mean_interarrival_s=interarrival_s, max_servers=16,
            durations="wallclock",
        ),
        jobs=tuple(
            JobTemplateSpec(model=model, servers=8) for model in TRACE_MODELS
        ),
        scheduler=SchedulerSpec(policy="best-fit"),
        max_sim_time_s=max_sim_time_s,
        fast_forward=True,
    )


def scenarios_execute(specs, timed):
    from repro.cluster import engine

    return [timed(engine.run_scenario, spec) for spec in specs]


def scenarios_check(specs, results) -> Outcome:
    """``fleet``/``storm`` checks: every job drains, invariants hold."""
    from repro.cluster.invariants import check_scenario_invariants

    jobs = sum(spec.arrivals.count for spec in specs)
    outcome = Outcome(attempted=jobs, counts={"jobs": jobs})
    jct, makespan_s = [], 0.0
    for spec, result in zip(specs, results):
        unfinished = spec.arrivals.count - len(result.jobs)
        outcome.failed += unfinished
        if unfinished or result.unfinished_jobs:
            outcome.problems.append(
                f"{spec.name}: {unfinished} job(s) did not drain"
            )
        for violation in check_scenario_invariants(result):
            outcome.require(False, f"{spec.name}: {violation}")
        jct.extend(job.jct_s for job in result.jobs)
        makespan_s += result.makespan_s
        outcome.digests.append(digest(result))
    outcome.figures["jct_avg_s"] = [float(np.mean(jct)), "s"]
    outcome.figures["sim_days"] = [makespan_s / 86400.0, "days"]
    return outcome


# -- fleet -------------------------------------------------------------

def fleet_inputs(seed: int, scratch: Path):
    """The ``bench_scenario_fleet`` spec scaled to 200 servers and 200
    trace jobs; the same inputs under every seed."""
    return [_trace_scenario(
        "perfbench-fleet", FIXED_SCENARIO_SEED, FLEET_SERVERS,
        FLEET_SERVERS, interarrival_s=7200.0, max_sim_time_s=4e7,
    )]


# -- storm -------------------------------------------------------------

def storm_inputs(seed: int, scratch: Path):
    """A 40-job trace (scenario seed 0, as in ``bench_scenario_storm``,
    but arriving four times as often, so the queue stays deep) under
    conservative backfill, one spec per recovery policy, all under one
    schedule of ten correlated storms; the same inputs under every
    seed."""
    from dataclasses import replace

    from repro.cluster.faults import RECOVERY_POLICIES, FaultScheduleSpec

    schedule = FaultScheduleSpec(
        storms=STORM_COUNT, storm_window_s=2e6, storm_region_size=8,
        storm_servers=2, storm_links=2, mean_repair_s=2e4,
    )
    base = replace(
        _trace_scenario(
            "perfbench-storm", FIXED_SCENARIO_SEED, STORM_SERVERS,
            STORM_JOBS, interarrival_s=STORM_INTERARRIVAL_S,
            max_sim_time_s=2e8,
        ),
        faults=FaultScheduleSpec(
            events=schedule.resolve(FIXED_SCENARIO_SEED, STORM_SERVERS)
        ),
    ).with_overrides({
        "queue": "conservative",
        "checkpoint_interval_s": 1800.0,
    })
    return [
        base.with_overrides({"recovery_policy": policy})
        for policy in RECOVERY_POLICIES
    ]


def storm_check(specs, results) -> Outcome:
    outcome = scenarios_check(specs, results)
    faults = [result.fault_metrics()["fault_events"] for result in results]
    outcome.require(
        max(faults) >= STORM_MIN_FAULTS,
        f"storm applied at most {max(faults)} faults under every policy "
        f"(need >= {STORM_MIN_FAULTS} under some policy)",
    )
    lost = served = 0.0
    for result in results:
        lost += sum(job.lost_work_s for job in result.jobs)
        for job in result.jobs:
            counts = job.iteration_counts or (1,) * len(job.iteration_times)
            served += sum(t * c for t, c in zip(job.iteration_times, counts))
    outcome.figures["goodput"] = [1.0 - lost / (served + lost), "ratio"]
    outcome.counts["fault_events"] = sum(faults)
    return outcome


# -- cosearch ----------------------------------------------------------

def cosearch_inputs(seed: int, scratch: Path):
    """MCMC x TopologyFinder on TopoOpt, Fat-tree baseline, six models;
    ``seed`` seeds the searches."""
    from repro.api.spec import (
        ClusterSpec, ExperimentSpec, FabricSpec, OptimizerSpec,
        WorkloadSpec,
    )

    return [
        ExperimentSpec(
            name=f"perfbench-cosearch-{model}-{seed}",
            seed=seed,
            workload=WorkloadSpec(model=model, scale="simulation"),
            cluster=ClusterSpec(
                servers=COSEARCH_SERVERS, degree=4, bandwidth_gbps=100.0
            ),
            fabric=FabricSpec(kind="topoopt"),
            optimizer=OptimizerSpec(strategy="mcmc"),
            baselines=(FabricSpec(kind="fattree"),),
        )
        for model in COSEARCH_MODELS
    ]


def cosearch_execute(specs, timed):
    from repro.api import runner

    return [timed(runner.run_experiment, spec) for spec in specs]


def cosearch_check(specs, results) -> Outcome:
    outcome = Outcome(attempted=len(specs))
    ratios = []
    for spec, result in zip(specs, results):
        topoopt = result.fabric.total_s
        fattree = result.baselines[0].total_s
        ok = all(math.isfinite(t) and t > 0 for t in (topoopt, fattree))
        outcome.require(
            ok, f"{spec.workload.model}: total_s topoopt={topoopt} "
                f"fattree={fattree} is not finite and positive",
        )
        if ok:
            ratios.append(fattree / topoopt)
        outcome.digests.append(digest(result))
    if ratios:
        outcome.figures["speedup_vs_fattree"] = [
            float(np.exp(np.mean(np.log(ratios)))), "ratio"
        ]
    return outcome


# -- service -----------------------------------------------------------

@dataclass
class ServiceInputs:
    requests: List[Any]
    root: Path


def service_inputs(seed: int, scratch: Path) -> ServiceInputs:
    """32 cheap specs (even: experiments, odd: small scenarios) and a
    Zipf(1.1) request stream over a seeded popularity order.

    The experiments take the 16 most popular ranks, in an order drawn
    from the seed, and the scenarios the other 16.  So 86% of the
    requests ask for an experiment under every seed, and the median
    request sits inside the experiments' latency mode: scenario specs
    hash more slowly, and with ranks alternating between the kinds
    (60% experiments) the median fell on the edge between the two modes
    and moved by a fifth between seeds.
    """
    from repro.api.spec import (
        ClusterSpec, ExperimentSpec, FabricSpec, OptimizerSpec,
        WorkloadSpec,
    )
    from repro.cluster.spec import ScenarioSpec

    universe: List[Any] = []
    for i in range(SERVICE_UNIVERSE):
        model = TRACE_MODELS[(i // 2) % len(TRACE_MODELS)]
        if i % 2 == 0:
            universe.append(ExperimentSpec(
                name=f"perfbench-service-exp-{i}",
                seed=seed * SERVICE_UNIVERSE + i,
                workload=WorkloadSpec(model=model, scale="testbed"),
                cluster=ClusterSpec(
                    servers=(8, 16)[(i // 8) % 2], degree=4,
                    bandwidth_gbps=100.0,
                ),
                fabric=FabricSpec(kind=("fattree", "topoopt")[(i // 16) % 2]),
                optimizer=OptimizerSpec(strategy="auto"),
            ))
        else:
            universe.append(ScenarioSpec.preset("shared").with_overrides({
                "name": f"perfbench-service-scn-{i}",
                "seed": seed * SERVICE_UNIVERSE + i,
                "jobs.0.model": model,
            }))
    rng = np.random.default_rng(seed)
    half = SERVICE_UNIVERSE // 2
    by_rank = np.concatenate(
        (2 * rng.permutation(half), 2 * rng.permutation(half) + 1)
    )
    weights = 1.0 / np.arange(1, SERVICE_UNIVERSE + 1) ** SERVICE_ZIPF_S
    draws = rng.choice(
        SERVICE_UNIVERSE, size=SERVICE_REQUESTS, p=weights / weights.sum()
    )
    return ServiceInputs(
        requests=[universe[by_rank[rank]] for rank in draws],
        root=Path(tempfile.mkdtemp(prefix="store-", dir=scratch)),
    )


def _serve(executor, spec):
    return executor.submit(spec).future.result()


def service_execute(inputs: ServiceInputs, timed):
    """One client, closed loop: each request waits for the previous one."""
    from repro.service import BatchExecutor, ResultStore

    store = ResultStore(inputs.root, memory_entries=SERVICE_MEMORY_ENTRIES)
    first = {}
    with BatchExecutor(store=store, executor="serial") as executor:
        for spec in inputs.requests:
            result = timed(_serve, executor, spec)
            first.setdefault(id(spec), (spec, result))
    return list(first.values()), store, executor.counters.as_dict()


def service_check(inputs: ServiceInputs, outputs) -> Outcome:
    from repro.service import ResultStore

    served, store, counters = outputs
    stats = store.stats()
    try:
        unique = {spec.content_hash(): spec for spec, _ in served}
        outcome = Outcome(
            attempted=len(inputs.requests),
            failed=counters["errors"],
            counts={
                "requests": len(inputs.requests),
                "store_gets": stats["hits"] + stats["misses"],
                "memory_hits": stats["memory_hits"],
                "disk_hits": stats["disk_hits"],
            },
        )
        if counters["errors"]:
            outcome.problems.append(f"{counters['errors']} request(s) errored")
        outcome.require(
            counters["computed"] == len(unique),
            f"{counters['computed']} computations for {len(unique)} "
            f"unique specs",
        )
        outcome.require(stats["corrupt"] == 0,
                        f"{stats['corrupt']} corrupt store entries")
        # A store opened on the same root serves from disk only; its
        # results must match a fresh computation byte for byte.
        from repro.api.runner import run_experiment
        from repro.cluster.engine import run_scenario

        reopened = ResultStore(inputs.root)
        specs = [unique[key] for key in sorted(unique)]
        scenarios = [spec for spec in specs if hasattr(spec, "arrivals")]
        experiments = [s for s in specs if not hasattr(s, "arrivals")]
        for spec in scenarios[:SERVICE_SAMPLE] + experiments[:SERVICE_SAMPLE]:
            fresh = (run_scenario if hasattr(spec, "arrivals")
                     else run_experiment)(spec)
            stored = reopened.get(spec)
            outcome.require(
                stored is not None and digest(stored) == digest(fresh),
                f"{spec.name}: store-served result differs from a fresh "
                f"computation",
            )
        outcome.digests = sorted(digest(result) for _, result in served)
        outcome.figures["hit_ratio"] = [
            stats["hits"] / max(stats["hits"] + stats["misses"], 1), "ratio"
        ]
        return outcome
    finally:
        shutil.rmtree(inputs.root, ignore_errors=True)


WORKLOADS: Dict[str, Workload] = {
    "fleet": Workload(fleet_inputs, scenarios_execute, scenarios_check),
    "storm": Workload(storm_inputs, scenarios_execute, storm_check),
    "cosearch": Workload(cosearch_inputs, cosearch_execute, cosearch_check),
    "service": Workload(service_inputs, service_execute, service_check),
}
