"""Shared-cluster scenarios: scheduler, job lifecycle, typed results.

This package turns the repo from "simulate one job on one fabric" into
"simulate a cluster's life".  Describe a scenario as data
(:class:`ScenarioSpec`: arrival process, job mix, scheduler policy,
fabric, duration), run it (:func:`run_scenario`), and consume a typed,
JSON-serializable :class:`ScenarioResult` (per-job JCT and queueing
delay, iteration-time tails, utilization and fragmentation timelines,
the scheduler event log).  The scheduler is a policy plane
(:class:`JobScheduler`): FCFS / EASY / conservative-backfill queue
disciplines, priority preemption with checkpoint/restart costs,
elastic shard grow/shrink, and look-ahead shard provisioning
(:class:`ShardManager`) — with a replayable invariant harness in
:mod:`repro.cluster.invariants`.  Scenarios can also declare a fault
schedule (:class:`FaultScheduleSpec`: link cuts, host deaths,
correlated storms) and a recovery policy (:class:`RecoverySpec`:
detour / reoptimize / checkpoint-restart); see
:mod:`repro.cluster.faults` and the chaos harness's
:func:`chaos_scenario_spec`.  See ``docs/scenarios.md`` for the
schema, policy semantics, and metric definitions.

Quick start::

    from repro.cluster import ScenarioSpec, run_scenario

    spec = ScenarioSpec.preset("shared")      # Figure 16's job mix
    result = run_scenario(spec)
    print(result.metrics()["iteration_p99_s"])
    easy = run_scenario(spec.with_overrides({"queue": "easy"}))
"""

from repro.cluster.engine import (
    ScenarioEngine,
    ScenarioError,
    run_scenario,
)
from repro.cluster.faults import (
    FAULT_KINDS,
    RECOVERY_POLICIES,
    FaultEventSpec,
    FaultScheduleSpec,
    RecoverySpec,
)
from repro.cluster.invariants import (
    GOLDEN_POLICIES,
    chaos_scenario_spec,
    check_scenario_invariants,
    golden_scenario_spec,
    random_scenario_spec,
    verify_scenario,
)
from repro.cluster.results import JobResult, ScenarioResult
from repro.cluster.scheduler import (
    AvailabilityProfile,
    JobScheduler,
    ShardAllocator,
    ShardManager,
)
from repro.cluster.spec import (
    ARRIVAL_PROCESSES,
    FAMILY_MODELS,
    PREEMPTION_MODES,
    PROVISIONING_MODES,
    QUEUE_POLICIES,
    SCENARIO_PRESETS,
    SCENARIO_SHORTHANDS,
    SCHEDULER_POLICIES,
    ArrivalSpec,
    JobTemplateSpec,
    ScenarioSpec,
    SchedulerSpec,
)

__all__ = [
    "ARRIVAL_PROCESSES",
    "FAMILY_MODELS",
    "FAULT_KINDS",
    "GOLDEN_POLICIES",
    "PREEMPTION_MODES",
    "PROVISIONING_MODES",
    "QUEUE_POLICIES",
    "RECOVERY_POLICIES",
    "SCENARIO_PRESETS",
    "SCENARIO_SHORTHANDS",
    "SCHEDULER_POLICIES",
    "ArrivalSpec",
    "AvailabilityProfile",
    "FaultEventSpec",
    "FaultScheduleSpec",
    "JobResult",
    "JobScheduler",
    "JobTemplateSpec",
    "RecoverySpec",
    "ScenarioEngine",
    "ScenarioError",
    "ScenarioResult",
    "ScenarioSpec",
    "SchedulerSpec",
    "ShardAllocator",
    "ShardManager",
    "chaos_scenario_spec",
    "check_scenario_invariants",
    "golden_scenario_spec",
    "random_scenario_spec",
    "run_scenario",
    "verify_scenario",
]
