"""Chaos harness: randomized fault storms vs. the invariant checker.

The acceptance gates of the failure-storm issue, as tier-1 tests:

* >= 25 seeded chaos scenarios (random scenario x random storm
  schedule x random recovery policy) verify clean -- byte-identical
  reruns, scheduler-log replay, conservation, and fault bounds;
* a deterministic storm scenario drains a full trace under all three
  recovery policies;
* checkpoint-restart loses at most one checkpoint interval (plus the
  iteration in flight) per host failure;
* a host death releases the victim's exact server block;
* a link cut that disconnects a shard suspends the job instead of
  raising, even under the default detour policy.
"""

import math

import pytest

from repro.api.spec import ClusterSpec, FabricSpec
from repro.cluster import (
    ArrivalSpec,
    JobTemplateSpec,
    ScenarioSpec,
    run_scenario,
)
from repro.cluster.invariants import (
    chaos_scenario_spec,
    check_scenario_invariants,
    verify_scenario,
)
from repro.cluster.spec import SchedulerSpec

CHAOS_SEEDS = 25


class TestChaosHarness:
    def test_chaos_seeds_verify_clean(self):
        policies = set()
        kinds = set()
        for seed in range(CHAOS_SEEDS):
            spec = chaos_scenario_spec(seed)
            policies.add(spec.recovery.policy)
            result = verify_scenario(spec)
            kinds.update(entry["kind"] for entry in result.failure_log)
        # The draw really exercises the plane: multiple policies and
        # at least one applied (non-skipped) fault kind showed up.
        assert len(policies) >= 2
        assert kinds & {"mp_detour", "link_cut", "server_fail", "storm"}

    def test_chaos_spec_is_deterministic(self):
        assert chaos_scenario_spec(11) == chaos_scenario_spec(11)
        assert chaos_scenario_spec(11) != chaos_scenario_spec(12)

    def test_policy_override_pins_recovery(self):
        spec = chaos_scenario_spec(0, policy="checkpoint-restart")
        assert spec.recovery.policy == "checkpoint-restart"


def storm_spec(policy: str) -> ScenarioSpec:
    """A compact deterministic storm: 12 jobs, 4 correlated storms."""
    spec = ScenarioSpec(
        name=f"storm-{policy}",
        cluster=ClusterSpec(servers=16, degree=4, bandwidth_gbps=100.0),
        fabric=FabricSpec(kind="topoopt"),
        arrivals=ArrivalSpec(
            process="poisson", count=12, mean_interarrival_s=6.0,
            max_servers=8,
        ),
        jobs=(
            JobTemplateSpec(model="DLRM", servers=4, iterations=40),
            JobTemplateSpec(model="BERT", servers=4, iterations=40),
        ),
        scheduler=SchedulerSpec(policy="first-fit"),
        max_sim_time_s=1e5,
    )
    return spec.with_overrides({
        "storms": 4,
        "storm_window_s": 60.0,
        "storm_region_size": 8,
        "storm_servers": 1,
        "storm_links": 1,
        "mean_repair_s": 20.0,
        "recovery_policy": policy,
        "checkpoint_interval_s": 5.0,
    })


class TestStormScenarios:
    @pytest.mark.parametrize(
        "policy", ["detour", "reoptimize", "checkpoint-restart"]
    )
    def test_storm_drains_and_verifies(self, policy):
        result = verify_scenario(storm_spec(policy))
        assert len(result.jobs) == 12
        assert not result.unfinished_jobs
        # The storm bit: the failure log is populated and the fault
        # metric block appears in metrics().
        assert result.failure_log
        assert "fault_events" in result.metrics()

    def test_no_fault_scenario_has_no_fault_metrics(self):
        spec = storm_spec("detour").with_overrides({"storms": 0})
        result = run_scenario(spec)
        assert not result.failure_log
        assert "fault_events" not in result.metrics()


class TestCheckpointRestartBounds:
    def one_job_spec(self, interval=0.7):
        spec = ScenarioSpec(
            name="ckpt-bound",
            cluster=ClusterSpec(servers=8, degree=4,
                                bandwidth_gbps=100.0),
            fabric=FabricSpec(kind="topoopt"),
            arrivals=ArrivalSpec(process="explicit", times=(0.0,)),
            jobs=(JobTemplateSpec(model="DLRM", servers=4,
                                  iterations=200),),
            scheduler=SchedulerSpec(policy="first-fit"),
            max_sim_time_s=1e5,
        )
        return spec.with_overrides({
            "recovery_policy": "checkpoint-restart",
            "checkpoint_interval_s": interval,
        })

    def run_with_host_fault(self, interval=0.7, fault_t=1.0):
        # The 200-iteration job runs ~2.3 s, so t=1.0 lands mid-run (and
        # 0.7 does not divide 1.0, so the rollback discards real work).
        spec = self.one_job_spec(interval).with_overrides({
            "faults.events": [
                {"kind": "server", "time_s": fault_t, "server": 0,
                 "repair_s": fault_t + 1.0},
            ],
        })
        return spec, run_scenario(spec)

    def test_lost_work_bounded_by_one_interval(self):
        spec, result = self.run_with_host_fault()
        entry = next(
            e for e in result.failure_log if e["kind"] == "server_fail"
        )
        interval = spec.recovery.checkpoint_interval_s
        # The direct acceptance bound: at most one checkpoint interval
        # plus the iteration straddling the boundary.
        assert entry["since_checkpoint_s"] <= interval + 1e-9
        assert entry["lost_work_s"] <= (
            entry["since_checkpoint_s"] + entry["step_s"] + 1e-9
        )
        assert check_scenario_invariants(result) == []

    def test_job_finishes_after_restart(self):
        _, result = self.run_with_host_fault()
        assert len(result.jobs) == 1
        job = result.jobs[0]
        assert job.iterations_completed == 200
        assert job.fault_suspensions == 1
        assert job.lost_work_s > 0.0
        assert job.fault_wait_s >= 0.0
        # The lost work is real: JCT exceeds the no-fault run's.
        baseline = run_scenario(self.one_job_spec())
        assert job.jct_s > baseline.jobs[0].jct_s

    def test_fault_metrics_account_the_loss(self):
        _, result = self.run_with_host_fault()
        fault = result.fault_metrics()
        assert fault["fault_events"] == 1
        assert fault["fault_suspensions"] == 1
        assert fault["lost_work_s"] == pytest.approx(
            result.jobs[0].lost_work_s
        )
        assert 0.0 < fault["goodput_degradation"] < 1.0
        assert 0.0 < fault["availability"] <= 1.0
        assert math.isfinite(fault["mttr_s"])


class TestHostDeathReleasesBlock:
    def test_suspend_releases_exact_block(self):
        spec, result = (
            TestCheckpointRestartBounds().run_with_host_fault()
        )
        events = result.scheduler_log
        start = next(
            e for e in events
            if e["event"] in ("admit", "start") and e["job_index"] == 0
        )
        suspend = next(e for e in events if e["event"] == "suspend")
        assert suspend["job_index"] == 0
        assert sorted(suspend["servers"]) == sorted(start["servers"])
        assert 0 in suspend["servers"]
        # The fault/repair pair brackets the suspension.
        fault = next(
            e for e in events
            if e["event"] == "fault" and e.get("kind") == "server"
        )
        repair = next(
            e for e in events
            if e["event"] == "repair" and e.get("kind") == "server"
        )
        assert fault["time_s"] <= repair["time_s"]


class TestDisconnectingCutSuspends:
    def two_server_spec(self):
        return ScenarioSpec(
            name="disconnect",
            cluster=ClusterSpec(servers=4, degree=4,
                                bandwidth_gbps=100.0),
            fabric=FabricSpec(kind="topoopt"),
            arrivals=ArrivalSpec(process="explicit", times=(0.0,)),
            jobs=(JobTemplateSpec(model="DLRM", servers=2,
                                  iterations=30),),
            scheduler=SchedulerSpec(policy="first-fit"),
            max_sim_time_s=1e5,
        )

    def test_disconnecting_cut_suspends_not_raises(self):
        spec = self.two_server_spec()
        period = run_scenario(spec).jobs[0].iteration_avg_s
        # A 2-server shard has no detour for its only ring edge, so
        # this cut disconnects the shard.  Even the detour policy must
        # then suspend + requeue instead of raising.
        result = run_scenario(
            spec.with_overrides({
                "faults.events": [
                    {"kind": "link", "time_s": 2.5 * period,
                     "job_index": 0},
                ],
            })
        )
        cut = next(
            e for e in result.failure_log if e["kind"] == "link_cut"
        )
        assert "disconnected" in cut["reason"]
        assert any(
            e["event"] == "suspend" for e in result.scheduler_log
        )
        # The job restarted and still finished its full quota.
        assert result.jobs[0].iterations_completed == 30
        assert result.jobs[0].fault_suspensions == 1
        assert not result.unfinished_jobs
        assert check_scenario_invariants(result) == []
