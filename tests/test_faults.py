"""Fault-schedule specs, recovery specs, and the fault-plane pieces.

Construction-time validation (negative times, repairs preceding their
failure, duplicate link cuts), exact JSON round-trips, deterministic
storm resolution, the allocator's failed-server pool, and the
FailureManager's consistency guarantee on disconnection.
"""

import random

import pytest

from repro.api.spec import SpecError
from repro.cluster import ScenarioSpec
from repro.cluster.faults import (
    FaultEventSpec,
    FaultPlane,
    FaultScheduleSpec,
    RecoverySpec,
)
from repro.cluster.scheduler import ShardAllocator
from repro.core.ocs_reconfig import OCS_RECONFIG_LATENCY_S


def make_allocator(servers: int) -> ShardAllocator:
    return ShardAllocator(servers, "first-fit", random.Random(0))


class TestFaultEventSpec:
    def test_kind_validated(self):
        with pytest.raises(SpecError):
            FaultEventSpec(kind="gamma-ray", time_s=1.0)

    def test_negative_time_rejected(self):
        with pytest.raises(SpecError):
            FaultEventSpec(kind="server", time_s=-1.0, server=0)

    def test_repair_before_failure_rejected(self):
        with pytest.raises(SpecError):
            FaultEventSpec(
                kind="server", time_s=10.0, repair_s=5.0, server=0
            )

    def test_link_fault_needs_job_index(self):
        with pytest.raises(SpecError):
            FaultEventSpec(kind="link", time_s=1.0)
        with pytest.raises(SpecError):
            FaultEventSpec(kind="link", time_s=1.0, job_index=-1)

    def test_server_fault_needs_server(self):
        with pytest.raises(SpecError):
            FaultEventSpec(kind="server", time_s=1.0)

    def test_storm_needs_a_victim(self):
        with pytest.raises(SpecError):
            FaultEventSpec(
                kind="storm", time_s=1.0, region_size=4,
                servers_hit=0, links_hit=0,
            )

    def test_storm_servers_bounded_by_region(self):
        with pytest.raises(SpecError):
            FaultEventSpec(
                kind="storm", time_s=1.0, region_size=2, servers_hit=3
            )

    def test_round_trip_every_kind(self):
        events = (
            FaultEventSpec(kind="link", time_s=3.0, job_index=1,
                           link=(0, 5), repair_s=9.0),
            FaultEventSpec(kind="server", time_s=4.0, server=7),
            FaultEventSpec(kind="storm", time_s=5.0, repair_s=6.0,
                           region_start=8, region_size=8,
                           servers_hit=2, links_hit=1),
        )
        for event in events:
            assert FaultEventSpec.from_dict(event.to_dict()) == event

    def test_unknown_key_rejected(self):
        with pytest.raises(SpecError):
            FaultEventSpec.from_dict(
                {"kind": "server", "time_s": 1.0, "server": 0,
                 "blast_radius": 3}
            )


class TestFaultScheduleSpec:
    def test_duplicate_link_cut_rejected(self):
        cut = {"kind": "link", "time_s": 2.0, "job_index": 0,
               "link": [0, 1]}
        with pytest.raises(SpecError):
            FaultScheduleSpec(events=(cut, dict(cut)))

    def test_same_link_at_different_times_allowed(self):
        FaultScheduleSpec(events=(
            {"kind": "link", "time_s": 2.0, "job_index": 0,
             "link": [0, 1]},
            {"kind": "link", "time_s": 8.0, "job_index": 0,
             "link": [0, 1]},
        ))

    def test_storm_knobs_validated(self):
        with pytest.raises(SpecError):
            FaultScheduleSpec(storms=-1)
        with pytest.raises(SpecError):
            FaultScheduleSpec(storms=1, storm_window_s=0.0)
        with pytest.raises(SpecError):
            FaultScheduleSpec(storms=1, mean_repair_s=0.0)
        with pytest.raises(SpecError):
            FaultScheduleSpec(storms=1, storm_servers=0, storm_links=0)

    def test_round_trip(self):
        schedule = FaultScheduleSpec(
            events=({"kind": "server", "time_s": 1.0, "server": 2},),
            storms=3, storm_window_s=100.0, mean_repair_s=5.0,
        )
        assert FaultScheduleSpec.from_dict(schedule.to_dict()) == schedule

    def test_resolve_is_deterministic_and_sorted(self):
        schedule = FaultScheduleSpec(storms=4, storm_window_s=50.0)
        a = schedule.resolve(seed=3, cluster_servers=32)
        b = schedule.resolve(seed=3, cluster_servers=32)
        assert a == b
        assert len(a) == 4
        assert list(a) == sorted(a, key=lambda e: (e.time_s, e.kind))
        # A different seed draws a different timeline.
        assert a != schedule.resolve(seed=4, cluster_servers=32)

    def test_resolve_clamps_region_to_cluster(self):
        schedule = FaultScheduleSpec(
            storms=5, storm_region_size=64, storm_servers=2
        )
        for event in schedule.resolve(seed=0, cluster_servers=8):
            assert event.region_size == 8
            assert event.region_start == 0
            assert event.servers_hit == 2

    def test_is_empty(self):
        assert FaultScheduleSpec().is_empty
        assert not FaultScheduleSpec(storms=1).is_empty


class TestRecoverySpec:
    def test_policy_validated(self):
        with pytest.raises(SpecError):
            RecoverySpec(policy="pray")

    def test_threshold_and_intervals_validated(self):
        with pytest.raises(SpecError):
            RecoverySpec(degradation_threshold=0.5)
        with pytest.raises(SpecError):
            RecoverySpec(checkpoint_interval_s=0.0)
        with pytest.raises(SpecError):
            RecoverySpec(restart_s=-1.0)

    def test_default_latency_is_ocs_reconfig(self):
        assert RecoverySpec().reoptimize_latency_s == OCS_RECONFIG_LATENCY_S

    def test_round_trip(self):
        spec = RecoverySpec(policy="checkpoint-restart",
                            checkpoint_interval_s=7.5, restart_s=0.2)
        assert RecoverySpec.from_dict(spec.to_dict()) == spec


class TestScenarioSpecIntegration:
    def test_faults_and_recovery_round_trip(self):
        spec = ScenarioSpec.preset("shared").with_overrides({
            "storms": 2,
            "storm_window_s": 40.0,
            "recovery_policy": "checkpoint-restart",
            "checkpoint_interval_s": 5.0,
        })
        back = ScenarioSpec.from_dict(spec.to_dict())
        assert back == spec
        assert back.faults.storms == 2
        assert back.recovery.policy == "checkpoint-restart"

    def test_empty_schedule_normalizes_to_none(self):
        spec = ScenarioSpec.preset("shared")
        assert spec.faults is None
        assert "faults" not in spec.to_dict()
        assert "recovery" not in spec.to_dict()

    def test_server_fault_bounded_by_cluster(self):
        with pytest.raises(SpecError):
            ScenarioSpec.preset("shared").with_overrides({
                "faults.events": [
                    {"kind": "server", "time_s": 1.0, "server": 10_000}
                ],
            })


class TestFaultPlane:
    def test_heap_orders_and_drains(self):
        schedule = FaultScheduleSpec(events=(
            {"kind": "server", "time_s": 5.0, "server": 1,
             "repair_s": 9.0},
            {"kind": "link", "time_s": 2.0, "job_index": 0},
        ))
        plane = FaultPlane(schedule, seed=0, cluster_servers=8)
        assert plane.next_time() == 2.0
        due = plane.pop_due(5.0, eps=1e-9)
        assert [tag for tag, _ in due] == ["link_fail", "server_fail"]
        # The server repair is still pending; drain returns it.
        left = plane.drain()
        assert [(when, tag) for when, tag, _ in left] == \
            [(9.0, "server_repair")]
        assert plane.next_time() == float("inf")


class TestShardAllocatorFailures:
    def test_failed_server_leaves_the_pool(self):
        alloc = make_allocator(8)
        alloc.fail_server(3)
        assert alloc.failed_count == 1
        assert alloc.free_count == 7
        assert alloc.busy_count == 0
        # The failed host punches a hole: no block is carved across
        # it, so the largest allocatable run is the 4 servers above it.
        assert alloc.allocate(7) is None
        block = alloc.allocate(4)
        assert block == (4, 5, 6, 7)
        assert alloc.busy_count == 4

    def test_repair_returns_server(self):
        alloc = make_allocator(4)
        alloc.fail_server(0)
        assert alloc.allocate(4) is None
        alloc.repair_server(0)
        assert sorted(alloc.allocate(4)) == [0, 1, 2, 3]

    def test_busy_server_must_be_evicted_first(self):
        alloc = make_allocator(4)
        block = alloc.allocate(2)
        with pytest.raises(ValueError):
            alloc.fail_server(block[0])

    def test_double_fail_and_bad_repair_rejected(self):
        alloc = make_allocator(4)
        alloc.fail_server(1)
        with pytest.raises(ValueError):
            alloc.fail_server(1)
        with pytest.raises(ValueError):
            alloc.repair_server(2)
        with pytest.raises(ValueError):
            alloc.fail_server(99)
