"""Unit tests for the scheduler control plane's building blocks.

The policy-level behavior is covered by the property harness
(``test_scheduler_invariants.py``), the backfill oracles
(``test_backfill.py``) and the golden snapshots; this file pins the
layer underneath: the strict block-tracking allocator (the ISSUE 7
fix -- ``free`` used to silently accept servers it never allocated),
the availability profile's window arithmetic (and its equivalence
with the NumPy boolean-mask oracle kept below), the look-ahead
``ShardManager`` credit model, the new spec knobs, and the
preemption/elastic lifecycle accounting on small deterministic
scenarios.
"""

import bisect
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.spec import SpecError
from repro.cluster import ScenarioSpec, run_scenario
from repro.cluster.scheduler import (
    _EPS,
    AvailabilityProfile,
    ShardAllocator,
    ShardManager,
)
from repro.cluster.spec import SCHEDULER_POLICIES, SchedulerSpec


def allocator(servers=16, policy="first-fit", seed=0):
    return ShardAllocator(servers, policy, random.Random(seed))


class TestStrictFree:
    """``free`` only accepts blocks it handed out (the ISSUE 7 fix)."""

    def test_round_trip(self):
        alloc = allocator()
        block = alloc.allocate(8)
        alloc.free(block)
        assert alloc.free_count == 16
        assert alloc.allocate(16) == tuple(range(16))

    def test_never_allocated_block_raises(self):
        alloc = allocator()
        alloc.allocate(4)  # block [0, 4)
        alloc.allocate(4)  # block [4, 8)
        with pytest.raises(ValueError, match="never allocated"):
            alloc.free((2, 3, 4, 5))  # busy, but spans two blocks

    def test_out_of_range_server_raises(self):
        alloc = allocator()
        alloc.allocate(16)
        with pytest.raises(ValueError, match="outside this cluster"):
            alloc.free((14, 15, 16))  # 16 would hit the mask sentinel
        with pytest.raises(ValueError, match="outside this cluster"):
            alloc.free((-1, 0))

    def test_double_free_raises(self):
        alloc = allocator()
        block = alloc.allocate(4)
        alloc.free(block)
        with pytest.raises(ValueError, match="already free"):
            alloc.free(block)

    def test_partial_block_raises(self):
        alloc = allocator()
        block = alloc.allocate(8)
        with pytest.raises(ValueError, match="never allocated"):
            alloc.free(block[:4])

    def test_empty_free_raises(self):
        with pytest.raises(ValueError, match="empty"):
            allocator().free(())

    def test_rejected_free_leaves_pool_intact(self):
        alloc = allocator()
        alloc.allocate(8)
        with pytest.raises(ValueError):
            alloc.free((8, 9))
        assert alloc.free_count == 8
        assert alloc.busy_count == 8

    def test_allocate_block_exact_and_busy(self):
        alloc = allocator()
        assert alloc.allocate_block(4, 4) == (4, 5, 6, 7)
        with pytest.raises(ValueError, match="not entirely free"):
            alloc.allocate_block(6, 4)
        with pytest.raises(ValueError, match="outside"):
            alloc.allocate_block(14, 4)
        alloc.free((4, 5, 6, 7))
        assert alloc.free_count == 16

    def test_largest_hole_tracks_fragmentation(self):
        alloc = allocator()
        first = alloc.allocate(4)
        alloc.allocate(4)
        alloc.free(first)  # free [0,4), busy [4,8), free [8,16)
        assert alloc.largest_hole() == 8
        assert list(alloc.free_mask()[:9]) == (
            [True] * 4 + [False] * 4 + [True]
        )


class TestAvailabilityProfile:
    def test_immediate_fit(self):
        mask = np.ones(8, dtype=bool)
        profile = AvailabilityProfile(0.0, mask)
        assert profile.earliest_block(4, 10.0) == (0.0, 0)

    def test_waits_for_release(self):
        mask = np.zeros(8, dtype=bool)
        mask[6:] = True
        profile = AvailabilityProfile(
            0.0, mask, releases=[(5.0, range(0, 6))]
        )
        # 2 servers fit now; 4 only after the release at t=5.
        assert profile.earliest_block(2, 1.0) == (0.0, 6)
        assert profile.earliest_block(4, 1.0) == (5.0, 0)

    def test_hold_blocks_window(self):
        mask = np.ones(8, dtype=bool)
        profile = AvailabilityProfile(0.0, mask)
        profile.add_hold(0.0, 10.0, 0, 8)
        assert profile.earliest_block(4, 1.0) == (10.0, 0)

    def test_hold_forces_duration_past_boundary(self):
        mask = np.ones(8, dtype=bool)
        profile = AvailabilityProfile(0.0, mask)
        # Held from t=5: a 10s window starting now would overlap it.
        profile.add_hold(5.0, 20.0, 0, 8)
        assert profile.earliest_block(8, 4.0) == (0.0, 0)
        assert profile.earliest_block(8, 10.0) == (20.0, 0)

    def test_hold_within_eps_of_window_end_does_not_block(self):
        profile = AvailabilityProfile(100.0, np.ones(8, dtype=bool))
        profile.add_hold(110.0 - _EPS, 120.0, 0, 8)
        assert profile.earliest_block(8, 10.0) == (100.0, 0)
        assert profile.earliest_block(8, 10.0 + 2 * _EPS) == (120.0, 0)

    def test_best_fit_choice(self):
        mask = np.ones(12, dtype=bool)
        mask[3] = False  # holes: [0,3) and [4,12)
        profile = AvailabilityProfile(0.0, mask)
        assert profile.earliest_block(2, 1.0, policy="best-fit") == (
            0.0, 0
        )
        assert profile.earliest_block(2, 1.0) == (0.0, 0)
        assert profile.earliest_block(4, 1.0, policy="best-fit") == (
            0.0, 4
        )

    def test_oversized_request_returns_none(self):
        profile = AvailabilityProfile(0.0, np.ones(4, dtype=bool))
        assert profile.earliest_block(5, 1.0) is None


def oracle_holes(mask):
    """Maximal ``True`` runs of a boolean mask as ``(start, length)``."""
    padded = np.empty(len(mask) + 1, dtype=np.int8)
    padded[: len(mask)] = mask
    padded[len(mask)] = 0
    edges = np.diff(padded, prepend=np.int8(0))
    starts = np.flatnonzero(edges == 1)
    ends = np.flatnonzero(edges == -1)
    return [
        (int(start), int(end - start))
        for start, end in zip(starts, ends)
    ]


class OracleProfile:
    """The availability profile on boolean masks: the reference the
    bitset :class:`AvailabilityProfile` must match decision for
    decision."""

    def __init__(self, now, free_mask, releases=()):
        self._times = [float(now)]
        self._masks = [np.asarray(free_mask, dtype=bool).copy()]
        for when, servers in sorted(
            releases, key=lambda r: (r[0], tuple(r[1]))
        ):
            self.release(max(float(when), float(now)), servers)

    def _step_at(self, t):
        i = bisect.bisect_right(self._times, t) - 1
        if self._times[i] != t:
            self._times.insert(i + 1, t)
            self._masks.insert(i + 1, self._masks[i].copy())
            i += 1
        return i

    def release(self, when, servers):
        i = self._step_at(max(when, self._times[0]))
        idx = list(servers)
        for mask in self._masks[i:]:
            mask[idx] = True

    def add_hold(self, t0, t1, start, count):
        t0 = max(t0, self._times[0])
        if t1 <= t0 + _EPS:
            return
        self._step_at(t1)
        i0 = self._step_at(t0)
        i1 = bisect.bisect_right(self._times, t1 + _EPS) - 1
        for mask in self._masks[i0:i1]:
            mask[start:start + count] = False

    def _window_mask(self, t, duration):
        i = bisect.bisect_right(self._times, t + _EPS) - 1
        combined = self._masks[i].copy()
        end = t + duration
        j = i + 1
        while j < len(self._times) and self._times[j] < end - _EPS:
            combined &= self._masks[j]
            j += 1
        return combined

    def earliest_block(self, count, duration, policy="first-fit"):
        t0 = self._times[0]
        candidates = [t0] + [t for t in self._times if t > t0 + _EPS]
        for t in candidates:
            mask = self._window_mask(t, duration)
            holes = [h for h in oracle_holes(mask) if h[1] >= count]
            if holes:
                if policy == "best-fit":
                    start, _ = min(holes, key=lambda h: (h[1], h[0]))
                else:
                    start, _ = holes[0]
                return t, start
        return None


#: Cluster sizes on both sides of the 64-bit machine-word boundaries.
SIZES = (1, 7, 63, 64, 65, 200, 1000)
NOW = 100.0


def step_times():
    """Times clustered around a few bases, some within ``_EPS`` of each
    other, some exactly ``_EPS`` off a window end, some before ``NOW``."""
    return st.builds(
        lambda base, nudge: base + nudge,
        st.sampled_from((NOW - 30.0, NOW, NOW + 10.0, NOW + 50.0)),
        st.sampled_from(
            (0.0, 1e-12, 5e-10, 1e-9, 2e-9, -1e-9, -1e-12, 0.5, 7.25)
        ),
    )


@st.composite
def profile_cases(draw):
    n = draw(st.sampled_from(SIZES))
    seed = draw(st.integers(0, 2**32 - 1))
    density = draw(st.sampled_from((0.0, 0.3, 0.8, 1.0)))
    free = np.random.default_rng(seed).random(n) < density
    server = st.integers(0, n - 1)
    releases = draw(st.lists(
        st.tuples(step_times(), st.lists(server, max_size=12)),
        max_size=6,
    ))
    block = st.integers(0, n - 1).flatmap(
        lambda start: st.tuples(st.just(start), st.integers(1, n - start))
    )
    hold = st.tuples(
        st.just("hold"), step_times(),
        st.sampled_from((0.0, 1e-12, 2e-9, 3.0, 40.0)), block,
    )
    query = st.tuples(
        st.just("query"), st.integers(1, n + 1),
        st.sampled_from(
            (0.0, 1e-10, 5.0, 10.0, 40.0, 50.0, 1e3, float("inf"))
        ),
        st.sampled_from(SCHEDULER_POLICIES),
    )
    ops = draw(st.lists(st.one_of(hold, query), max_size=25))
    return free, releases, ops


class TestBitsetProfileMatchesMaskOracle:
    @settings(deadline=None, max_examples=150)
    @given(profile_cases())
    def test_earliest_block_identical(self, case):
        free, releases, ops = case
        profile = AvailabilityProfile(NOW, free, releases)
        oracle = OracleProfile(NOW, free, releases)
        for op in ops:
            if op[0] == "hold":
                _, t0, length, (start, count) = op
                profile.add_hold(t0, t0 + length, start, count)
                oracle.add_hold(t0, t0 + length, start, count)
            else:
                _, count, duration, policy = op
                assert profile.earliest_block(
                    count, duration, policy
                ) == oracle.earliest_block(count, duration, policy)
        n = len(free)
        for count in sorted({1, 2, max(1, n // 3), n}):
            for policy in SCHEDULER_POLICIES:
                assert profile.earliest_block(
                    count, 20.0, policy
                ) == oracle.earliest_block(count, 20.0, policy)


class TestBitsetAllocatorMatchesMaskOracle:
    """The allocator's free pool against a boolean mask replaying the
    same allocate / free / fail / repair sequence."""

    @settings(deadline=None, max_examples=100)
    @given(
        st.sampled_from(SIZES),
        st.sampled_from(SCHEDULER_POLICIES),
        st.lists(
            st.tuples(
                st.sampled_from(("allocate", "free", "fail", "repair")),
                st.integers(0, 2**16),
            ),
            max_size=40,
        ),
    )
    def test_pool_views_identical(self, n, policy, ops):
        alloc = ShardAllocator(n, policy, random.Random(0))
        mask = np.ones(n, dtype=bool)
        blocks, failed = [], []
        for kind, draw in ops:
            if kind == "allocate":
                count = 1 + draw % n
                block = alloc.allocate(count)
                fits = max(
                    (h[1] for h in oracle_holes(mask)), default=0
                ) >= count
                assert (block is not None) == fits
                if block is not None:
                    assert mask[list(block)].all()
                    mask[list(block)] = False
                    blocks.append(block)
            elif kind == "free" and blocks:
                block = blocks.pop(draw % len(blocks))
                alloc.free(block)
                mask[list(block)] = True
            elif kind == "fail" and mask.any():
                server = int(np.flatnonzero(mask)[draw % mask.sum()])
                alloc.fail_server(server)
                mask[server] = False
                failed.append(server)
            elif kind == "repair" and failed:
                server = failed.pop(draw % len(failed))
                alloc.repair_server(server)
                mask[server] = True
            holes = oracle_holes(mask)
            assert alloc.holes() == holes
            assert np.array_equal(alloc.free_mask(), mask)
            largest = max((h[1] for h in holes), default=0)
            assert alloc.largest_hole() == largest
            total = int(mask.sum())
            assert alloc.free_count == total
            assert alloc.failed_count == len(failed)
            assert alloc.fragmentation() == (
                1.0 - largest / total if total else 0.0
            )


class TestShardManager:
    def test_flat_mode_always_charges_full_latency(self):
        manager = ShardManager(
            SchedulerSpec(admission_latency_s=2.0, provisioning="flat")
        )
        manager.note_head(0, 10.0)
        assert manager.admission_latency(0, 15.0) == 2.0

    def test_lookahead_credits_time_at_head(self):
        manager = ShardManager(
            SchedulerSpec(
                admission_latency_s=2.0, provisioning="lookahead"
            )
        )
        manager.note_head(0, 10.0)
        assert manager.admission_latency(0, 10.5) == 1.5
        # Fully provisioned once the wait exceeds the latency.
        assert manager.admission_latency(0, 13.0) == 0.0

    def test_lookahead_never_head_pays_full(self):
        manager = ShardManager(
            SchedulerSpec(
                admission_latency_s=2.0, provisioning="lookahead"
            )
        )
        assert manager.admission_latency(7, 10.0) == 2.0

    def test_forget_resets_credit(self):
        manager = ShardManager(
            SchedulerSpec(
                admission_latency_s=2.0, provisioning="lookahead"
            )
        )
        manager.note_head(0, 10.0)
        manager.forget(0)
        assert manager.admission_latency(0, 20.0) == 2.0


class TestSpecValidation:
    def test_unknown_queue_rejected(self):
        with pytest.raises(SpecError, match="queue"):
            SchedulerSpec(queue="sjf")

    def test_unknown_preemption_rejected(self):
        with pytest.raises(SpecError, match="preemption"):
            SchedulerSpec(preemption="always")

    def test_negative_costs_rejected(self):
        for knob in (
            "admission_latency_s", "checkpoint_s", "restart_s",
            "resize_latency_s",
        ):
            with pytest.raises(SpecError, match=knob):
                SchedulerSpec(**{knob: -1.0})

    def test_elastic_range_validation(self):
        spec = ScenarioSpec.preset("shared")
        with pytest.raises(SpecError, match="min_servers"):
            spec.with_overrides({"jobs.0.min_servers": 1})
        with pytest.raises(SpecError, match="max_servers"):
            spec.with_overrides({"jobs.0.max_servers": 4})  # < servers=8
        with pytest.raises(SpecError, match="max_servers"):
            spec.with_overrides({"jobs.0.max_servers": 64})  # > cluster

    def test_scheduler_knobs_round_trip(self):
        spec = ScenarioSpec.preset("shared").with_overrides({
            "queue": "easy",
            "preemption": "priority",
            "checkpoint_s": 0.5,
            "restart_s": 0.25,
            "elastic": True,
            "resize_latency_s": 0.1,
            "provisioning": "lookahead",
            "jobs.0.priority": 3,
            "jobs.0.min_servers": 4,
            "jobs.0.max_servers": 16,
        })
        again = ScenarioSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.scheduler.queue == "easy"
        assert again.jobs[0].elastic_range() == (4, 16)


def contended_spec(**overrides):
    base = ScenarioSpec.preset("shared").with_overrides({
        "jobs.0.iterations": 40, "jobs.0.servers": 24,
        "jobs.1.iterations": 4, "jobs.1.servers": 16,
        "arrivals.times": [0.0, 0.05],
        "count": 2,
    })
    return base.with_overrides(overrides)


class TestPreemptionLifecycle:
    def test_priority_preempts_and_conserves_work(self):
        result = run_scenario(contended_spec(**{
            "preemption": "priority",
            "checkpoint_s": 0.2, "restart_s": 0.3,
            "jobs.0.priority": 0, "jobs.1.priority": 5,
        }))
        events = [e["event"] for e in result.scheduler_log]
        assert "preempt" in events
        victim = next(j for j in result.jobs if j.index == 0)
        winner = next(j for j in result.jobs if j.index == 1)
        assert victim.preemptions == 1
        assert victim.preempted_wait_s > 0
        assert victim.iterations_completed == 40  # conserved
        assert winner.preemptions == 0
        # The high-priority job did not wait for the victim to finish.
        assert winner.admitted_s < victim.completed_s

    def test_no_preemption_of_equal_priority(self):
        result = run_scenario(contended_spec(**{
            "preemption": "priority",
            "jobs.0.priority": 5, "jobs.1.priority": 5,
        }))
        assert all(
            e["event"] != "preempt" for e in result.scheduler_log
        )

    def test_preemption_cost_charged(self):
        cheap = run_scenario(contended_spec(**{
            "preemption": "priority",
            "jobs.0.priority": 0, "jobs.1.priority": 5,
        }))
        costly = run_scenario(contended_spec(**{
            "preemption": "priority",
            "checkpoint_s": 1.0, "restart_s": 1.0,
            "jobs.0.priority": 0, "jobs.1.priority": 5,
        }))
        victim_cheap = next(j for j in cheap.jobs if j.index == 0)
        victim_costly = next(j for j in costly.jobs if j.index == 0)
        assert victim_costly.completed_s > victim_cheap.completed_s


class TestElasticLifecycle:
    def test_shrink_then_grow(self):
        result = run_scenario(ScenarioSpec.preset("shared").with_overrides({
            "jobs.0.iterations": 6, "jobs.0.servers": 16,
            "jobs.1.iterations": 6, "jobs.1.servers": 24,
            "jobs.1.min_servers": 8, "jobs.1.max_servers": 24,
            "arrivals.times": [0.0, 0.05],
            "count": 2,
            "elastic": True, "resize_latency_s": 0.01,
        }))
        flexible = next(j for j in result.jobs if j.index == 1)
        admits = [
            e for e in result.scheduler_log
            if e["event"] == "admit" and e["job_index"] == 1
        ]
        # Admitted shrunk (16 of 24 preferred), grew once vacated.
        assert len(admits[0]["servers"]) == 16
        assert flexible.resizes == 1
        assert flexible.num_servers == 24
        assert flexible.iterations_completed == 6  # conserved

    def test_inelastic_without_range_never_resizes(self):
        result = run_scenario(contended_spec(elastic=True))
        assert all(
            e["event"] != "resize" for e in result.scheduler_log
        )
        assert all(j.resizes == 0 for j in result.jobs)
