"""Max-min fair fluid network: progressive-filling rates + phase runner.

Rate allocation follows the textbook progressive-filling algorithm:
starting from zero, all flows' rates grow together; when a link
saturates, every flow crossing it freezes at its fair share and the
remaining flows keep growing.  The result is the unique max-min fair
allocation, recomputed whenever the active flow set changes.

Since the kernel-layer refactor the hot paths are array-based:
:meth:`FluidNetwork.recompute_rates` assembles a sparse flow--link
incidence matrix and calls
:func:`repro.perf.fairshare.progressive_filling_rates`, which retires
every tied bottleneck link per round with sparse mat-vecs, and
:func:`simulate_phase` drives the array-backed
:class:`repro.sim.events.FlowEventEngine`, which repairs the allocation
incrementally (:class:`repro.perf.fairshare.IncrementalFairShare`)
after each completion batch instead of re-solving from scratch --
the fast path for staggered workloads where every flow finishes at a
distinct time.  ``solver="batch"`` restores the per-event full
recompute.  The seed's pure-Python implementations survive as
:class:`ReferenceFluidNetwork` and :func:`simulate_phase_reference` --
the ground truth for the equivalence tests in
``tests/test_perf_kernels.py`` and ``tests/test_incremental_fairshare.py``
and the baseline for ``benchmarks/bench_perf_kernels.py``.

:func:`simulate_phase` runs a set of flows that all start at time zero
to completion, returning the makespan -- the building block for the
paper's no-overlap iteration-time model (Eq. 1 in section 5.4).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.perf.fairshare import build_incidence, progressive_filling_rates
from repro.perf.paths import PathArrays, as_path_arrays
from repro.sim.events import TIME_QUANTUM, FlowEventEngine
from repro.sim.flows import PER_HOP_LATENCY_S, Flow, Link, LinkState

_EPS = 1e-12
#: Completion times closer than this are merged into one batch.
_TIME_QUANTUM = TIME_QUANTUM


class FluidNetwork:
    """Tracks active flows on a capacitated link set and assigns rates.

    Rate recomputation is vectorized: the active flow set is lowered to
    a sparse incidence matrix and solved by the shared progressive-
    filling kernel.  The per-link :class:`LinkState` bookkeeping is kept
    so utilization queries and callers poking at ``links`` keep working.
    """

    def __init__(self, capacities: Dict[Link, float]):
        if not capacities:
            raise ValueError("network needs at least one link")
        self.links: Dict[Link, LinkState] = {
            link: LinkState(capacity_bps=cap)
            for link, cap in capacities.items()
        }
        # Capacities never change after construction; keep the plain
        # dict the incidence builder consumes on every recompute.
        self._capacities: Dict[Link, float] = dict(capacities)
        self.active: Dict[int, Flow] = {}
        self._rates_dirty = True

    # ------------------------------------------------------------------
    def add_flow(self, flow: Flow) -> None:
        for link in flow.links:
            if link not in self.links:
                raise KeyError(
                    f"flow {flow.flow_id} uses link {link} which does not "
                    "exist in the network"
                )
        self.active[flow.flow_id] = flow
        for link in flow.links:
            self.links[link].flows.add(flow)
        self._rates_dirty = True

    def remove_flow(self, flow: Flow) -> None:
        self.active.pop(flow.flow_id, None)
        for link in flow.links:
            self.links[link].flows.discard(flow)
        self._rates_dirty = True

    def mark_dirty(self) -> None:
        self._rates_dirty = True

    # ------------------------------------------------------------------
    def recompute_rates(self) -> None:
        """Progressive filling: assign the max-min fair allocation."""
        if not self._rates_dirty:
            return
        flows = list(self.active.values())
        if flows:
            incidence, cap_vec, _ = build_incidence(
                [flow.links for flow in flows], self._capacities
            )
            rates = progressive_filling_rates(cap_vec, incidence)
            for flow, rate in zip(flows, rates):
                flow.rate_bps = float(rate)
        self._rates_dirty = False

    # ------------------------------------------------------------------
    def advance(self, dt: float, slack: float = 0.0) -> List[Flow]:
        """Progress all flows by ``dt`` seconds; return completed flows.

        A flow also completes when at most ``slack`` more seconds at its
        rate would finish it: a caller's clock cannot resolve times
        that close.
        """
        if dt < 0:
            raise ValueError(f"cannot advance time backwards (dt={dt})")
        completed: List[Flow] = []
        for flow in self.active.values():
            flow.remaining_bits -= flow.rate_bps * dt
            tolerance = _EPS * max(1.0, flow.size_bits)
            if slack > 0:
                tolerance += flow.rate_bps * slack
            if flow.remaining_bits <= tolerance:
                flow.remaining_bits = 0.0
                completed.append(flow)
        for flow in completed:
            self.remove_flow(flow)
        return completed

    def time_to_next_completion(self) -> Optional[float]:
        """Seconds until the earliest active flow finishes (rates fixed)."""
        self.recompute_rates()
        best = math.inf
        for flow in self.active.values():
            if flow.rate_bps > _EPS:
                best = min(best, flow.remaining_bits / flow.rate_bps)
        return None if math.isinf(best) else max(best, 0.0)

    def utilization(self) -> Dict[Link, float]:
        """Current per-link utilization in [0, 1]."""
        self.recompute_rates()
        result = {}
        for link, state in self.links.items():
            used = sum(f.rate_bps for f in state.flows)
            result[link] = used / state.capacity_bps
        return result


class ReferenceFluidNetwork(FluidNetwork):
    """Seed pure-Python allocator, kept as the equivalence ground truth.

    Identical semantics to :class:`FluidNetwork`; rate recomputation
    walks every (link, flow) pair per bottleneck round and freezes one
    link at a time, exactly as the seed implementation did.
    """

    def recompute_rates(self) -> None:
        if not self._rates_dirty:
            return
        unfrozen = set(self.active.values())
        for flow in unfrozen:
            flow.rate_bps = 0.0
        residual = {
            link: state.capacity_bps
            for link, state in self.links.items()
            if state.flows
        }
        link_unfrozen: Dict[Link, set] = {
            link: set(self.links[link].flows) for link in residual
        }
        while unfrozen:
            # Bottleneck link: minimal per-flow fair share.
            best_link = None
            best_share = math.inf
            for link, members in link_unfrozen.items():
                count = len(members)
                if count == 0:
                    continue
                share = residual[link] / count
                if share < best_share:
                    best_share = share
                    best_link = link
            if best_link is None:
                break  # flows without contended links (cannot happen)
            frozen_now = list(link_unfrozen[best_link])
            for flow in frozen_now:
                flow.rate_bps = best_share
                unfrozen.discard(flow)
                for link in flow.links:
                    members = link_unfrozen.get(link)
                    if members is not None:
                        members.discard(flow)
                    residual[link] = max(0.0, residual[link] - best_share)
        self._rates_dirty = False


def simulate_phase(
    capacities: Dict[Link, float],
    flows: Sequence[Flow],
    include_propagation: bool = True,
    solver: str = "incremental",
) -> float:
    """Run flows that all start at t=0 to completion; return the makespan.

    Fully array-based: the flow set is lowered once to a sparse
    incidence matrix and driven by
    :class:`repro.sim.events.FlowEventEngine`.  Each step completes the
    whole batch of flows finishing within :data:`_TIME_QUANTUM` (1 ns)
    of the earliest completion; time advances by the *latest* completion
    of the merged batch, so the quantum only pads the clock when
    genuinely simultaneous completions are merged, never per step, and
    the makespan is exact for isolated completions.

    Parameters
    ----------
    capacities:
        Link -> bits/s table; must cover every link on every flow path.
    flows:
        Flows to run; ``flow.remaining_bits`` is reset to the full size
        and zeroed on return, ``flow.rate_bps`` ends at the rate held
        during the final completion event.
    include_propagation:
        Add the worst per-hop latency across flows to the makespan
        (flows are long; the paper's 1 us/hop only matters for the
        reconfiguration studies).
    solver:
        ``"incremental"`` (default) repairs the max-min allocation per
        completion batch through
        :class:`repro.perf.fairshare.IncrementalFairShare` -- amortized
        O(nnz touched) per event, the fast path when every flow
        completes at a distinct time.  ``"batch"`` re-runs progressive
        filling from scratch per batch (the PR-1 behavior, kept as the
        equivalence baseline).

    Returns
    -------
    Phase makespan in seconds (plus worst-case propagation delay when
    requested).

    Example -- two flows share one 8 Gb/s link; the short one finishes
    at 0.5 s, the long one takes the whole link afterwards:

    >>> from repro.sim.flows import Flow
    >>> from repro.sim.fluid import simulate_phase
    >>> flows = [Flow(path=(0, 1), size_bits=2e9),
    ...          Flow(path=(0, 1), size_bits=6e9)]
    >>> simulate_phase({(0, 1): 8e9}, flows, include_propagation=False)
    1.0
    """
    makespan, _ = simulate_phase_completions(
        capacities, flows, include_propagation, solver
    )
    return makespan


def simulate_phase_completions(
    capacities: Dict[Link, float],
    flows: Union[Sequence[Flow], PathArrays],
    include_propagation: bool = True,
    solver: str = "incremental",
):
    """:func:`simulate_phase` plus per-flow completion times.

    Returns ``(makespan, completion_times)`` where ``completion_times``
    is one absolute completion time (seconds since phase start) per
    flow, in ``flows`` order -- the raw material for flow-completion-
    time CDFs.  ``flows`` may also be an already lowered
    :class:`repro.perf.paths.PathArrays` (what
    :mod:`repro.sim.network_sim` passes); only :class:`Flow` objects
    get their ``remaining_bits`` and ``rate_bps`` updated.
    """
    arrays = as_path_arrays(flows)
    if not len(arrays):
        return 0.0, np.empty(0)
    engine = FlowEventEngine(capacities, arrays, solver=solver)
    makespan = engine.run()
    if arrays is not flows:
        for flow, rate in zip(flows, engine.last_completion_rates.tolist()):
            flow.remaining_bits = 0.0
            flow.rate_bps = rate
    max_propagation = 0.0
    if include_propagation:
        # Monotone rounding: the max of hops * latency is the latency
        # of the longest path.
        max_propagation = arrays.max_hops() * PER_HOP_LATENCY_S
    return makespan + max_propagation, engine.completion_times


def simulate_phase_reference(
    capacities: Dict[Link, float],
    flows: Sequence[Flow],
    include_propagation: bool = True,
) -> float:
    """Seed event loop over :class:`ReferenceFluidNetwork` (baseline).

    Kept verbatim for the equivalence tests and micro-benchmarks; new
    code should call :func:`simulate_phase`.
    """
    if not flows:
        return 0.0
    network = ReferenceFluidNetwork(capacities)
    max_propagation = 0.0
    for flow in flows:
        flow.remaining_bits = float(flow.size_bits)
        network.add_flow(flow)
        if include_propagation:
            max_propagation = max(max_propagation, flow.propagation_delay_s)
    now = 0.0
    guard = 0
    limit = 10 * len(flows) + 100
    while network.active:
        dt = network.time_to_next_completion()
        if dt is None:
            raise RuntimeError(
                "deadlock: active flows have zero rate; check capacities"
            )
        # Merge completions landing within the time quantum.
        dt = max(dt, 0.0) + _TIME_QUANTUM
        now += dt
        network.advance(dt)
        guard += 1
        if guard > limit:  # pragma: no cover - safety net
            raise RuntimeError("phase simulation failed to converge")
    return now + max_propagation


def phase_link_bytes(
    flows: Union[Iterable[Flow], PathArrays],
) -> Dict[Link, float]:
    """Total bytes each link carries for a flow set (Figure 15's CDF)."""
    if not isinstance(flows, PathArrays):
        flows = PathArrays.from_flows(list(flows))
    return flows.link_bytes()
