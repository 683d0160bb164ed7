"""Training-iteration simulation on a fabric.

Follows the paper's no-overlap iteration model (section 5.4, Eq. 1):

    T_iter = T_compute + T_MP + T_AllReduce

with both communication phases simulated by the max-min fluid network,
so host-based forwarding, path length, and load imbalance all show up
as they do in the paper's packet simulations.  Each phase's demand is
lowered straight to :class:`repro.perf.paths.PathArrays` (no per-flow
objects) and driven by the array-backed
:class:`repro.sim.events.FlowEventEngine` (and through it the
incremental max-min solver), which also yields per-flow completion
times for tail-latency analysis.

Also defines :class:`TopoOptFabric`, the fabric adapter exposing a
TopologyFinder result (topology + routing + ring plans) to the
simulator, used alongside the switch fabrics of
:mod:`repro.network.fattree`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.network.topoopt import TopoOptFabric
from repro.parallel.collectives import allreduce_edge_bytes
from repro.parallel.traffic import TrafficSummary
from repro.perf.paths import PathArrays
from repro.sim.flows import demand_path_arrays
from repro.sim.fluid import phase_link_bytes, simulate_phase_completions

Link = Tuple[int, int]

__all__ = [
    "TopoOptFabric",
    "IterationBreakdown",
    "TrainingSimulator",
    "simulate_iteration",
]


@dataclass
class IterationBreakdown:
    """Timing of one simulated training iteration.

    ``flow_completion_times`` maps phase name (``"mp"``,
    ``"allreduce"``) to the absolute completion time of every flow of
    that phase (seconds since phase start), as reported by the event
    engine -- the raw material for flow-completion-time CDFs.
    """

    compute_s: float
    mp_s: float
    allreduce_s: float
    link_bytes: Dict[Link, float] = field(default_factory=dict)
    flow_completion_times: Dict[str, np.ndarray] = field(
        default_factory=dict
    )

    @property
    def total_s(self) -> float:
        return self.compute_s + self.mp_s + self.allreduce_s

    @property
    def network_s(self) -> float:
        return self.mp_s + self.allreduce_s

    @property
    def network_overhead_fraction(self) -> float:
        """Share of the iteration spent communicating (Figure 3)."""
        total = self.total_s
        return self.network_s / total if total > 0 else 0.0


def allreduce_flow_arrays(fabric, traffic: TrafficSummary) -> PathArrays:
    """Ring-AllReduce flows for every group, honouring the fabric's rings.

    Dedicated ring edges when the fabric advertises them, otherwise a
    canonical ring whose neighbor transfers are split evenly over the
    fabric's AllReduce paths.  Sizes are in bits.
    """
    path_sets: List[Sequence[Sequence[int]]] = []
    totals: List[float] = []
    for group in traffic.allreduce_groups:
        if group.size < 2 or group.total_bytes <= 0:
            continue
        ring_paths: List[Tuple[List[int], int]] = []
        if hasattr(fabric, "ring_edge_paths"):
            ring_paths = fabric.ring_edge_paths(group.members)
        if ring_paths:
            for edge_path, num_rings in ring_paths:
                path_sets.append([edge_path])
                totals.append(
                    allreduce_edge_bytes(
                        group.total_bytes, group.size, num_rings
                    )
                )
            continue
        # Canonical single ring over the fabric's routed paths.
        per_edge = allreduce_edge_bytes(group.total_bytes, group.size, 1)
        members = group.members
        k = len(members)
        for i in range(k):
            src, dst = members[i], members[(i + 1) % k]
            paths = fabric.paths(src, dst, "allreduce")
            if not paths:
                raise ValueError(
                    f"fabric {fabric.name} cannot route ring edge "
                    f"{src}->{dst}"
                )
            path_sets.append(paths)
            totals.append(per_edge)
    return PathArrays.split_evenly(path_sets, totals, scale=8.0).check_flows()


def mp_flow_arrays(fabric, traffic: TrafficSummary) -> PathArrays:
    """MP flows of the demand matrix over the fabric's MP paths (bits)."""
    if traffic.mp_matrix.sum() <= 0:
        return PathArrays.empty()
    return demand_path_arrays(
        traffic.mp_matrix, lambda src, dst: fabric.paths(src, dst, "mp")
    )


def simulate_iteration(
    fabric,
    traffic: TrafficSummary,
    compute_s: float,
    collect_link_bytes: bool = False,
    solver: str = "incremental",
) -> IterationBreakdown:
    """Simulate one training iteration on ``fabric`` (Eq. 1 model).

    ``solver`` selects the max-min repair strategy of the underlying
    event engine (``"incremental"`` or ``"batch"``; see
    :class:`repro.sim.events.FlowEventEngine`).
    """
    capacities = fabric.capacities()
    mp_flows = mp_flow_arrays(fabric, traffic)
    allreduce_flows = allreduce_flow_arrays(fabric, traffic)
    link_bytes: Dict[Link, float] = {}
    if collect_link_bytes:
        link_bytes = phase_link_bytes(
            PathArrays.concat([mp_flows, allreduce_flows])
        )
    mp_s, mp_completions = simulate_phase_completions(
        capacities, mp_flows, solver=solver
    )
    allreduce_s, ar_completions = simulate_phase_completions(
        capacities, allreduce_flows, solver=solver
    )
    return IterationBreakdown(
        compute_s=compute_s,
        mp_s=mp_s,
        allreduce_s=allreduce_s,
        link_bytes=link_bytes,
        flow_completion_times={
            "mp": mp_completions,
            "allreduce": ar_completions,
        },
    )


@dataclass
class TrainingSimulator:
    """Multi-iteration training runs with per-iteration statistics.

    The paper's traffic pattern is identical across iterations (section
    2.2), so on a dedicated static fabric every iteration takes the same
    time; this wrapper still simulates ``iterations`` runs to support
    fabrics whose state evolves (reconfigurable ones override
    ``run_iteration``).
    """

    fabric: object
    traffic: TrafficSummary
    compute_s: float
    solver: str = "incremental"

    def run_iteration(self) -> IterationBreakdown:
        return simulate_iteration(
            self.fabric, self.traffic, self.compute_s, solver=self.solver
        )

    def run(self, iterations: int = 1) -> List[IterationBreakdown]:
        if iterations < 1:
            raise ValueError("need at least one iteration")
        return [self.run_iteration() for _ in range(iterations)]

    def throughput_samples_per_s(
        self, batch_per_server: int, num_servers: int
    ) -> float:
        """Training throughput (Figure 19's samples/second)."""
        iteration = self.run_iteration()
        return batch_per_server * num_servers / iteration.total_s
