"""Flow and link primitives for the fluid simulator."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.perf.paths import PathArrays

Link = Tuple[int, int]

_flow_ids = itertools.count()

#: Per-hop propagation delay (the paper sets 1 us throughout section 5).
PER_HOP_LATENCY_S = 1e-6


@dataclass
class Flow:
    """One transfer traversing an explicit node path.

    Attributes
    ----------
    path:
        Node sequence (length >= 2); links are consecutive pairs.
    size_bits:
        Total bits to move.
    kind:
        "allreduce" or "mp" -- used for accounting and routing policy.
    tag:
        Free-form owner tag (job id, collective id) for grouping.
    """

    path: Tuple[int, ...]
    size_bits: float
    kind: str = "mp"
    tag: Optional[object] = None
    flow_id: int = field(default_factory=lambda: next(_flow_ids))
    remaining_bits: float = field(default=None)  # type: ignore[assignment]
    rate_bps: float = 0.0

    def __post_init__(self):
        if len(self.path) < 2:
            raise ValueError("a flow path needs at least two nodes")
        if self.size_bits <= 0:
            raise ValueError(f"flow size must be positive, got {self.size_bits}")
        if self.remaining_bits is None:
            self.remaining_bits = float(self.size_bits)

    @property
    def links(self) -> List[Link]:
        return [
            (self.path[i], self.path[i + 1])
            for i in range(len(self.path) - 1)
        ]

    @property
    def hop_count(self) -> int:
        return len(self.path) - 1

    @property
    def propagation_delay_s(self) -> float:
        return self.hop_count * PER_HOP_LATENCY_S

    @property
    def src(self) -> int:
        return self.path[0]

    @property
    def dst(self) -> int:
        return self.path[-1]

    def __hash__(self):
        return self.flow_id

    def __eq__(self, other):
        return isinstance(other, Flow) and other.flow_id == self.flow_id


@dataclass
class LinkState:
    """Mutable per-link bookkeeping used by the rate allocator."""

    capacity_bps: float
    flows: set = field(default_factory=set)

    def __post_init__(self):
        if self.capacity_bps <= 0:
            raise ValueError("link capacity must be positive")


def demand_path_arrays(matrix, paths_fn) -> PathArrays:
    """Lower a traffic byte matrix to flow arrays (sizes in bits).

    ``paths_fn(src, dst)`` returns candidate paths; bytes are split
    evenly across them (the simulator's ECMP stand-in).  Flows follow
    the row-major order of the matrix's nonzero off-diagonal entries,
    then each pair's path order.
    """
    dense = np.asarray(matrix, dtype=float)
    # Row-major scan over just the nonzero entries (the Python loop
    # over all n^2 cells dominated fleet-scale scenarios, where the
    # global-id matrix is large and almost empty).
    srcs, dsts = np.nonzero(dense > 0)
    off_diagonal = srcs != dsts
    srcs, dsts = srcs[off_diagonal], dsts[off_diagonal]
    byte_counts = dense[srcs, dsts]
    path_sets = []
    for src, dst, byte_count in zip(
        srcs.tolist(), dsts.tolist(), byte_counts.tolist()
    ):
        candidates = paths_fn(src, dst)
        if not candidates:
            raise ValueError(
                f"no path from {src} to {dst}; cannot route "
                f"{byte_count} bytes"
            )
        path_sets.append(candidates)
    return PathArrays.split_evenly(
        path_sets, byte_counts, scale=8.0
    ).check_flows()


def flows_from_arrays(
    arrays: PathArrays, kind: str = "mp", tag=None
) -> List[Flow]:
    """One :class:`Flow` per lowered path, in order."""
    nodes = arrays.nodes.tolist()
    ends = np.cumsum(arrays.lengths).tolist()
    starts = [0] + ends[:-1]
    return [
        Flow(path=tuple(nodes[start:end]), size_bits=size, kind=kind, tag=tag)
        for start, end, size in zip(starts, ends, arrays.sizes.tolist())
    ]


def flows_from_matrix(
    matrix, paths_fn, kind: str = "mp", tag=None
) -> List[Flow]:
    """Materialize :func:`demand_path_arrays` as :class:`Flow` objects."""
    return flows_from_arrays(demand_path_arrays(matrix, paths_fn), kind, tag)
