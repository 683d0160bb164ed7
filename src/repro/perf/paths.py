"""Path sets lowered to flat arrays, once, for every hop-level consumer.

Three hot consumers turn routed paths into links: the cost model's
pair -> link routing matrix (:mod:`repro.perf.costmodel`), the phase
simulator's flow sets (:mod:`repro.sim.network_sim`,
:class:`repro.sim.events.FlowEventEngine`) and the scenario engine's
per-pipeline flow templates (:func:`repro.sim.cluster.flow_incidence`).
Each used to walk every path hop by hop in Python.  They now share one
lowering:

* :class:`PathArrays` -- a flat node array, each path's node count and
  each path's size, built once per path set;
* :meth:`PathArrays.hops` -- the ``(path, head, tail)`` table of every
  hop, path after path, derived with a mask instead of a loop;
* :class:`LinkIndex` -- vectorized ``(head, tail) -> row`` lookup over
  a fixed link list, reporting unknown links as ``-1``.

Hop order is the order of the old nested loops (path after path, hop
after hop), and sizes are computed with the same float operations, so
every consumer's output is bit-identical to its loop version.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

Link = Tuple[int, int]


def flatten_paths(
    paths: Sequence[Sequence[int]],
) -> Tuple[np.ndarray, np.ndarray]:
    """``(nodes, lengths)``: every path's nodes concatenated, and each
    path's node count."""
    lengths = np.fromiter(map(len, paths), dtype=np.int64, count=len(paths))
    nodes = np.fromiter(
        chain.from_iterable(paths), dtype=np.int64, count=int(lengths.sum())
    )
    return nodes, lengths


def path_hops(
    nodes: np.ndarray, lengths: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(path, head, tail)`` of every hop, path after path.

    A hop starts at every node position except the last of its path;
    paths of fewer than two nodes contribute no hop.
    """
    head_mask = np.ones(nodes.size, dtype=bool)
    head_mask[np.cumsum(lengths)[lengths > 0] - 1] = False
    head_pos = np.flatnonzero(head_mask)
    path = np.repeat(
        np.arange(lengths.size), np.maximum(lengths - 1, 0)
    )
    return path, nodes[head_pos], nodes[head_pos + 1]


@dataclass(frozen=True)
class PathArrays:
    """A path set as flat arrays.

    ``nodes`` concatenates every path's node ids, ``lengths[i]`` is
    path ``i``'s node count and ``sizes[i]`` its size: bits for a flow
    set, the routed fraction of a unit demand for the cost model.
    """

    nodes: np.ndarray    # (sum(lengths),) int64
    lengths: np.ndarray  # (P,) int64
    sizes: np.ndarray    # (P,) float

    def __len__(self) -> int:
        return int(self.lengths.size)

    @classmethod
    def empty(cls) -> "PathArrays":
        return cls(
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0),
        )

    @classmethod
    def from_paths(
        cls, paths: Sequence[Sequence[int]], sizes: Iterable[float]
    ) -> "PathArrays":
        nodes, lengths = flatten_paths(paths)
        return cls(
            nodes, lengths,
            np.fromiter(sizes, dtype=float, count=lengths.size),
        )

    @classmethod
    def from_flows(cls, flows: Sequence) -> "PathArrays":
        """Lower :class:`repro.sim.flows.Flow`-like objects (``path``,
        ``size_bits``)."""
        return cls.from_paths(
            [flow.path for flow in flows],
            (flow.size_bits for flow in flows),
        )

    @classmethod
    def split_evenly(
        cls,
        path_sets: Sequence[Sequence[Sequence[int]]],
        totals: Sequence[float],
        scale: float = 1.0,
    ) -> "PathArrays":
        """Split each ``totals[i]`` equally over ``path_sets[i]``.

        Path ``j`` of set ``i`` gets ``totals[i] / len(path_sets[i]) *
        scale`` -- the same two roundings as the per-path loop it
        replaces (ECMP stand-in: equal split, then bytes -> bits).
        """
        counts = np.fromiter(
            map(len, path_sets), dtype=np.int64, count=len(path_sets)
        )
        nodes, lengths = flatten_paths(list(chain.from_iterable(path_sets)))
        shares = np.asarray(totals, dtype=float).reshape(-1) / counts
        return cls(nodes, lengths, np.repeat(shares, counts) * scale)

    @classmethod
    def concat(cls, parts: Sequence["PathArrays"]) -> "PathArrays":
        return cls(
            np.concatenate([p.nodes for p in parts]),
            np.concatenate([p.lengths for p in parts]),
            np.concatenate([p.sizes for p in parts]),
        )

    def hops(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """See :func:`path_hops`."""
        return path_hops(self.nodes, self.lengths)

    def max_hops(self) -> int:
        return int(self.lengths.max()) - 1 if self.lengths.size else 0

    def check_flows(self) -> "PathArrays":
        """Raise the :class:`repro.sim.flows.Flow` constructor's errors
        for the first invalid path; return ``self``."""
        for i in np.flatnonzero(
            (self.lengths < 2) | (self.sizes <= 0)
        )[:1].tolist():
            if self.lengths[i] < 2:
                raise ValueError("a flow path needs at least two nodes")
            raise ValueError(
                f"flow size must be positive, got {float(self.sizes[i])}"
            )
        return self

    def link_bytes(self) -> Dict[Link, float]:
        """Total bytes each link carries, links in first-use order.

        Every hop adds its path's ``size / 8`` -- a link a path
        revisits counts each time -- summed path after path.
        """
        path, heads, tails = self.hops()
        if path.size == 0:
            return {}
        stride = int(self.nodes.max()) + 1
        codes, first, inverse = np.unique(
            heads * stride + tails, return_index=True, return_inverse=True
        )
        totals = np.bincount(
            inverse.reshape(-1), weights=(self.sizes / 8.0)[path]
        )
        order = np.argsort(first, kind="stable")
        return {
            (code // stride, code % stride): total
            for code, total in zip(
                codes[order].tolist(), totals[order].tolist()
            )
        }


def as_path_arrays(flows) -> PathArrays:
    """``flows`` itself if already lowered, else a lowered Flow sequence."""
    if isinstance(flows, PathArrays):
        return flows
    return PathArrays.from_flows(flows)


class LinkIndex:
    """Vectorized ``(head, tail) -> row`` lookup over a fixed link set.

    ``links`` lists integer node pairs; ``rows[i]`` is link ``i``'s row
    (default: its position).  :meth:`rows_of` maps hop arrays to rows,
    ``-1`` marking a link outside the set.
    """

    def __init__(
        self,
        links: Sequence[Link],
        rows: Optional[Sequence[int]] = None,
    ):
        pairs = np.asarray(list(links), dtype=np.int64).reshape(-1, 2)
        self._stride = int(pairs.max()) + 1 if pairs.size else 1
        codes = pairs[:, 0] * self._stride + pairs[:, 1]
        order = np.argsort(codes, kind="stable")
        self._codes = codes[order]
        row_ids = (
            np.arange(len(pairs), dtype=np.int64) if rows is None
            else np.asarray(list(rows), dtype=np.int64)
        )
        self._rows = row_ids[order]

    def rows_of(self, heads: np.ndarray, tails: np.ndarray) -> np.ndarray:
        if self._codes.size == 0:
            return np.full(heads.size, -1, dtype=np.int64)
        stride = self._stride
        inside = (heads >= 0) & (heads < stride) & (tails >= 0) & (
            tails < stride
        )
        codes = np.where(inside, heads * stride + tails, -1)
        pos = np.minimum(
            np.searchsorted(self._codes, codes), self._codes.size - 1
        )
        found = inside & (self._codes[pos] == codes)
        return np.where(found, self._rows[pos], -1)


def first_unknown(
    rows: np.ndarray, heads: np.ndarray, tails: np.ndarray
) -> Optional[Tuple[int, Link]]:
    """``(hop position, link)`` of the first ``-1`` row, else ``None``."""
    missing = np.flatnonzero(rows < 0)
    if missing.size == 0:
        return None
    pos = int(missing[0])
    return pos, (int(heads[pos]), int(tails[pos]))
