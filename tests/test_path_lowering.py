"""Array path lowering vs the per-hop loops it replaced.

:mod:`repro.perf.paths` lowers every path set to flat arrays once; the
cost model's routing matrix, the phase simulator's flow sets and the
scenario engine's flow templates read those arrays.  The loops below
are the per-hop Python versions those consumers used to run, kept here
as oracles: outputs must match them bit for bit, and typed errors must
carry the same messages.
"""

import numpy as np
import pytest
from scipy import sparse

from repro.cluster import ScenarioSpec, run_scenario
from repro.core.topology_finder import AllReduceGroup, topology_finder
from repro.models import build_dlrm
from repro.network.expander import ExpanderFabric
from repro.network.fattree import (
    FatTreeFabric,
    IdealSwitchFabric,
    LeafSpineFabric,
)
from repro.network.topoopt import TopoOptFabric
from repro.parallel.collectives import allreduce_edge_bytes
from repro.parallel.strategy import hybrid_strategy
from repro.parallel.traffic import TrafficSummary, extract_traffic
from repro.perf.costmodel import CostModelKernel, _iter_pair_paths
from repro.perf.paths import LinkIndex, PathArrays, path_hops
from repro.perf.warmcache import PIPELINE_CACHE
from repro.sim.cluster import flow_incidence, remap_traffic
from repro.sim.failures import FailureManager, isolate_routing
from repro.sim.flows import Flow
from repro.sim.fluid import simulate_phase_completions
from repro.sim.network_sim import simulate_iteration

GBPS = 1e9
N = 8


# ----------------------------------------------------------------------
# Oracles: the per-hop loops the array lowering replaced
# ----------------------------------------------------------------------
def loop_mp_routing(kernel, n):
    """The routing-matrix assembly loop of ``CostModelKernel.mp_routing``."""
    rows, cols, data = [], [], []
    unroutable = np.zeros(n * n, dtype=bool)
    for src, dst, paths in _iter_pair_paths(kernel.fabric, "mp", n):
        pair = src * n + dst
        if not paths:
            unroutable[pair] = True
            continue
        fraction = 1.0 / len(paths)
        for path in paths:
            for a, b in zip(path, path[1:]):
                try:
                    col = kernel.link_index[(a, b)]
                except KeyError:
                    raise KeyError(
                        f"routed traffic uses unknown link {(a, b)}"
                    )
                rows.append(pair)
                cols.append(col)
                data.append(fraction)
    matrix = sparse.csr_matrix(
        (data, (rows, cols)), shape=(n * n, kernel.num_links)
    )
    return matrix, unroutable


def loop_allreduce_unit(kernel, members):
    """The per-hop loop of ``CostModelKernel`` AllReduce unit loads."""
    k = len(members)
    loads = np.zeros(kernel.num_links)
    if k < 2:
        return loads
    ring_paths = []
    if hasattr(kernel.fabric, "ring_edge_paths"):
        ring_paths = kernel.fabric.ring_edge_paths(members)
    if ring_paths:
        for path, num_rings in ring_paths:
            per_edge = allreduce_edge_bytes(1.0, k, num_rings)
            for a, b in zip(path, path[1:]):
                loads[kernel.link_index[(a, b)]] += per_edge
        return loads
    per_edge = allreduce_edge_bytes(1.0, k)
    for i in range(k):
        paths = kernel.fabric.paths(
            members[i], members[(i + 1) % k], "allreduce"
        )
        if not paths:
            return None
        share = per_edge / len(paths)
        for path in paths:
            for a, b in zip(path, path[1:]):
                loads[kernel.link_index[(a, b)]] += share
    return loads


def loop_mp_flows(fabric, traffic):
    """MP ``Flow`` objects, built pair by pair."""
    flows = []
    if traffic.mp_matrix.sum() <= 0:
        return flows
    dense = np.asarray(traffic.mp_matrix, dtype=float)
    srcs, dsts = np.nonzero(dense > 0)
    for src, dst in zip(srcs.tolist(), dsts.tolist()):
        if src == dst:
            continue
        byte_count = float(dense[src, dst])
        candidates = fabric.paths(src, dst, "mp")
        if not candidates:
            raise ValueError(
                f"no path from {src} to {dst}; cannot route "
                f"{byte_count} bytes"
            )
        share = byte_count / len(candidates)
        for path in candidates:
            flows.append(Flow(path=tuple(path), size_bits=share * 8.0))
    return flows


def loop_allreduce_flows(fabric, traffic):
    """Ring-AllReduce ``Flow`` objects, built edge by edge."""
    flows = []
    for group in traffic.allreduce_groups:
        if group.size < 2 or group.total_bytes <= 0:
            continue
        ring_paths = []
        if hasattr(fabric, "ring_edge_paths"):
            ring_paths = fabric.ring_edge_paths(group.members)
        if ring_paths:
            for edge_path, num_rings in ring_paths:
                per_edge = allreduce_edge_bytes(
                    group.total_bytes, group.size, num_rings
                )
                flows.append(
                    Flow(path=tuple(edge_path), size_bits=per_edge * 8.0)
                )
            continue
        per_edge = allreduce_edge_bytes(group.total_bytes, group.size, 1)
        members = group.members
        k = len(members)
        for i in range(k):
            src, dst = members[i], members[(i + 1) % k]
            paths = fabric.paths(src, dst, "allreduce")
            share = per_edge / len(paths)
            for path in paths:
                flows.append(
                    Flow(path=tuple(path), size_bits=share * 8.0)
                )
    return flows


def loop_link_bytes(flows):
    totals = {}
    for flow in flows:
        per_link = flow.size_bits / 8.0
        for link in flow.links:
            totals[link] = totals.get(link, 0.0) + per_link
    return totals


def loop_flow_incidence(fabric, traffic, link_index):
    flows = loop_mp_flows(fabric, traffic)
    flows.extend(loop_allreduce_flows(fabric, traffic))
    rows = []
    nnz = np.empty(len(flows), dtype=np.int64)
    for col, flow in enumerate(flows):
        links = dict.fromkeys(flow.links)
        for link in links:
            rows.append(link_index[link])
        nnz[col] = len(links)
    sizes = np.array([flow.size_bits for flow in flows], dtype=float)
    return np.asarray(rows, dtype=np.int64), nnz, sizes


# ----------------------------------------------------------------------
# Fabrics and traffic
# ----------------------------------------------------------------------
class TableFabric:
    """Explicit per-pair path table and no ``bulk_paths`` hook.

    Servers 0-3 hang off switches 4 and 5 (joined by 4 <-> 5).  Pair
    (0, 1) splits over two switches, pair (0, 2)'s two ECMP paths share
    link (0, 4), pair (2, 3) revisits (2, 4), and every pair missing
    from the table -- (1, 0) among them -- is unroutable.
    """

    name = "table"
    num_servers = 4

    def __init__(self, extra_paths=None):
        self.caps = {}
        for server in range(4):
            for switch in (4, 5):
                self.caps[(server, switch)] = 10 * GBPS
                self.caps[(switch, server)] = 10 * GBPS
        self.caps[(4, 5)] = self.caps[(5, 4)] = 40 * GBPS
        self.table = {
            (0, 1): [[0, 4, 1], [0, 5, 1]],
            (0, 2): [[0, 4, 2], [0, 4, 5, 2]],
            (0, 3): [[0, 5, 3]],
            (1, 2): [[1, 4, 2]],
            (2, 0): [[2, 5, 0]],
            (2, 3): [[2, 4, 2, 4, 3]],
            (3, 1): [[3, 5, 4, 1], [3, 4, 1], [3, 5, 1]],
        }
        self.table.update(extra_paths or {})

    def capacities(self):
        return dict(self.caps)

    def paths(self, src, dst, kind="mp"):
        return self.table.get((src, dst), [])


def small_dlrm():
    return build_dlrm(
        num_embedding_tables=4,
        embedding_rows=100_000,
        embedding_dim=256,
        num_dense_layers=2,
        dense_layer_size=512,
        num_feature_layers=2,
        feature_layer_size=512,
        batch_per_gpu=32,
    )


def hybrid_traffic(n=N):
    model = small_dlrm()
    strategy = hybrid_strategy(
        model, n, sharded_embeddings=[model.embedding_layers[0].name]
    )
    return extract_traffic(model, strategy, 32)


def dp_traffic(n, total_bytes):
    return TrafficSummary(
        n=n,
        allreduce_groups=[
            AllReduceGroup(members=tuple(range(n)), total_bytes=total_bytes)
        ],
        mp_matrix=np.zeros((n, n)),
    )


def topoopt(traffic, n=N, degree=4):
    result = topology_finder(
        n, degree, traffic.allreduce_groups, traffic.mp_matrix
    )
    return TopoOptFabric(result, 100 * GBPS)


def routing_fabrics():
    traffic = hybrid_traffic()
    return [
        topoopt(traffic),
        FatTreeFabric(N, 4, 33 * GBPS),
        LeafSpineFabric(N, 4, 100 * GBPS, servers_per_rack=2, num_spines=2),
        ExpanderFabric(N, 3, 100 * GBPS, seed=1, path_count=3),
        TableFabric(),
    ]


def assert_same_csr(got, want):
    assert got.shape == want.shape
    for attr in ("indptr", "indices", "data"):
        a, b = getattr(got, attr), getattr(want, attr)
        assert a.dtype == b.dtype, attr
        assert np.array_equal(a, b), attr


# ----------------------------------------------------------------------
# The lowering itself
# ----------------------------------------------------------------------
class TestPathArrays:
    def test_hops_follow_path_order(self):
        nodes = np.array([7, 3, 9, 4, 4, 1, 2])
        lengths = np.array([3, 1, 0, 3])
        path, heads, tails = path_hops(nodes, lengths)
        assert path.tolist() == [0, 0, 3, 3]
        assert heads.tolist() == [7, 3, 4, 1]
        assert tails.tolist() == [3, 9, 1, 2]

    def test_split_evenly_matches_share_then_bits(self):
        sets = [[[0, 1], [0, 2, 1]], [[1, 0]]]
        totals = [3.0, 0.1]
        lowered = PathArrays.split_evenly(sets, totals, scale=8.0)
        want = [3.0 / 2 * 8.0, 3.0 / 2 * 8.0, 0.1 / 1 * 8.0]
        assert lowered.sizes.tolist() == want
        assert lowered.lengths.tolist() == [2, 3, 2]
        assert lowered.nodes.tolist() == [0, 1, 0, 2, 1, 1, 0]

    def test_link_index_marks_unknown_links(self):
        index = LinkIndex([(0, 1), (5, 2), (1, 0)], rows=[10, 11, 12])
        heads = np.array([5, 1, 0, 9, 2])
        tails = np.array([2, 0, 1, 0, 5])
        assert index.rows_of(heads, tails).tolist() == [11, 12, 10, -1, -1]
        empty = LinkIndex([])
        assert empty.rows_of(heads, tails).tolist() == [-1] * 5

    def test_flow_checks_match_flow_constructor(self):
        with pytest.raises(ValueError, match="at least two nodes"):
            PathArrays.from_paths([[0, 1], [2]], [8.0, 8.0]).check_flows()
        with pytest.raises(ValueError, match="must be positive, got 0.0"):
            PathArrays.from_paths([[0, 1], [1, 2]], [8.0, 0.0]).check_flows()


# ----------------------------------------------------------------------
# Cost model: routing matrix and AllReduce unit loads
# ----------------------------------------------------------------------
class TestRoutingMatrixVsLoop:
    @pytest.mark.parametrize("index", range(5))
    def test_identical_csr(self, index):
        fabric = routing_fabrics()[index]
        n = fabric.num_servers
        kernel = CostModelKernel(fabric)
        want_matrix, want_unroutable = loop_mp_routing(kernel, n)
        routing = kernel.mp_routing(n)
        assert_same_csr(routing.matrix, want_matrix)
        assert np.array_equal(routing.unroutable, want_unroutable)

    def test_table_fabric_covers_shared_links_and_unroutable_pairs(self):
        fabric = TableFabric()
        assert not hasattr(fabric, "bulk_paths")
        kernel = CostModelKernel(fabric)
        routing = kernel.mp_routing(4)
        dense = routing.matrix.toarray()
        # Both ECMP paths of (0, 2) cross (0, 4): the fractions sum.
        assert dense[0 * 4 + 2, kernel.link_index[(0, 4)]] == 1.0
        # (2, 3) crosses (2, 4) twice on one path.
        assert dense[2 * 4 + 3, kernel.link_index[(2, 4)]] == 2.0
        assert routing.unroutable[1 * 4 + 0]
        assert not routing.unroutable[0 * 4 + 1]

    def test_unknown_link_message(self):
        fabric = TableFabric({(1, 3): [[1, 4, 3], [1, 3]]})
        kernel = CostModelKernel(fabric)
        with pytest.raises(KeyError) as lowered:
            kernel.mp_routing(4)
        with pytest.raises(KeyError) as looped:
            loop_mp_routing(kernel, 4)
        assert str(lowered.value) == str(looped.value)
        assert "routed traffic uses unknown link (1, 3)" in str(lowered.value)

    @pytest.mark.parametrize("index", range(5))
    def test_allreduce_unit_loads(self, index):
        fabric = routing_fabrics()[index]
        kernel = CostModelKernel(fabric)
        n = fabric.num_servers
        for members in (tuple(range(n)), (0, 1), (0, 2, 3), (1,)):
            got = kernel.allreduce_unit_loads(members)
            want = loop_allreduce_unit(kernel, members)
            if want is None:
                assert got is None
            else:
                assert np.array_equal(got, want)


# ----------------------------------------------------------------------
# Phase simulator: arrays vs Flow objects
# ----------------------------------------------------------------------
def sim_fabrics():
    traffic = hybrid_traffic()
    return [
        ("topoopt", topoopt(traffic), traffic),
        ("fattree", FatTreeFabric(N, 4, 33 * GBPS), traffic),
        ("ideal", IdealSwitchFabric(N, 4, 100 * GBPS), traffic),
        ("zero-mp", topoopt(dp_traffic(N, 5e7)), dp_traffic(N, 5e7)),
        ("ideal-zero-mp", IdealSwitchFabric(N, 4, 100 * GBPS),
         dp_traffic(N, 5e7)),
    ]


class TestIterationVsFlowObjects:
    @pytest.mark.parametrize("index", range(5))
    def test_bit_identical_breakdown(self, index):
        _, fabric, traffic = sim_fabrics()[index]
        caps = fabric.capacities()
        mp_flows = loop_mp_flows(fabric, traffic)
        ar_flows = loop_allreduce_flows(fabric, traffic)
        mp_s, mp_done = simulate_phase_completions(caps, mp_flows)
        ar_s, ar_done = simulate_phase_completions(caps, ar_flows)

        got = simulate_iteration(
            fabric, traffic, 0.25, collect_link_bytes=True
        )
        assert got.mp_s == mp_s
        assert got.allreduce_s == ar_s
        assert np.array_equal(
            got.flow_completion_times["mp"], mp_done, equal_nan=True
        )
        assert np.array_equal(
            got.flow_completion_times["allreduce"], ar_done, equal_nan=True
        )
        want_bytes = loop_link_bytes(mp_flows + ar_flows)
        assert list(got.link_bytes.items()) == list(want_bytes.items())
        if traffic.mp_matrix.sum() <= 0:
            assert got.mp_s == 0.0 and not mp_flows

    def test_unroutable_mp_pair_message(self):
        fabric = TableFabric()
        traffic = dp_traffic(4, 0.0)
        traffic.mp_matrix[1, 0] = 123.5
        with pytest.raises(ValueError) as lowered:
            simulate_iteration(fabric, traffic, 0.0)
        with pytest.raises(ValueError) as looped:
            loop_mp_flows(fabric, traffic)
        assert str(lowered.value) == str(looped.value)
        assert "no path from 1 to 0" in str(lowered.value)


# ----------------------------------------------------------------------
# Scenario engine: per-pipeline flow templates
# ----------------------------------------------------------------------
class TestFlowIncidenceVsLoop:
    @pytest.mark.parametrize("server_map", [
        list(range(N)),
        [3, 4, 5, 6, 7, 8, 9, 10],
        [12, 2, 9, 0, 5, 7, 1, 4],
    ])
    def test_relabeled_shard(self, server_map):
        local = hybrid_traffic()
        fabric = topoopt(local).relabel(server_map)
        traffic = remap_traffic(local, server_map)
        link_index = {
            link: row for row, link in enumerate(fabric.capacities())
        }
        got = flow_incidence(fabric, traffic, link_index)
        want = loop_flow_incidence(fabric, traffic, link_index)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            assert np.array_equal(g, w)

    def test_revisited_link_counts_once(self):
        fabric = TableFabric()
        traffic = dp_traffic(4, 0.0)
        traffic.mp_matrix[2, 3] = 10.0
        traffic.mp_matrix[0, 2] = 4.0
        link_index = {link: row for row, link in enumerate(fabric.caps)}
        got = flow_incidence(fabric, traffic, link_index)
        want = loop_flow_incidence(fabric, traffic, link_index)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
        assert got[1].tolist() == [2, 3, 3]

    def test_unknown_link_message(self):
        fabric = TableFabric()
        traffic = dp_traffic(4, 0.0)
        traffic.mp_matrix[0, 1] = 1.0
        traffic.mp_matrix[0, 3] = 1.0
        link_index = {
            link: row for row, link in enumerate(fabric.caps)
            if link != (5, 3)
        }
        with pytest.raises(KeyError, match=r"flow 2 uses link \(5, 3\)"):
            flow_incidence(fabric, traffic, link_index)


# ----------------------------------------------------------------------
# Fault isolation without a deep copy
# ----------------------------------------------------------------------
def routing_snapshot(result):
    routing = result.routing
    return (
        {pair: [list(p) for p in paths]
         for pair, paths in routing.allreduce_paths.items()},
        {pair: [list(p) for p in paths]
         for pair, paths in routing.mp_paths.items()},
        sorted(result.topology.edges()),
    )


class TestIsolatedRouting:
    def test_cut_on_copy_leaves_shared_result(self):
        result = topoopt(dp_traffic(N, 5e7)).result
        before = routing_snapshot(result)
        isolated = isolate_routing(result)
        assert isolated.topology is result.topology
        assert isolated.group_plans is result.group_plans
        manager = FailureManager(isolated)
        src, dst, _ = next(iter(result.topology.edges()))
        manager.fail_link(src, dst)
        assert routing_snapshot(isolated) != before
        assert routing_snapshot(result) == before
        manager.repair_permanently(src, dst)
        assert routing_snapshot(result) == before

    def test_scenario_cut_and_repair_leave_template_unchanged(self):
        spec = ScenarioSpec.preset("shared").with_overrides({
            "arrivals.times": [0.0, 0.0],
            "jobs.0.iterations": 6,
            "jobs.1.iterations": 6,
        })
        PIPELINE_CACHE.clear()
        period = run_scenario(spec).jobs[0].iteration_avg_s
        templates = [
            prepared for prepared in PIPELINE_CACHE._store.values()
            if prepared.fabric is not None
        ]
        assert templates
        before = [routing_snapshot(p.fabric.result) for p in templates]
        faulty = spec.with_overrides({"faults.events": [{
            "kind": "link", "time_s": 2.5 * period, "job_index": 0,
            "repair_s": 4.5 * period,
        }]})
        result = run_scenario(faulty)
        assert [e["kind"] for e in result.failure_log] == [
            "mp_detour", "port_swap"
        ]
        after = [routing_snapshot(p.fabric.result) for p in templates]
        assert after == before
