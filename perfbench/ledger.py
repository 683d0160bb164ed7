"""The layer ledger: spans around each layer's public entry points.

:class:`Ledger` patches every function in :data:`TARGETS` with a
wrapper that records one span per call -- target, start, end and the
span that was open when it started -- into flat arrays kept in memory.
The open spans form a stack, so a layer's *self* time is its spans'
duration minus the part covered by child spans.  Every span nests in a
top-level span that the workload's own call opened (``run_scenario``,
``run_experiment``, ``BatchExecutor.submit``), so the self times add up
to the traced wall clock minus the benchmark's loop around the calls;
``ledger.coverage`` is that sum over the wall clock.

A wrapper must replace the name where the caller looks it up:
``from x import f`` binds ``f`` in the importing module, so
:meth:`Ledger.install` rebinds every ``repro.*`` module attribute that
*is* the original function (``repro.core`` even rebinds its
``topology_finder`` attribute -- the module's name -- to the function,
which is why the target module is taken from ``sys.modules``).
:meth:`Ledger.uninstall` restores every binding.

The span stack assumes one thread: the workloads call the program
serially.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import time
from array import array
from typing import Dict, List, Optional, Tuple

import numpy as np

#: (layer, module, attribute path, workload predicted to call it).
#: ``None``: no workload is predicted to call it.
TARGETS: Tuple[Tuple[str, str, str, Optional[str]], ...] = (
    ("cluster.engine", "repro.cluster.engine", "run_scenario", "fleet"),
    ("sim.cluster.advance_to", "repro.sim.cluster",
     "SharedClusterSimulator.advance_to", "fleet"),
    ("sim.cluster.next_event_time", "repro.sim.cluster",
     "SharedClusterSimulator.next_event_time", "fleet"),
    ("sim.cluster.membership", "repro.sim.cluster",
     "SharedClusterSimulator.add_job", "fleet"),
    ("sim.cluster.membership", "repro.sim.cluster",
     "SharedClusterSimulator.remove_job", "fleet"),
    ("sim.cluster.membership", "repro.sim.cluster",
     "SharedClusterSimulator.suspend_job", "storm"),
    ("sim.cluster.membership", "repro.sim.cluster",
     "SharedClusterSimulator.resume_job", "storm"),
    # Only the elastic scheduler resizes; no workload turns it on.
    ("sim.cluster.membership", "repro.sim.cluster",
     "SharedClusterSimulator.resize_job", None),
    ("sim.cluster.membership", "repro.sim.cluster",
     "SharedClusterSimulator.invalidate_flows", "storm"),
    ("perf.fairshare", "repro.perf.fairshare",
     "progressive_filling_rates", "fleet"),
    ("cluster.scheduler.next_action", "repro.cluster.scheduler",
     "JobScheduler.next_action", "storm"),
    ("sim.failures", "repro.sim.failures", "FailureManager.fail_link",
     "storm"),
    ("sim.failures", "repro.sim.failures",
     "FailureManager.repair_permanently", "storm"),
    ("sim.failures", "repro.sim.failures",
     "FailureManager.slowdown_factor", "storm"),
    ("api.runner.run_experiment", "repro.api.runner", "run_experiment",
     "cosearch"),
    ("api.runner.prepare", "repro.api.runner", "prepare", "cosearch"),
    ("api.runner.time_fabric", "repro.api.runner", "time_fabric",
     "cosearch"),
    ("api.registry.build_workload", "repro.api.registry", "build_workload",
     "fleet"),
    ("api.registry.build_strategy", "repro.api.registry", "build_strategy",
     "fleet"),
    ("parallel.traffic.extract_traffic", "repro.parallel.traffic",
     "extract_traffic", "fleet"),
    ("core.alternating", "repro.core.alternating",
     "AlternatingOptimizer.run", "cosearch"),
    ("core.topology_finder", "repro.core.topology_finder",
     "topology_finder", "fleet"),
    ("parallel.mcmc.search", "repro.parallel.mcmc", "MCMCSearch.search",
     "cosearch"),
    ("sim.events", "repro.sim.events", "FlowEventEngine.run", "cosearch"),
    ("service.executor.submit", "repro.service.executor",
     "BatchExecutor.submit", "service"),
    ("service.compute", "repro.service.executor", "_service_compute",
     "service"),
    ("service.store.get", "repro.service.store", "ResultStore.get",
     "service"),
    ("service.store.put", "repro.service.store", "ResultStore.put",
     "service"),
    ("api.spec.content_hash", "repro.api.spec", "spec_content_hash",
     "service"),
    ("results.to_dict", "repro.api.results", "ExperimentResult.to_dict",
     "service"),
    ("results.to_dict", "repro.cluster.results", "ScenarioResult.to_dict",
     "service"),
)

#: Targets whose non-``None`` results are counted as useful work.
USEFUL_RESULTS = frozenset({"cluster.scheduler.next_action"})

LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(t[0] for t in TARGETS))


def target_name(target) -> str:
    return f"{target[1]}.{target[2]}"


def _repro_modules() -> List[object]:
    return [
        module for name, module in list(sys.modules.items())
        if name == "repro" or name.startswith("repro.")
    ]


class Ledger:
    """Span recorder plus the patches that feed it; see the module doc."""

    def __init__(self):
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.targets = array("l")
        self.useful = [0] * len(TARGETS)
        self._stack = [-1]
        self._undo: List[Tuple[object, str, object]] = []

    def _wrap(self, index: int, fn, count_useful: bool):
        starts, ends, parents = self.starts, self.ends, self.parents
        targets, stack, useful = self.targets, self._stack, self.useful
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = len(targets)
            targets.append(index)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(span)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                stack.pop()
            if count_useful and result is not None:
                useful[index] += 1
            return result

        wrapper.ledger_wrapper = True
        return wrapper

    def install(self) -> None:
        """Patch every target where its callers look it up."""
        import repro

        # Import every module first, so none binds a wrapper at import
        # time that :meth:`uninstall` would not know to restore.
        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            importlib.import_module(info.name)
        for index, target in enumerate(TARGETS):
            layer, module_name, path = target[:3]
            owner = sys.modules[module_name]
            *classes, attr = path.split(".")
            for name in classes:
                owner = getattr(owner, name)
            original = owner.__dict__[attr]
            wrapper = self._wrap(index, original, layer in USEFUL_RESULTS)
            if classes:
                self._rebind(owner, attr, wrapper)
                continue
            for module in _repro_modules():
                if module.__dict__.get(attr) is original:
                    self._rebind(module, attr, wrapper)

    def _rebind(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Restore every binding :meth:`install` replaced."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    @staticmethod
    def leftover_wrappers() -> int:
        """Wrappers still bound anywhere in ``repro`` (0 after uninstall)."""
        owners = _repro_modules()
        for _, module_name, path, _ in TARGETS:
            owner = sys.modules[module_name]
            for name in path.split(".")[:-1]:
                owners.append(getattr(owner, name))
        return sum(
            getattr(value, "ledger_wrapper", False) is True
            for owner in owners for value in list(vars(owner).values())
        )

    def totals(self) -> Dict[str, object]:
        """Per-target calls; per-layer calls, self seconds, useful results."""
        starts = np.frombuffer(self.starts, dtype=np.float64)
        ends = np.frombuffer(self.ends, dtype=np.float64)
        parents = np.frombuffer(self.parents, dtype=np.int64)
        targets = np.frombuffer(self.targets, dtype=np.int64)
        duration = ends - starts
        nested = parents >= 0
        covered = np.bincount(
            parents[nested], weights=duration[nested], minlength=len(starts)
        )
        self_s = duration - covered
        n = len(TARGETS)
        calls = np.bincount(targets, minlength=n)
        target_self = np.bincount(targets, weights=self_s, minlength=n)
        layers: Dict[str, Dict[str, float]] = {
            layer: {"calls": 0, "self_s": 0.0, "useful": 0}
            for layer in LAYERS
        }
        for index, target in enumerate(TARGETS):
            entry = layers[target[0]]
            entry["calls"] += int(calls[index])
            entry["self_s"] += float(target_self[index])
            entry["useful"] += self.useful[index]
        return {
            "layers": layers,
            "target_calls": {
                target_name(t): int(calls[i]) for i, t in enumerate(TARGETS)
            },
            "attributed_s": float(self_s.sum()),
        }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(totals, counts, warm, wall_s: float) -> Dict[str, float]:
    """The per-layer metrics of one traced run, by name.

    ``counts`` are the workload's denominators (jobs, requests, store
    hits); ``warm`` is :func:`repro.perf.warmcache.stats` after the run.
    ``ledger.trace_overhead_pct`` needs the untraced runs; ``run.py``
    adds it.
    """
    layers = totals["layers"]
    metrics: Dict[str, float] = {}
    for layer, entry in layers.items():
        metrics[f"{layer}.calls"] = entry["calls"]
        metrics[f"{layer}.self_s"] = entry["self_s"]
    steps = layers["sim.cluster.advance_to"]["calls"]
    solves = layers["perf.fairshare"]["calls"]
    actions = layers["cluster.scheduler.next_action"]
    metrics.update({
        "cluster.engine.steps_per_job": _ratio(steps, counts.get("jobs", 0)),
        "perf.fairshare.solves": solves,
        "perf.fairshare.solves_per_step": _ratio(solves, steps),
        "cluster.scheduler.action_ratio": _ratio(
            actions["useful"], actions["calls"]
        ),
        "cluster.faults.events": counts.get("fault_events", 0),
        "perf.warmcache.pipeline_hit_ratio": _ratio(
            warm["pipeline"]["hits"],
            warm["pipeline"]["hits"] + warm["pipeline"]["misses"],
        ),
        "perf.warmcache.kernel_hit_ratio": _ratio(
            warm["costmodel"]["hits"],
            warm["costmodel"]["hits"] + warm["costmodel"]["misses"],
        ),
        "service.store.memory_hit_ratio": _ratio(
            counts.get("memory_hits", 0), counts.get("store_gets", 0)
        ),
        "service.store.disk_hit_ratio": _ratio(
            counts.get("disk_hits", 0), counts.get("store_gets", 0)
        ),
        "api.spec.content_hash.calls_per_request": _ratio(
            layers["api.spec.content_hash"]["calls"],
            counts.get("requests", 0),
        ),
        "ledger.coverage": _ratio(totals["attributed_s"], wall_s),
    })
    return metrics
