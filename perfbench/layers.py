"""Outside-in layer timing: wrap each layer's public entry point.

The benchmark does not edit the program.  A :class:`LayerTracer` replaces a
module attribute or a class attribute with a wrapper that counts calls and
measures wall time, books the time under a layer name, and puts the
original object back on :meth:`LayerTracer.restore`.  Wrappers nest: a
wrapper's *self* time is its wall time minus the wall time of the wrappers
called inside it, so the self times of all layers plus the unwrapped rest
add up to the request wall time.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from perfbench.workloads import PAPER_ALGORITHMS

LayerName = Union[str, Callable[[tuple], str]]


@dataclass
class LayerStat:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    #: Calls whose return value satisfied the wrapper's ``hit`` predicate.
    hits: int = 0


class LayerTracer:
    """Timing wrappers around named attributes, removed by :meth:`restore`."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.stats: Dict[str, LayerStat] = {}
        #: Wall seconds spent inside outermost wrappers.
        self.top_level_s = 0.0
        self._stack: List[List[float]] = []
        self._patches: List[Tuple[Any, str, Any, bool]] = []

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: LayerName,
        hit: Optional[Callable[[Any], bool]] = None,
    ) -> None:
        """Book every call of ``owner.attr`` under ``name``.

        ``name`` is a layer name or a function of the call's positional
        arguments returning one (``self`` is ``args[0]`` for a method).
        ``hit`` is an optional predicate on the return value; calls that
        satisfy it are counted in :attr:`LayerStat.hits`.
        """
        owned = attr in vars(owner)
        raw = vars(owner)[attr] if owned else None
        original = getattr(owner, attr)
        stats, stack, clock = self.stats, self._stack, self.clock

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            key = name(args) if callable(name) else name
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                else:
                    self.top_level_s += elapsed
                stat = stats.get(key)
                if stat is None:
                    stat = stats[key] = LayerStat()
                stat.calls += 1
                stat.self_s += elapsed - frame[0]
                stat.total_s += elapsed
            if hit is not None and hit(result):
                stat.hits += 1
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, raw, owned))

    def restore(self) -> None:
        """Put back every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, raw, owned = self._patches.pop()
            if owned:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)

    def __enter__(self) -> "LayerTracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def stat(self, name: str) -> LayerStat:
        return self.stats.get(name, LayerStat())


def install_repro_layers(tracer: LayerTracer) -> None:
    """Wrap the public entry point of every in-process layer."""
    import networkx

    import repro.api.service as service_module
    import repro.core.isp as isp_module
    from repro.api.requests import DemandSpec
    from repro.api.service import RecoveryService
    from repro.flows.solver.backends import ScipyHighsBackend
    from repro.heuristics.base import RecoveryAlgorithm
    from repro.network.supply import SupplyGraph

    found = lambda result: result is not None  # noqa: E731
    tracer.wrap(RecoveryService, "build_instance", "api.materialise")
    tracer.wrap(DemandSpec, "build", "api.demand_build")
    tracer.wrap(RecoveryAlgorithm, "solve", lambda args: "alg." + args[0].name)
    # the names repro.core.isp looks up at call time, one per ISP phase
    tracer.wrap(isp_module, "routability_test", "core.routability")
    tracer.wrap(isp_module, "find_prunable_routing", "core.prune", hit=found)
    tracer.wrap(isp_module, "demand_based_centrality", "core.centrality")
    tracer.wrap(isp_module, "select_demand_to_split", "core.split_select", hit=found)
    tracer.wrap(isp_module, "maximum_splittable_amount", "core.split_amount")
    tracer.wrap(isp_module, "decompose_flows", "core.finalise")
    tracer.wrap(isp_module, "shortest_path_cover", "core.fallback")
    tracer.wrap(SupplyGraph, "working_graph", "network.working_graph")
    tracer.wrap(SupplyGraph, "full_graph", "network.full_graph")
    tracer.wrap(networkx, "maximum_flow", "flows.maxflow")
    tracer.wrap(ScipyHighsBackend, "solve_lp", "solver.lp")
    tracer.wrap(ScipyHighsBackend, "solve_milp", "solver.milp")
    tracer.wrap(service_module, "evaluate_plan", "evaluation.audit")


def layer_metrics(tracer: LayerTracer) -> Dict[str, float]:
    """The per-layer metrics measured by the wrappers themselves."""
    metrics: Dict[str, float] = {}

    def calls(name: str) -> None:
        metrics[f"{name}.calls"] = float(tracer.stat(name).calls)

    def seconds(name: str) -> None:
        metrics[f"{name}.s"] = tracer.stat(name).self_s

    def hit_ratio(name: str) -> None:
        stat = tracer.stat(name)
        metrics[f"{name}.hit_ratio"] = stat.hits / stat.calls if stat.calls else 0.0

    calls("api.materialise")
    seconds("api.materialise")
    seconds("api.demand_build")
    for algorithm in PAPER_ALGORITHMS:
        seconds(f"alg.{algorithm}")
    for name in ("core.routability", "core.prune", "core.centrality",
                 "core.split_select", "core.split_amount"):
        calls(name)
        seconds(name)
    hit_ratio("core.prune")
    hit_ratio("core.split_select")
    seconds("core.finalise")
    calls("core.fallback")
    for name in ("network.working_graph", "network.full_graph", "flows.maxflow",
                 "solver.lp", "solver.milp", "evaluation.audit"):
        calls(name)
        seconds(name)
    return metrics
