"""Knapsack-style greedy heuristics GRD-COM and GRD-NC (Section VI-C).

Both heuristics view every candidate path between a demand pair as a
knapsack object whose *weight* is ``repair cost of the path / path capacity``
and repair paths in ascending order of that weight:

* **GRD-COM** (greedy with commitment) assigns demand to each repaired path
  immediately, updating residual capacities and residual demand, and after
  each repair opportunistically routes any other demand that the repaired
  subgraph can now carry.  The routing commitments can turn out to be wrong,
  so GRD-COM may lose demand.
* **GRD-NC** (greedy, no commitment) makes no routing decisions: after each
  repaired path it re-runs the LP routability test of the full demand on the
  repaired network and stops as soon as the demand becomes routable.  It
  repairs more than GRD-COM but never loses demand (provided the undamaged
  network could route it).  The repairs are listed on a
  :class:`~repro.network.index.GraphIndex`, and the test runs only once they
  join every demand pair: before that, the test would answer "not
  routable" without its LP.

The paper enumerates *all* simple paths between every demand pair offline,
which is exponential; we bound the enumeration to the
``max_paths_per_pair`` shortest simple paths (documented substitution — the
low-weight paths the greedy order favours are found first anyway), in
:func:`networkx.shortest_simple_paths` order, from the index's simple-path
kernel.  Inside an instance scope
(:func:`repro.flows.solver.incremental.instance_scope`, opened by the
request runner) both heuristics read one enumeration.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import islice
from typing import Dict, Hashable, List, Optional, Tuple

import networkx as nx

from repro.flows.decomposition import decompose_flows
from repro.flows.routability import routability_test
from repro.flows.solver.incremental import current_scope
from repro.flows.solver.tolerances import EPSILON
from repro.network.demand import DemandGraph
from repro.network.index import GraphIndex
from repro.network.paths import path_broken_elements, path_edges, path_repair_cost
from repro.network.plan import RecoveryPlan
from repro.network.supply import SupplyGraph, canonical_edge

Node = Hashable
Pair = Tuple[Node, Node]
Path = Tuple[Node, ...]

#: Default cap on the number of candidate paths enumerated per demand pair.
MAX_PATHS_PER_PAIR = 60


@dataclass(frozen=True)
class CandidatePath:
    """A knapsack object: a path serving ``pair`` with a repair-cost weight."""

    pair: Pair
    path: Path
    weight: float
    capacity: float
    cost: float


def enumerate_candidate_paths(
    supply: SupplyGraph,
    demand: DemandGraph,
    max_paths_per_pair: int = MAX_PATHS_PER_PAIR,
) -> List[CandidatePath]:
    """Enumerate candidate paths for all demand pairs, sorted by weight.

    The weight of a path is ``cost(p) / capacity(p)`` where ``cost`` is the
    total repair cost of its broken elements (a free working path has weight
    0) and ``capacity`` its bottleneck capacity.  Inside an instance
    scope, a repeated call on the same instance returns the list the first
    call enumerated.
    """
    scope = current_scope()
    kept = scope.candidates if scope is not None else {}
    key = (id(supply), id(demand), max_paths_per_pair)
    if key in kept:
        return list(kept[key][2])
    index = GraphIndex(supply)
    capacities = index.capacity.tolist()
    candidates: List[CandidatePath] = []
    for pair in demand.pairs():
        if not index.connected(pair.source, pair.target):
            continue
        paths = index.simple_paths(pair.source, pair.target)
        for path in islice(paths, max(max_paths_per_pair, 0)):
            capacity = min(
                (capacities[index.edge_of(u, v)] for u, v in path_edges(path)),
                default=float("inf"),
            )
            if capacity <= EPSILON:
                continue
            cost = path_repair_cost(supply, path)
            candidates.append(
                CandidatePath(
                    pair=pair.pair,
                    path=path,
                    weight=cost / capacity,
                    capacity=capacity,
                    cost=cost,
                )
            )
    candidates.sort(key=lambda c: (c.weight, len(c.path), repr(c.path)))
    kept[key] = (supply, demand, candidates)
    return list(candidates)


def _repair_path(
    supply: SupplyGraph, plan: RecoveryPlan, path: Path, index: Optional[GraphIndex] = None
) -> None:
    """List every broken element of ``path`` for repair (also on ``index``)."""
    nodes, edges = path_broken_elements(supply, path)
    for node in nodes:
        plan.add_node_repair(node)
        if index is not None:
            index.list_node(node)
    for u, v in edges:
        plan.add_edge_repair(u, v)
        if index is not None:
            index.list_edge(u, v)


def _demand_joined(index: GraphIndex, demand: DemandGraph) -> bool:
    """Whether every demand pair has working endpoints joined by working
    edges on ``index``; when not, :func:`routability_test` answers "not
    routable" before its LP."""
    return all(index.working_path(pair.source, pair.target) for pair in demand.pairs())


def greedy_commitment(
    supply: SupplyGraph,
    demand: DemandGraph,
    max_paths_per_pair: int = MAX_PATHS_PER_PAIR,
) -> RecoveryPlan:
    """Run GRD-COM: greedy path repair with immediate routing commitment."""
    plan = RecoveryPlan(algorithm="GRD-COM")
    started = time.perf_counter()
    candidates = enumerate_candidate_paths(supply, demand, max_paths_per_pair)
    residual_demand = demand.copy()
    # Residual capacity per edge, shared by all routing commitments.
    residual_capacity: Dict[Tuple[Node, Node], float] = {
        canonical_edge(u, v): supply.capacity(u, v) for u, v in supply.edges
    }

    def usable(u: Node, v: Node) -> bool:
        """An edge is usable when working or already listed for repair."""
        if supply.is_broken_node(u) and u not in plan.repaired_nodes:
            return False
        if supply.is_broken_node(v) and v not in plan.repaired_nodes:
            return False
        if supply.is_broken_edge(u, v) and canonical_edge(u, v) not in plan.repaired_edges:
            return False
        return True

    def working_residual_graph() -> nx.Graph:
        graph = nx.Graph()
        for node in supply.nodes:
            if not supply.is_broken_node(node) or node in plan.repaired_nodes:
                graph.add_node(node)
        for u, v in supply.edges:
            if usable(u, v) and u in graph and v in graph:
                graph.add_edge(u, v, capacity=residual_capacity[canonical_edge(u, v)])
        return graph

    def assign(pair: Pair, path: Path, amount: float) -> None:
        plan.add_route(pair, path, amount)
        residual_demand.reduce(pair[0], pair[1], amount)
        for u, v in path_edges(list(path)):
            residual_capacity[canonical_edge(u, v)] -= amount

    def route_opportunistically() -> None:
        """Route any other demand the repaired subgraph can now carry."""
        graph = working_residual_graph()
        for other in residual_demand.pairs():
            if other.source not in graph or other.target not in graph:
                continue
            if not nx.has_path(graph, other.source, other.target):
                continue
            flow_value, flow_dict = nx.maximum_flow(
                graph, other.source, other.target, capacity="capacity"
            )
            deliverable = min(flow_value, other.demand)
            if deliverable <= EPSILON:
                continue
            arc_flows: Dict[Tuple[Node, Node], float] = {}
            for u, neighbours in flow_dict.items():
                for v, value in neighbours.items():
                    if value > EPSILON:
                        arc_flows[(u, v)] = arc_flows.get((u, v), 0.0) + value
            remaining = deliverable
            for path, flow in decompose_flows(arc_flows, other.source, other.target):
                if remaining <= EPSILON:
                    break
                used = min(flow, remaining)
                assign(other.pair, path, used)
                remaining -= used
            graph = working_residual_graph()

    for candidate in candidates:
        if residual_demand.is_empty:
            break
        source, target = candidate.pair
        pending = residual_demand.demand(source, target)
        if pending <= EPSILON:
            continue
        _repair_path(supply, plan, candidate.path)
        available = min(
            residual_capacity[canonical_edge(u, v)]
            for u, v in path_edges(list(candidate.path))
        )
        amount = min(pending, available)
        if amount > EPSILON:
            assign(candidate.pair, candidate.path, amount)
        route_opportunistically()

    plan.metadata["unsatisfied_pairs"] = len(residual_demand)
    plan.metadata["candidate_paths"] = len(candidates)
    plan.elapsed_seconds = time.perf_counter() - started
    return plan


def greedy_no_commitment(
    supply: SupplyGraph,
    demand: DemandGraph,
    max_paths_per_pair: int = MAX_PATHS_PER_PAIR,
) -> RecoveryPlan:
    """Run GRD-NC: greedy path repair driven by the routability test."""
    plan = RecoveryPlan(algorithm="GRD-NC")
    # No basis store here: every repaired path changes the working graph's
    # topology, so a remembered basis would never fit the next LP (unlike
    # ISP's split LP, which runs on the same full graph every iteration).
    started = time.perf_counter()
    candidates = enumerate_candidate_paths(supply, demand, max_paths_per_pair)
    index = GraphIndex(supply)

    def repaired_routable() -> bool:
        if not _demand_joined(index, demand):
            return False
        graph = supply.working_graph(
            extra_nodes=plan.repaired_nodes,
            extra_edges=plan.repaired_edges,
            use_residual=False,
        )
        return routability_test(graph, demand).routable

    routable = repaired_routable()
    used_paths = 0
    for candidate in candidates:
        if routable:
            break
        _repair_path(supply, plan, candidate.path, index)
        used_paths += 1
        routable = repaired_routable()

    plan.metadata["routable"] = routable
    plan.metadata["paths_repaired"] = used_paths
    plan.metadata["candidate_paths"] = len(candidates)
    plan.elapsed_seconds = time.perf_counter() - started
    return plan
