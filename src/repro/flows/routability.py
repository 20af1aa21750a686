"""The routability test of Section IV-A.

A demand graph ``H`` is *routable* over a (working) supply graph ``G`` when
the system of routability conditions (Eq. 2) — flow conservation for every
commodity plus the shared capacity constraints — admits a feasible solution.
ISP uses this test both as its termination condition and inside the GRD-NC
heuristic; the evaluation harness uses it to verify that a recovery plan
really supports the demand.

The test is implemented as an LP feasibility problem dispatched through the
solver substrate (:mod:`repro.flows.solver`): constraint matrices come from
the topology-structure cache and the solve goes to the backend.  It
always starts cold, because callers read its routing.  A small
objective (minimising the total routed flow) is used instead of a zero
objective so the returned routing contains no gratuitous cycles, which keeps
the derived per-edge loads meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Tuple

import networkx as nx
import numpy as np

from repro.flows.lp_backend import Commodity
from repro.flows.solver.backends import HIGHS, LinearProgram
from repro.flows.solver.incremental import build_flow_problem
from repro.flows.solver.tolerances import EPSILON
from repro.network.demand import DemandGraph

Node = Hashable
Edge = Tuple[Node, Node]


@dataclass
class RoutabilityResult:
    """Outcome of a routability test.

    Attributes
    ----------
    routable:
        ``True`` when the demand can be routed on the given graph.
    flows:
        Per-commodity directed arc flows of a feasible routing (only when
        ``routable`` and ``want_flows`` was requested).
    edge_loads:
        Aggregate per-edge load of that routing.
    commodities:
        The commodities the test was run for, in the same order as ``flows``.
    reason:
        Short human-readable explanation when the test fails.
    """

    routable: bool
    flows: List[Dict[Tuple[Node, Node], float]] = field(default_factory=list)
    edge_loads: Dict[Edge, float] = field(default_factory=dict)
    commodities: List[Commodity] = field(default_factory=list)
    reason: str = ""

    def __bool__(self) -> bool:
        return self.routable


def _commodities_from_demand(demand: DemandGraph) -> List[Commodity]:
    return [
        Commodity(source=pair.source, target=pair.target, demand=pair.demand)
        for pair in demand.pairs()
    ]


def routability_test(
    graph: nx.Graph,
    demand: DemandGraph,
    want_flows: bool = False,
) -> RoutabilityResult:
    """Check whether ``demand`` is routable over ``graph``.

    Parameters
    ----------
    graph:
        Working supply graph; edge attribute ``capacity`` gives the available
        capacity (typically the residual capacity).
    demand:
        Demand graph to route.  An empty demand is trivially routable.
    want_flows:
        When true, a feasible routing (per-commodity arc flows and per-edge
        loads) is returned alongside the verdict.

    Returns
    -------
    RoutabilityResult
    """
    commodities = _commodities_from_demand(demand)
    if not commodities:
        return RoutabilityResult(routable=True, commodities=[])

    # Connectivity first: a commodity with an endpoint off the graph, or
    # with no path at all, makes the LP infeasible.  Deciding those cases
    # before build_flow_problem costs one BFS per pair and leaves their
    # graphs out of the instance's structure cache (no signature, no build).
    missing = [
        (c.source, c.target) for c in commodities if c.source not in graph or c.target not in graph
    ]
    if missing:
        return RoutabilityResult(
            routable=False,
            commodities=commodities,
            reason=f"demand endpoints missing from the working graph: {missing}",
        )
    for commodity in commodities:
        if not nx.has_path(graph, commodity.source, commodity.target):
            return RoutabilityResult(
                routable=False,
                commodities=commodities,
                reason=(
                    f"no working path between {commodity.source!r} and {commodity.target!r}"
                ),
            )

    problem = build_flow_problem(graph, commodities)
    a_ub, b_ub = problem.capacity_matrix()
    a_eq, b_eq = problem.conservation_matrix()
    program = LinearProgram(
        # Minimise total flow: keeps the feasible routing cycle free.
        c=np.ones(problem.num_flow_variables),
        a_ub=a_ub,
        b_ub=b_ub,
        a_eq=a_eq,
        b_eq=b_eq,
        bounds=(0, None),
    )
    solution = HIGHS.solve_lp(program)

    if not solution.success:
        return RoutabilityResult(
            routable=False,
            commodities=commodities,
            reason=f"LP infeasible ({solution.message})",
        )

    outcome = RoutabilityResult(routable=True, commodities=commodities)
    if want_flows:
        outcome.flows = problem.flows_by_commodity(solution.x)
        outcome.edge_loads = problem.edge_loads(solution.x)
    return outcome


def is_routable(graph: nx.Graph, demand: DemandGraph) -> bool:
    """Boolean shortcut for :func:`routability_test`."""
    return routability_test(graph, demand).routable


def cut_condition_violated(graph: nx.Graph, demand: DemandGraph, cut_nodes: set) -> bool:
    """Check whether a specific cut violates the cut condition.

    The cut condition (Section IV-A) states that for every node subset ``U``
    the total supply capacity crossing the cut must be at least the total
    demand crossing it.  This helper evaluates a single candidate cut; it is
    a cheap *necessary* condition used by tests and by the surplus-based
    termination argument (Theorem 4) — it is **not** sufficient for
    routability in general graphs.
    """
    supply_crossing = sum(
        data.get("capacity", 0.0)
        for u, v, data in graph.edges(data=True)
        if (u in cut_nodes) != (v in cut_nodes)
    )
    demand_crossing = sum(
        pair.demand
        for pair in demand.pairs()
        if (pair.source in cut_nodes) != (pair.target in cut_nodes)
    )
    return demand_crossing > supply_crossing + EPSILON


def vertex_surplus(graph: nx.Graph, demand: DemandGraph, node: Node) -> float:
    """Surplus ``sigma({v})`` of a single vertex (Theorem 4).

    The surplus of a vertex set is the capacity of its supply cut minus the
    demand of its demand cut; ISP's split and prune actions can only decrease
    single-vertex surpluses, and routability keeps them non-negative.
    """
    capacity = sum(
        data.get("capacity", 0.0) for _, _, data in graph.edges(node, data=True)
    ) if node in graph else 0.0
    crossing_demand = sum(
        pair.demand for pair in demand.pairs() if (pair.source == node) != (pair.target == node)
    )
    return capacity - crossing_demand
