"""The multi-commodity relaxation of MinR (Section VI-A, Eq. 8).

Instead of paying a fixed cost per repaired element, the relaxation charges
flow traversing broken edges linearly and asks for a routing of all demand
that minimises that charge.  The relaxation is solvable in polynomial time,
but its optimal face is typically huge: optima range from solutions that
touch very few broken elements (close to OPT) to solutions that spread flow
over almost all of them (close to repairing everything).  The paper calls
those extremes **MCB** (multi-commodity best) and **MCW** (worst) and uses
them in Figure 3 to motivate why the relaxation alone is not a usable
recovery algorithm.

Finding the true MCB among the alternative optima is itself NP-hard, so — as
in the paper, which only plots the observed range — we report two
*representative* extremes:

* ``MCW`` — the plain relaxation solved with an interior-point method, which
  returns a point in the relative interior of the optimal face and therefore
  spreads flow across many broken elements;
* ``MCB`` — an iteratively reweighted (sparsifying) sequence of LPs that
  concentrates the same amount of flow onto as few broken elements as the
  reweighting heuristic can find.

Both respect capacity and route the entire demand; they differ only in which
alternative optimum they pick, which is exactly the phenomenon Figure 3
illustrates.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Hashable, List, Optional, Set, Tuple

import numpy as np

from repro.flows.decomposition import decompose_flows
from repro.flows.lp_backend import Commodity, FlowProblem
from repro.flows.solver.backends import HIGHS, LinearProgram, LPSolution
from repro.flows.solver.incremental import build_flow_problem
from repro.flows.solver.tolerances import USAGE_THRESHOLD
from repro.network.demand import DemandGraph
from repro.network.plan import RecoveryPlan
from repro.network.supply import SupplyGraph, canonical_edge

Node = Hashable
Edge = Tuple[Node, Node]

#: Number of reweighting rounds used to sparsify the MCB solution.
REWEIGHTING_ROUNDS = 4


@dataclass
class MultiCommodityResult:
    """MCB / MCW recovery plans extracted from the relaxation's optimal face."""

    best: RecoveryPlan
    worst: RecoveryPlan
    objective: Optional[float] = None
    feasible: bool = True


def _broken_edge_costs(supply: SupplyGraph, problem: FlowProblem) -> np.ndarray:
    """Objective of Eq. 8: repair cost per unit of flow on broken edges."""
    costs = np.zeros(problem.num_flow_variables)
    for commodity_index in range(problem.num_commodities):
        for u, v in problem.edges:
            if supply.is_broken_edge(u, v):
                cost = supply.edge_repair_cost(u, v)
                costs[problem.flow_index(commodity_index, u, v)] = cost
                costs[problem.flow_index(commodity_index, v, u)] = cost
    return costs


def _solve(
    problem: FlowProblem,
    objective: np.ndarray,
    method_hint: str = "auto",
) -> LPSolution:
    a_ub, b_ub = problem.capacity_matrix()
    a_eq, b_eq = problem.conservation_matrix()
    program = LinearProgram(
        c=objective,
        a_ub=a_ub,
        b_ub=b_ub,
        a_eq=a_eq,
        b_eq=b_eq,
        bounds=(0, None),
        method_hint=method_hint,
    )
    return HIGHS.solve_lp(program)


def _plan_from_solution(
    supply: SupplyGraph,
    problem: FlowProblem,
    solution: np.ndarray,
    algorithm: str,
    elapsed: float,
) -> RecoveryPlan:
    """Derive repaired elements and routes from an LP flow solution."""
    plan = RecoveryPlan(algorithm=algorithm)
    plan.elapsed_seconds = elapsed
    loads = problem.edge_loads(solution)

    used_nodes: Set[Node] = set()
    for (u, v), load in loads.items():
        if load <= USAGE_THRESHOLD:
            continue
        used_nodes.add(u)
        used_nodes.add(v)
        if supply.is_broken_edge(u, v):
            plan.add_edge_repair(u, v)
    for commodity in problem.commodities:
        used_nodes.add(commodity.source)
        used_nodes.add(commodity.target)
    for node in used_nodes:
        if supply.is_broken_node(node):
            plan.add_node_repair(node)

    flows = problem.flows_by_commodity(solution)
    for commodity, arc_flows in zip(problem.commodities, flows):
        for path, flow in decompose_flows(arc_flows, commodity.source, commodity.target):
            plan.add_route((commodity.source, commodity.target), path, flow)
    return plan


def solve_multicommodity_recovery(
    supply: SupplyGraph,
    demand: DemandGraph,
    reweighting_rounds: int = REWEIGHTING_ROUNDS,
) -> MultiCommodityResult:
    """Solve the multi-commodity relaxation and extract the MCB / MCW plans.

    Returns an infeasible result (empty plans, ``feasible=False``) when the
    demand cannot be routed even with every broken element repaired.
    """
    commodities = [
        Commodity(source=p.source, target=p.target, demand=p.demand) for p in demand.pairs()
    ]
    if not commodities:
        empty_best = RecoveryPlan(algorithm="MCB")
        empty_worst = RecoveryPlan(algorithm="MCW")
        return MultiCommodityResult(best=empty_best, worst=empty_worst, objective=0.0)

    graph = supply.full_graph(use_residual=False)
    problem = build_flow_problem(graph, commodities)
    base_objective = _broken_edge_costs(supply, problem)

    # MCW: interior-point solution of the plain relaxation (spreads flow).
    started = time.perf_counter()
    worst_result = _solve(problem, base_objective, method_hint="interior-point")
    worst_elapsed = time.perf_counter() - started
    if not worst_result.success:
        infeasible = RecoveryPlan(algorithm="MCB", metadata={"status": "infeasible"})
        infeasible_w = RecoveryPlan(algorithm="MCW", metadata={"status": "infeasible"})
        return MultiCommodityResult(
            best=infeasible, worst=infeasible_w, objective=None, feasible=False
        )
    worst_plan = _plan_from_solution(
        supply, problem, worst_result.x, algorithm="MCW", elapsed=worst_elapsed
    )

    # MCB: iteratively reweighted LP that concentrates flow on few broken
    # edges.  Each round's flows are read, and a basis could change which
    # optimal vertex comes back, so every round starts cold.
    started = time.perf_counter()
    best_solution = worst_result.x
    weights = base_objective.copy()
    for _ in range(max(1, reweighting_rounds)):
        loads = problem.edge_loads(best_solution)
        weights = base_objective.copy()
        for edge_index, (u, v) in enumerate(problem.edges):
            if not supply.is_broken_edge(u, v):
                continue
            load = loads.get(canonical_edge(u, v), 0.0)
            # Broken edges already carrying flow become cheap, unused
            # broken edges stay expensive: flow concentrates.
            scale = 1.0 / (load + 0.1)
            for commodity_index in range(problem.num_commodities):
                for a, b in ((u, v), (v, u)):
                    column = problem.flow_index(commodity_index, a, b)
                    weights[column] = base_objective[column] * scale
        refined = _solve(problem, weights)
        if refined.success:
            best_solution = refined.x
    best_elapsed = time.perf_counter() - started
    best_plan = _plan_from_solution(
        supply, problem, best_solution, algorithm="MCB", elapsed=best_elapsed
    )

    return MultiCommodityResult(
        best=best_plan,
        worst=worst_plan,
        objective=float(worst_result.objective),
        feasible=True,
    )
