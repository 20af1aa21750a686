"""Maximum satisfiable demand over a (partially) recovered network.

The paper's Figures 4(d), 5(b), 6(b) and 9(b) report the *percentage of
satisfied demand* achieved by each heuristic: after the heuristic has chosen
which elements to repair, how much of the original demand can actually be
routed on the resulting network?  Heuristics such as SRT and GRD-COM may
repair too little (or make conflicting routing commitments), so this value
can be below 100%.

This module computes that number exactly with a concurrent-flow LP solved
through the solver substrate: every commodity ``h`` gets an auxiliary
variable ``y_h in [0, d_h]`` for the amount actually delivered, flow
conservation uses ``y_h`` as the supply/consumption at the endpoints, and
the objective maximises ``sum_h y_h`` subject to the shared capacity
constraints.  The flow blocks come from the topology-structure cache; only
the ``y`` columns are instance-specific.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Tuple

import networkx as nx
import numpy as np
from scipy import sparse

from repro.flows.lp_backend import Commodity
from repro.flows.solver.backends import HIGHS, LinearProgram
from repro.flows.solver.incremental import build_flow_problem
from repro.network.demand import DemandGraph

Node = Hashable
Pair = Tuple[Node, Node]


@dataclass
class SatisfactionResult:
    """How much of each demand can be routed on a given working graph."""

    satisfied: Dict[Pair, float] = field(default_factory=dict)
    total_satisfied: float = 0.0
    total_demand: float = 0.0

    @property
    def fraction(self) -> float:
        """Fraction of the total demand that can be satisfied (1.0 when empty)."""
        if self.total_demand <= 0:
            return 1.0
        return self.total_satisfied / self.total_demand


def max_satisfiable_flow(
    graph: nx.Graph,
    demand: DemandGraph,
) -> SatisfactionResult:
    """Maximum simultaneously routable portion of ``demand`` over ``graph``.

    Parameters
    ----------
    graph:
        Working graph (typically the recovered network) whose edges carry a
        ``capacity`` attribute.
    demand:
        The original demand graph.

    Returns
    -------
    SatisfactionResult
        Per-pair satisfied amounts, their sum, and the total requested demand.
    """
    pairs = demand.pairs()
    result = SatisfactionResult(total_demand=demand.total_demand)
    if not pairs:
        return result

    # Commodities whose endpoints are not even present in the graph can never
    # receive flow; exclude them from the LP but keep them in the report.
    commodities: List[Commodity] = []
    reachable_pairs: List[Pair] = []
    for pair in pairs:
        result.satisfied[pair.pair] = 0.0
        if pair.source in graph and pair.target in graph and nx.has_path(
            graph, pair.source, pair.target
        ):
            commodities.append(
                Commodity(source=pair.source, target=pair.target, demand=pair.demand)
            )
            reachable_pairs.append(pair.pair)
    if not commodities:
        return result

    problem = build_flow_problem(graph, commodities)
    num_flow = problem.num_flow_variables
    num_commodities = len(commodities)
    num_vars = num_flow + num_commodities
    y_column = {index: num_flow + index for index in range(num_commodities)}

    a_ub, b_ub = problem.capacity_matrix()
    a_ub = sparse.hstack([a_ub, sparse.csr_matrix((a_ub.shape[0], num_commodities))]).tocsr()

    # Conservation with the delivered amount as a variable:
    #   sum_j f_ij - sum_k f_ki - y_h * [i == source] + y_h * [i == target] = 0
    a_eq, _ = problem.conservation_matrix()
    num_nodes = len(problem.nodes)
    node_row = {node: i for i, node in enumerate(problem.nodes)}
    rows: List[int] = []
    cols: List[int] = []
    data: List[float] = []
    for index, commodity in enumerate(commodities):
        rows.append(index * num_nodes + node_row[commodity.source])
        cols.append(index)
        data.append(-1.0)
        rows.append(index * num_nodes + node_row[commodity.target])
        cols.append(index)
        data.append(1.0)
    y_block = sparse.csr_matrix(
        (data, (rows, cols)), shape=(a_eq.shape[0], num_commodities)
    )
    a_eq = sparse.hstack([a_eq, y_block]).tocsr()
    b_eq = np.zeros(a_eq.shape[0])

    objective = np.zeros(num_vars)
    for index in range(num_commodities):
        objective[y_column[index]] = -1.0  # maximise total delivered demand

    bounds = np.column_stack([np.zeros(num_vars), np.full(num_vars, np.inf)])
    bounds[num_flow:, 1] = [commodity.demand for commodity in commodities]

    program = LinearProgram(
        c=objective, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq, bounds=bounds
    )
    solution = HIGHS.solve_lp(program)
    if not solution.success:
        return result

    for index, pair_key in enumerate(reachable_pairs):
        delivered = float(solution.x[y_column[index]])
        result.satisfied[pair_key] = max(0.0, delivered)
    result.total_satisfied = sum(result.satisfied.values())
    return result
