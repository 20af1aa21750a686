"""The split-amount LP of ISP's Decision (2) (Section IV-C).

Once ISP has picked the most central node ``v_BC`` and the demand pair
``(s_h, t_h)`` to split, it must decide *how much* of the demand can be
forced through ``v_BC`` without making the remaining instance unroutable.
The paper defines this amount ``dx`` as the optimum of an LP: maximise
``dx <= d_h`` subject to the routability conditions (Eq. 2) of the instance
obtained by replacing ``d_h`` with ``d_h - dx`` and adding the two derived
demands ``(s_h, v_BC)`` and ``(v_BC, t_h)`` of value ``dx``.

This module implements exactly that LP on top of the solver substrate: the
multi-commodity constraint blocks come from the topology-structure cache
(the split LP runs on the *same* full supply graph every ISP iteration, so
after the first build only the RHS vectors and the one extra ``dx`` column
are assembled) and the solve is dispatched to the backend.  The LP's
only output is its optimum ``dx``, so within one ISP run each split LP may
start from the HiGHS basis of the previous split LP of the same shape.
"""

from __future__ import annotations

from typing import Hashable, Optional, Tuple

import networkx as nx
import numpy as np
from scipy import sparse

from repro.flows.lp_backend import Commodity
from repro.flows.solver.backends import HIGHS, LinearProgram
from repro.flows.solver.incremental import SolverContext, build_flow_problem
from repro.flows.solver.tolerances import SPLIT_EPSILON
from repro.network.demand import DemandGraph

Node = Hashable


def maximum_splittable_amount(
    graph: nx.Graph,
    demand: DemandGraph,
    pair: Tuple[Node, Node],
    via: Node,
    context: Optional[SolverContext] = None,
) -> float:
    """Maximum amount ``dx`` of ``pair``'s demand splittable through ``via``.

    Parameters
    ----------
    graph:
        The current working supply graph ``G^(n)`` (residual capacities on
        the ``capacity`` edge attribute), *including* the elements already
        listed for repair by ISP.
    demand:
        The current demand graph ``H^(n)``.
    pair:
        Endpoints ``(s_h, t_h)`` of the demand being split.
    via:
        The split node ``v_BC``; must be present in ``graph`` and different
        from both endpoints.
    context:
        Optional basis store of the calling ISP run: the LP starts from the
        previous split basis of the same shape and leaves its own.

    Returns
    -------
    float
        The optimal ``dx`` (possibly 0 when nothing can be split, e.g. when
        the current instance is not routable or ``via`` is unreachable).
    """
    source, target = pair
    original = demand.demand(source, target)
    if original <= 0:
        return 0.0
    if via in (source, target):
        raise ValueError("the split node must differ from the demand endpoints")
    if via not in graph or source not in graph or target not in graph:
        return 0.0

    commodities = []
    split_index = None
    for index, d in enumerate(demand.pairs()):
        commodities.append(Commodity(source=d.source, target=d.target, demand=d.demand))
        if d.pair == tuple(sorted((source, target), key=repr)):
            split_index = index
            # Record the orientation used in the LP rows.
            source, target = d.source, d.target
    if split_index is None:
        raise KeyError(f"no demand between {source!r} and {target!r}")

    # Two derived commodities with zero base demand; dx shifts flow onto them.
    first_leg = len(commodities)
    commodities.append(Commodity(source=source, target=via, demand=0.0))
    second_leg = len(commodities)
    commodities.append(Commodity(source=via, target=target, demand=0.0))

    problem = build_flow_problem(graph, commodities)
    if problem.infeasible_commodities:
        return 0.0

    num_flow = problem.num_flow_variables
    num_vars = num_flow + 1  # flows + dx
    dx_column = num_flow

    a_ub, b_ub = problem.capacity_matrix()
    a_ub = sparse.hstack([a_ub, sparse.csr_matrix((a_ub.shape[0], 1))]).tocsr()

    a_eq, b_eq = problem.conservation_matrix()
    # One extra sparse column carrying dx's coefficients in the conservation
    # rows of the three affected commodities (cheaper than densifying a_eq).
    num_nodes = len(problem.nodes)
    node_row = {node: i for i, node in enumerate(problem.nodes)}

    def row_of(commodity_index: int, node: Node) -> int:
        return commodity_index * num_nodes + node_row[node]

    dx_rows = [
        # Original pair: net outflow at source must equal d_h - dx => +dx on LHS.
        (row_of(split_index, source), 1.0),
        (row_of(split_index, target), -1.0),
        # First leg (source -> via): net outflow at source must equal dx.
        (row_of(first_leg, source), -1.0),
        (row_of(first_leg, via), 1.0),
        # Second leg (via -> target): net outflow at via must equal dx.
        (row_of(second_leg, via), -1.0),
        (row_of(second_leg, target), 1.0),
    ]
    dx_column_matrix = sparse.csr_matrix(
        (
            [value for _, value in dx_rows],
            ([row for row, _ in dx_rows], [0] * len(dx_rows)),
        ),
        shape=(a_eq.shape[0], 1),
    )
    a_eq = sparse.hstack([a_eq, dx_column_matrix]).tocsr()

    objective = np.zeros(num_vars)
    objective[dx_column] = -1.0  # maximise dx

    bounds = np.column_stack([np.zeros(num_vars), np.full(num_vars, np.inf)])
    bounds[dx_column, 1] = original

    program = LinearProgram(
        c=objective, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq, bounds=bounds
    )
    basis = context.basis_for(problem) if context is not None else None
    solution = HIGHS.solve_lp(program, basis=basis)
    if not solution.success:
        return 0.0
    if context is not None:
        context.remember(problem, solution.basis)
    dx = float(solution.x[dx_column])
    return dx if dx > SPLIT_EPSILON else 0.0
