"""The exact MinR mixed-integer linear program (Eq. 1) — the paper's OPT.

The MILP selects which broken nodes and edges to repair at minimum cost so
that all demand flows can be routed simultaneously:

* continuous variables ``f^h_{ij}`` — directed flow per commodity and arc;
* binary variables ``delta_ij`` (edge used) and ``delta_i`` (node used);
* objective 1(a): cost of the *broken* elements that are used;
* constraint 1(b): flow through an edge only up to ``c_ij * delta_ij``;
* constraint 1(c): using any edge incident to a node forces the node on
  (``delta_i * eta_max >= sum_j delta_ij``);
* constraint 1(d): flow conservation.

The paper solves this model with Gurobi; we dispatch the model through the
solver substrate (the HiGHS branch-and-cut that scipy ships), which is also
exact.  A time limit can be
passed for the scalability experiments, in which case the best incumbent is
returned together with its optimality gap.

Two accelerations sit on top of the plain model (see ``docs/solver.md``):

* **Incumbent seeds** — a feasible solution built from a heuristic plan
  (repair vector + routed flows) gives the decomposition attack a proven
  upper bound, and its fallback answer.  It is not handed to HiGHS as a
  MIP start: that changed the returned solutions and was slower (see
  ``docs/solver.md``).
* **Decomposition first** — ``solve_minimum_recovery`` runs
  :func:`repro.flows.decomposition.solve_decomposed` (a strengthened
  relaxation bound, a bound certificate for the incumbent, then the
  tightened MILP) and falls back to :func:`solve_monolithic`, the plain
  Eq. 1 model, whenever the attack declines.  ``solve_monolithic`` is
  byte-for-byte the pre-acceleration model, and the exact reference the
  differential suites and the OPT speed bench compare against.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

from repro.flows.decomposition import decompose_flows, solve_decomposed
from repro.flows.lp_backend import Commodity
from repro.flows.routability import routability_test
from repro.flows.solver.backends import HIGHS, MILProgram
from repro.flows.solver.incremental import build_flow_problem
from repro.flows.solver.tolerances import BINARY_THRESHOLD, FLOW_THRESHOLD
from repro.network.demand import DemandGraph
from repro.network.plan import RecoveryPlan
from repro.network.supply import SupplyGraph, canonical_edge
from repro.obs.trace import count

Node = Hashable
Edge = Tuple[Node, Node]

@dataclass
class MinRSolution:
    """Raw outcome of the MinR MILP."""

    status: str
    objective: Optional[float] = None
    repaired_nodes: set = field(default_factory=set)
    repaired_edges: set = field(default_factory=set)
    flows: List[Dict[Tuple[Node, Node], float]] = field(default_factory=list)
    commodities: List[Commodity] = field(default_factory=list)
    mip_gap: Optional[float] = None
    elapsed_seconds: float = 0.0
    #: Best proven lower (dual) bound on the optimum; equals ``objective``
    #: when ``status == "optimal"``.
    bound: Optional[float] = None
    #: Which solve path produced the solution (``monolithic``/``decomposed``).
    strategy: str = "monolithic"
    #: Whether a heuristic incumbent seeded the solve.
    seeded: bool = False

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"

    @property
    def feasible(self) -> bool:
        return self.status in ("optimal", "feasible")


@dataclass
class MinRModel:
    """The built Eq. 1 model plus the indexing every attack needs."""

    supply: SupplyGraph
    demand: DemandGraph
    commodities: List[Commodity]
    problem: object  #: the IncrementalFlowProblem over the full graph
    edges: List[Edge]
    nodes: List[Node]
    num_flow: int
    num_edges: int
    num_nodes: int
    num_vars: int
    edge_column: Dict[Edge, int]
    node_column: Dict[Node, int]
    objective: np.ndarray
    constraints: List[Tuple[sparse.spmatrix, np.ndarray, np.ndarray]]
    integrality: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    capacity_rhs: np.ndarray


@dataclass
class IncumbentStart:
    """A verified feasible start for the MILP, built from a heuristic plan."""

    x: np.ndarray  #: full variable vector (flows + deltas)
    cost: float  #: repair cost of the start — a proven upper bound
    repaired_nodes: set
    repaired_edges: set
    flows: List[Dict[Tuple[Node, Node], float]]


def build_minr_model(
    supply: SupplyGraph,
    demand: DemandGraph,
    commodities: Optional[Sequence[Commodity]] = None,
) -> MinRModel:
    """Build the Eq. 1 constraint system once, for any solve path."""
    if commodities is None:
        commodities = [
            Commodity(source=p.source, target=p.target, demand=p.demand)
            for p in demand.pairs()
        ]
    commodities = list(commodities)
    graph = supply.full_graph(use_residual=False)
    problem = build_flow_problem(graph, commodities)

    edges = problem.edges
    nodes = problem.nodes
    num_flow = problem.num_flow_variables
    num_edges = len(edges)
    num_nodes = len(nodes)
    num_vars = num_flow + num_edges + num_nodes

    edge_column = {edge: num_flow + i for i, edge in enumerate(edges)}
    node_column = {node: num_flow + num_edges + i for i, node in enumerate(nodes)}

    # Objective 1(a): repair cost of used broken elements.
    objective = np.zeros(num_vars)
    for edge in edges:
        if supply.is_broken_edge(*edge):
            objective[edge_column[edge]] = supply.edge_repair_cost(*edge)
    for node in nodes:
        if supply.is_broken_node(node):
            objective[node_column[node]] = supply.node_repair_cost(node)

    constraints: List[Tuple[sparse.spmatrix, np.ndarray, np.ndarray]] = []

    # Constraint 1(b): sum_h (f_ij + f_ji) - c_ij * delta_ij <= 0.
    cap_matrix, cap_rhs = problem.capacity_matrix()
    cap_block = sparse.lil_matrix((num_edges, num_vars))
    cap_block[:, :num_flow] = cap_matrix
    for row, edge in enumerate(edges):
        cap_block[row, edge_column[edge]] = -cap_rhs[row]
    constraints.append(
        (cap_block.tocsr(), np.full(num_edges, -np.inf), np.zeros(num_edges))
    )

    # Constraint 1(c): sum_j delta_ij - eta_max * delta_i <= 0.
    eta_max = max(supply.max_degree, 1)
    deg_delta = sparse.lil_matrix((num_nodes, num_edges + num_nodes))
    for row, node in enumerate(nodes):
        for neighbor in graph.neighbors(node):
            deg_delta[row, edge_column[canonical_edge(node, neighbor)] - num_flow] = 1.0
        deg_delta[row, node_column[node] - num_flow] = -float(eta_max)
    deg_full = sparse.hstack(
        [sparse.csr_matrix((num_nodes, num_flow)), deg_delta.tocsr()]
    ).tocsr()
    constraints.append(
        (deg_full, np.full(num_nodes, -np.inf), np.zeros(num_nodes))
    )

    # Constraint 1(d): flow conservation.
    eq_matrix, eq_rhs = problem.conservation_matrix()
    eq_block = sparse.hstack(
        [eq_matrix, sparse.csr_matrix((eq_matrix.shape[0], num_edges + num_nodes))]
    ).tocsr()
    constraints.append((eq_block, eq_rhs, eq_rhs))

    integrality = np.zeros(num_vars)
    integrality[num_flow:] = 1  # delta variables are binary

    lower = np.zeros(num_vars)
    upper = np.full(num_vars, np.inf)
    upper[num_flow:] = 1.0

    return MinRModel(
        supply=supply,
        demand=demand,
        commodities=commodities,
        problem=problem,
        edges=edges,
        nodes=nodes,
        num_flow=num_flow,
        num_edges=num_edges,
        num_nodes=num_nodes,
        num_vars=num_vars,
        edge_column=edge_column,
        node_column=node_column,
        objective=objective,
        constraints=constraints,
        integrality=integrality,
        lower=lower,
        upper=upper,
        capacity_rhs=np.asarray(cap_rhs, dtype=float),
    )


def build_incumbent(
    model: MinRModel,
    plan: RecoveryPlan,
) -> Optional[IncumbentStart]:
    """Turn a heuristic plan into a *verified* feasible MILP start.

    The plan's repairs (intersected with the damage — repairing a working
    element is a no-op) are applied to the supply graph and the full demand
    is re-routed with one routability LP.  Only a plan that routes every
    demand yields an incumbent; the returned vector satisfies Eq. 1 exactly:
    deltas are 1 on every usable element, flows are the LP routing, and the
    objective equals the plan's repair cost on broken elements.
    """
    supply = model.supply
    repaired_nodes = {
        node for node in plan.repaired_nodes if supply.is_broken_node(node)
    }
    repaired_edges = {
        canonical_edge(*edge)
        for edge in plan.repaired_edges
        if supply.is_broken_edge(*edge)
    }
    graph = supply.working_graph(
        extra_nodes=repaired_nodes, extra_edges=repaired_edges, use_residual=False
    )
    verdict = routability_test(graph, model.demand, want_flows=True)
    if not verdict.routable:
        return None

    structure = model.problem.structure
    num_arcs = structure.num_arcs
    x = np.zeros(model.num_vars)
    for h, arc_flows in enumerate(verdict.flows):
        base = h * num_arcs
        for arc, value in arc_flows.items():
            column = structure.arc_index.get(arc)
            if column is not None:
                x[base + column] = value
    usable_nodes = {
        node
        for node in model.nodes
        if not supply.is_broken_node(node) or node in repaired_nodes
    }
    for node, column in model.node_column.items():
        if node in usable_nodes:
            x[column] = 1.0
    for edge, column in model.edge_column.items():
        u, v = edge
        if u not in usable_nodes or v not in usable_nodes:
            continue
        if supply.is_broken_edge(u, v) and edge not in repaired_edges:
            continue
        x[column] = 1.0
    cost = supply.repair_cost_of(repaired_nodes, repaired_edges)
    return IncumbentStart(
        x=x,
        cost=float(cost),
        repaired_nodes=repaired_nodes,
        repaired_edges=repaired_edges,
        flows=verdict.flows,
    )


def incumbent_solution(
    model: MinRModel, incumbent: IncumbentStart, bound: Optional[float] = None
) -> MinRSolution:
    """A proven-optimal :class:`MinRSolution` taken directly from the incumbent."""
    return MinRSolution(
        status="optimal",
        objective=incumbent.cost,
        repaired_nodes=set(incumbent.repaired_nodes),
        repaired_edges=set(incumbent.repaired_edges),
        flows=[dict(flows) for flows in incumbent.flows],
        commodities=list(model.commodities),
        mip_gap=0.0,
        bound=float(bound) if bound is not None else incumbent.cost,
        strategy="decomposed",
        seeded=True,
    )


def solution_from_result(
    model: MinRModel, result, strategy: str, seeded: bool
) -> MinRSolution:
    """Extract a :class:`MinRSolution` from a feasible backend result."""
    solution = result.x
    repaired_nodes = {
        node
        for node in model.nodes
        if model.supply.is_broken_node(node)
        and solution[model.node_column[node]] > BINARY_THRESHOLD
    }
    repaired_edges = {
        edge
        for edge in model.edges
        if model.supply.is_broken_edge(*edge)
        and solution[model.edge_column[edge]] > BINARY_THRESHOLD
    }
    flows = model.problem.flows_by_commodity(solution[: model.num_flow])
    bound = result.dual_bound
    if result.status == "optimal" and result.objective is not None:
        bound = float(result.objective)
    return MinRSolution(
        status=result.status,
        objective=float(result.objective),
        repaired_nodes=repaired_nodes,
        repaired_edges=repaired_edges,
        flows=flows,
        commodities=list(model.commodities),
        mip_gap=result.mip_gap,
        bound=bound,
        strategy=strategy,
        seeded=seeded,
    )


def solve_monolithic(
    model: MinRModel,
    time_limit: Optional[float] = None,
    mip_rel_gap: float = 0.0,
) -> MinRSolution:
    """Solve the plain Eq. 1 model in one HiGHS branch-and-cut.

    No decomposition and no incumbent: :func:`solve_minimum_recovery`
    falls back to this when the decomposition attack declines, and the
    differential suites and the OPT speed bench call it on
    ``build_minr_model(supply, demand)`` as the exact reference.
    """
    program = MILProgram(
        c=model.objective,
        constraints=model.constraints,
        integrality=model.integrality,
        lb=model.lower,
        ub=model.upper,
        time_limit=float(time_limit) if time_limit is not None else None,
        mip_rel_gap=mip_rel_gap,
    )

    started = time.perf_counter()
    result = HIGHS.solve_milp(program)
    elapsed = time.perf_counter() - started

    if not result.feasible or result.x is None:
        status = result.status if result.status in ("infeasible", "error") else "error"
        return MinRSolution(status=status, elapsed_seconds=elapsed)

    solution = solution_from_result(model, result, strategy="monolithic", seeded=False)
    solution.elapsed_seconds = elapsed
    return solution


def solve_minimum_recovery(
    supply: SupplyGraph,
    demand: DemandGraph,
    time_limit: Optional[float] = None,
    mip_rel_gap: float = 0.0,
    seed_plans: Optional[Sequence[RecoveryPlan]] = None,
) -> MinRSolution:
    """Solve the MinR MILP for ``supply`` and ``demand``.

    Parameters
    ----------
    supply:
        Supply graph with broken elements and repair costs.  Nominal
        capacities are used (the optimum plans from scratch).
    demand:
        Demand graph to satisfy completely.
    time_limit:
        Optional wall-clock limit in seconds handed to HiGHS.
    mip_rel_gap:
        Relative optimality gap at which the solver may stop early.
    seed_plans:
        Heuristic plans to mine for a feasible incumbent (cheapest verified
        plan wins).  The incumbent gives the decomposition its upper bound;
        it never changes the optimal objective.

    Returns
    -------
    MinRSolution
        ``status`` is ``"optimal"``, ``"feasible"`` (time limit hit with an
        incumbent), ``"infeasible"`` or ``"error"``.
    """
    commodities = [
        Commodity(source=p.source, target=p.target, demand=p.demand) for p in demand.pairs()
    ]
    if not commodities:
        # "auto" is the name this path reported when it was one of three
        # strategies; an empty instance keeps it so its envelope is unchanged.
        return MinRSolution(status="optimal", objective=0.0, bound=0.0, strategy="auto")

    model = build_minr_model(supply, demand, commodities)

    incumbent: Optional[IncumbentStart] = None
    if seed_plans:
        ranked = sorted(
            (plan for plan in seed_plans if plan is not None),
            key=lambda plan: (plan.repair_cost(supply), plan.algorithm),
        )
        for plan in ranked:
            incumbent = build_incumbent(model, plan)
            if incumbent is not None:
                break
    if incumbent is not None:
        count(incumbent_seeds=1)

    solution = solve_decomposed(
        model,
        time_limit=time_limit,
        mip_rel_gap=mip_rel_gap,
        incumbent=incumbent,
    )
    if solution is None:
        # The attack declined (e.g. out of time, odd structure): fall back.
        solution = solve_monolithic(model, time_limit=time_limit, mip_rel_gap=mip_rel_gap)
        solution.seeded = incumbent is not None
    return solution


def minr_solution_to_plan(
    solution: MinRSolution, algorithm: str = "OPT"
) -> RecoveryPlan:
    """Convert a feasible :class:`MinRSolution` into a :class:`RecoveryPlan`.

    The LP arc flows of each commodity are decomposed into explicit paths so
    the plan carries a deployable routing.
    """
    plan = RecoveryPlan(algorithm=algorithm)
    plan.elapsed_seconds = solution.elapsed_seconds
    plan.metadata["status"] = solution.status
    plan.metadata["objective"] = solution.objective
    if solution.mip_gap is not None:
        plan.metadata["mip_gap"] = solution.mip_gap
    if solution.bound is not None:
        plan.metadata["bound"] = solution.bound
    plan.metadata["strategy"] = solution.strategy
    if solution.seeded:
        plan.metadata["seeded"] = True
    if not solution.feasible:
        return plan

    plan.repaired_nodes = set(solution.repaired_nodes)
    plan.repaired_edges = {canonical_edge(*edge) for edge in solution.repaired_edges}
    for commodity, arc_flows in zip(solution.commodities, solution.flows):
        for path, flow in decompose_flows(arc_flows, commodity.source, commodity.target):
            if flow > FLOW_THRESHOLD:
                plan.add_route((commodity.source, commodity.target), path, flow)
    return plan
