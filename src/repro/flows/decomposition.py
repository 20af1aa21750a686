"""Decomposition attacks on the MinR MILP, plus classic flow decomposition.

Two different "decompositions" live here:

* :func:`decompose_flows` — the classic flow decomposition theorem, turning
  per-arc LP flows into explicit path assignments for recovery plans.
* The **exact-solve acceleration layer** (everything else): instead of
  handing the monolithic MILP of Eq. 1 to the solver as it is, bound it
  first and tighten it with what the bound proves.

The acceleration layer takes three steps:

1. **The strengthened joint relaxation.**  The LP relaxation of Eq. 1 is
   nearly useless when capacities dwarf demands (``delta = d/c`` is
   fractional-feasible), so it is tightened with disaggregated VUB cuts
   ``f^h_ij + f^h_ji <= min(c_ij, d_h) * delta_ij``: every cycle-free
   feasible flow satisfies them, and removing cycles never changes the
   repair vector or the objective, so the strengthened optimum is still a
   valid lower bound — usually a *tight* one under unit repair costs.
   When the bound is zero, a routable unrepaired network is the optimum.
2. **A bound certificate.**  With integral repair costs the bound rounds up
   to an integer; when a verified heuristic incumbent already matches it,
   the incumbent is *proven optimal* with zero MILP solves.
3. **The tightened monolithic model.**  Otherwise the full MILP is solved,
   strengthened with the VUB rows, the proven bound window
   ``lb <= cost <= ub`` (the heuristic incumbent's cost is ``ub``) and
   cost-free fixings of the non-broken binaries; the incumbent is the
   answer if that solve stops without one.

The bound lives for one :func:`solve_decomposed` call: a re-solve of the
same scenario repeats the same steps and reports the same counts.
"""

from __future__ import annotations

import math
import time
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

from repro.flows.routability import routability_test
from repro.flows.solver.backends import HIGHS, LinearProgram, MILProgram
from repro.flows.solver.tolerances import FLOW_TOLERANCE

Node = Hashable
Arc = Tuple[Node, Node]
Path = Tuple[Node, ...]

#: Flows below this value are treated as numerical noise.
FLOW_EPSILON = 1e-6


def decompose_flows(
    arc_flows: Dict[Arc, float],
    source: Node,
    target: Node,
    tolerance: float = FLOW_EPSILON,
) -> List[Tuple[Path, float]]:
    """Decompose a single-commodity arc flow into source→target paths.

    Parameters
    ----------
    arc_flows:
        Directed flow per arc ``(u, v)``.  Values below ``tolerance`` are
        ignored.  The flow does not have to be perfectly conserved (LP
        round-off is tolerated); any residual that cannot reach ``target`` is
        silently dropped.
    source, target:
        Commodity endpoints.

    Returns
    -------
    list of ``(path, flow)``
        Paths from ``source`` to ``target`` with positive flow, ordered by
        extraction.  The sum of the flows equals the net flow delivered to
        ``target`` (up to ``tolerance``).
    """
    residual: Dict[Arc, float] = {
        arc: flow for arc, flow in arc_flows.items() if flow > tolerance
    }
    adjacency: Dict[Node, List[Node]] = {}
    for u, v in residual:
        adjacency.setdefault(u, []).append(v)

    decomposition: List[Tuple[Path, float]] = []

    def find_path() -> List[Node]:
        """Greedy walk from source following positive-residual arcs."""
        path = [source]
        visited = {source}
        current = source
        while current != target:
            next_node = None
            for candidate in adjacency.get(current, []):
                if residual.get((current, candidate), 0.0) > tolerance and candidate not in visited:
                    next_node = candidate
                    break
            if next_node is None:
                return []  # dead end: remaining flow is a cycle or noise
            path.append(next_node)
            visited.add(next_node)
            current = next_node
        return path

    # Each iteration saturates at least one arc, so this terminates after at
    # most |arcs| iterations.
    for _ in range(len(residual) + 1):
        path = find_path()
        if not path:
            break
        bottleneck = min(
            residual[(path[i], path[i + 1])] for i in range(len(path) - 1)
        )
        if bottleneck <= tolerance:
            break
        decomposition.append((tuple(path), float(bottleneck)))
        for i in range(len(path) - 1):
            arc = (path[i], path[i + 1])
            residual[arc] -= bottleneck
            if residual[arc] <= tolerance:
                residual.pop(arc, None)
    return decomposition


def total_decomposed_flow(decomposition: List[Tuple[Path, float]]) -> float:
    """Total flow carried by a decomposition."""
    return sum(flow for _, flow in decomposition)


# --------------------------------------------------------------------------- #
# The strengthened joint relaxation: disaggregated VUB rows
# --------------------------------------------------------------------------- #
def vub_rows(model) -> Tuple[sparse.csr_matrix, np.ndarray, np.ndarray]:
    """Disaggregated variable-upper-bound rows over the full variable layout.

    One row per (commodity ``h``, edge ``e``)::

        f^h_uv + f^h_vu - min(c_e, d_h) * delta_e <= 0

    Validity: a cycle-free flow for commodity ``h`` carries at most ``d_h``
    across any single edge, and removing flow cycles changes neither the
    binaries nor the objective — so every optimal repair vector survives.
    These rows dominate the aggregated 1(b) rows as a *relaxation* whenever
    capacities exceed demands, which is exactly the regime (e.g. the paper's
    figure-7 instances, capacity 1000 vs unit demands) where the plain LP
    bound collapses to ~0.
    """
    structure = model.problem.structure
    num_edges = model.num_edges
    k = len(model.commodities)
    flow_part = sparse.block_diag([structure.capacity_block] * k, format="csr")
    # -min(c_e, d_h) on edge e's delta column, stacked per commodity.
    rows: List[int] = []
    cols: List[int] = []
    data: List[float] = []
    for h, commodity in enumerate(model.commodities):
        demand = float(commodity.demand)
        for i in range(num_edges):
            rows.append(h * num_edges + i)
            cols.append(model.num_flow + i)
            data.append(-min(float(model.capacity_rhs[i]), demand))
    delta_part = sparse.csr_matrix(
        (data, (rows, cols)), shape=(k * num_edges, model.num_vars)
    )
    flow_block = sparse.hstack(
        [flow_part, sparse.csr_matrix((k * num_edges, model.num_vars - model.num_flow))],
        format="csr",
    )
    matrix = (flow_block + delta_part).tocsr()
    total = k * num_edges
    return matrix, np.full(total, -np.inf), np.zeros(total)


def fixed_delta_bounds(model) -> Tuple[np.ndarray, np.ndarray]:
    """Variable bounds with the cost-free binaries fixed to 1.

    Non-broken nodes, and non-broken edges whose endpoints are both
    non-broken, can be switched on for free: doing so only relaxes 1(b) and
    never forces a paid repair through 1(c) (``sum_j delta_ij <= degree <=
    eta_max``).  At least one optimum has them at 1, so fixing them shrinks
    the search space without touching the optimal value.  Edges incident to
    a broken node stay free — forcing them on would force the node repair.
    """
    supply = model.supply
    lower = np.array(model.lower, dtype=float)
    upper = np.array(model.upper, dtype=float)
    for node, column in model.node_column.items():
        if not supply.is_broken_node(node):
            lower[column] = 1.0
    for edge, column in model.edge_column.items():
        u, v = edge
        if (
            not supply.is_broken_edge(u, v)
            and not supply.is_broken_node(u)
            and not supply.is_broken_node(v)
        ):
            lower[column] = 1.0
    return lower, upper


def _relaxation_program(
    model,
    constraints: Sequence[Tuple[sparse.spmatrix, np.ndarray, np.ndarray]],
) -> LinearProgram:
    """Assemble an :class:`LinearProgram` from row-bound constraint triples."""
    ub_blocks: List[sparse.spmatrix] = []
    ub_rhs: List[np.ndarray] = []
    eq_blocks: List[sparse.spmatrix] = []
    eq_rhs: List[np.ndarray] = []
    for matrix, lb, ub in constraints:
        lb = np.asarray(lb, dtype=float)
        ub = np.asarray(ub, dtype=float)
        if np.array_equal(lb, ub):
            eq_blocks.append(matrix)
            eq_rhs.append(ub)
            continue
        finite_ub = np.isfinite(ub)
        if finite_ub.any():
            ub_blocks.append(matrix[finite_ub] if not finite_ub.all() else matrix)
            ub_rhs.append(ub[finite_ub] if not finite_ub.all() else ub)
        finite_lb = np.isfinite(lb)
        if finite_lb.any():
            negated = (-matrix)[finite_lb] if not finite_lb.all() else -matrix
            ub_blocks.append(negated)
            ub_rhs.append(-(lb[finite_lb] if not finite_lb.all() else lb))
    lower, upper = fixed_delta_bounds(model)
    return LinearProgram(
        c=model.objective,
        a_ub=sparse.vstack(ub_blocks, format="csr") if ub_blocks else None,
        b_ub=np.concatenate(ub_rhs) if ub_rhs else None,
        a_eq=sparse.vstack(eq_blocks, format="csr") if eq_blocks else None,
        b_eq=np.concatenate(eq_rhs) if eq_rhs else None,
        bounds=np.column_stack([lower, upper]),
    )


def relaxation_bound(model) -> Tuple[str, Optional[float]]:
    """``(status, bound)`` of the VUB-strengthened joint LP relaxation.

    ``status`` is ``"optimal"`` (bound valid), ``"infeasible"`` (the MILP
    itself is infeasible: the relaxation contains every feasible solution)
    or ``"error"``.
    """
    constraints = list(model.constraints) + [vub_rows(model)]
    program = _relaxation_program(model, constraints)
    solution = HIGHS.solve_lp(program)
    if solution.success:
        return "optimal", float(solution.objective)
    if solution.status == "infeasible":
        return "infeasible", None
    return "error", None


def integral_bound(model, bound: float) -> float:
    """Round ``bound`` up to the next integer when every repair cost is.

    With integral costs (the paper uses unit costs) every feasible objective
    is an integer, so ``ceil`` of any valid lower bound is still valid — and
    it is what lets a heuristic incumbent close the gap exactly.
    """
    costs = model.objective[model.num_flow:]
    if all(float(c).is_integer() for c in costs):
        return float(math.ceil(bound - FLOW_TOLERANCE))
    return float(bound)


# --------------------------------------------------------------------------- #
# The decomposed driver
# --------------------------------------------------------------------------- #
def solve_decomposed(
    model,
    time_limit: Optional[float] = None,
    mip_rel_gap: float = 0.0,
    incumbent=None,
):
    """Bound, certify, then solve the tightened MILP of a built MinR model.

    Returns a :class:`~repro.flows.milp.MinRSolution` or ``None`` when the
    attack declines the instance (the caller falls back to the monolithic
    path with identical semantics).  ``incumbent`` is an optional
    :class:`~repro.flows.milp.IncumbentStart` built from a heuristic plan.
    """
    from repro.flows import milp as _milp  # deferred: milp imports this module

    started = time.perf_counter()
    deadline = started + float(time_limit) if time_limit else None
    supply = model.supply
    if model.problem.infeasible_commodities:
        return None  # parity: let the monolithic model define the behaviour

    upper = incumbent.cost if incumbent is not None else None

    def finish(solution):
        solution.elapsed_seconds = time.perf_counter() - started
        return solution

    def infeasible():
        return finish(
            _milp.MinRSolution(
                status="infeasible", strategy="decomposed", seeded=incumbent is not None
            )
        )

    def certificate_met(lower_value: float) -> bool:
        if upper is None:
            return False
        if upper <= lower_value + FLOW_TOLERANCE:
            return True
        if mip_rel_gap > 0.0:
            gap = (upper - lower_value) / max(abs(upper), FLOW_TOLERANCE)
            return gap <= mip_rel_gap
        return False

    # Step 1: the lower bound of the strengthened joint relaxation.
    status, joint = relaxation_bound(model)
    if status == "infeasible":
        return infeasible()
    lb_int = integral_bound(model, max(0.0, joint or 0.0))

    # A zero-cost optimum: nothing needs repairing at all.
    if lb_int <= FLOW_TOLERANCE:
        verdict = routability_test(
            supply.working_graph(use_residual=False),
            model.demand,
            want_flows=True,
        )
        if verdict.routable:
            return finish(
                _milp.MinRSolution(
                    status="optimal",
                    objective=0.0,
                    flows=verdict.flows,
                    commodities=list(model.commodities),
                    bound=0.0,
                    strategy="decomposed",
                    seeded=incumbent is not None,
                )
            )

    # Step 2: the bound certificate — the heuristic incumbent matches the
    # proven lower bound, so it is optimal without any MILP solve.
    if certificate_met(lb_int):
        return finish(_milp.incumbent_solution(model, incumbent, bound=lb_int))

    # Step 3: the tightened monolithic model — VUB rows, the proven bound
    # window and cost-free fixings, with the incumbent as the fallback.
    remaining = None
    if deadline is not None:
        remaining = deadline - time.perf_counter()
        if remaining <= 0.05:
            if incumbent is not None:
                solution = _milp.incumbent_solution(model, incumbent, bound=lb_int)
                solution.status = "feasible"
                solution.mip_gap = (upper - lb_int) / max(abs(upper), FLOW_TOLERANCE)
                return finish(solution)
            return None
    constraints = list(model.constraints) + [vub_rows(model)]
    window_ub = float(upper) + FLOW_TOLERANCE if upper is not None else np.inf
    constraints.append(
        (
            sparse.csr_matrix(model.objective.reshape(1, -1)),
            np.array([lb_int - FLOW_TOLERANCE]),
            np.array([window_ub]),
        )
    )
    lower_b, upper_b = fixed_delta_bounds(model)
    program = MILProgram(
        c=model.objective,
        constraints=constraints,
        integrality=model.integrality,
        lb=lower_b,
        ub=upper_b,
        time_limit=remaining,
        mip_rel_gap=mip_rel_gap,
    )
    result = HIGHS.solve_milp(program)
    if not result.feasible or result.x is None:
        if result.status == "infeasible":
            # The tightened model only removes suboptimal/equivalent points,
            # so infeasibility transfers to the original model.
            return infeasible()
        if incumbent is not None:
            solution = _milp.incumbent_solution(model, incumbent, bound=lb_int)
            solution.status = "feasible"
            solution.mip_gap = (upper - lb_int) / max(abs(upper), FLOW_TOLERANCE)
            return finish(solution)
        return None
    if (
        incumbent is not None
        and result.objective is not None
        and float(result.objective) > upper + FLOW_TOLERANCE
    ):
        # The incumbent is at least as good as the solver's answer (possible
        # only under a time limit): keep the better plan.
        solution = _milp.incumbent_solution(model, incumbent, bound=lb_int)
        solution.status = result.status if result.status == "optimal" else "feasible"
        return finish(solution)
    solution = _milp.solution_from_result(
        model, result, strategy="decomposed", seeded=incumbent is not None
    )
    if solution.bound is None or solution.bound < lb_int:
        solution.bound = lb_int if solution.status != "optimal" else solution.objective
    return finish(solution)


__all__ = [
    "FLOW_EPSILON",
    "decompose_flows",
    "total_decomposed_flow",
    "vub_rows",
    "fixed_delta_bounds",
    "relaxation_bound",
    "integral_bound",
    "solve_decomposed",
]
