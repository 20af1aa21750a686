"""OPT: the exact optimum of the MinR MILP.

Thin wrapper around :func:`repro.flows.milp.solve_minimum_recovery` that
adapts the raw MILP solution to the common :class:`RecoveryPlan` interface
used by the evaluation harness, and that wires heuristic incumbents into
the solve: the request runner (``RecoveryService.solve``) passes the
heuristic plans it already computed via ``seed_plans``; when none are
supplied, a quick SRT run self-seeds the solve so the bound certificate
can prove the optimum without any MILP.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.flows.milp import minr_solution_to_plan, solve_minimum_recovery
from repro.network.demand import DemandGraph
from repro.network.plan import RecoveryPlan
from repro.network.supply import SupplyGraph


def optimal_recovery(
    supply: SupplyGraph,
    demand: DemandGraph,
    time_limit: Optional[float] = None,
    mip_rel_gap: float = 0.0,
    seed_plans: Optional[Sequence[RecoveryPlan]] = None,
) -> RecoveryPlan:
    """Solve MinR exactly (or to the given gap / time limit) and return the plan.

    When a ``time_limit`` is given and the solver stops with a feasible
    incumbent, the plan is returned with ``metadata["status"] == "feasible"``
    and the achieved MIP gap; an infeasible model yields an empty plan with
    ``metadata["status"] == "infeasible"``.  ``metadata["bound"]`` carries
    the proven dual bound either way.

    ``seed_plans`` are candidate incumbents (e.g. the ISP/SRT plans of the
    same request); seeding never changes the optimal objective — only how
    fast it is reached and proven.
    """
    seeds = list(seed_plans) if seed_plans else []
    if not seeds:
        # Self-seed with SRT: near-instant, and its plan frequently matches
        # the strengthened relaxation bound, closing the solve with one LP.
        from repro.heuristics.srt import shortest_path_repair

        seeds = [shortest_path_repair(supply, demand)]
    solution = solve_minimum_recovery(
        supply,
        demand,
        time_limit=time_limit,
        mip_rel_gap=mip_rel_gap,
        seed_plans=seeds,
    )
    return minr_solution_to_plan(solution, algorithm="OPT")
