"""Metrics extracted from a recovery plan.

The paper's figures report, per algorithm:

* the number of repaired edges, nodes and their sum ("total repairs"),
* the percentage of satisfied demand after the repairs are applied, and
* (Figure 7a) the execution time.

:func:`evaluate_plan` computes all of them uniformly: the satisfied demand is
*not* taken from the algorithm's own claims but recomputed with the
concurrent-flow LP of :mod:`repro.flows.demand_satisfaction` on the network
obtained by applying the plan's repairs — exactly how one would audit a plan
in practice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Tuple

from repro.flows.demand_satisfaction import max_satisfiable_flow
from repro.network.demand import DemandGraph
from repro.network.plan import RecoveryPlan
from repro.network.supply import SupplyGraph

Node = Hashable
Pair = Tuple[Node, Node]


@dataclass
class PlanEvaluation:
    """All figure metrics for one (algorithm, instance) pair."""

    algorithm: str
    node_repairs: int
    edge_repairs: int
    total_repairs: int
    repair_cost: float
    satisfied_fraction: float
    satisfied_units: float
    total_demand: float
    elapsed_seconds: float
    iterations: int = 0
    routing_violations: int = 0
    per_pair_satisfaction: Dict[Pair, float] = field(default_factory=dict)

    @property
    def satisfied_percentage(self) -> float:
        """Percentage of satisfied demand (0–100), as plotted in the paper."""
        return 100.0 * self.satisfied_fraction

    @property
    def demand_loss_percentage(self) -> float:
        return 100.0 - self.satisfied_percentage

    def as_row(self) -> Dict[str, object]:
        """Flat dictionary used by the reporting helpers."""
        return {
            "algorithm": self.algorithm,
            "node_repairs": self.node_repairs,
            "edge_repairs": self.edge_repairs,
            "total_repairs": self.total_repairs,
            "repair_cost": round(self.repair_cost, 4),
            "satisfied_pct": round(self.satisfied_percentage, 2),
            "elapsed_seconds": round(self.elapsed_seconds, 4),
        }


def recovered_graph(supply: SupplyGraph, plan: RecoveryPlan):
    """The working graph obtained by applying ``plan``'s repairs to ``supply``.

    Nominal (not residual) capacities are used: the question answered by the
    evaluation is "once these elements are rebuilt, how much demand fits?".
    """
    return supply.working_graph(
        extra_nodes=set(plan.repaired_nodes),
        extra_edges=set(plan.repaired_edges),
        use_residual=False,
    )


def evaluate_plan(
    supply: SupplyGraph,
    demand: DemandGraph,
    plan: RecoveryPlan,
    check_routing: bool = True,
) -> PlanEvaluation:
    """Compute every figure metric for ``plan`` on the given instance."""
    satisfaction = max_satisfiable_flow(recovered_graph(supply, plan), demand)
    violations: List[str] = []
    if check_routing and plan.routes:
        violations = plan.validate_routing(supply, demand)
    return PlanEvaluation(
        algorithm=plan.algorithm,
        node_repairs=plan.num_node_repairs,
        edge_repairs=plan.num_edge_repairs,
        total_repairs=plan.total_repairs,
        repair_cost=plan.repair_cost(supply),
        satisfied_fraction=satisfaction.fraction,
        satisfied_units=satisfaction.total_satisfied,
        total_demand=satisfaction.total_demand,
        elapsed_seconds=plan.elapsed_seconds,
        iterations=plan.iterations,
        routing_violations=len(violations),
        per_pair_satisfaction=dict(satisfaction.satisfied),
    )
