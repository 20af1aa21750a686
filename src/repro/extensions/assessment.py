"""Damage assessment before recovery.

After a disaster, and before committing to any repair plan, an operator
needs a situational picture: how much of the network is gone, which
mission-critical services are cut off entirely, and how much of the demand
the *surviving* infrastructure can still carry.  :func:`assess_damage`
computes exactly that from a disrupted :class:`SupplyGraph` and a
:class:`DemandGraph`, using the same LP machinery the evaluation harness
uses, so the numbers are consistent with the post-recovery reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Tuple

import networkx as nx

from repro.flows.demand_satisfaction import max_satisfiable_flow
from repro.network.demand import DemandGraph
from repro.network.supply import SupplyGraph

Node = Hashable
Pair = Tuple[Node, Node]


@dataclass
class DamageAssessment:
    """Situational picture of a disrupted network."""

    total_nodes: int
    total_edges: int
    broken_nodes: int
    broken_edges: int
    working_components: int
    largest_working_component: int
    disconnected_pairs: List[Pair] = field(default_factory=list)
    pre_recovery_satisfied_fraction: float = 0.0
    per_pair_satisfiable: Dict[Pair, float] = field(default_factory=dict)

    @property
    def broken_fraction(self) -> float:
        """Fraction (0-1) of all elements destroyed by the disruption."""
        total = self.total_nodes + self.total_edges
        if total == 0:
            return 0.0
        return (self.broken_nodes + self.broken_edges) / total

    @property
    def fully_cut_off(self) -> bool:
        """True when no demand at all can be carried before repairs."""
        return self.pre_recovery_satisfied_fraction <= 0.0

    def summary(self) -> Dict[str, object]:
        """Flat dictionary for reports and logs."""
        return {
            "broken_nodes": self.broken_nodes,
            "broken_edges": self.broken_edges,
            "broken_fraction": round(self.broken_fraction, 4),
            "working_components": self.working_components,
            "largest_working_component": self.largest_working_component,
            "disconnected_pairs": len(self.disconnected_pairs),
            "pre_recovery_satisfied_pct": round(100.0 * self.pre_recovery_satisfied_fraction, 2),
        }


def assess_damage(supply: SupplyGraph, demand: DemandGraph) -> DamageAssessment:
    """Compute a :class:`DamageAssessment` for a disrupted instance.

    The assessment only looks at the surviving network (no hypothetical
    repairs): disconnected pairs are demand pairs whose endpoints cannot
    reach each other on working elements, and the pre-recovery satisfied
    fraction is the share of the demand the surviving capacity can carry
    simultaneously.
    """
    working = supply.working_graph(use_residual=False)

    if working.number_of_nodes() > 0:
        components = list(nx.connected_components(working))
        largest = max((len(component) for component in components), default=0)
    else:
        components = []
        largest = 0

    disconnected: List[Pair] = []
    for pair in demand.pairs():
        if (
            pair.source not in working
            or pair.target not in working
            or not nx.has_path(working, pair.source, pair.target)
        ):
            disconnected.append(pair.pair)

    satisfaction = max_satisfiable_flow(working, demand)

    return DamageAssessment(
        total_nodes=supply.number_of_nodes,
        total_edges=supply.number_of_edges,
        broken_nodes=len(supply.broken_nodes),
        broken_edges=len(supply.broken_edges),
        working_components=len(components),
        largest_working_component=largest,
        disconnected_pairs=disconnected,
        pre_recovery_satisfied_fraction=satisfaction.fraction,
        per_pair_satisfiable=dict(satisfaction.satisfied),
    )
