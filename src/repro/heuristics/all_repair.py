"""The trivial ALL baseline: repair every broken element.

The paper plots the line labelled ``ALL`` in every figure as the number of
destroyed elements; it is the most expensive conceivable recovery and serves
as the upper bound against which the savings of the other algorithms are
measured.
"""

from __future__ import annotations

import time

from repro.network.demand import DemandGraph
from repro.network.plan import RecoveryPlan
from repro.network.supply import SupplyGraph


def repair_all(supply: SupplyGraph, demand: DemandGraph) -> RecoveryPlan:
    """Repair every broken node and edge of ``supply``.

    The demand graph is only used to record the (fully) satisfied demand; if
    the demand was routable on the undamaged network it is routable after
    repairing everything.
    """
    plan = RecoveryPlan(algorithm="ALL")
    started = time.perf_counter()
    for node in supply.broken_nodes:
        plan.add_node_repair(node)
    for u, v in supply.broken_edges:
        plan.add_edge_repair(u, v)
    plan.elapsed_seconds = time.perf_counter() - started
    return plan
