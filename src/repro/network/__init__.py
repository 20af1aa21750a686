"""Network substrate: supply graph, demand graph, paths and recovery plans.

These classes model the exact objects of the MinR problem formulation in
Section III of the paper:

* :class:`~repro.network.supply.SupplyGraph` — the communication network
  ``G = (V, E)`` with edge capacities, per-element repair costs and the sets
  of broken vertices ``V_B`` and edges ``E_B``.
* :class:`~repro.network.demand.DemandGraph` — the demand graph
  ``H = (V_H, E_H)`` listing the mission-critical flows ``d_h``.
* :mod:`~repro.network.paths` — path length / capacity helpers including the
  dynamic path metric of Section IV-D.
* :class:`~repro.network.index.GraphIndex` — the array-backed snapshot of a
  supply graph behind ISP's max-flow, shortest-path and prune primitives.
* :class:`~repro.network.plan.RecoveryPlan` — the output of every recovery
  algorithm: which elements to repair and how the demand is routed.
"""

from repro.network.demand import DemandGraph, DemandPair, canonical_pair
from repro.network.index import GraphIndex
from repro.network.paths import (
    dynamic_edge_length,
    path_capacity,
    path_edges,
    path_repair_cost,
    shortest_path_cover,
)
from repro.network.plan import RecoveryPlan, RouteAssignment
from repro.network.supply import SupplyGraph, canonical_edge

__all__ = [
    "SupplyGraph",
    "DemandGraph",
    "DemandPair",
    "GraphIndex",
    "RecoveryPlan",
    "RouteAssignment",
    "canonical_edge",
    "canonical_pair",
    "path_capacity",
    "path_edges",
    "path_repair_cost",
    "dynamic_edge_length",
    "shortest_path_cover",
]
