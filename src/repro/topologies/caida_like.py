"""CAIDA-like large router-level topology (third scenario, Section VII-C).

The paper's large-scale experiments use the giant connected component of the
CAIDA ITDK topology AS28717: 825 nodes and 1018 edges.  The CAIDA data set is
not redistributable offline, so this module generates a *synthetic* topology
with the same size and the structural features that matter to the recovery
algorithms:

* it is connected and sparse (|E| / |V| ≈ 1.23, like the original),
* its degree distribution is heavy tailed (a few high-degree gateway
  routers, many degree-1/2 access routers), obtained with preferential
  attachment,
* nodes carry geographic positions so geographically correlated failures
  remain applicable,
* a two-tier capacity assignment gives higher capacity to links adjacent to
  high-degree routers, mimicking backbone vs access links.
"""

from __future__ import annotations

from typing import List

import networkx as nx
import numpy as np

from repro.network.supply import SupplyGraph
from repro.utils.rng import RandomState, ensure_rng
from repro.utils.validation import check_positive

#: Size of the original AS28717 giant component.
DEFAULT_NODES = 825
DEFAULT_EDGES = 1018


def caida_like(
    num_nodes: int = DEFAULT_NODES,
    num_edges: int = DEFAULT_EDGES,
    backbone_capacity: float = 100.0,
    access_capacity: float = 25.0,
    backbone_degree_threshold: int = 6,
    node_repair_cost: float = 1.0,
    edge_repair_cost: float = 1.0,
    seed: RandomState = None,
) -> SupplyGraph:
    """Generate a CAIDA-like router topology with ``num_nodes`` / ``num_edges``.

    Construction:

    1. grow a preferential-attachment tree over ``num_nodes`` nodes
       (``num_nodes - 1`` edges) — this yields the heavy-tailed degree
       profile and guarantees connectivity;
    2. add ``num_edges - num_nodes + 1`` extra shortcut edges, selecting both
       endpoints preferentially by degree (peering/redundancy links);
    3. links whose endpoints both have degree at least
       ``backbone_degree_threshold`` get ``backbone_capacity``; all other
       links get ``access_capacity``.

    Raises
    ------
    ValueError
        If ``num_edges`` is smaller than ``num_nodes - 1`` (a connected graph
        would be impossible).
    """
    if num_nodes < 2:
        raise ValueError("num_nodes must be at least 2")
    if num_edges < num_nodes - 1:
        raise ValueError("num_edges must be at least num_nodes - 1 for connectivity")
    check_positive(backbone_capacity, "backbone_capacity")
    check_positive(access_capacity, "access_capacity")
    rng = ensure_rng(seed)

    graph = nx.Graph()
    graph.add_node(0)
    degree_biased: List[int] = [0]  # node repeated once per incident edge + 1

    # 1. Preferential-attachment tree.
    for new_node in range(1, num_nodes):
        target = degree_biased[int(rng.integers(0, len(degree_biased)))]
        graph.add_edge(new_node, target)
        degree_biased.extend((new_node, target))

    # 2. Preferentially chosen shortcut edges.
    extra_needed = num_edges - graph.number_of_edges()
    attempts = 0
    max_attempts = extra_needed * 200 + 1000
    while extra_needed > 0 and attempts < max_attempts:
        attempts += 1
        u = degree_biased[int(rng.integers(0, len(degree_biased)))]
        v = int(rng.integers(0, num_nodes))
        if u == v or graph.has_edge(u, v):
            continue
        graph.add_edge(u, v)
        degree_biased.extend((u, v))
        extra_needed -= 1
    # Fill any remainder with uniformly random non-edges (extremely unlikely).
    while extra_needed > 0:
        u, v = (int(x) for x in rng.integers(0, num_nodes, size=2))
        if u == v or graph.has_edge(u, v):
            continue
        graph.add_edge(u, v)
        extra_needed -= 1

    # Geographic embedding: cluster access routers around their tree parent.
    positions = np.zeros((num_nodes, 2))
    positions[0] = rng.uniform(0.0, 100.0, size=2)
    for node in range(1, num_nodes):
        parents = [n for n in graph.neighbors(node) if n < node]
        anchor = positions[min(parents)] if parents else rng.uniform(0.0, 100.0, size=2)
        positions[node] = anchor + rng.normal(0.0, 4.0, size=2)

    supply = SupplyGraph()
    for node in range(num_nodes):
        supply.add_node(
            node,
            pos=(float(positions[node, 0]), float(positions[node, 1])),
            repair_cost=node_repair_cost,
        )
    degrees = dict(graph.degree)
    for u, v in graph.edges:
        is_backbone = (
            degrees[u] >= backbone_degree_threshold and degrees[v] >= backbone_degree_threshold
        )
        supply.add_edge(
            u,
            v,
            capacity=backbone_capacity if is_backbone else access_capacity,
            repair_cost=edge_repair_cost,
        )

    if supply.number_of_nodes != num_nodes or supply.number_of_edges != num_edges:
        raise RuntimeError(
            "CAIDA-like generator produced "
            f"{supply.number_of_nodes} nodes / {supply.number_of_edges} edges, "
            f"expected {num_nodes}/{num_edges}"
        )
    return supply
