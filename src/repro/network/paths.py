"""Path utilities: capacities, repair costs and the dynamic path metric.

Section IV of the paper repeatedly reasons about *paths* in the supply graph:

* the **capacity of a path** ``c(p)`` is the minimum capacity of its edges;
* the **length of a path** is the sum of its edge lengths, where the edge
  length is either a static metric or the *dynamic metric* of Section IV-D
  (proportional to the repair cost of still-broken elements and inversely
  proportional to the capacity);
* the set ``P*(i, j)`` of the *first shortest paths necessary to route the
  demand* ``d_ij`` is computed with the iterative-Dijkstra procedure of
  Section IV-B (find shortest path, subtract its capacity, repeat until the
  accumulated capacity covers the demand).

These helpers operate on plain :class:`networkx.Graph` objects whose edges
carry a ``capacity`` attribute, so they can be applied both to the full
supply graph (for centrality) and to the working graph (for pruning).
"""

from __future__ import annotations

from typing import Collection, Hashable, Iterable, List, Optional, Sequence, Tuple

import networkx as nx

from repro.network.index import GraphIndex, path_cover
from repro.network.supply import SupplyGraph, canonical_edge

Node = Hashable
Path = Tuple[Node, ...]

#: Constant term of the dynamic edge length (accounts for working links).
DEFAULT_LENGTH_CONSTANT = 1.0


def path_edges(path: Sequence[Node]) -> List[Tuple[Node, Node]]:
    """Return the list of consecutive edges of a node path."""
    return [(path[i], path[i + 1]) for i in range(len(path) - 1)]


def path_capacity(graph: nx.Graph, path: Sequence[Node]) -> float:
    """Capacity ``c(p)``: the minimum edge capacity along ``path``.

    A single-node path (source equals target) has infinite capacity because
    it needs no edges at all.
    """
    if len(path) < 2:
        return float("inf")
    return min(graph.edges[u, v]["capacity"] for u, v in path_edges(path))


def path_repair_cost(supply: SupplyGraph, path: Sequence[Node]) -> float:
    """Cost of repairing every broken element along ``path``.

    Counts each broken node and edge once, which matches the cost the MinR
    objective would pay to make the path usable.
    """
    cost = 0.0
    for node in set(path):
        if supply.is_broken_node(node):
            cost += supply.node_repair_cost(node)
    for u, v in set(canonical_edge(u, v) for u, v in path_edges(path)):
        if supply.is_broken_edge(u, v):
            cost += supply.edge_repair_cost(u, v)
    return cost


def path_broken_elements(
    supply: SupplyGraph, path: Sequence[Node]
) -> Tuple[List[Node], List[Tuple[Node, Node]]]:
    """Return the broken nodes and edges that ``path`` traverses."""
    nodes = [n for n in dict.fromkeys(path) if supply.is_broken_node(n)]
    edges = []
    for u, v in dict.fromkeys(canonical_edge(a, b) for a, b in path_edges(path)):
        if supply.is_broken_edge(u, v):
            edges.append((u, v))
    return nodes, edges


def dynamic_edge_length(
    supply: SupplyGraph,
    u: Node,
    v: Node,
    repaired_nodes: Collection[Node] = (),
    repaired_edges: Collection[Tuple[Node, Node]] = (),
    const: float = DEFAULT_LENGTH_CONSTANT,
) -> float:
    """Dynamic length of the edge ``(u, v)`` (Section IV-D).

    ``l(e_ij) = [const + k^e_ij + (k^v_i + k^v_j) / 2] / c_ij`` where the
    repair-cost terms only contribute while the corresponding element is
    broken *and not yet listed for repair*.  Once ISP has decided to repair
    an element, traversing it becomes cheap, which concentrates subsequent
    routing decisions on already-repaired components.  ``repaired_edges``
    may list an edge in either orientation.
    """
    repaired_nodes = repaired_nodes or ()
    repaired_edges = repaired_edges or ()
    capacity = supply.capacity(u, v)

    edge_cost = 0.0
    if (
        supply.is_broken_edge(u, v)
        and (u, v) not in repaired_edges
        and (v, u) not in repaired_edges
    ):
        edge_cost = supply.edge_repair_cost(u, v)

    node_cost = 0.0
    for endpoint in (u, v):
        if supply.is_broken_node(endpoint) and endpoint not in repaired_nodes:
            node_cost += supply.node_repair_cost(endpoint)

    return (const + edge_cost + node_cost / 2.0) / capacity


def attach_dynamic_lengths(
    supply: SupplyGraph,
    graph: nx.Graph,
    repaired_nodes: Iterable[Node] = (),
    repaired_edges: Iterable[Tuple[Node, Node]] = (),
    const: float = DEFAULT_LENGTH_CONSTANT,
    attribute: str = "length",
) -> nx.Graph:
    """Annotate every edge of ``graph`` with its dynamic length.

    ``graph`` must be a (sub)graph of ``supply`` — typically the full graph
    returned by :meth:`SupplyGraph.full_graph`.  The lengths are
    :meth:`GraphIndex.dynamic_lengths`, equal to
    :func:`dynamic_edge_length` edge by edge.  The graph is modified in
    place and also returned for convenience.
    """
    index = GraphIndex(supply, repaired_nodes or (), repaired_edges or ())
    lengths = index.dynamic_lengths(const).tolist()
    for u, v, data in graph.edges(data=True):
        data[attribute] = lengths[index.edge_of(u, v)]
    return graph


def shortest_path_cover(
    graph: nx.Graph,
    source: Node,
    target: Node,
    demand: float,
    weight: str = "length",
    max_paths: Optional[int] = None,
) -> List[Tuple[Path, float]]:
    """Iteratively collect the shortest paths needed to cover ``demand``.

    This is the runtime estimate of ``P*(i, j)`` described in Section IV-B:
    starting from the residual graph, repeatedly run Dijkstra, record the
    shortest path together with its bottleneck capacity, subtract that
    capacity from the path's edges, and continue until the accumulated
    capacity reaches ``demand`` or the endpoints become disconnected.
    Dijkstra breaks ties as :func:`networkx.dijkstra_path` does on the
    graph's adjacency order (see :mod:`repro.network.index`).

    Parameters
    ----------
    graph:
        Graph whose edges carry ``capacity`` and the ``weight`` attribute.
        The graph is *not* modified; capacities are tracked in a local copy.
    source, target:
        Demand endpoints.
    demand:
        Flow requirement to cover.  Use ``float("inf")`` to enumerate paths
        until the endpoints disconnect.
    weight:
        Edge attribute used as Dijkstra weight.  When the attribute is
        missing on an edge a weight of 1 is assumed.
    max_paths:
        Optional hard cap on the number of collected paths.

    Returns
    -------
    list of ``(path, capacity)``
        The selected paths with the bottleneck capacity each one contributes.
        May cover less than ``demand`` when the graph lacks capacity.
    """
    if source == target:
        return []
    if source not in graph or target not in graph:
        return []
    nodes = list(graph)
    position = {node: i for i, node in enumerate(nodes)}
    edge_ids = {}
    residual: List[float] = []
    weights: List[float] = []
    for u, v, data in graph.edges(data=True):
        edge_ids[(u, v)] = edge_ids[(v, u)] = len(residual)
        residual.append(float(data.get("capacity", 0.0)))
        weights.append(float(data.get(weight, 1.0)))
    adjacency = [
        [(position[v], edge_ids[(u, v)]) for v in neighbours]
        for u, neighbours in graph.adjacency()
    ]
    cover = path_cover(
        adjacency, weights, residual, position[source], position[target], demand, max_paths
    )
    return [(tuple(nodes[i] for i in path), capacity) for path, capacity in cover]
