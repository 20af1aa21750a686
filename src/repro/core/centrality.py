"""Demand-based centrality (Section IV-B, Eq. 3).

The metric extends betweenness centrality by weighting each node with the
amount of demand whose "first shortest paths" traverse it:

``c_d(v) = sum_{(i,j) in E_H} d_ij * (sum_{p in P*_ij | v} c(p)) / (sum_{p in P*_ij} c(p))``

where ``P*_ij`` is the set of the first shortest paths necessary to route the
demand ``d_ij`` when considered alone, and ``P*_ij | v`` are those of them
containing ``v``.

Two computations are provided:

* :func:`demand_based_centrality` — the runtime estimate described in the
  paper: ``P*_ij`` is approximated by iteratively extracting shortest paths
  with Dijkstra on the residual graph until their accumulated capacity covers
  the demand (:func:`repro.network.paths.shortest_path_cover`);
* :func:`exhaustive_demand_based_centrality` — an exact variant that
  enumerates *all* shortest paths by hop count, only tractable on small
  graphs; it is used by the test-suite to validate the estimate and by the
  ablation benches.

Both operate on the **complete** supply graph (broken elements included) with
the current residual capacities, as prescribed by the paper, and use the
dynamic path metric of Section IV-D as edge length.  The runtime estimate
runs on a :class:`~repro.network.index.GraphIndex`: the lengths are one
vectorised expression and the covers use its index-based Dijkstra, which
picks the same paths as networkx's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Optional, Set, Tuple

import networkx as nx

from repro.network.demand import DemandGraph
from repro.network.index import GraphIndex
from repro.network.paths import DEFAULT_LENGTH_CONSTANT, attach_dynamic_lengths, path_capacity
from repro.network.supply import SupplyGraph

Node = Hashable
Pair = Tuple[Node, Node]
Path = Tuple[Node, ...]


@dataclass
class CentralityResult:
    """Centrality scores plus the bookkeeping ISP needs for its split action.

    Attributes
    ----------
    scores:
        ``c_d(v)`` for every node of the supply graph.
    contributions:
        For every node, the set ``C(v)`` of demand pairs whose path cover
        traverses it (the candidates for a split on that node).
    covers:
        For every demand pair, the shortest-path cover ``P*_ij`` used in the
        computation, as ``(path, contributed capacity)`` tuples.
    index:
        The indexed supply graph the computation ran on; its residual
        capacities give the split selection's ``f*(i, j)``.
    """

    scores: Dict[Node, float] = field(default_factory=dict)
    contributions: Dict[Node, Set[Pair]] = field(default_factory=dict)
    covers: Dict[Pair, List[Tuple[Path, float]]] = field(default_factory=dict)
    index: Optional[GraphIndex] = None

    def ranked_nodes(self) -> List[Node]:
        """Nodes sorted by decreasing centrality (ties broken by repr for determinism)."""
        return sorted(self.scores, key=lambda node: (-self.scores[node], repr(node)))

    def top_node(self) -> Optional[Node]:
        """The node with the highest centrality, or ``None`` when all scores are 0."""
        ranked = self.ranked_nodes()
        if not ranked or self.scores[ranked[0]] <= 0:
            return None
        return ranked[0]

    def cover_capacity_through(self, pair: Pair, node: Node) -> float:
        """Sum of cover-path capacities of ``pair`` that traverse ``node``."""
        return sum(
            capacity for path, capacity in self.covers.get(pair, []) if node in path
        )


def demand_based_centrality(
    supply: SupplyGraph,
    demand: DemandGraph,
    repaired_nodes: Optional[Iterable[Node]] = None,
    repaired_edges: Optional[Iterable[Tuple[Node, Node]]] = None,
    length_const: float = DEFAULT_LENGTH_CONSTANT,
    metric: str = "dynamic",
    index: Optional[GraphIndex] = None,
) -> CentralityResult:
    """Runtime estimate of the demand-based centrality of every node.

    Parameters
    ----------
    supply:
        Supply graph (broken elements included).  Residual capacities are
        used, so earlier prune actions lower the centrality contribution of
        saturated corridors.
    demand:
        Current demand graph ``H^(n)``.
    repaired_nodes, repaired_edges:
        Elements already listed for repair by ISP; their repair cost no
        longer contributes to the dynamic edge length, which biases the
        shortest-path covers (and hence the centrality) towards reusing them.
    length_const:
        Constant term of the dynamic metric.
    metric:
        ``"dynamic"`` (the paper's Section IV-D metric, default) or ``"hop"``
        (unit edge lengths) — the latter exists for the ablation study that
        quantifies how much the dynamic metric contributes to ISP's quality.
    index:
        A current :class:`GraphIndex` of ``supply`` whose listed elements
        are the repaired ones (ISP keeps one per run); when omitted it is
        built from ``supply``, ``repaired_nodes`` and ``repaired_edges``.
    """
    if metric not in ("dynamic", "hop"):
        raise ValueError(f"metric must be 'dynamic' or 'hop', got {metric!r}")
    if index is None:
        index = GraphIndex(supply, repaired_nodes or (), repaired_edges or ())
    if metric == "dynamic":
        lengths = index.dynamic_lengths(length_const).tolist()
    else:
        lengths = [1.0] * len(index.edges)

    result = CentralityResult(index=index)
    result.scores = {node: 0.0 for node in index.nodes}
    result.contributions = {node: set() for node in index.nodes}

    for pair in demand.pairs():
        cover = index.path_cover(pair.source, pair.target, pair.demand, lengths)
        key = pair.pair
        result.covers[key] = cover
        total_capacity = sum(capacity for _, capacity in cover)
        if total_capacity <= 0:
            continue
        for path, capacity in cover:
            share = (capacity / total_capacity) * pair.demand
            for node in path:
                result.scores[node] += share
                result.contributions[node].add(key)
    return result


def exhaustive_demand_based_centrality(
    supply: SupplyGraph,
    demand: DemandGraph,
    length_const: float = DEFAULT_LENGTH_CONSTANT,
    max_paths_per_pair: int = 64,
) -> CentralityResult:
    """Exact(er) centrality enumerating shortest paths in increasing length.

    Enumerates simple paths between each demand pair ordered by dynamic
    length (via :func:`networkx.shortest_simple_paths`) and accumulates them
    into ``P*_ij`` until their combined capacity covers the demand, exactly
    as the definition of "the first shortest paths necessary to ensure
    routability" prescribes.  Exponential in the worst case — only use on
    small graphs (tests, ablations).
    """
    graph = supply.full_graph(use_residual=True)
    attach_dynamic_lengths(supply, graph, const=length_const)

    result = CentralityResult(index=GraphIndex(supply))
    result.scores = {node: 0.0 for node in graph.nodes}
    result.contributions = {node: set() for node in graph.nodes}

    for pair in demand.pairs():
        key = pair.pair
        cover: List[Tuple[Path, float]] = []
        accumulated = 0.0
        if pair.source not in graph or pair.target not in graph:
            result.covers[key] = []
            continue
        if not nx.has_path(graph, pair.source, pair.target):
            result.covers[key] = []
            continue
        generator = nx.shortest_simple_paths(graph, pair.source, pair.target, weight="length")
        for count, path in enumerate(generator):
            if count >= max_paths_per_pair:
                break
            capacity = path_capacity(graph, path)
            cover.append((tuple(path), capacity))
            accumulated += capacity
            if accumulated >= pair.demand:
                break
        result.covers[key] = cover
        total_capacity = sum(capacity for _, capacity in cover)
        if total_capacity <= 0:
            continue
        for path, capacity in cover:
            share = (capacity / total_capacity) * pair.demand
            for node in path:
                result.scores[node] += share
                result.contributions[node].add(key)
    return result
