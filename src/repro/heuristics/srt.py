"""SRT: the Shortest Path repair heuristic (Section VI-B).

SRT considers the demand pairs in decreasing order of demand and, for each
pair taken *independently of the others*, repairs the broken elements of the
first shortest paths whose combined maximum flow covers the demand.  Because
the pairs are treated independently, the shortest paths of different demands
frequently overlap and the heuristic can end up with insufficient shared
capacity — SRT repairs the fewest elements of all baselines but loses demand
as soon as shortest paths saturate (Figures 4(d), 5(b), 6(b), 9(b)).
"""

from __future__ import annotations

import time
from itertools import islice
from typing import Hashable, List, Tuple

from repro.network.demand import DemandGraph
from repro.network.index import GraphIndex, max_flow_over_path_set
from repro.network.paths import path_broken_elements
from repro.network.plan import RecoveryPlan
from repro.network.supply import SupplyGraph

Node = Hashable
Path = Tuple[Node, ...]

#: Safety cap on the number of shortest paths accumulated per demand pair.
MAX_PATHS_PER_PAIR = 200


def shortest_path_repair(
    supply: SupplyGraph,
    demand: DemandGraph,
    max_paths_per_pair: int = MAX_PATHS_PER_PAIR,
) -> RecoveryPlan:
    """Run the SRT heuristic and return its recovery plan.

    Paths are enumerated in increasing hop count (uniform edge weight, the
    "very intuitive" static metric of the paper) on the complete supply
    graph, because SRT plans repairs rather than routing over what is
    currently working, by the index's simple-path kernel in
    :func:`networkx.shortest_simple_paths` order.
    """
    plan = RecoveryPlan(algorithm="SRT")
    started = time.perf_counter()
    graph = supply.full_graph(use_residual=False)
    index = GraphIndex(supply)
    pairs = sorted(demand.pairs(), key=lambda p: (-p.demand, repr(p.pair)))
    for pair in pairs:
        if not index.connected(pair.source, pair.target):
            continue
        selected: List[Path] = []
        paths = index.simple_paths(pair.source, pair.target)
        for path in islice(paths, max(max_paths_per_pair, 0)):
            selected.append(path)
            achievable = max_flow_over_path_set(graph, selected, pair.source, pair.target)
            if achievable >= pair.demand:
                break
        for path in selected:
            nodes, edges = path_broken_elements(supply, path)
            for node in nodes:
                plan.add_node_repair(node)
            for u, v in edges:
                plan.add_edge_repair(u, v)
        plan.metadata.setdefault("paths_per_pair", {})[pair.pair] = len(selected)
    plan.elapsed_seconds = time.perf_counter() - started
    return plan
