"""Selection of the demand to split on the most central node (Decision 1).

Once ISP has chosen the node ``v_BC`` with the highest demand-based
centrality, it must pick which of the demands contributing to that
centrality should be split through it.  The paper selects the demand that is
*least likely to be routable elsewhere*, estimated as the one maximising

``min{ d_ij, sum_{p in P*_ij | v_BC} c(p) } / f*(i, j)``

where the numerator is the amount of the demand that the covering paths
through ``v_BC`` could carry (ignoring conflicts) and the denominator
``f*(i, j)`` is the maximum flow between the endpoints on the complete supply
graph with the current residual capacities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Optional, Tuple

from repro.core.centrality import CentralityResult
from repro.flows.solver.tolerances import EPSILON
from repro.network.demand import DemandGraph

Node = Hashable
Pair = Tuple[Node, Node]


@dataclass(frozen=True)
class SplitChoice:
    """The demand pair chosen for a split and its selection score."""

    pair: Pair
    score: float
    routable_through_node: float
    max_flow: float


def select_demand_to_split(
    centrality: CentralityResult,
    demand: DemandGraph,
    node: Node,
) -> Optional[SplitChoice]:
    """Pick the demand pair to split through ``node`` (Decision 1).

    Pairs for which ``node`` is an endpoint are excluded — splitting a demand
    on one of its own endpoints is a no-op.  Returns ``None`` when no
    eligible demand contributes to the node's centrality.

    Parameters
    ----------
    centrality:
        Result of the centrality computation of the current iteration; its
        covers provide ``P*_ij | v`` and its graph index, the complete
        supply graph with residual capacities, gives ``f*(i, j)``.
    demand:
        Current demand graph.
    node:
        The split candidate ``v_BC``.
    """
    index = centrality.index
    if index is None:
        raise ValueError("a graph index is required to evaluate split candidates")

    best: Optional[SplitChoice] = None
    for pair in centrality.contributions.get(node, set()):
        source, target = pair
        if node in (source, target):
            continue
        current_demand = demand.demand(source, target)
        if current_demand <= EPSILON:
            continue
        through_node = centrality.cover_capacity_through(pair, node)
        if through_node <= EPSILON:
            continue
        flow_limit = index.max_flow(source, target)
        if flow_limit <= EPSILON:
            continue
        routable = min(current_demand, through_node)
        score = routable / flow_limit
        if best is None or score > best.score or (
            score == best.score and repr(pair) < repr(best.pair)
        ):
            best = SplitChoice(
                pair=pair,
                score=score,
                routable_through_node=routable,
                max_flow=flow_limit,
            )
    return best
