"""Shared construction of multi-commodity flow linear programs.

Every optimisation problem in the paper — the routability conditions (Eq. 2),
the multi-commodity relaxation (Eq. 8), the exact MinR MILP (Eq. 1) and the
split-amount LP of ISP — shares the same variable space and the same two
families of constraints:

* one directed continuous flow variable ``f^h_{ij}`` per commodity ``h`` and
  per *direction* of each undirected supply edge;
* a **capacity constraint** per undirected edge:
  ``sum_h (f^h_ij + f^h_ji) <= c_ij``;
* a **flow conservation constraint** per (node, commodity):
  ``sum_j f^h_ij - sum_k f^h_ki = b^h_i`` with ``b^h_i = d_h`` at the source,
  ``-d_h`` at the target and 0 elsewhere.

:class:`FlowProblem` builds the variable indexing and sparse constraint
matrices once so that each client only has to add its specific objective and
extra variables/constraints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import networkx as nx
import numpy as np
from scipy import sparse

from repro.flows.solver.tolerances import FLOW_TOLERANCE
from repro.network.supply import SELF_LOOP_ERROR, canonical_edge

Node = Hashable
Edge = Tuple[Node, Node]


@dataclass(frozen=True)
class Commodity:
    """A demand flow of ``demand`` units from ``source`` to ``target``."""

    source: Node
    target: Node
    demand: float

    def __post_init__(self) -> None:
        if self.source == self.target:
            raise ValueError("a commodity must connect two distinct nodes")
        if self.demand < 0:
            raise ValueError("a commodity demand must be non-negative")


class FlowProblem:
    """Variable indexing and constraint matrices of a multi-commodity flow LP.

    Parameters
    ----------
    graph:
        Undirected graph whose edges carry a ``capacity`` attribute.  Only
        nodes present in this graph take part in the LP: a commodity whose
        endpoint is missing from the graph is structurally infeasible (see
        :attr:`infeasible_commodities`).  A self-loop is a ``ValueError``:
        both of its arcs would be one column.
    commodities:
        The demand flows to route simultaneously.
    """

    def __init__(self, graph: nx.Graph, commodities: Sequence[Commodity]) -> None:
        if graph.is_directed():
            raise ValueError("FlowProblem expects an undirected graph")
        self.graph = graph
        self.commodities: List[Commodity] = list(commodities)

        self.nodes: List[Node] = list(graph.nodes)
        self._node_index: Dict[Node, int] = {node: i for i, node in enumerate(self.nodes)}
        self.edges: List[Edge] = [canonical_edge(u, v) for u, v in graph.edges]
        if any(u == v for u, v in self.edges):
            raise ValueError(SELF_LOOP_ERROR)
        self._edge_index: Dict[Edge, int] = {edge: i for i, edge in enumerate(self.edges)}

        #: Commodities whose endpoints are not both present in the graph.
        self.infeasible_commodities: List[Commodity] = self.find_infeasible(
            self.commodities, self._node_index
        )

        # Directed arcs: both orientations of every undirected edge.
        self.arcs: List[Tuple[Node, Node]] = []
        for u, v in self.edges:
            self.arcs.append((u, v))
            self.arcs.append((v, u))
        self._arc_index: Dict[Tuple[Node, Node], int] = {
            arc: i for i, arc in enumerate(self.arcs)
        }

    @staticmethod
    def find_infeasible(
        commodities: Sequence[Commodity], node_index: Dict[Node, int]
    ) -> List[Commodity]:
        """Commodities structurally infeasible on the indexed node set.

        Shared with :class:`~repro.flows.solver.incremental.
        IncrementalFlowProblem`, which builds its indexing from cached
        structure — both paths must agree on what "infeasible" means.
        """
        return [
            c
            for c in commodities
            if c.source not in node_index or c.target not in node_index
        ]

    # ------------------------------------------------------------------ #
    # Variable indexing
    # ------------------------------------------------------------------ #
    @property
    def num_commodities(self) -> int:
        return len(self.commodities)

    @property
    def num_arcs(self) -> int:
        return len(self.arcs)

    @property
    def num_flow_variables(self) -> int:
        """Total number of directed flow variables ``f^h_{ij}``."""
        return self.num_commodities * self.num_arcs

    def flow_index(self, commodity: int, u: Node, v: Node) -> int:
        """Column index of the flow variable of ``commodity`` on arc ``u -> v``."""
        return commodity * self.num_arcs + self._arc_index[(u, v)]

    def edge_of_index(self, column: int) -> Tuple[int, Node, Node]:
        """Inverse of :meth:`flow_index`: ``(commodity, u, v)`` for a column."""
        commodity, arc = divmod(column, self.num_arcs)
        u, v = self.arcs[arc]
        return commodity, u, v

    def capacity_of(self, u: Node, v: Node) -> float:
        return float(self.graph.edges[u, v].get("capacity", 0.0))

    # ------------------------------------------------------------------ #
    # Constraint blocks
    # ------------------------------------------------------------------ #
    def capacity_matrix(self) -> Tuple[sparse.csr_matrix, np.ndarray]:
        """Capacity constraints ``A_ub x <= b_ub`` over the flow variables.

        One row per undirected edge: the sum over commodities of the flow in
        both directions must not exceed the edge capacity.
        """
        rows: List[int] = []
        cols: List[int] = []
        data: List[float] = []
        b_ub = np.zeros(len(self.edges))
        for row, (u, v) in enumerate(self.edges):
            b_ub[row] = self.capacity_of(u, v)
            for commodity in range(self.num_commodities):
                for a, b in ((u, v), (v, u)):
                    rows.append(row)
                    cols.append(self.flow_index(commodity, a, b))
                    data.append(1.0)
        matrix = sparse.csr_matrix(
            (data, (rows, cols)), shape=(len(self.edges), self.num_flow_variables)
        )
        return matrix, b_ub

    def conservation_matrix(self) -> Tuple[sparse.csr_matrix, np.ndarray]:
        """Flow conservation ``A_eq x = b_eq`` over the flow variables.

        One row per (node, commodity): outgoing flow minus incoming flow
        equals ``b^h_i``.
        """
        rows: List[int] = []
        cols: List[int] = []
        data: List[float] = []
        num_rows = len(self.nodes) * self.num_commodities
        b_eq = np.zeros(num_rows)

        for commodity_index, commodity in enumerate(self.commodities):
            for node, node_index in self._node_index.items():
                row = commodity_index * len(self.nodes) + node_index
                if node == commodity.source:
                    b_eq[row] = commodity.demand
                elif node == commodity.target:
                    b_eq[row] = -commodity.demand
                for neighbor in self.graph.neighbors(node):
                    # Outgoing flow node -> neighbor.
                    rows.append(row)
                    cols.append(self.flow_index(commodity_index, node, neighbor))
                    data.append(1.0)
                    # Incoming flow neighbor -> node.
                    rows.append(row)
                    cols.append(self.flow_index(commodity_index, neighbor, node))
                    data.append(-1.0)

        matrix = sparse.csr_matrix(
            (data, (rows, cols)), shape=(num_rows, self.num_flow_variables)
        )
        return matrix, b_eq

    # ------------------------------------------------------------------ #
    # Solution interpretation
    # ------------------------------------------------------------------ #
    def flows_by_commodity(
        self, solution: np.ndarray, tolerance: float = FLOW_TOLERANCE
    ) -> List[Dict[Tuple[Node, Node], float]]:
        """Convert an LP solution vector into per-commodity directed arc flows.

        Opposite flows on the same edge within a commodity are netted out
        (they cancel physically and only waste capacity otherwise).
        """
        per_commodity: List[Dict[Tuple[Node, Node], float]] = []
        for commodity_index in range(self.num_commodities):
            flows: Dict[Tuple[Node, Node], float] = {}
            for u, v in self.edges:
                forward = solution[self.flow_index(commodity_index, u, v)]
                backward = solution[self.flow_index(commodity_index, v, u)]
                net = forward - backward
                if net > tolerance:
                    flows[(u, v)] = float(net)
                elif net < -tolerance:
                    flows[(v, u)] = float(-net)
            per_commodity.append(flows)
        return per_commodity

    def edge_loads(
        self, solution: np.ndarray, tolerance: float = FLOW_TOLERANCE
    ) -> Dict[Edge, float]:
        """Aggregate load per undirected edge implied by an LP solution."""
        loads: Dict[Edge, float] = {}
        for flows in self.flows_by_commodity(solution, tolerance):
            for (u, v), value in flows.items():
                key = canonical_edge(u, v)
                loads[key] = loads.get(key, 0.0) + value
        return {edge: load for edge, load in loads.items() if load > tolerance}
