"""The split-amount LP of ISP's Decision (2) (Section IV-C).

Once ISP has picked the most central node ``v_BC`` and the demand pair
``(s_h, t_h)`` to split, it must decide *how much* of the demand can be
forced through ``v_BC`` without making the remaining instance unroutable.
The paper defines this amount ``dx`` as the optimum of an LP: maximise
``dx <= d_h`` subject to the routability conditions (Eq. 2) of the instance
obtained by replacing ``d_h`` with ``d_h - dx`` and adding the two derived
demands ``(s_h, v_BC)`` and ``(v_BC, t_h)`` of value ``dx``.

Most splits need no LP.  Before it looks anything up or calls HiGHS, a
split asks :func:`~repro.network.index.routes_in_turn` whether the
instance at ``dx = d_h`` routes in turn on the index's residual
capacities: the two legs at ``d_h`` first, then every pair at what it
keeps (the split pair keeps nothing).  Those flows together are an
integral feasible point of the LP with ``dx`` at its upper bound, so
``d_h`` is the optimum, and the split returns it with no structure lookup,
no build and no basis update.  A split whose instance does not route that
way, or whose capacities or demands are not exact integers, solves the LP.

The LP runs on the complete supply graph, whose topology never changes
within an ISP run, so a run keeps one :class:`SplitProgram` on its
:class:`~repro.network.index.GraphIndex`.  At the run's first split LP the
program gets the complete graph's
:class:`~repro.flows.solver.incremental.TopologyStructure` from the open
instance scope; for each commodity count ``k`` it then keeps the
canonical CSC matrix of ``[A_ub; A_eq]`` from ``assembled(k)`` and the last
HiGHS basis.  A split LP writes only the ``dx`` column's six entries, the
right-hand sides (residual capacities read from the index, demands from
``conservation_rhs``) and ``dx``'s upper bound, and hands the backend that
row system ready for HiGHS (:attr:`LinearProgram.rows`).  The LP's only
output is its optimum ``dx``, so each split LP starts from the basis of the
run's previous split LP with the same commodity count.
"""

from __future__ import annotations

import time
from typing import Dict, Hashable, List, Optional, Tuple

import numpy as np
from scipy import sparse

from repro.flows.lp_backend import Commodity, FlowProblem
from repro.flows.solver.backends import HIGHS, LinearProgram
from repro.flows.solver.incremental import (
    Signature,
    StructureCache,
    TopologyStructure,
    current_scope,
)
from repro.flows.solver.stats import record_build
from repro.flows.solver.tolerances import SPLIT_EPSILON
from repro.network.demand import DemandGraph
from repro.network.index import GraphIndex, routes_in_turn

Node = Hashable


class SplitProgram:
    """The split LP of one ISP run, on the complete graph of ``index``.

    The index's node and edge sets are read once, its residual capacities
    at every split LP.
    """

    def __init__(self, index: GraphIndex) -> None:
        self.index = index
        self._signature: Optional[Signature] = None
        self._structure: Optional[TopologyStructure] = None
        #: The index edge of every capacity row.
        self._edges = np.zeros(0, dtype=np.intp)
        #: Per commodity count, read-only: the CSC ``indptr``, ``indices``
        #: and ``data`` of the flow columns with six slots left for the
        #: ``dx`` column, the costs and the column bounds.
        self._systems: Dict[int, Tuple[np.ndarray, ...]] = {}
        #: The basis of the last split LP per commodity count.
        self._bases: Dict[int, object] = {}

    def solve(self, commodities: List[Commodity], split: int, via: Node, bound: float) -> float:
        """The most of ``commodities[split]`` that can go through ``via``,
        at most ``bound``; the last two commodities are its two legs, with
        zero demand.  ``bound`` when the instance at ``dx = bound`` routes
        in turn, else the LP's optimum, or 0 when the LP has none."""
        if self._routes_in_full(commodities, split, via, bound):
            return bound
        structure = self._lookup()
        if FlowProblem.find_infeasible(commodities, structure.node_index):
            return 0.0
        k = len(commodities)
        program = self._program(structure, commodities, split, via, bound)
        solution = HIGHS.solve_lp(program, basis=self._bases.get(k))
        if not solution.success:
            return 0.0
        if solution.basis is not None:
            self._bases[k] = solution.basis
        return float(solution.x[-1])

    def _routes_in_full(
        self, commodities: List[Commodity], split: int, via: Node, bound: float
    ) -> bool:
        """Whether the instance at ``dx = bound`` routes in turn on the
        index's residual capacities: the two legs at ``bound`` first, then
        every pair at what it keeps (the split pair its demand less
        ``bound``, which is 0 when ``bound`` is its demand).

        Such a routing is a feasible point of the LP with ``dx`` at its
        upper bound, so ``bound`` is the LP's optimum."""
        source, target = commodities[split].source, commodities[split].target
        pairs = [(source, via, bound), (via, target, bound)] + [
            (c.source, c.target, c.demand - bound if i == split else c.demand)
            for i, c in enumerate(commodities[:-2])
        ]
        position = self.index.position
        try:
            indexed = [(position[u], position[v], amount) for u, v, amount in pairs]
        except KeyError:  # an endpoint off the graph: the LP path returns 0
            return False
        return routes_in_turn(self.index.arcs, self.index.residual, indexed)

    def _lookup(self) -> TopologyStructure:
        """The complete graph's structure, looked up in the open instance
        scope: one structure hit or miss per split LP, as for every LP."""
        if self._signature is None:
            self._signature = (frozenset(self.index.nodes), frozenset(self.index.edges))
        scope = current_scope()
        cache = scope.structures if scope is not None else StructureCache()
        structure = cache.lookup(self._signature, self._build)
        if structure is not self._structure:
            # The scope may hold it built from another graph of the same
            # topology, in another order: its rows and columns rule.
            self._structure = structure
            self._signature = structure.signature
            self._edges = np.array(
                [self.index.edge_of(u, v) for u, v in structure.edges], dtype=np.intp
            )
            self._systems.clear()
        return structure

    def _build(self, signature: Signature) -> TopologyStructure:
        if self._structure is not None:
            return self._structure
        return TopologyStructure(self.index.nodes, self.index.edges, signature)

    def _system(self, structure: TopologyStructure, k: int) -> Tuple[np.ndarray, ...]:
        system = self._systems.get(k)
        if system is None:
            flows = sparse.csc_array(sparse.vstack(structure.assembled(k)))
            flows.sum_duplicates()
            num_columns = flows.shape[1] + 1
            costs = np.zeros(num_columns)
            costs[-1] = -1.0  # maximise dx
            system = (
                np.append(flows.indptr, flows.nnz + 6).astype(flows.indptr.dtype),
                np.append(flows.indices, np.zeros(6, flows.indices.dtype)),
                np.append(flows.data, np.zeros(6)),
                costs,
                np.column_stack([np.zeros(num_columns), np.full(num_columns, np.inf)]),
            )
            for array in system:
                array.flags.writeable = False
            self._systems[k] = system
        return system

    def _program(
        self,
        structure: TopologyStructure,
        commodities: List[Commodity],
        split: int,
        via: Node,
        bound: float,
    ) -> LinearProgram:
        started = time.perf_counter()
        k = len(commodities)
        indptr, indices, data, costs, bounds = self._system(structure, k)
        num_edges, num_nodes = len(structure.edges), len(structure.nodes)
        source, target = commodities[split].source, commodities[split].target

        def row(commodity: int, node: Node) -> int:
            return num_edges + commodity * num_nodes + structure.node_index[node]

        # dx's coefficients in the conservation rows of the three commodities:
        # the split pair's net outflow is d_h - dx, each leg's is dx.
        column = sorted(
            [
                (row(split, source), 1.0),
                (row(split, target), -1.0),
                (row(k - 2, source), -1.0),
                (row(k - 2, via), 1.0),
                (row(k - 1, via), -1.0),
                (row(k - 1, target), 1.0),
            ]
        )
        indices, data, bounds = indices.copy(), data.copy(), bounds.copy()
        indices[-6:] = [entry for entry, _ in column]
        data[-6:] = [value for _, value in column]
        bounds[-1, 1] = bound
        matrix = sparse.csc_array(
            (data, indices, indptr), shape=(num_edges + k * num_nodes, len(costs))
        )
        b_ub = self.index.residual[self._edges]
        b_eq = structure.conservation_rhs(commodities)
        rows = (
            matrix,
            np.concatenate([np.full(num_edges, -np.inf), b_eq]),
            np.concatenate([b_ub, b_eq]),
        )
        record_build(time.perf_counter() - started)
        return LinearProgram(c=costs, bounds=bounds, rows=rows)


def maximum_splittable_amount(
    program: SplitProgram,
    demand: DemandGraph,
    pair: Tuple[Node, Node],
    via: Node,
) -> float:
    """Maximum amount ``dx`` of ``pair``'s demand splittable through ``via``.

    Parameters
    ----------
    program:
        The calling ISP run's split program: its index holds the complete
        supply graph ``G^(n)`` with residual capacities, broken elements
        included.
    demand:
        The current demand graph ``H^(n)``.
    pair:
        Endpoints ``(s_h, t_h)`` of the demand being split.
    via:
        The split node ``v_BC``; must differ from both endpoints.

    Returns
    -------
    float
        The optimal ``dx`` (possibly 0 when nothing can be split, e.g. when
        the current instance is not routable or ``via`` is unreachable).
    """
    source, target = pair
    original = demand.demand(source, target)
    if original <= 0:
        return 0.0
    if via in (source, target):
        raise ValueError("the split node must differ from the demand endpoints")
    position = program.index.position
    if via not in position or source not in position or target not in position:
        return 0.0

    commodities = []
    split_index = None
    for index, d in enumerate(demand.pairs()):
        commodities.append(Commodity(source=d.source, target=d.target, demand=d.demand))
        if d.pair == tuple(sorted((source, target), key=repr)):
            split_index = index
            # Record the orientation used in the LP rows.
            source, target = d.source, d.target
    if split_index is None:
        raise KeyError(f"no demand between {source!r} and {target!r}")

    # Two derived commodities with zero base demand; dx shifts flow onto them.
    commodities.append(Commodity(source=source, target=via, demand=0.0))
    commodities.append(Commodity(source=via, target=target, demand=0.0))
    dx = program.solve(commodities, split_index, via, original)
    return dx if dx > SPLIT_EPSILON else 0.0
