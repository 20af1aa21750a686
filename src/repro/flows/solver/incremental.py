"""Cached problem structure and incremental re-solves.

The multi-commodity constraint system of
:class:`~repro.flows.lp_backend.FlowProblem` has a rigid block shape:

* the capacity matrix of ``k`` commodities is ``[B B ... B]`` — ``k``
  horizontal copies of a single-commodity block ``B`` (one row per edge, the
  two direction columns of that edge set to 1);
* the conservation matrix is ``blockdiag(C, ..., C)`` — ``k`` copies of a
  single-commodity block ``C`` (one row per node, ±1 on its incident arcs).

Both blocks depend **only on the graph topology** (node and edge sets) — not
on capacities, not on demands, not on the number of commodities.  Every
iteration of the ISP inner loop re-solves on the *same* topology (splits
change commodities, prunes change capacities, only actual repairs change the
edge set), so :class:`StructureCache` keeps the blocks per topology
signature and :class:`IncrementalFlowProblem` reassembles a full system
from them by applying only the **deltas**:

* capacity updates        → rewrite the RHS vector ``b_ub`` (O(E));
* demand-amount changes   → rewrite the RHS vector ``b_eq`` (O(k));
* added split commodities → append one more ``B`` / ``C`` block;
* node/edge (de)activation→ new topology signature, one fresh block build.

The cache lives for one instance: :func:`instance_scope` opens an
:class:`InstanceScope` (one ``ContextVar``) holding the instance's
:class:`StructureCache` and the greedy baselines' candidate lists, and
:func:`repro.api.service.run_algorithms` opens one around all of an
instance's runs.  Outside a scope nothing is kept, so a run's counts depend
only on its request, never on what the process solved before.

A structure is built from node and edge lists, not from a graph: ISP's
split LP (:class:`~repro.flows.splitting_lp.SplitProgram`) builds the
complete graph's structure from its :class:`~repro.network.index.GraphIndex`
and looks it up with :meth:`StructureCache.lookup` under a signature it
computes once per run.
"""

from __future__ import annotations

import contextvars
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from typing import Callable, Dict, Hashable, Iterable, Iterator, List, Optional, Sequence, Tuple

import networkx as nx
import numpy as np
from scipy import sparse

from repro.flows.lp_backend import Commodity, FlowProblem
from repro.flows.solver.stats import record_build, record_structure_lookup
from repro.network.supply import SELF_LOOP_ERROR, canonical_edge

Node = Hashable
Edge = Tuple[Node, Node]

#: A topology signature: the exact node and (canonical) edge sets.
Signature = Tuple[frozenset, frozenset]

#: Retained topologies per instance (an instance touches a handful).
DEFAULT_STRUCTURE_CACHE_SIZE = 32

#: Retained assembled (k-commodity) systems per topology.
_ASSEMBLED_CACHE_SIZE = 16


def topology_signature(graph: nx.Graph) -> Signature:
    """The cache key of a graph's topology (nodes + canonical edges)."""
    return (
        frozenset(graph.nodes),
        frozenset(canonical_edge(u, v) for u, v in graph.edges),
    )


class TopologyStructure:
    """Variable indexing and single-commodity constraint blocks of a topology.

    Immutable once built; shared by every :class:`IncrementalFlowProblem`
    whose graph has the same topology signature.
    """

    __slots__ = (
        "signature",
        "nodes",
        "node_index",
        "edges",
        "edge_index",
        "arcs",
        "arc_index",
        "capacity_block",
        "conservation_block",
        "_assembled",
        "_lock",
    )

    def __init__(
        self,
        nodes: Iterable[Node],
        edges: Iterable[Edge],
        signature: Optional[Signature] = None,
    ) -> None:
        """Index ``nodes`` and ``edges`` (a graph's ``graph.nodes`` and
        ``graph.edges``, in that graph's order) and build both blocks.
        A self-loop is a ``ValueError``, as in :class:`FlowProblem`."""
        self.nodes: List[Node] = list(nodes)
        self.node_index: Dict[Node, int] = {node: i for i, node in enumerate(self.nodes)}
        self.edges: List[Edge] = [canonical_edge(u, v) for u, v in edges]
        self.edge_index: Dict[Edge, int] = {edge: i for i, edge in enumerate(self.edges)}
        self.signature = (
            signature
            if signature is not None
            else (frozenset(self.nodes), frozenset(self.edges))
        )
        # Arc ordering matches FlowProblem: (u, v) then (v, u) per edge.
        self.arcs: List[Tuple[Node, Node]] = []
        for u, v in self.edges:
            self.arcs.append((u, v))
            self.arcs.append((v, u))
        self.arc_index: Dict[Tuple[Node, Node], int] = {
            arc: i for i, arc in enumerate(self.arcs)
        }

        num_edges = len(self.edges)
        num_arcs = len(self.arcs)

        # B: one row per edge, 1.0 on the edge's two direction columns.  The
        # arc layout (2i, 2i+1) makes this a strided identity-like pattern.
        self.capacity_block = sparse.csr_matrix(
            (
                np.ones(num_arcs),
                np.arange(num_arcs),
                np.arange(0, num_arcs + 1, 2),
            ),
            shape=(num_edges, num_arcs),
        )

        # C: one row per node, +1 on outgoing arcs, -1 on incoming arcs.  Edge
        # i leaves its tail on arc 2i and its head on arc 2i+1; COO-to-CSR
        # sorts each row.
        tail = np.array([self.node_index[u] for u, _ in self.edges], dtype=np.intp)
        head = np.array([self.node_index[v] for _, v in self.edges], dtype=np.intp)
        if np.any(tail == head):
            raise ValueError(SELF_LOOP_ERROR)
        forward = 2 * np.arange(num_edges)
        backward = forward + 1
        self.conservation_block = sparse.csr_matrix(
            (
                np.repeat([1.0, -1.0, 1.0, -1.0], num_edges),
                (
                    np.concatenate([tail, tail, head, head]),
                    np.concatenate([forward, backward, backward, forward]),
                ),
            ),
            shape=(len(self.nodes), num_arcs),
        )

        self._assembled: "OrderedDict[int, Tuple[sparse.csr_matrix, sparse.csr_matrix]]" = (
            OrderedDict()
        )
        self._lock = threading.Lock()

    @property
    def num_arcs(self) -> int:
        return len(self.arcs)

    def assembled(self, num_commodities: int) -> Tuple[sparse.csr_matrix, sparse.csr_matrix]:
        """The full ``(A_ub, A_eq)`` system for ``num_commodities`` commodities."""
        with self._lock:
            cached = self._assembled.get(num_commodities)
            if cached is not None:
                self._assembled.move_to_end(num_commodities)
                return cached
        if num_commodities == 1:
            system = (self.capacity_block, self.conservation_block)
        else:
            system = (
                self._capacity_stack(num_commodities),
                self._conservation_diagonal(num_commodities),
            )
        with self._lock:
            self._assembled[num_commodities] = system
            while len(self._assembled) > _ASSEMBLED_CACHE_SIZE:
                self._assembled.popitem(last=False)
        return system

    def _capacity_stack(self, k: int) -> sparse.csr_matrix:
        """``[B B ... B]``, the arrays ``sparse.hstack`` builds: row ``i``
        holds arcs ``2i`` and ``2i + 1`` of every commodity, block by block."""
        num_edges, num_arcs = self.capacity_block.shape
        offsets = num_arcs * np.arange(k).reshape(1, k, 1)
        indices = (np.arange(num_arcs).reshape(num_edges, 1, 2) + offsets).ravel()
        return sparse.csr_matrix(
            (np.ones(k * num_arcs), indices, np.arange(0, k * num_arcs + 1, 2 * k)),
            shape=(num_edges, k * num_arcs),
        )

    def _conservation_diagonal(self, k: int) -> sparse.csr_matrix:
        """``blockdiag(C, ..., C)``, the arrays ``sparse.block_diag`` builds:
        block ``j`` is ``C`` shifted by ``j`` rows and columns of blocks."""
        block = self.conservation_block
        num_rows, num_columns = block.shape
        copies = np.arange(k).reshape(k, 1)
        indptr = np.append((block.indptr[:-1] + block.nnz * copies).ravel(), k * block.nnz)
        return sparse.csr_matrix(
            (np.tile(block.data, k), (block.indices + num_columns * copies).ravel(), indptr),
            shape=(k * num_rows, k * num_columns),
        )

    def capacity_rhs(self, graph: nx.Graph) -> np.ndarray:
        """``b_ub``: the current capacity of every edge, in block row order."""
        edge_data = graph.edges
        return np.array(
            [float(edge_data[u, v].get("capacity", 0.0)) for u, v in self.edges]
        )

    def conservation_rhs(self, commodities: Sequence[Commodity]) -> np.ndarray:
        """``b_eq``: ±demand at each commodity's endpoints, in block row order."""
        num_nodes = len(self.nodes)
        b_eq = np.zeros(num_nodes * len(commodities))
        for index, commodity in enumerate(commodities):
            source_row = self.node_index.get(commodity.source)
            if source_row is not None:
                b_eq[index * num_nodes + source_row] = commodity.demand
            target_row = self.node_index.get(commodity.target)
            if target_row is not None:
                b_eq[index * num_nodes + target_row] = -commodity.demand
        return b_eq


class StructureCache:
    """LRU cache of :class:`TopologyStructure` objects keyed by signature."""

    def __init__(self, maxsize: int = DEFAULT_STRUCTURE_CACHE_SIZE) -> None:
        self.maxsize = maxsize
        self._entries: "OrderedDict[Signature, TopologyStructure]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def structure_for(self, graph: nx.Graph) -> TopologyStructure:
        """The (cached) structure of ``graph``'s topology."""
        return self.lookup(
            topology_signature(graph),
            lambda signature: TopologyStructure(graph.nodes, graph.edges, signature),
        )

    def lookup(
        self, signature: Signature, build: Callable[[Signature], TopologyStructure]
    ) -> TopologyStructure:
        """The structure cached under ``signature``, or ``build(signature)``
        cached under it.  Every lookup counts one structure hit or miss."""
        with self._lock:
            structure = self._entries.get(signature)
            if structure is not None:
                self._entries.move_to_end(signature)
        record_structure_lookup(hit=structure is not None)
        if structure is not None:
            return structure
        started = time.perf_counter()
        structure = build(signature)
        record_build(time.perf_counter() - started)
        with self._lock:
            self._entries[signature] = structure
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
        return structure


class InstanceScope:
    """What the runs of one instance reuse: its topology structures and the
    greedy baselines' candidate lists
    (:func:`repro.heuristics.greedy.enumerate_candidate_paths`)."""

    __slots__ = ("structures", "candidates")

    def __init__(self) -> None:
        self.structures = StructureCache()
        #: Candidate lists by ``(id(supply), id(demand), max_paths_per_pair)``,
        #: each kept with its supply and demand so no id is reused while the
        #: scope lasts.
        self.candidates: Dict[Tuple[int, int, int], tuple] = {}


_SCOPE: contextvars.ContextVar[Optional[InstanceScope]] = contextvars.ContextVar(
    "repro_instance_scope", default=None
)


@contextmanager
def instance_scope() -> Iterator[InstanceScope]:
    """Share structures and candidate lists inside the ``with`` block only.

    Opened by :func:`repro.api.service.run_algorithms` around an instance's
    runs, by the online engine around an episode.  A nested scope starts
    empty and ends with its block.  Sharing is safe because no registered
    algorithm modifies the instance it is given.
    """
    scope = InstanceScope()
    token = _SCOPE.set(scope)
    try:
        yield scope
    finally:
        _SCOPE.reset(token)


def current_scope() -> Optional[InstanceScope]:
    """The open :class:`InstanceScope`, or ``None`` outside every scope."""
    return _SCOPE.get()


class IncrementalFlowProblem(FlowProblem):
    """A :class:`FlowProblem` whose constraint system comes from cached blocks.

    Behaviourally identical to the from-scratch parent (the property suite
    asserts matrix equality), but :meth:`capacity_matrix` and
    :meth:`conservation_matrix` only pay for the RHS vectors and — on the
    first use of a (topology, commodity count) — one sparse block stack.
    """

    def __init__(
        self,
        graph: nx.Graph,
        commodities: Sequence[Commodity],
        structure: Optional[TopologyStructure] = None,
    ) -> None:
        if graph.is_directed():
            raise ValueError("FlowProblem expects an undirected graph")
        self.graph = graph
        self.commodities = list(commodities)
        if structure is None:
            # The open instance scope's structure; a fresh build outside one.
            scope = current_scope()
            cache = scope.structures if scope is not None else StructureCache()
            structure = cache.structure_for(graph)
        self.structure = structure
        # Reuse the cached indexing verbatim: with an identical signature the
        # index maps are valid for this graph even if its iteration order
        # differs from the graph the structure was first built from.
        self.nodes = structure.nodes
        self._node_index = structure.node_index
        self.edges = structure.edges
        self._edge_index = structure.edge_index
        self.arcs = structure.arcs
        self._arc_index = structure.arc_index
        self.infeasible_commodities = FlowProblem.find_infeasible(
            self.commodities, self._node_index
        )

    def capacity_matrix(self) -> Tuple[sparse.csr_matrix, np.ndarray]:
        started = time.perf_counter()
        a_ub = self.structure.assembled(self.num_commodities)[0]
        b_ub = self.structure.capacity_rhs(self.graph)
        record_build(time.perf_counter() - started)
        return a_ub, b_ub

    def conservation_matrix(self) -> Tuple[sparse.csr_matrix, np.ndarray]:
        started = time.perf_counter()
        a_eq = self.structure.assembled(self.num_commodities)[1]
        b_eq = self.structure.conservation_rhs(self.commodities)
        record_build(time.perf_counter() - started)
        return a_eq, b_eq


def build_flow_problem(graph: nx.Graph, commodities: Sequence[Commodity]) -> IncrementalFlowProblem:
    """Build a flow problem on the open instance scope's structures."""
    return IncrementalFlowProblem(graph, commodities)


__all__ = [
    "DEFAULT_STRUCTURE_CACHE_SIZE",
    "topology_signature",
    "TopologyStructure",
    "StructureCache",
    "InstanceScope",
    "instance_scope",
    "current_scope",
    "IncrementalFlowProblem",
    "build_flow_problem",
]
