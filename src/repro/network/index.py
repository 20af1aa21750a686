"""An indexed, array-backed snapshot of a supply graph.

ISP's graph primitives — max-flow values, shortest-path covers and prune
connectivity — run thousands of times per solve on graphs that differ only
by a few repairs and residual updates.  :class:`GraphIndex` numbers the
nodes and edges of a :class:`~repro.network.supply.SupplyGraph` once and
keeps what those primitives read in arrays:

* the node order and the edge endpoint arrays ``tail``/``head`` in
  ``graph.edges`` order, with each edge's canonical key computed once;
* nominal capacity, residual capacity and repair costs;
* broken and listed-for-repair masks for nodes and edges;
* adjacency lists ``(neighbour, edge)`` in the order networkx iterates the
  adjacency of :meth:`SupplyGraph.full_graph`.

The owner keeps it current through :meth:`GraphIndex.list_node`,
:meth:`GraphIndex.list_edge` and :meth:`GraphIndex.set_residual`.  Each
primitive reproduces the networkx computation it replaces:

* max-flow *values* run on :func:`scipy.sparse.csgraph.maximum_flow` when
  every capacity is an exact integer and their total fits int32
  arithmetic, and on :func:`networkx.maximum_flow` otherwise (a max-flow
  value is unique, so only the fallback needs networkx's graph layout);
* the Dijkstra behind path covers breaks ties exactly as networkx's
  ``(distance, counter, node)`` heap does, so covers pick the same paths;
* the hop-count simple paths of the greedy baselines and SRT
  (:func:`simple_paths`) are networkx's Yen loop and bidirectional BFS on
  indices, so they come in :func:`networkx.shortest_simple_paths` order;
* prune connectivity and the connectivity half of the routability test
  are decided with :func:`scipy.sparse.csgraph.connected_components` on
  edge masks;
* the networkx working graph the routability LP and prune hits read is
  built from the arrays (:meth:`GraphIndex.working_graph`) with
  :meth:`SupplyGraph.working_graph`'s node and edge layout, once per
  repair, and residual updates are written into it in place.

The module also serves the max-flow helpers on plain networkx graphs,
:func:`max_flow_value` and :func:`max_flow_over_path_set` through the same
kernel, :func:`bottleneck_capacity`, and :func:`max_flow_verdict`, which
decides multi-commodity routability by integer max-flows where they
settle it.  The verdict's max-flows are a pure-Python
shortest-augmenting-path max-flow over an :class:`ArcLayout`'s arcs
(:func:`_route`), capped at each demand: on graphs of a few dozen nodes
its breadth-first searches cost less than building csgraph matrices and
calling :func:`~scipy.sparse.csgraph.maximum_flow`.  The demand builder
asks the verdict; ISP's split LP (:mod:`repro.flows.splitting_lp`) asks
only its first test, :func:`routes_in_turn`.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import (
    Collection,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import networkx as nx
import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from repro.network.supply import SupplyGraph, canonical_edge

Node = Hashable
Edge = Tuple[Node, Node]
Path = Tuple[Node, ...]
#: ``adjacency[i]`` lists ``(neighbour index, edge index)`` pairs.
Adjacency = List[List[Tuple[int, int]]]

#: Capacities below this threshold are treated as saturated edges.
CAPACITY_EPSILON = 1e-9

#: Largest capacity total csgraph may see: a residual arc carries at most
#: its own capacity plus the reverse arc's, so every intermediate value of
#: the int32 kernel stays below ``2 * total``.
_INT32_TOTAL = (2**31 - 1) // 2


# ---------------------------------------------------------------------- #
# Max-flow kernel
# ---------------------------------------------------------------------- #
def _int32_capacities(capacity: np.ndarray) -> Optional[np.ndarray]:
    """``capacity`` as int32 when every value is an exact non-negative
    integer and the total fits int32 arithmetic, otherwise ``None``."""
    if capacity.size == 0:
        return capacity.astype(np.int32)
    if not (
        capacity.min() >= 0
        and capacity.sum() <= _INT32_TOTAL
        and np.array_equal(capacity, np.floor(capacity))
    ):
        return None
    return capacity.astype(np.int32)


class ArcLayout:
    """Both arcs of every undirected edge, in CSR order.

    Masked csgraph matrices are sliced from this layout instead of being
    converted from coordinates, which keeps the per-call overhead small;
    :func:`_route` walks the same arcs as Python lists (:meth:`out_arcs`).
    """

    def __init__(self, num_nodes: int, tail: np.ndarray, head: np.ndarray) -> None:
        rows = np.concatenate([tail, head])
        cols = np.concatenate([head, tail])
        order = np.lexsort((cols, rows))
        self.size = num_nodes
        self.tail = tail
        self.head = head
        self.row = rows[order]
        self.col = cols[order]
        self.edge = np.concatenate([np.arange(len(tail))] * 2)[order]
        self._out: Optional[List[List[Tuple[int, int, int]]]] = None

    def matrix(self, edge_values: np.ndarray) -> sparse.csr_matrix:
        """Symmetric matrix with ``edge_values[e]`` on both arcs of every
        edge ``e`` whose value is non-zero."""
        values = edge_values[self.edge]
        keep = values != 0
        indptr = np.zeros(self.size + 1, dtype=self.col.dtype)
        np.cumsum(np.bincount(self.row[keep], minlength=self.size), out=indptr[1:])
        return sparse.csr_matrix(
            (values[keep], self.col[keep], indptr), shape=(self.size, self.size)
        )

    def labels(self, edge_mask: np.ndarray) -> np.ndarray:
        """Connected-component label of every node over the masked edges."""
        # The matrix is symmetric, so its strong components are the
        # undirected ones, found without building a transpose.  float64 is
        # csgraph's own dtype, so it converts nothing.
        matrix = self.matrix(edge_mask.astype(float))
        return csgraph.connected_components(matrix, directed=True, connection="strong")[1]

    def max_flow(self, capacity: np.ndarray, source: int, target: int) -> float:
        """Max-flow value for int32 edge ``capacity`` on csgraph."""
        return float(csgraph.maximum_flow(self.matrix(capacity), source, target).flow_value)

    def out_arcs(self) -> List[List[Tuple[int, int, int]]]:
        """``(neighbour, edge, sign)`` of every arc leaving each node, in CSR
        order; ``sign`` is 1 on the ``tail -> head`` arc and -1 on the other."""
        if self._out is None:
            forward = (self.row == self.tail[self.edge]).tolist()
            self._out = [[] for _ in range(self.size)]
            for u, v, edge, ahead in zip(
                self.row.tolist(), self.col.tolist(), self.edge.tolist(), forward
            ):
                self._out[u].append((v, edge, 1 if ahead else -1))
        return self._out


def _route(
    out: List[List[Tuple[int, int, int]]],
    residual: List[int],
    source: int,
    target: int,
    amount: int,
) -> bool:
    """Whether ``amount`` units go from ``source`` to ``target`` on the
    integral edge ``residual`` capacities; if so, the edges they use are
    taken off ``residual``.

    A max-flow by shortest augmenting paths (breadth-first search over the
    arcs of ``out``) that stops at ``amount`` units.  ``flow`` holds the
    net ``tail -> head`` flow of every edge it uses, so an arc's spare
    capacity is ``residual[edge] - sign * flow``, and a routed edge loses
    ``|flow|``: what one commodity's row of the LP's capacity constraint
    charges it.
    """
    flow: Dict[int, int] = {}
    routed = 0
    while routed < amount:
        reached: Dict[int, Tuple[int, int, int]] = {source: (source, -1, 0)}
        queue = [source]
        for node in queue:
            for neighbour, edge, sign in out[node]:
                if neighbour not in reached and residual[edge] > sign * flow.get(edge, 0):
                    reached[neighbour] = (node, edge, sign)
                    queue.append(neighbour)
            if target in reached:
                break
        else:
            return False
        path = []
        node = target
        while node != source:
            node, edge, sign = reached[node]
            path.append((edge, sign))
        push = min(residual[edge] - sign * flow.get(edge, 0) for edge, sign in path)
        push = min(push, amount - routed)
        for edge, sign in path:
            flow[edge] = flow.get(edge, 0) + sign * push
        routed += push
    for edge, carried in flow.items():
        residual[edge] -= abs(carried)
    return True


def _route_in_turn(
    arcs: ArcLayout,
    capacity: np.ndarray,
    commodities: Sequence[Tuple[int, int, float]],
) -> Optional[Tuple[int, List[int], List[int]]]:
    """Route ``commodities`` one after another on edge ``capacity`` with
    :func:`_route`, each on what the ones before it left and capped at its
    demand, up to the first that does not route.

    Returns how many routed, with the capacities and demands as ints, or
    ``None`` when a capacity or demand is not an exact integer or their
    total is beyond the int32 guard of :func:`_int32_capacities`.
    """
    demands = np.array([demand for _, _, demand in commodities], dtype=float)
    exact = _int32_capacities(np.concatenate([capacity, demands]))
    if exact is None:
        return None
    intact, amounts = exact[: len(capacity)].tolist(), exact[len(capacity):].tolist()
    out, residual = arcs.out_arcs(), list(intact)
    for routed, ((source, target, _), amount) in enumerate(zip(commodities, amounts)):
        if not _route(out, residual, source, target, amount):
            return routed, intact, amounts
    return len(commodities), intact, amounts


def routes_in_turn(
    arcs: ArcLayout,
    capacity: np.ndarray,
    commodities: Sequence[Tuple[int, int, float]],
) -> bool:
    """Whether ``commodities`` — ``(source, target, demand)`` with distinct
    node indices — route one after another on edge ``capacity``, each on
    the capacity the ones before it left and capped at its demand.

    Those flows together are a feasible routing, so ``True`` proves the
    commodities routable together.  ``False`` proves nothing: a commodity
    did not route in turn, or a capacity or demand is not an exact integer
    or their total is beyond the int32 guard of :func:`_int32_capacities`.
    """
    turn = _route_in_turn(arcs, capacity, commodities)
    return turn is not None and turn[0] == len(commodities)


def max_flow_verdict(
    arcs: ArcLayout,
    capacity: np.ndarray,
    commodities: Sequence[Tuple[int, int, float]],
) -> Optional[bool]:
    """Whether ``commodities`` — ``(source, target, demand)`` with distinct
    node indices — can be routed together on edge ``capacity``, when
    integer max-flows decide it, else ``None``.

    Both tests run on :func:`_route`.  ``True`` when the commodities route
    in turn (:func:`routes_in_turn`).  ``False`` when one commodity alone
    cannot route its demand on the whole capacity (its max-flow is below
    it).  ``None`` when neither holds, or when a capacity or demand is not
    an exact integer or their total is beyond the int32 guard of
    :func:`_int32_capacities`.
    """
    turn = _route_in_turn(arcs, capacity, commodities)
    if turn is None:
        return None
    short, intact, amounts = turn
    if short == len(commodities):
        return True
    # the commodities before ``short`` were routed, so each fits alone
    out = arcs.out_arcs()
    for (source, target, _), amount in zip(commodities[short:], amounts[short:]):
        if not _route(out, list(intact), source, target, amount):
            return False
    return None


def _networkx_flow(graph: nx.Graph, source: Node, target: Node) -> float:
    """Max-flow value through :func:`networkx.maximum_flow` (the fallback)."""
    if not nx.has_path(graph, source, target):
        return 0.0
    value, _ = nx.maximum_flow(graph, source, target, capacity="capacity")
    return float(value)


def max_flow_value(graph: nx.Graph, source: Node, target: Node) -> float:
    """Maximum flow between ``source`` and ``target`` on an undirected graph.

    Edges carry a ``capacity`` attribute (missing means unbounded).  Returns
    0 when either endpoint is missing or the endpoints are disconnected.
    """
    if source == target:
        return float("inf")
    if source not in graph or target not in graph:
        return 0.0
    position = {node: i for i, node in enumerate(graph)}
    tail: List[int] = []
    head: List[int] = []
    capacity: List[float] = []
    for u, v, data in graph.edges(data=True):
        if u != v:
            tail.append(position[u])
            head.append(position[v])
            capacity.append(data.get("capacity", float("inf")))
    exact = _int32_capacities(np.array(capacity, dtype=float))
    if exact is None:
        return _networkx_flow(graph, source, target)
    arcs = ArcLayout(len(position), np.array(tail, dtype=np.int32), np.array(head, dtype=np.int32))
    return arcs.max_flow(exact, position[source], position[target])


def max_flow_over_path_set(
    graph: nx.Graph, paths: Sequence[Sequence[Node]], source: Node, target: Node
) -> float:
    """Maximum ``source``→``target`` flow using only the edges of ``paths``.

    Builds the subgraph induced by the union of the paths' edges (with the
    capacities of ``graph``) and runs a max-flow on it.  This is the
    ``f*(P(s_h, t_h))`` quantity of Theorem 3.
    """
    if not paths:
        return 0.0
    subgraph = nx.Graph()
    for path in paths:
        for u, v in zip(path, path[1:]):
            if not graph.has_edge(u, v):
                raise KeyError(f"path edge ({u!r}, {v!r}) is not present in the graph")
            subgraph.add_edge(u, v, capacity=graph.edges[u, v].get("capacity", 0.0))
    if source not in subgraph or target not in subgraph:
        return 0.0
    return max_flow_value(subgraph, source, target)


def bottleneck_capacity(graph: nx.Graph, path: Sequence[Node]) -> float:
    """Bottleneck (minimum edge capacity) of a path on ``graph``."""
    if len(path) < 2:
        return float("inf")
    return min(graph.edges[u, v].get("capacity", 0.0) for u, v in zip(path, path[1:]))


# ---------------------------------------------------------------------- #
# Shortest-path cover kernel
# ---------------------------------------------------------------------- #
def _dijkstra(
    adjacency: Adjacency,
    weights: Sequence[float],
    residual: Sequence[float],
    source: int,
    target: int,
) -> Optional[Tuple[List[int], List[int]]]:
    """Shortest ``source``→``target`` path as (nodes, edges), or ``None``.

    Edges whose residual is at most :data:`CAPACITY_EPSILON` are invisible.
    The loop is networkx's ``_dijkstra_multisource`` on indices: the heap
    holds ``(distance, push counter, node)``, a node's path is replaced only
    by a strictly shorter one, and the search stops when ``target`` is
    popped — so ties resolve to the path :func:`networkx.dijkstra_path`
    returns on the same adjacency order.
    """
    done: List[bool] = [False] * len(adjacency)
    best: List[Optional[float]] = [None] * len(adjacency)
    via: Dict[int, Tuple[int, int]] = {}
    best[source] = 0
    fringe = [(0, 0, source)]
    pushes = 1
    while fringe:
        distance, _, node = heappop(fringe)
        if done[node]:
            continue
        done[node] = True
        if node == target:
            break
        for neighbour, edge in adjacency[node]:
            if residual[edge] <= CAPACITY_EPSILON or done[neighbour]:
                continue
            candidate = distance + weights[edge]
            known = best[neighbour]
            if known is None or candidate < known:
                best[neighbour] = candidate
                heappush(fringe, (candidate, pushes, neighbour))
                pushes += 1
                via[neighbour] = (node, edge)
    if not done[target]:
        return None
    nodes, edges = [target], []
    while nodes[-1] != source:
        node, edge = via[nodes[-1]]
        nodes.append(node)
        edges.append(edge)
    nodes.reverse()
    edges.reverse()
    return nodes, edges


def _bidirectional_bfs(
    adjacency: Adjacency,
    source: int,
    target: int,
    ignored: List[bool],
    blocked: Collection[int],
) -> Optional[List[int]]:
    """Fewest-hop ``source``→``target`` path avoiding ``ignored`` nodes and
    ``blocked`` edges, or ``None``.

    networkx's ``_bidirectional_pred_succ`` on indices: the smaller fringe
    (the forward one on ties) grows by one level, neighbours are scanned in
    adjacency order, and the search stops at the first neighbour already
    reached from the other side.
    """
    if source == target:
        return [source]
    pred: Dict[int, int] = {source: -1}
    succ: Dict[int, int] = {target: -1}
    forward, reverse = [source], [target]
    meet = -1
    while forward and reverse and meet < 0:
        if len(forward) <= len(reverse):
            level, forward = forward, []
            reached, other = pred, succ
            fringe = forward
        else:
            level, reverse = reverse, []
            reached, other = succ, pred
            fringe = reverse
        for node in level:
            for neighbour, edge in adjacency[node]:
                if ignored[neighbour] or edge in blocked:
                    continue
                if neighbour not in reached:
                    fringe.append(neighbour)
                    reached[neighbour] = node
                if neighbour in other:
                    meet = neighbour
                    break
            if meet >= 0:
                break
    if meet < 0:
        return None
    path = []
    node = pred[meet]
    while node >= 0:
        path.append(node)
        node = pred[node]
    path.reverse()
    node = meet
    while node >= 0:
        path.append(node)
        node = succ[node]
    return path


def simple_paths(adjacency: Adjacency, source: int, target: int) -> Iterator[List[int]]:
    """Every simple ``source``→``target`` path, fewest hops first.

    The sequence is :func:`networkx.shortest_simple_paths` (no weight) on a
    graph whose adjacency order is ``adjacency``: Yen's loop, spur searches
    by :func:`_bidirectional_bfs`, and a heap of ``(length, push counter,
    path)`` that skips a path already queued.  networkx finds the edges to
    avoid from a root by scanning every yielded path; here a trie of the
    yielded paths gives the same edges: those from the root's last node to
    its children.  Edges ignored from shorter roots touch ignored nodes, so
    they would not change a search.  Nothing is yielded when the endpoints
    are disconnected.
    """
    first = _bidirectional_bfs(adjacency, source, target, [False] * len(adjacency), ())
    if first is None:
        return
    queue = [(len(first), 0, first)]
    queued = {tuple(first)}
    pushes = 1
    trie: Dict[int, dict] = {}
    while queue:
        _, _, path = heappop(queue)
        queued.discard(tuple(path))
        yield path
        branch = trie
        for node in path:
            branch = branch.setdefault(node, {})
        # spur from the last node of every root path[:i]; ``branch`` holds
        # the nodes that follow the root in the paths yielded so far
        branch = trie[path[0]]
        ignored = [False] * len(adjacency)
        for i in range(1, len(path)):
            spur_node = path[i - 1]
            blocked = {edge for neighbour, edge in adjacency[spur_node] if neighbour in branch}
            spur = _bidirectional_bfs(adjacency, spur_node, target, ignored, blocked)
            if spur is not None:
                found = path[: i - 1] + spur
                key = tuple(found)
                if key not in queued:
                    heappush(queue, (i + len(spur), pushes, found))
                    queued.add(key)
                    pushes += 1
            ignored[spur_node] = True
            branch = branch[path[i]]


def path_cover(
    adjacency: Adjacency,
    weights: Sequence[float],
    residual: List[float],
    source: int,
    target: int,
    demand: float,
    max_paths: Optional[int] = None,
) -> List[Tuple[List[int], float]]:
    """Iterative-Dijkstra path cover on indices (Section IV-B).

    Repeatedly takes the shortest path over edges with residual capacity,
    records it with its bottleneck, and subtracts the bottleneck from
    ``residual`` (consumed in place) until ``demand`` is covered, the
    endpoints disconnect or ``max_paths`` paths were taken.
    """
    cover: List[Tuple[List[int], float]] = []
    if source == target:
        return cover
    covered = 0.0
    while covered < demand - CAPACITY_EPSILON:
        if max_paths is not None and len(cover) >= max_paths:
            break
        found = _dijkstra(adjacency, weights, residual, source, target)
        if found is None:
            break
        nodes, edges = found
        bottleneck = min(residual[edge] for edge in edges)
        cover.append((nodes, bottleneck))
        covered += bottleneck
        for edge in edges:
            residual[edge] -= bottleneck
    return cover


# ---------------------------------------------------------------------- #
# The snapshot
# ---------------------------------------------------------------------- #
class GraphIndex:
    """Indexed snapshot of a :class:`SupplyGraph` (see the module docstring).

    ``listed_nodes`` / ``listed_edges`` are the elements already listed for
    repair: they count as working and no longer add their repair cost to
    the dynamic edge length.
    """

    def __init__(
        self,
        supply: SupplyGraph,
        listed_nodes: Iterable[Node] = (),
        listed_edges: Iterable[Edge] = (),
    ) -> None:
        graph = supply.graph
        self.nodes: List[Node] = list(graph.nodes)
        self.position: Dict[Node, int] = {node: i for i, node in enumerate(self.nodes)}
        #: Canonical key of every edge, in ``graph.edges`` order.
        self.edges: List[Edge] = []
        self._edge_ids: Dict[Tuple[Node, Node], int] = {}
        self.adjacency: Adjacency = [[] for _ in self.nodes]
        broken_edges = supply.broken_edges
        tail, head, capacity, residual, edge_cost, broken = [], [], [], [], [], []
        for edge, (u, v, data) in enumerate(graph.edges(data=True)):
            i, j = self.position[u], self.position[v]
            key = canonical_edge(u, v)
            self.edges.append(key)
            self._edge_ids[(u, v)] = self._edge_ids[(v, u)] = edge
            self.adjacency[i].append((j, edge))
            self.adjacency[j].append((i, edge))
            tail.append(i)
            head.append(j)
            capacity.append(data["capacity"])
            residual.append(supply.residual(u, v))
            edge_cost.append(data["repair_cost"])
            broken.append(key in broken_edges)
        self.tail = np.array(tail, dtype=np.int32)
        self.head = np.array(head, dtype=np.int32)
        self.capacity = np.array(capacity, dtype=float)
        self.residual = np.array(residual, dtype=float)
        self.edge_cost = np.array(edge_cost, dtype=float)
        self.broken_edge = np.array(broken, dtype=bool)
        self.node_cost = np.array(
            [supply.node_repair_cost(node) for node in self.nodes], dtype=float
        )
        self.broken_node = np.array(
            [supply.is_broken_node(node) for node in self.nodes], dtype=bool
        )
        self.listed_node = np.zeros(len(self.nodes), dtype=bool)
        self.listed_edge = np.zeros(len(self.edges), dtype=bool)
        #: Both arcs of every edge: csgraph matrices and the router's arcs.
        self.arcs = ArcLayout(len(self.nodes), self.tail, self.head)
        #: Component labels of the complete graph (its structure never changes).
        self._labels: Optional[np.ndarray] = None
        #: Component labels of the working edges (-1 on nodes that do not
        #: work), and the networkx working graph: both kept until the next
        #: repair; residual updates are written into the graph.
        self._working_labels: Optional[np.ndarray] = None
        self._working_graph: Optional[nx.Graph] = None
        #: Component labels of the working edges with spare capacity, and
        #: max-flow values: both kept until the next mutation.
        self._spare_labels: Optional[np.ndarray] = None
        self._flows: Dict[Tuple[Node, Node, bool], float] = {}
        for node in listed_nodes:
            self.list_node(node)
        for u, v in listed_edges:
            self.list_edge(u, v)

    # ------------------------------------------------------------------ #
    # Keeping the snapshot current
    # ------------------------------------------------------------------ #
    def edge_of(self, u: Node, v: Node) -> int:
        """Index of the edge ``(u, v)`` (either orientation)."""
        return self._edge_ids[(u, v)]

    def list_node(self, node: Node) -> None:
        """Mark ``node`` as listed for repair."""
        self.listed_node[self.position[node]] = True
        self._repaired()

    def list_edge(self, u: Node, v: Node) -> None:
        """Mark the edge ``(u, v)`` as listed for repair."""
        self.listed_edge[self.edge_of(u, v)] = True
        self._repaired()

    def set_residual(self, u: Node, v: Node, residual: float) -> None:
        """Record the new residual capacity of the edge ``(u, v)``."""
        self.residual[self.edge_of(u, v)] = residual
        if self._working_graph is not None and self._working_graph.has_edge(u, v):
            self._working_graph.edges[u, v]["capacity"] = float(residual)
        self._changed()

    def _repaired(self) -> None:
        self._working_labels = None
        self._working_graph = None
        self._changed()

    def _changed(self) -> None:
        self._spare_labels = None
        self._flows.clear()

    # ------------------------------------------------------------------ #
    # Masks
    # ------------------------------------------------------------------ #
    def working_nodes(self) -> np.ndarray:
        """Nodes that are not broken or are listed for repair."""
        return ~self.broken_node | self.listed_node

    def working_edges(self, working_nodes: Optional[np.ndarray] = None) -> np.ndarray:
        """Edges of the working graph: usable themselves, with working endpoints."""
        nodes = self.working_nodes() if working_nodes is None else working_nodes
        return (~self.broken_edge | self.listed_edge) & nodes[self.tail] & nodes[self.head]

    def connected(self, u: Node, v: Node) -> bool:
        """Whether ``u`` and ``v`` are nodes connected in the complete graph."""
        if u not in self.position or v not in self.position:
            return False
        if self._labels is None:
            self._labels = self.arcs.labels(np.ones(len(self.edges), dtype=bool))
        return self._labels[self.position[u]] == self._labels[self.position[v]]

    def working_path(self, u: Node, v: Node) -> bool:
        """Whether ``u`` and ``v`` are working nodes joined by working edges
        (residuals aside; labels are cached until the next repair)."""
        if self._working_labels is None:
            nodes = self.working_nodes()
            labels = self.arcs.labels(self.working_edges(nodes))
            self._working_labels = np.where(nodes, labels, -1)
        i, j = self.position.get(u), self.position.get(v)
        if i is None or j is None or self._working_labels[i] < 0:
            return False
        return self._working_labels[i] == self._working_labels[j]

    # ------------------------------------------------------------------ #
    # networkx views and max-flow values
    # ------------------------------------------------------------------ #
    def working_graph(self) -> nx.Graph:
        """``to_networkx(working=True)``, built on first use after a repair
        and kept current by :meth:`set_residual`.  Callers only read it."""
        if self._working_graph is None:
            self._working_graph = self.to_networkx(working=True)
        return self._working_graph

    def to_networkx(self, working: bool = False) -> nx.Graph:
        """The complete (or working) graph with residual ``capacity`` edges,
        laid out as :meth:`SupplyGraph.full_graph` / ``working_graph`` do."""
        graph = nx.Graph()
        node_mask = self.working_nodes() if working else np.ones(len(self.nodes), dtype=bool)
        edge_mask = self.working_edges(node_mask) if working else np.ones(len(self.edges), bool)
        graph.add_nodes_from(node for node, keep in zip(self.nodes, node_mask.tolist()) if keep)
        for edge in np.flatnonzero(edge_mask).tolist():
            graph.add_edge(
                self.nodes[self.tail[edge]],
                self.nodes[self.head[edge]],
                capacity=float(self.residual[edge]),
            )
        return graph

    def max_flow(self, source: Node, target: Node, working: bool = False) -> float:
        """Max-flow value between ``source`` and ``target`` on the residual
        capacities of the complete graph, or of the working graph.

        Values are memoised until the next mutation.
        """
        key = (source, target, working)
        if key not in self._flows:
            self._flows[key] = self._max_flow(source, target, working)
        return self._flows[key]

    def _max_flow(self, source: Node, target: Node, working: bool) -> float:
        if source == target:
            return float("inf")
        s, t = self.position.get(source), self.position.get(target)
        if s is None or t is None:
            return 0.0
        capacity = self.residual
        if working:
            # Mostly a disconnected pair (ISP's direct-repair check): the
            # cached labels answer it without a max-flow.
            if not self.spare_path(source, target):
                return 0.0
            capacity = np.where(self.working_edges(), capacity, 0.0)
        exact = _int32_capacities(capacity)
        if exact is None:
            graph = self.working_graph() if working else self.to_networkx()
            return _networkx_flow(graph, source, target)
        return self.arcs.max_flow(exact, s, t)

    # ------------------------------------------------------------------ #
    # Centrality
    # ------------------------------------------------------------------ #
    def dynamic_lengths(self, const: float) -> np.ndarray:
        """:func:`~repro.network.paths.dynamic_edge_length` of every edge.

        One vectorised expression with the scalar formula's operation
        order, ``(const + edge cost + node costs / 2) / nominal capacity``,
        so every length equals the scalar one bit for bit.
        """
        pending_node = np.where(self.broken_node & ~self.listed_node, self.node_cost, 0.0)
        pending_edge = np.where(self.broken_edge & ~self.listed_edge, self.edge_cost, 0.0)
        node_costs = pending_node[self.tail] + pending_node[self.head]
        return (const + pending_edge + node_costs / 2.0) / self.capacity

    def path_cover(
        self,
        source: Node,
        target: Node,
        demand: float,
        weights: Sequence[float],
        max_paths: Optional[int] = None,
    ) -> List[Tuple[Path, float]]:
        """:func:`~repro.network.paths.shortest_path_cover` on the complete
        graph with residual capacities and the given edge ``weights``."""
        if source == target:
            return []
        s, t = self.position.get(source), self.position.get(target)
        if s is None or t is None:
            return []
        cover = path_cover(
            self.adjacency, weights, self.residual.tolist(), s, t, demand, max_paths
        )
        return [(tuple(self.nodes[i] for i in path), capacity) for path, capacity in cover]

    def simple_paths(self, source: Node, target: Node) -> Iterator[Path]:
        """``networkx.shortest_simple_paths(full_graph(), source, target)``
        on the index (see :func:`simple_paths`), as node tuples."""
        paths = simple_paths(self.adjacency, self.position[source], self.position[target])
        for path in paths:
            yield tuple(self.nodes[i] for i in path)

    # ------------------------------------------------------------------ #
    # Pruning
    # ------------------------------------------------------------------ #
    def spare_path(self, source: Node, target: Node) -> bool:
        """Whether a working path with positive residual capacity joins the
        two nodes (labels are cached until the next mutation)."""
        if self._spare_labels is None:
            self._spare_labels = self.arcs.labels(self.working_edges() & (self.residual > 0))
        labels = self._spare_labels
        return labels[self.position[source]] == labels[self.position[target]]

    def bubble(
        self, source: Node, target: Node, endpoints: Collection[Node]
    ) -> Optional[Set[Node]]:
        """The bubble of ``(source, target)`` on the working graph, or
        ``None`` when no positive-residual path joins them inside it.

        The bubble is :func:`repro.core.prune.find_bubble`'s set, built in
        the same insertion order: the working nodes that no other demand
        endpoint reaches once ``source`` and ``target`` are removed.  Both
        endpoints must be working nodes.
        """
        s, t = self.position[source], self.position[target]
        nodes = self.working_nodes()
        edges = self.working_edges(nodes)
        stripped = edges & (self.tail != s) & (self.tail != t) & (self.head != s) & (self.head != t)
        labels = self.arcs.labels(stripped)
        others = [
            self.position[node]
            for node in endpoints
            if node != source and node != target and node in self.position
        ]
        inside = nodes.copy()
        if others:
            others_array = np.array(others)
            inside &= ~np.isin(labels, labels[others_array[nodes[others_array]]])
        inside[s] = inside[t] = True
        spare = edges & inside[self.tail] & inside[self.head] & (self.residual > 0)
        reach = self.arcs.labels(spare)
        if reach[s] != reach[t]:
            return None
        region = {source, target}
        region.update(self.nodes[i] for i in np.flatnonzero(inside).tolist() if i != s and i != t)
        return region


__all__ = [
    "CAPACITY_EPSILON",
    "ArcLayout",
    "GraphIndex",
    "bottleneck_capacity",
    "max_flow_over_path_set",
    "max_flow_value",
    "max_flow_verdict",
    "path_cover",
    "routes_in_turn",
    "simple_paths",
]
