"""Construction of demand graphs for the experiments.

The paper builds the demand graph by selecting pairs of nodes that are far
apart in the supply graph: "we randomly select the demand pairs among those
which have a hop distance greater than or equal to half the diameter of the
network" (Section VII-A).  :func:`far_apart_demand` implements exactly that;
:func:`routable_far_apart_demand` redraws until the intact network can route
the demand; :func:`random_demand` is an unconstrained variant used by tests
and examples.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, List, Optional, Set, Tuple

import numpy as np

from repro.network.demand import DemandGraph
from repro.network.index import ArcLayout, max_flow_verdict
from repro.network.supply import SupplyGraph
from repro.utils.rng import RandomState, ensure_rng
from repro.utils.validation import check_positive

Node = Hashable
Pair = Tuple[Node, Node]
#: Eligible pairs as ``(nodes, first, second)``: pair ``k`` is
#: ``(nodes[first[k]], nodes[second[k]])``.
EligiblePairs = Tuple[List[Node], np.ndarray, np.ndarray]
#: The nodes of a supply graph, their positions, and both arcs of its edges.
EdgeEnds = Tuple[List[Node], Dict[Node, int], ArcLayout]


def _edge_ends(supply: SupplyGraph) -> EdgeEnds:
    """The nodes of ``supply.graph``, their positions, and the
    :class:`~repro.network.index.ArcLayout` of its edges in ``graph.edges``
    order."""
    nodes = list(supply.graph)
    position = {node: i for i, node in enumerate(nodes)}
    ends = np.array([(position[u], position[v]) for u, v in supply.graph.edges], dtype=np.int32)
    tail, head = ends.reshape(-1, 2).T
    return nodes, position, ArcLayout(len(nodes), tail, head)


def _bits(words: np.ndarray, width: int) -> np.ndarray:
    """Bit ``j`` of each row of uint64 ``words`` (word ``j // 64``, bit
    ``j % 64``) as column ``j`` of a 0/1 uint8 array ``width`` wide."""
    octets = words.astype("<u8", copy=False).view(np.uint8)
    return np.unpackbits(octets, axis=1, count=width, bitorder="little")


def _hop_table(
    size: int, row: np.ndarray, col: np.ndarray, dtype: np.dtype
) -> Tuple[np.ndarray, np.ndarray]:
    """Hop counts between the ``size`` nodes of the undirected arcs
    ``row -> col`` (sorted by ``row``), and each node's first reachable
    node, which names its component.

    One breadth-first search from every node at once: row ``v`` of
    ``reached`` holds, one bit per source, the sources within the current
    level of ``v``.  A level ORs the frontier rows of each node's
    neighbours and keeps the bits not reached before.  The hop count of a
    newly reached bit is the level, written in binary into one bitset per
    binary digit (``planes``), so the ``size x size`` table is unpacked
    once per digit rather than once per level.  Hops between nodes of
    different components read 0.
    """
    sources = np.arange(size)
    reached = np.zeros((size, (size + 63) // 64), dtype=np.uint64)
    reached[sources, sources // 64] = np.uint64(1) << (sources % 64).astype(np.uint64)
    starts = np.flatnonzero(np.diff(row, prepend=-1))  # first arc of each row
    rows = row[starts]
    frontier, planes, level = reached.copy(), [], 0
    while len(starts):
        level += 1
        new = np.zeros_like(reached)
        new[rows] = np.bitwise_or.reduceat(frontier[col], starts, axis=0)
        new &= ~reached
        if not new.any():
            break
        reached |= new
        while level >> len(planes):
            planes.append(np.zeros_like(reached))
        for digit, plane in enumerate(planes):
            if level >> digit & 1:
                plane |= new
        frontier = new
    hops = np.zeros((size, size), dtype=dtype)
    for digit, plane in enumerate(planes):
        hops |= _bits(plane, size).astype(dtype) << digit
    return hops, _bits(reached, size).argmax(axis=1)


def _eligible_far_pairs(
    supply: SupplyGraph, min_fraction_of_diameter: float, ends: Optional[EdgeEnds] = None
) -> EligiblePairs:
    """Node pairs whose hop distance is >= the given fraction of the diameter.

    Only the largest connected component is considered (the first one in
    node order on ties).  Pairs come in ``itertools.combinations`` order
    over its nodes sorted by ``repr``.  ``ends`` are ``supply``'s
    :func:`_edge_ends`, when the caller has them.

    The hop table (:func:`_hop_table`) covers the graph without its
    leaves, the degree-one nodes hanging off a node of higher degree: no
    shortest path passes through a leaf, and a leaf is one hop further
    from everything than its neighbour.  Hops, leaf offsets and the
    diameter are integers of a dtype that holds any hop count of the
    graph, so the threshold test is exact.
    """
    nodes, _, arcs = _edge_ends(supply) if ends is None else ends
    degree = np.bincount(arcs.row, minlength=len(nodes))
    neighbour = np.arange(len(nodes))  # a leaf's only neighbour
    neighbour[arcs.row] = arcs.col
    leaf = (degree == 1) & (degree[neighbour] > 1)
    slot = np.cumsum(~leaf) - 1  # position of a core node among the core nodes
    inner = ~leaf[arcs.row] & ~leaf[arcs.col]
    dtype = np.min_scalar_type(len(nodes))
    hops, first_reached = _hop_table(
        len(nodes) - int(leaf.sum()), slot[arcs.row[inner]], slot[arcs.col[inner]], dtype
    )
    anchor = slot[np.where(leaf, neighbour, np.arange(len(nodes)))]
    # a component is named by its first core node; the first node of a
    # largest component names the one kept
    labels = first_reached[anchor]
    largest = labels[np.argmax(np.bincount(labels)[labels])]
    members = np.array(
        sorted(np.flatnonzero(labels == largest).tolist(), key=lambda i: repr(nodes[i])),
        dtype=np.int64,
    )
    offset = leaf[members].astype(dtype)
    anchor = anchor[members]
    distance = hops[anchor][:, anchor]
    distance += offset[:, None]
    distance += offset
    np.fill_diagonal(distance, 0)
    far = distance >= min_fraction_of_diameter * int(distance.max())
    for row in range(len(members)):
        far[row, : row + 1] = False
    # row-major order above the diagonal is itertools.combinations order
    first, second = np.divmod(np.flatnonzero(far), len(members))
    return [nodes[i] for i in members], first, second


def _check_request(num_pairs: int, flow_per_pair: float) -> None:
    check_positive(flow_per_pair, "flow_per_pair")
    if num_pairs < 1:
        raise ValueError("num_pairs must be at least 1")


def _draw_far_apart(
    eligible: EligiblePairs,
    num_pairs: int,
    flow_per_pair: float,
    rng: np.random.Generator,
    distinct_endpoints: bool,
) -> DemandGraph:
    """One random draw of ``num_pairs`` pairs from ``eligible``."""
    nodes, first, second = eligible
    if not len(first):
        raise ValueError("no node pair satisfies the distance requirement")

    order = rng.permutation(len(first))
    demand = DemandGraph()
    used_endpoints: Set[Node] = set()

    # First pass: endpoint-disjoint pairs; second pass: anything still needed.
    for enforce_disjoint in (distinct_endpoints, False):
        for index in order:
            if len(demand) >= num_pairs:
                break
            u, v = nodes[first[index]], nodes[second[index]]
            if demand.has_pair(u, v):
                continue
            if enforce_disjoint and (u in used_endpoints or v in used_endpoints):
                continue
            demand.add(u, v, flow_per_pair)
            used_endpoints.update((u, v))
        if len(demand) >= num_pairs:
            break

    if len(demand) < num_pairs:
        raise ValueError(
            f"only {len(demand)} eligible demand pairs exist, {num_pairs} requested"
        )
    return demand


def far_apart_demand(
    supply: SupplyGraph,
    num_pairs: int,
    flow_per_pair: float,
    min_fraction_of_diameter: float = 0.5,
    seed: RandomState = None,
    distinct_endpoints: bool = True,
) -> DemandGraph:
    """Build a demand graph of ``num_pairs`` far-apart pairs.

    Parameters
    ----------
    supply:
        Supply graph (its *undamaged* structure is used to measure hop
        distances, matching the paper where demand exists regardless of the
        disruption).
    num_pairs:
        Number of demand pairs to select.
    flow_per_pair:
        Demand flow assigned to every pair.
    min_fraction_of_diameter:
        Minimum hop distance as a fraction of the network diameter (the
        paper uses one half).
    seed:
        Deterministic seed or generator.
    distinct_endpoints:
        When true, prefer pairs whose endpoints were not used yet so the
        demand spreads over the network (falls back to reusing endpoints
        when not enough disjoint pairs exist).

    Raises
    ------
    ValueError
        If the supply graph has no eligible pair at all.
    """
    _check_request(num_pairs, flow_per_pair)
    eligible = _eligible_far_pairs(supply, min_fraction_of_diameter)
    return _draw_far_apart(eligible, num_pairs, flow_per_pair, ensure_rng(seed), distinct_endpoints)


def _intact_verdict(
    supply: SupplyGraph, ends: Optional[EdgeEnds] = None
) -> Callable[[DemandGraph], Optional[bool]]:
    """:func:`~repro.network.index.max_flow_verdict` of a demand on the
    nominal capacities of every edge of ``supply``, broken or not.
    ``ends`` are ``supply``'s :func:`_edge_ends`, when the caller has them."""
    _, position, arcs = _edge_ends(supply) if ends is None else ends
    capacity = np.array([value for _, _, value in supply.graph.edges(data="capacity")], float)

    def verdict(demand: DemandGraph) -> Optional[bool]:
        commodities = [
            (position[pair.source], position[pair.target], pair.demand) for pair in demand
        ]
        return max_flow_verdict(arcs, capacity, commodities)

    return verdict


def routable_far_apart_demand(
    supply: SupplyGraph,
    num_pairs: int,
    flow_per_pair: float,
    min_fraction_of_diameter: float = 0.5,
    seed: RandomState = None,
    attempts: int = 25,
) -> DemandGraph:
    """Like :func:`far_apart_demand`, but keep resampling until the demand is
    routable on the *undamaged* supply network.

    The paper's experiments always report results for the optimal solution,
    which implies the generated instances are feasible (the intact network
    could carry the demand).  With high per-pair intensities a random
    selection of far-apart pairs can overload a bottleneck link; this helper
    mirrors the paper by drawing new pairs until the intact network can route
    them simultaneously.  If no routable selection is found within
    ``attempts`` draws, the last draw is returned (callers can still detect
    the infeasibility through the OPT status).

    Integer max-flows on the intact capacities decide most draws
    (:func:`~repro.network.index.max_flow_verdict`); the routability LP of
    :func:`~repro.flows.routability.is_routable` decides the rest, on a
    complete graph built only for them.
    """
    from repro.flows.routability import is_routable  # local import to avoid a cycle

    _check_request(num_pairs, flow_per_pair)
    rng = ensure_rng(seed)
    ends = _edge_ends(supply)
    eligible = _eligible_far_pairs(supply, min_fraction_of_diameter, ends)
    verdict = _intact_verdict(supply, ends)
    full_graph = None
    demand: Optional[DemandGraph] = None
    for _ in range(max(1, attempts)):
        demand = _draw_far_apart(eligible, num_pairs, flow_per_pair, rng, True)
        routable = verdict(demand)
        if routable is None:
            if full_graph is None:
                full_graph = supply.full_graph(use_residual=False)
            routable = is_routable(full_graph, demand)
        if routable:
            return demand
    return demand


def random_demand(
    supply: SupplyGraph,
    num_pairs: int,
    flow_per_pair: float,
    seed: RandomState = None,
) -> DemandGraph:
    """Build a demand graph of uniformly random distinct pairs."""
    check_positive(flow_per_pair, "flow_per_pair")
    if num_pairs < 1:
        raise ValueError("num_pairs must be at least 1")
    rng = ensure_rng(seed)
    nodes = sorted(supply.nodes, key=repr)
    if len(nodes) < 2:
        raise ValueError("the supply graph needs at least two nodes")
    demand = DemandGraph()
    attempts = 0
    max_attempts = 1000 * num_pairs
    while len(demand) < num_pairs and attempts < max_attempts:
        attempts += 1
        u, v = (nodes[int(i)] for i in rng.integers(0, len(nodes), size=2))
        if u == v or demand.has_pair(u, v):
            continue
        demand.add(u, v, flow_per_pair)
    if len(demand) < num_pairs:
        raise ValueError("could not sample enough distinct demand pairs")
    return demand


def explicit_demand(
    supply: SupplyGraph,
    num_pairs: int = 0,
    flow_per_pair: float = 0.0,
    seed: RandomState = None,
    pairs: Tuple = (),
) -> DemandGraph:
    """Build a demand graph from explicitly listed pairs.

    ``pairs`` is a sequence of ``(source, target)`` tuples (each assigned
    ``flow_per_pair`` units) or ``(source, target, amount)`` triples.  This
    is the builder service clients use when the mission-critical pairs are
    known up front rather than drawn at random; ``num_pairs`` and ``seed``
    exist only for signature compatibility with the other builders and are
    ignored.

    Raises
    ------
    ValueError
        If ``pairs`` is empty, an entry is malformed, or an endpoint is not
        a node of the supply graph.
    """
    if not pairs:
        raise ValueError("explicit demand needs at least one (source, target[, amount]) pair")
    demand = DemandGraph()
    for entry in pairs:
        entry = tuple(entry)
        if len(entry) == 2:
            source, target = entry
            amount = flow_per_pair
        elif len(entry) == 3:
            source, target, amount = entry
        else:
            raise ValueError(
                f"demand pair must be (source, target) or (source, target, amount), got {entry!r}"
            )
        for endpoint in (source, target):
            if endpoint not in supply:
                raise ValueError(f"demand endpoint {endpoint!r} is not a supply node")
        demand.add(source, target, float(amount))
    return demand
