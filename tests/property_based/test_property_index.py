"""Exactness properties of the array-backed graph kernel (``repro.network.index``).

Each property compares a kernel primitive with the networkx computation it
replaced; those reference implementations live only in this module.
"""

import itertools

import hypothesis.strategies as st
import networkx as nx
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.api.service import RecoveryService
from repro.core.isp import ISPConfig, _ISPState, iterative_split_prune
from repro.core.prune import find_prunable_routing
from repro.evaluation.demand_builder import (
    _eligible_far_pairs,
    _intact_verdict,
    routable_far_apart_demand,
)
from repro.failures.complete import CompleteDestruction
from repro.flows.routability import is_routable, routability_test
from repro.network.demand import DemandGraph
from repro.network.index import (
    CAPACITY_EPSILON,
    GraphIndex,
    _route,
    max_flow_value,
    max_flow_verdict,
)
from repro.network.paths import dynamic_edge_length, shortest_path_cover
from repro.network.supply import SupplyGraph, canonical_edge
from repro.topologies.bellcanada import bell_canada
from repro.topologies.caida_like import caida_like

SETTINGS = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])


# ---------------------------------------------------------------------- #
# networkx references
# ---------------------------------------------------------------------- #
def reference_max_flow(graph, source, target):
    if source not in graph or target not in graph or not nx.has_path(graph, source, target):
        return 0.0
    value, _ = nx.maximum_flow(graph, source, target, capacity="capacity")
    return float(value)


def reference_cover(graph, source, target, demand, weight):
    """The networkx path cover the index kernel replaced."""
    residual = {
        canonical_edge(u, v): float(data.get("capacity", 0.0))
        for u, v, data in graph.edges(data=True)
    }

    def edge_weight(u, v, data):
        if residual[canonical_edge(u, v)] <= CAPACITY_EPSILON:
            return None
        return float(data.get(weight, 1.0))

    cover, covered = [], 0.0
    while covered < demand - CAPACITY_EPSILON:
        try:
            path = nx.dijkstra_path(graph, source, target, weight=edge_weight)
        except nx.NetworkXNoPath:
            break
        edges = list(zip(path, path[1:]))
        bottleneck = min(residual[canonical_edge(u, v)] for u, v in edges)
        cover.append((tuple(path), bottleneck))
        covered += bottleneck
        for u, v in edges:
            residual[canonical_edge(u, v)] -= bottleneck
    return cover


def reference_simple_paths(graph, source, target, limit=None):
    """networkx's hop-count Yen enumeration the simple-path kernel replaced
    (empty for disconnected endpoints, where networkx raises)."""
    try:
        paths = nx.shortest_simple_paths(graph, source, target)
        return [tuple(path) for path in itertools.islice(paths, limit)]
    except nx.NetworkXNoPath:
        return []


def reference_far_pairs(supply, fraction):
    graph = supply.full_graph(use_residual=False)
    if not nx.is_connected(graph):
        graph = graph.subgraph(max(nx.connected_components(graph), key=len))
    lengths = dict(nx.all_pairs_shortest_path_length(graph))
    threshold = fraction * max(max(row.values()) for row in lengths.values())
    return [
        (u, v)
        for u, v in itertools.combinations(sorted(graph.nodes, key=repr), 2)
        if lengths[u].get(v, 0) >= threshold
    ]


# ---------------------------------------------------------------------- #
# strategies
# ---------------------------------------------------------------------- #
INTEGER = st.integers(min_value=1, max_value=40).map(float)
FRACTIONAL = st.floats(min_value=0.1, max_value=40.0, allow_nan=False)
HUGE = st.integers(min_value=2**31, max_value=2**40).map(float)
COSTS = st.floats(min_value=0.0, max_value=10.0, allow_nan=False)


@st.composite
def supplies(draw, capacities=INTEGER, max_nodes=9):
    """A random supply graph (possibly disconnected, with leaves)."""
    size = draw(st.integers(min_value=2, max_value=max_nodes))
    supply = SupplyGraph()
    for node in range(size):
        supply.add_node(node, repair_cost=draw(COSTS))
    pairs = list(itertools.combinations(range(size), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=2 * size, unique=True))
    for u, v in chosen:
        supply.add_edge(u, v, capacity=draw(capacities), repair_cost=draw(COSTS))
    return supply


@st.composite
def damaged(draw, capacities=INTEGER):
    """A supply graph with broken, listed and partly consumed elements."""
    supply = draw(supplies(capacities))
    for node in supply.nodes:
        if draw(st.booleans()):
            supply.break_node(node)
    for u, v in supply.edges:
        if draw(st.booleans()):
            supply.break_edge(u, v)
        if draw(st.booleans()):
            supply.consume_capacity(u, v, supply.capacity(u, v) * draw(st.sampled_from((0.5, 1.0))))
    listed_nodes = {node for node in supply.broken_nodes if draw(st.booleans())}
    listed_edges = {edge for edge in supply.broken_edges if draw(st.booleans())}
    return supply, listed_nodes, listed_edges


@st.composite
def tied_grids(draw):
    """A unit-cost grid (many equal-length paths) with saturated edges."""
    rows, cols = draw(st.integers(2, 5)), draw(st.integers(2, 5))
    graph = nx.grid_2d_graph(rows, cols)
    for u, v in graph.edges:
        graph.edges[u, v]["capacity"] = draw(st.sampled_from((0.0, 1.0, 1.0, 2.0, 3.0)))
    return graph, (0, 0), (rows - 1, cols - 1)


@st.composite
def trees(draw):
    """A random tree: every node hangs off an earlier one (one path per pair)."""
    size = draw(st.integers(min_value=2, max_value=12))
    supply = SupplyGraph()
    supply.add_node(0)
    for node in range(1, size):
        supply.add_edge(draw(st.integers(min_value=0, max_value=node - 1)), node)
    return supply


# ---------------------------------------------------------------------- #
# properties
# ---------------------------------------------------------------------- #
class TestMaxFlow:
    @pytest.mark.parametrize("capacities", [INTEGER, FRACTIONAL, HUGE], ids=["int", "frac", "huge"])
    def test_value_equals_networkx(self, capacities):
        @given(supplies(capacities), st.data())
        @SETTINGS
        def check(supply, data):
            graph = supply.full_graph()
            source, target = data.draw(st.sampled_from(list(itertools.permutations(supply.nodes, 2))))
            assert max_flow_value(graph, source, target) == reference_max_flow(graph, source, target)

        check()

    @pytest.mark.parametrize("capacities", [INTEGER, FRACTIONAL, HUGE], ids=["int", "frac", "huge"])
    def test_index_values_equal_networkx_on_both_graphs(self, capacities):
        @given(damaged(capacities), st.data())
        @SETTINGS
        def check(instance, data):
            supply, listed_nodes, listed_edges = instance
            index = GraphIndex(supply, listed_nodes, listed_edges)
            source, target = data.draw(st.sampled_from(list(itertools.permutations(supply.nodes, 2))))
            full = supply.full_graph(use_residual=True)
            working = supply.working_graph(listed_nodes, listed_edges, use_residual=True)
            assert index.max_flow(source, target) == reference_max_flow(full, source, target)
            assert index.max_flow(source, target, working=True) == reference_max_flow(
                working, source, target
            )

        check()


class TestRouter:
    """The integral router behind :func:`max_flow_verdict`."""

    @given(supplies(), st.integers(min_value=1, max_value=80), st.data())
    @SETTINGS
    def test_one_pair_routes_in_full_exactly_when_its_max_flow_allows(self, supply, amount, data):
        index = GraphIndex(supply)
        source, target = data.draw(
            st.sampled_from(list(itertools.permutations(range(len(index.nodes)), 2)))
        )
        capacity = index.capacity.astype(np.int32)
        fits = index.arcs.max_flow(capacity, source, target) >= amount
        residual = capacity.tolist()
        assert _route(index.arcs.out_arcs(), residual, source, target, amount) is fits
        assert max_flow_verdict(index.arcs, index.capacity, [(source, target, amount)]) is fits
        taken = capacity - np.array(residual)
        if fits:
            # no edge gives up less than nothing or more than it had, and
            # the edges at the source give up at least what leaves it
            assert taken.min() >= 0 and min(residual) >= 0
            at_source = (index.tail == source) | (index.head == source)
            assert taken[at_source].sum() >= amount
        else:
            assert not taken.any()

    @given(supplies(), st.data())
    @SETTINGS
    def test_a_verdict_agrees_with_the_routability_lp(self, supply, data):
        pairs = list(itertools.combinations(supply.nodes, 2))
        demand = DemandGraph()
        for u, v in data.draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=4, unique=True)):
            demand.add(u, v, float(data.draw(st.integers(min_value=1, max_value=40))))
        verdict = _intact_verdict(supply)(demand)
        if verdict is not None:
            assert verdict == is_routable(supply.full_graph(use_residual=False), demand)


class TestPathCover:
    @given(tied_grids(), st.sampled_from((1.0, 3.0, float("inf"))))
    @SETTINGS
    def test_cover_equals_networkx_dijkstra_on_ties(self, grid, demand):
        graph, source, target = grid
        assert shortest_path_cover(graph, source, target, demand, weight="missing") == (
            reference_cover(graph, source, target, demand, "missing")
        )

    @given(damaged(), st.data())
    @SETTINGS
    def test_index_cover_equals_networkx_on_dynamic_lengths(self, instance, data):
        supply, listed_nodes, listed_edges = instance
        index = GraphIndex(supply, listed_nodes, listed_edges)
        graph = supply.full_graph(use_residual=True)
        for u, v in graph.edges:
            graph.edges[u, v]["length"] = dynamic_edge_length(
                supply, u, v, listed_nodes, listed_edges, const=1.0
            )
        source, target = data.draw(st.sampled_from(list(itertools.permutations(supply.nodes, 2))))
        demand = data.draw(st.sampled_from((5.0, 30.0, float("inf"))))
        lengths = index.dynamic_lengths(1.0).tolist()
        assert index.path_cover(source, target, demand, lengths) == (
            reference_cover(graph, source, target, demand, "length")
        )

    @given(damaged(FRACTIONAL), st.floats(min_value=0.0, max_value=5.0, allow_nan=False))
    @SETTINGS
    def test_vectorised_lengths_equal_scalar_formula(self, instance, const):
        supply, listed_nodes, listed_edges = instance
        index = GraphIndex(supply, listed_nodes, listed_edges)
        lengths = index.dynamic_lengths(const).tolist()
        for u, v in supply.graph.edges:
            expected = dynamic_edge_length(supply, u, v, listed_nodes, listed_edges, const=const)
            assert lengths[index.edge_of(u, v)] == expected


class TestSimplePaths:
    """The simple-path kernel yields networkx's whole sequence, ties included."""

    @staticmethod
    def assert_same_sequence(supply, source, target):
        expected = reference_simple_paths(supply.full_graph(use_residual=False), source, target)
        index = GraphIndex(supply)
        assert list(index.simple_paths(source, target)) == expected
        # asking for more paths than exist ends the sequence there
        beyond = itertools.islice(index.simple_paths(source, target), len(expected) + 5)
        assert list(beyond) == expected

    @given(supplies(max_nodes=7), st.data())
    @SETTINGS
    def test_random_graphs(self, supply, data):
        source, target = data.draw(st.sampled_from(list(itertools.product(supply.nodes, repeat=2))))
        self.assert_same_sequence(supply, source, target)

    @given(supplies(max_nodes=7), st.data())
    @SETTINGS
    def test_adjacent_endpoints(self, supply, data):
        source, target = data.draw(st.sampled_from(list(supply.graph.edges)))
        if data.draw(st.booleans()):
            source, target = target, source
        self.assert_same_sequence(supply, source, target)

    @given(st.integers(2, 4), st.integers(2, 4), st.data())
    @SETTINGS
    def test_grids_full_of_ties(self, rows, cols, data):
        supply = SupplyGraph(nx.grid_2d_graph(rows, cols))
        source, target = data.draw(
            st.sampled_from(list(itertools.permutations(supply.nodes, 2)))
        )
        self.assert_same_sequence(supply, source, target)

    @given(trees(), st.data())
    @SETTINGS
    def test_trees(self, supply, data):
        source, target = data.draw(st.sampled_from(list(itertools.permutations(supply.nodes, 2))))
        self.assert_same_sequence(supply, source, target)

    def test_disconnected_pairs_yield_nothing(self):
        supply = SupplyGraph(nx.disjoint_union(nx.cycle_graph(4), nx.path_graph(3)))
        supply.add_node("isolated")
        for source, target in [(0, 5), (6, 1), (2, "isolated"), ("isolated", 3)]:
            assert reference_simple_paths(supply.full_graph(), source, target) == []
            assert list(GraphIndex(supply).simple_paths(source, target)) == []

    @staticmethod
    def assert_first_paths_match(supply, pairs, limit=60):
        graph = supply.full_graph(use_residual=False)
        index = GraphIndex(supply)
        for source, target in pairs:
            expected = reference_simple_paths(graph, source, target, limit)
            assert expected
            paths = index.simple_paths(source, target)
            assert list(itertools.islice(paths, limit)) == expected, (source, target)

    @pytest.mark.parametrize("workload_seed", [2016, 2017])
    def test_paper_bell_requests(self, paper_bell_requests, workload_seed):
        service = RecoveryService()
        for request in paper_bell_requests(workload_seed):
            supply, demand, _ = service.build_instance(request)
            self.assert_first_paths_match(supply, [pair.pair for pair in demand.pairs()])

    @pytest.mark.parametrize("seed", [31, 32, 33])
    def test_caida_like_maps(self, seed):
        supply = caida_like(825, 1018, seed=seed)
        demand = routable_far_apart_demand(supply, 3, 22.0, seed=seed)
        self.assert_first_paths_match(supply, [pair.pair for pair in demand.pairs()])


class TestPrune:
    @given(damaged(FRACTIONAL), st.booleans(), st.data())
    @SETTINGS
    def test_index_prune_equals_networkx_prune(self, instance, require_bubble, data):
        supply, listed_nodes, listed_edges = instance
        index = GraphIndex(supply, listed_nodes, listed_edges)
        working = supply.working_graph(listed_nodes, listed_edges, use_residual=True)
        pairs = list(itertools.combinations(supply.nodes, 2))
        demand = DemandGraph()
        for u, v in data.draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=3, unique=True)):
            demand.add(u, v, data.draw(st.sampled_from((1.0, 5.0, 30.0))))
        for pair in demand.pairs():
            expected = find_prunable_routing(working, demand, pair.pair, require_bubble)
            actual = find_prunable_routing(index, demand, pair.pair, require_bubble)
            assert actual == expected


def fresh_working_graph(state):
    """The reference: ``SupplyGraph.working_graph`` of the state's repair
    list, with residual capacities."""
    return state.supply.working_graph(
        state.repaired_nodes, state.repaired_edges, use_residual=True
    )


def run_checked_isp(supply, demand, config):
    """Run ISP, checking its working graph after every repair and prune and
    its routability pre-check on every call; returns the checks made."""
    checks = []

    def check_graph(state):
        expected = fresh_working_graph(state)
        graph = state.index.working_graph()
        assert list(graph.nodes) == list(expected.nodes)
        assert list(graph.edges(data="capacity")) == list(expected.edges(data="capacity"))
        checks.append("graph")

    def checked(method):
        def wrapper(state, *args):
            method(state, *args)
            check_graph(state)

        return wrapper

    def checked_pre_check(state):
        connected = original_pre_check(state)
        outcome = routability_test(fresh_working_graph(state), state.demand)
        disconnected = outcome.reason.startswith(("demand endpoints missing", "no working path"))
        assert disconnected != connected
        checks.append("pre-check")
        return connected

    originals = {
        name: getattr(_ISPState, name) for name in ("repair_node", "repair_edge", "apply_prune")
    }
    original_pre_check = _ISPState.demand_connected
    for name, method in originals.items():
        setattr(_ISPState, name, checked(method))
    _ISPState.demand_connected = checked_pre_check
    try:
        iterative_split_prune(supply, demand, config)
    finally:
        for name, method in originals.items():
            setattr(_ISPState, name, method)
        _ISPState.demand_connected = original_pre_check
    return checks


@st.composite
def isp_instances(draw):
    """A damaged supply graph, a demand on it and an ISP configuration."""
    supply = draw(supplies(st.sampled_from((2.0, 5.0, 10.0, 7.5)), max_nodes=8))
    for node in supply.nodes:
        if draw(st.booleans()):
            supply.break_node(node)
    for u, v in supply.edges:
        if draw(st.booleans()):
            supply.break_edge(u, v)
    pairs = list(itertools.combinations(supply.nodes, 2))
    demand = DemandGraph()
    for u, v in draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=3, unique=True)):
        demand.add(u, v, draw(st.sampled_from((1.0, 4.0, 6.5))))
    config = ISPConfig(
        require_bubble=draw(st.booleans()),
        split_amount_mode=draw(st.sampled_from(("lp", "bottleneck"))),
    )
    return supply, demand, config


class TestISPWorkingGraph:
    """ISP reads its working graph from the index instead of rebuilding it:
    the graph equals a fresh ``SupplyGraph.working_graph`` after every
    repair and prune, and the index's pre-check says "not connected"
    exactly when the routability test stops before its LP."""

    @given(isp_instances())
    @SETTINGS
    def test_random_instances(self, instance):
        run_checked_isp(*instance)

    @pytest.mark.parametrize(
        "topology, num_pairs, flow_per_pair, seed",
        [(bell_canada, 4, 10.0, 3), (bell_canada, 6, 10.0, 5), (caida_like, 3, 22.0, 31)],
        ids=["bell-4x10", "bell-6x10", "caida-3x22"],
    )
    def test_paper_instances(self, topology, num_pairs, flow_per_pair, seed):
        supply = topology() if topology is bell_canada else topology(200, 246, seed=seed)
        CompleteDestruction().apply(supply)
        demand = routable_far_apart_demand(supply, num_pairs, flow_per_pair, seed=seed)
        checks = run_checked_isp(supply, demand, ISPConfig())
        assert "graph" in checks and "pre-check" in checks


def path_with_pendants():
    """A 130-node path with a leaf hanging off every third node."""
    graph = nx.path_graph(130)
    graph.add_edges_from((node, 1000 + node) for node in range(0, 130, 3))
    return graph


def equal_components():
    """Two 70-node components; the one added first sorts last by ``repr``."""
    graph = nx.cycle_graph(range(100, 170))
    graph.add_edges_from(nx.path_graph(70).edges)
    return graph


def mostly_isolated():
    """70 nodes: a triangle, one edge and 65 isolated nodes."""
    graph = nx.empty_graph(70)
    graph.add_edges_from([(3, 9), (9, 20), (20, 3), (40, 41)])
    return graph


#: Graphs whose hop table spans more than one 64-bit word.
PAST_ONE_WORD = {
    **{f"cycle-{n}": (lambda n=n: nx.cycle_graph(n)) for n in (64, 65, 128, 129)},
    "path-130-with-pendants": path_with_pendants,
    "two-equal-components": equal_components,
    "mostly-isolated-70": mostly_isolated,
    "star-100": lambda: nx.star_graph(100),
}


class TestFarApartPairs:
    @given(supplies(max_nodes=12), st.sampled_from((0.0, 0.5, 0.7, 1.0)))
    @SETTINGS
    def test_eligible_arrays_equal_all_pairs_bfs(self, supply, fraction):
        self.check(supply, fraction)

    @pytest.mark.parametrize("fraction", (0.0, 0.5, 0.7, 1.0))
    @pytest.mark.parametrize("graph", PAST_ONE_WORD.values(), ids=PAST_ONE_WORD.keys())
    def test_past_one_word(self, graph, fraction):
        self.check(SupplyGraph(graph()), fraction)

    @pytest.mark.parametrize("seed", (1, 2))
    def test_caida_like_maps(self, seed):
        self.check(caida_like(825, 1018, seed=seed), 0.5)

    @staticmethod
    def check(supply, fraction):
        nodes, first, second = _eligible_far_pairs(supply, fraction)
        pairs = [(nodes[i], nodes[j]) for i, j in zip(first, second)]
        assert pairs == reference_far_pairs(supply, fraction)
