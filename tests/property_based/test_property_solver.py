"""Property-based tests for the incremental solver substrate.

The central invariant: after an arbitrary sequence of deltas — capacity
updates, demand-amount changes, commodity additions/removals, edge
deactivation — an :class:`IncrementalFlowProblem` assembled from cached
structure is indistinguishable from a from-scratch
:class:`~repro.flows.lp_backend.FlowProblem`: identical constraint
matrices, identical RHS vectors, and identical routability verdicts.
The k-commodity systems are placed by index arithmetic, and their arrays
must be the ones scipy's block stacking builds.
"""

from __future__ import annotations

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from scipy import sparse

from repro.flows.lp_backend import Commodity, FlowProblem
from repro.flows.routability import routability_test
from repro.flows.solver.incremental import (
    IncrementalFlowProblem,
    StructureCache,
    TopologyStructure,
    topology_signature,
)
from repro.network.demand import DemandGraph
from repro.network.supply import canonical_edge
from repro.topologies.bellcanada import bell_canada
from repro.topologies.caida_like import caida_like
from repro.topologies.grids import grid_topology

#: The node grid the deltas operate on (3x3 keeps every LP tiny).
ROWS, COLS = 3, 3
NODES = [(r, c) for r in range(ROWS) for c in range(COLS)]


def fresh_graph():
    return grid_topology(ROWS, COLS, capacity=10.0).full_graph(use_residual=False)


# One delta = (kind, payload); interpreted against the current state.
deltas = st.lists(
    st.one_of(
        st.tuples(
            st.just("capacity"),
            st.integers(min_value=0, max_value=10_000),
            st.floats(min_value=0.0, max_value=25.0, allow_nan=False),
        ),
        st.tuples(
            st.just("demand"),
            st.integers(min_value=0, max_value=10_000),
            st.floats(min_value=0.5, max_value=12.0, allow_nan=False),
        ),
        st.tuples(st.just("add-commodity"), st.integers(min_value=0, max_value=10_000)),
        st.tuples(st.just("drop-commodity"), st.integers(min_value=0, max_value=10_000)),
        st.tuples(st.just("remove-edge"), st.integers(min_value=0, max_value=10_000)),
    ),
    min_size=1,
    max_size=8,
)

#: Candidate commodities (distinct endpoint pairs on the grid).
CANDIDATE_PAIRS = [
    ((0, 0), (2, 2)),
    ((0, 2), (2, 0)),
    ((1, 0), (1, 2)),
    ((0, 1), (2, 1)),
    ((0, 0), (0, 2)),
]


def apply_delta(graph, commodities, delta):
    kind = delta[0]
    if kind == "capacity":
        _, index, value = delta
        edges = sorted(graph.edges, key=repr)
        if edges:
            u, v = edges[index % len(edges)]
            graph.edges[u, v]["capacity"] = value
    elif kind == "demand":
        _, index, value = delta
        if commodities:
            slot = index % len(commodities)
            old = commodities[slot]
            commodities[slot] = Commodity(old.source, old.target, value)
    elif kind == "add-commodity":
        _, index = delta
        source, target = CANDIDATE_PAIRS[index % len(CANDIDATE_PAIRS)]
        commodities.append(Commodity(source, target, 1.0 + index % 5))
    elif kind == "drop-commodity":
        _, index = delta
        if len(commodities) > 1:
            commodities.pop(index % len(commodities))
    elif kind == "remove-edge":
        _, index = delta
        edges = sorted(graph.edges, key=repr)
        if len(edges) > 1:
            graph.remove_edge(*edges[index % len(edges)])


class TestIncrementalMatchesFromScratch:
    @given(deltas)
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_matrices_survive_random_delta_sequences(self, delta_sequence):
        graph = fresh_graph()
        commodities = [Commodity((0, 0), (2, 2), 5.0)]
        cache = StructureCache()  # shared across the whole sequence
        for delta in delta_sequence:
            apply_delta(graph, commodities, delta)
            reference = FlowProblem(graph, commodities)
            incremental = IncrementalFlowProblem(
                graph, commodities, cache.structure_for(graph)
            )
            a_ub_ref, b_ub_ref = reference.capacity_matrix()
            a_ub_inc, b_ub_inc = incremental.capacity_matrix()
            assert (a_ub_ref != a_ub_inc).nnz == 0
            assert np.allclose(b_ub_ref, b_ub_inc)
            a_eq_ref, b_eq_ref = reference.conservation_matrix()
            a_eq_inc, b_eq_inc = incremental.conservation_matrix()
            assert (a_eq_ref != a_eq_inc).nnz == 0
            assert np.allclose(b_eq_ref, b_eq_inc)

    @given(deltas)
    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_routability_verdict_matches_after_deltas(self, delta_sequence):
        """The substrate's verdict equals a from-scratch LP feasibility check."""
        from scipy.optimize import linprog

        graph = fresh_graph()
        commodities = [Commodity((0, 0), (2, 2), 5.0)]
        for delta in delta_sequence:
            apply_delta(graph, commodities, delta)
        demand = DemandGraph()
        for commodity in commodities:
            existing = demand.demand(commodity.source, commodity.target)
            if existing:
                continue  # duplicate pair: DemandGraph merges, skip re-adds
            demand.add(commodity.source, commodity.target, commodity.demand)

        verdict = routability_test(graph, demand)

        merged = [
            Commodity(p.source, p.target, p.demand) for p in demand.pairs()
        ]
        reference = FlowProblem(graph, merged)
        import networkx as nx

        connected = all(
            c.source in graph and c.target in graph and nx.has_path(graph, c.source, c.target)
            for c in merged
        )
        if not connected or reference.infeasible_commodities:
            assert not verdict.routable
            return
        a_ub, b_ub = reference.capacity_matrix()
        a_eq, b_eq = reference.conservation_matrix()
        result = linprog(
            c=np.ones(reference.num_flow_variables),
            A_ub=a_ub,
            b_ub=b_ub,
            A_eq=a_eq,
            b_eq=b_eq,
            bounds=(0, None),
            method="highs",
        )
        assert verdict.routable == bool(result.success)


def assert_same_arrays(built, reference):
    assert type(built) is type(reference)
    assert built.shape == reference.shape
    for name in ("indptr", "indices", "data"):
        ours, theirs = getattr(built, name), getattr(reference, name)
        assert ours.dtype == theirs.dtype, name
        assert np.array_equal(ours, theirs), name


def assert_assembled_like_scipy(graph):
    """The blocks equal a from-scratch :class:`FlowProblem`'s one-commodity
    matrices, built from the same graph and from a :class:`GraphIndex`-style
    node and edge list alike, and ``assembled(k)`` for k = 1..8 equals
    ``sparse.hstack``/``sparse.block_diag``."""
    structure = TopologyStructure(graph.nodes, graph.edges)
    listed = TopologyStructure(list(graph.nodes), [canonical_edge(u, v) for u, v in graph.edges])
    reference = FlowProblem(graph, [Commodity("absent-source", "absent-target", 0.0)])
    for built in (structure, listed):
        assert built.signature == topology_signature(graph)
        assert_same_arrays(built.capacity_block, reference.capacity_matrix()[0])
        assert_same_arrays(built.conservation_block, reference.conservation_matrix()[0])
    for k in range(1, 9):
        a_ub, a_eq = structure.assembled(k)
        assert_same_arrays(a_ub, sparse.hstack([structure.capacity_block] * k, format="csr"))
        assert_same_arrays(
            a_eq, sparse.block_diag([structure.conservation_block] * k, format="csr")
        )


class TestAssembledSystems:
    @pytest.mark.parametrize(
        "build, num_nodes",
        [(bell_canada, 48), (lambda: caida_like(seed=0), 825)],
        ids=["bell-canada", "caida-like"],
    )
    def test_paper_topologies(self, build, num_nodes):
        graph = build().full_graph(use_residual=False)
        assert graph.number_of_nodes() == num_nodes
        assert_assembled_like_scipy(graph)

    def test_a_self_loop_is_rejected_as_by_the_supply_graph(self):
        graph = grid_topology(2, 2, capacity=1.0).full_graph(use_residual=False)
        graph.add_edge((0, 0), (0, 0), capacity=1.0)
        demand = DemandGraph()
        demand.add((0, 0), (1, 1), 1.0)
        message = "self loops carry no flow and are not allowed"
        with pytest.raises(ValueError, match=message):
            FlowProblem(graph, [Commodity((0, 0), (1, 1), 1.0)])
        with pytest.raises(ValueError, match=message):
            TopologyStructure(graph.nodes, graph.edges)
        with pytest.raises(ValueError, match=message):
            routability_test(graph, demand)

    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=6),
        st.lists(st.integers(min_value=0, max_value=10_000), max_size=6),
    )
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_grids_with_removed_edges(self, rows, cols, removals):
        graph = grid_topology(rows, cols, capacity=10.0).full_graph(use_residual=False)
        for index in removals:
            edges = sorted(graph.edges, key=repr)
            if edges:
                graph.remove_edge(*edges[index % len(edges)])
        assert_assembled_like_scipy(graph)
