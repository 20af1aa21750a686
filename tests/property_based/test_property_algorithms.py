"""Property-based tests for the recovery algorithms themselves."""

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.core.centrality import demand_based_centrality
from repro.core.isp import iterative_split_prune
from repro.evaluation.metrics import evaluate_plan
from repro.failures.geographic import GaussianDisruption
from repro.network.index import max_flow_value
from repro.heuristics.srt import shortest_path_repair
from repro.network.demand import DemandGraph
from repro.topologies.grids import grid_topology

CORNERS = [(0, 0), (0, 2), (2, 0), (2, 2)]


@st.composite
def grid_instances(draw):
    """A 3x3 grid with a random subset of broken elements and 1-2 corner demands."""
    supply = grid_topology(3, 3, capacity=10.0)
    node_mask = draw(st.lists(st.booleans(), min_size=9, max_size=9))
    edge_mask = draw(st.lists(st.booleans(), min_size=12, max_size=12))
    for broken, node in zip(node_mask, sorted(supply.nodes)):
        if broken:
            supply.break_node(node)
    for broken, edge in zip(edge_mask, sorted(supply.edges)):
        if broken:
            supply.break_edge(*edge)
    num_demands = draw(st.integers(min_value=1, max_value=2))
    demand = DemandGraph()
    pairs = [((0, 0), (2, 2)), ((0, 2), (2, 0))]
    for i in range(num_demands):
        amount = draw(st.floats(min_value=1.0, max_value=8.0, allow_nan=False))
        demand.add(pairs[i][0], pairs[i][1], amount)
    return supply, demand


class TestISPProperties:
    @given(grid_instances())
    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_isp_plan_is_sound(self, instance):
        supply, demand = instance
        plan = iterative_split_prune(supply, demand)
        # 1. Only broken elements are repaired.
        for node in plan.repaired_nodes:
            assert supply.is_broken_node(node)
        for edge in plan.repaired_edges:
            assert supply.is_broken_edge(*edge)
        # 2. The explicit routing never violates failures or capacities.
        assert plan.validate_routing(supply, demand) == []
        # 3. If the undamaged network could carry the demand, the recovered
        #    network can carry it too (ISP loses no demand).
        full = supply.full_graph(use_residual=False)
        from repro.flows.routability import is_routable

        if is_routable(full, demand):
            evaluation = evaluate_plan(supply, demand, plan)
            assert evaluation.satisfied_percentage == pytest.approx(100.0, abs=1e-3)

    @given(grid_instances())
    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_isp_repairs_at_most_all(self, instance):
        supply, demand = instance
        plan = iterative_split_prune(supply, demand)
        assert plan.num_node_repairs <= len(supply.broken_nodes)
        assert plan.num_edge_repairs <= len(supply.broken_edges)


class TestSRTProperties:
    @given(grid_instances())
    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_srt_repairs_only_broken_elements(self, instance):
        supply, demand = instance
        plan = shortest_path_repair(supply, demand)
        for node in plan.repaired_nodes:
            assert supply.is_broken_node(node)
        for edge in plan.repaired_edges:
            assert supply.is_broken_edge(*edge)


class TestCentralityProperties:
    @given(grid_instances())
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_scores_are_bounded_by_total_demand(self, instance):
        supply, demand = instance
        result = demand_based_centrality(supply, demand)
        total = demand.total_demand
        for node, score in result.scores.items():
            assert -1e-9 <= score <= total + 1e-6

    @given(
        st.floats(min_value=0.5, max_value=400.0),
        st.floats(min_value=0.0, max_value=30.0),
        st.floats(min_value=0.0, max_value=30.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_gaussian_failure_probability_in_unit_interval(self, variance, dx, dy):
        model = GaussianDisruption(variance=variance)
        probability = model.failure_probability((dx, dy), (0.0, 0.0))
        assert 0.0 <= probability <= 1.0
        closer = model.failure_probability((dx / 2.0, dy / 2.0), (0.0, 0.0))
        assert closer >= probability - 1e-12
