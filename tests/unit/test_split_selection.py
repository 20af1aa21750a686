"""Tests for the split-demand selection (Decision 1 of Section IV-C)."""

import pytest

from repro.core.centrality import demand_based_centrality
from repro.core.split import select_demand_to_split
from repro.network.demand import DemandGraph
from repro.topologies.grids import star_topology


class TestSelectDemandToSplit:
    def test_picks_contributing_demand(self, line_supply):
        demand = DemandGraph()
        demand.add("a", "e", 5.0)
        centrality = demand_based_centrality(line_supply, demand)
        choice = select_demand_to_split(centrality, demand, "c")
        assert choice is not None
        assert choice.pair == ("a", "e")
        assert choice.routable_through_node == pytest.approx(5.0)

    def test_node_that_is_endpoint_is_skipped(self, line_supply):
        demand = DemandGraph()
        demand.add("a", "c", 5.0)
        centrality = demand_based_centrality(line_supply, demand)
        # c is an endpoint of the only demand: nothing can be split on it.
        assert select_demand_to_split(centrality, demand, "c") is None

    def test_prefers_demand_most_dependent_on_node(self):
        supply = star_topology(4, capacity=10.0)
        # Demand (1, 2) can only use the hub; give it less max-flow slack than (3, 4).
        demand = DemandGraph()
        demand.add(1, 2, 8.0)
        demand.add(3, 4, 1.0)
        centrality = demand_based_centrality(supply, demand)
        choice = select_demand_to_split(centrality, demand, 0)
        # Both demands depend entirely on the hub; the score is routable/f*,
        # which is 8/10 for (1,2) and 1/10 for (3,4).
        assert choice.pair == (1, 2)
        assert choice.score == pytest.approx(0.8)

    def test_none_when_no_contribution(self, line_supply):
        demand = DemandGraph()
        demand.add("a", "b", 5.0)
        centrality = demand_based_centrality(line_supply, demand)
        assert select_demand_to_split(centrality, demand, "e") is None

    def test_zero_demand_ignored(self, line_supply):
        demand = DemandGraph()
        demand.add("a", "e", 5.0)
        centrality = demand_based_centrality(line_supply, demand)
        # Empty the demand after computing the centrality snapshot.
        demand.reduce("a", "e", 5.0)
        assert select_demand_to_split(centrality, demand, "c") is None

    def test_requires_graph(self, line_supply):
        demand = DemandGraph()
        demand.add("a", "e", 5.0)
        centrality = demand_based_centrality(line_supply, demand)
        centrality.index = None
        with pytest.raises(ValueError):
            select_demand_to_split(centrality, demand, "c")

    def test_score_uses_min_of_demand_and_cover(self, diamond_supply):
        demand = DemandGraph()
        demand.add("s", "t", 12.0)
        centrality = demand_based_centrality(diamond_supply, demand)
        choice = select_demand_to_split(centrality, demand, "b")
        # Through b only the narrow (capacity 4) branch contributes.
        assert choice.routable_through_node == pytest.approx(4.0)
        assert choice.max_flow == pytest.approx(14.0)
        assert choice.score == pytest.approx(4.0 / 14.0)
