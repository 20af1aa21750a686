"""Tests for the split-amount LP and the max-satisfiable-demand LP."""

import pytest

from repro.flows.demand_satisfaction import max_satisfiable_flow
from repro.flows.splitting_lp import SplitProgram, maximum_splittable_amount
from repro.network.demand import DemandGraph
from repro.network.index import GraphIndex
from repro.network.supply import SupplyGraph


def split_program(supply):
    """The split LP on the complete graph of ``supply``."""
    return SplitProgram(GraphIndex(supply))


class TestMaximumSplittableAmount:
    def test_full_split_on_intermediate_node(self, line_supply):
        demand = DemandGraph()
        demand.add("a", "e", 5.0)
        program = split_program(line_supply)
        dx = maximum_splittable_amount(program, demand, ("a", "e"), "c")
        assert dx == pytest.approx(5.0)

    def test_split_limited_by_capacity(self, diamond_supply):
        demand = DemandGraph()
        demand.add("s", "t", 12.0)
        program = split_program(diamond_supply)
        # Node b sits on the capacity-4 branch: at most 4 units can go through it
        # while the instance stays routable.
        dx = maximum_splittable_amount(program, demand, ("s", "t"), "b")
        assert dx == pytest.approx(4.0)

    def test_split_limited_by_demand(self, diamond_supply):
        demand = DemandGraph()
        demand.add("s", "t", 3.0)
        program = split_program(diamond_supply)
        dx = maximum_splittable_amount(program, demand, ("s", "t"), "a")
        assert dx == pytest.approx(3.0)

    def test_split_with_conflicting_demand(self, line_supply):
        # Another demand already needs 6 of the 10 units on the shared path.
        demand = DemandGraph()
        demand.add("a", "e", 4.0)
        demand.add("b", "d", 6.0)
        program = split_program(line_supply)
        dx = maximum_splittable_amount(program, demand, ("a", "e"), "c")
        assert dx == pytest.approx(4.0)

    def test_unreachable_via_gives_zero(self):
        demand = DemandGraph()
        demand.add("a", "e", 5.0)
        supply = SupplyGraph()
        for u, v in (("a", "b"), ("d", "e")):
            supply.add_edge(u, v, capacity=10.0)
        program = split_program(supply)
        # c is not in the graph: nothing can be split through it.
        assert maximum_splittable_amount(program, demand, ("a", "e"), "c") == 0.0

    def test_via_equal_to_endpoint_rejected(self, line_supply):
        demand = DemandGraph()
        demand.add("a", "e", 5.0)
        program = split_program(line_supply)
        with pytest.raises(ValueError):
            maximum_splittable_amount(program, demand, ("a", "e"), "a")

    def test_unknown_pair_gives_zero(self, line_supply):
        demand = DemandGraph()
        demand.add("a", "e", 5.0)
        program = split_program(line_supply)
        assert maximum_splittable_amount(program, demand, ("a", "d"), "c") == 0.0

    def test_zero_demand_gives_zero(self, line_supply):
        demand = DemandGraph()
        demand.add("a", "e", 5.0)
        program = split_program(line_supply)
        assert maximum_splittable_amount(program, demand, ("b", "d"), "c") == 0.0


class TestMaxSatisfiableFlow:
    def test_everything_satisfied(self, line_supply, single_demand):
        graph = line_supply.working_graph()
        result = max_satisfiable_flow(graph, single_demand)
        assert result.fraction == pytest.approx(1.0)
        assert result.total_satisfied == pytest.approx(5.0)

    def test_capacity_limits_satisfaction(self, line_supply):
        demand = DemandGraph()
        demand.add("a", "e", 25.0)
        result = max_satisfiable_flow(line_supply.working_graph(), demand)
        assert result.total_satisfied == pytest.approx(10.0)
        assert result.fraction == pytest.approx(0.4)

    def test_disconnected_pair_gets_zero(self, line_supply):
        line_supply.break_node("c")
        demand = DemandGraph()
        demand.add("a", "e", 5.0)
        demand.add("a", "b", 5.0)
        result = max_satisfiable_flow(line_supply.working_graph(), demand)
        assert result.satisfied[("a", "e")] == 0.0
        assert result.satisfied[("a", "b")] == pytest.approx(5.0)
        assert result.fraction == pytest.approx(0.5)

    def test_empty_demand(self, line_supply):
        result = max_satisfiable_flow(line_supply.working_graph(), DemandGraph())
        assert result.fraction == 1.0
        assert result.total_satisfied == 0.0

    def test_sharing_respects_capacity(self, line_supply):
        demand = DemandGraph()
        demand.add("a", "c", 8.0)
        demand.add("b", "e", 8.0)
        result = max_satisfiable_flow(line_supply.working_graph(), demand)
        # The shared edge (b, c) caps the total at 10.
        assert result.total_satisfied == pytest.approx(10.0)

    def test_missing_endpoint(self, line_supply):
        demand = DemandGraph()
        demand.add("a", "not-there", 5.0)
        result = max_satisfiable_flow(line_supply.working_graph(), demand)
        assert result.total_satisfied == 0.0
