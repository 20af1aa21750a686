"""Tests for the evaluation harness (metrics, reporting, demand builder)."""

import pytest

from repro.evaluation.demand_builder import far_apart_demand, random_demand
from repro.evaluation.metrics import evaluate_plan, recovered_graph
from repro.evaluation.reporting import format_table, pivot_series, rows_to_csv
from repro.heuristics.registry import get_algorithm
from repro.network.plan import RecoveryPlan
from repro.topologies.bellcanada import bell_canada
from repro.topologies.grids import grid_topology


class TestEvaluatePlan:
    def test_empty_plan_on_broken_network(self, line_supply, single_demand):
        line_supply.break_all()
        plan = RecoveryPlan(algorithm="NOOP")
        evaluation = evaluate_plan(line_supply, single_demand, plan)
        assert evaluation.total_repairs == 0
        assert evaluation.satisfied_percentage == pytest.approx(0.0)
        assert evaluation.demand_loss_percentage == pytest.approx(100.0)

    def test_full_repair_plan(self, line_supply, single_demand):
        line_supply.break_all()
        plan = get_algorithm("ALL").solve(line_supply, single_demand)
        evaluation = evaluate_plan(line_supply, single_demand, plan)
        assert evaluation.satisfied_percentage == pytest.approx(100.0)
        assert evaluation.repair_cost == pytest.approx(9.0)

    def test_partial_repair_partial_satisfaction(self, diamond_supply, diamond_demand):
        diamond_supply.break_all()
        plan = RecoveryPlan(algorithm="PARTIAL")
        for node in ("s", "a", "t"):
            plan.add_node_repair(node)
        plan.add_edge_repair("s", "a")
        plan.add_edge_repair("a", "t")
        evaluation = evaluate_plan(diamond_supply, diamond_demand, plan)
        # Only the capacity-10 branch is rebuilt: 10 of 12 units fit.
        assert evaluation.satisfied_units == pytest.approx(10.0)
        assert evaluation.satisfied_percentage == pytest.approx(100.0 * 10.0 / 12.0)

    def test_recovered_graph_uses_nominal_capacity(self, line_supply):
        line_supply.consume_capacity("a", "b", 9.0)
        plan = RecoveryPlan(algorithm="X")
        graph = recovered_graph(line_supply, plan)
        assert graph.edges["a", "b"]["capacity"] == pytest.approx(10.0)

    def test_routing_violations_counted(self, line_supply, single_demand):
        line_supply.break_all()
        plan = RecoveryPlan(algorithm="BAD")
        plan.add_route(("a", "e"), ("a", "b", "c", "d", "e"), 5.0)
        evaluation = evaluate_plan(line_supply, single_demand, plan)
        assert evaluation.routing_violations > 0

    def test_as_row_keys(self, line_supply, single_demand):
        plan = RecoveryPlan(algorithm="NOOP")
        row = evaluate_plan(line_supply, single_demand, plan).as_row()
        assert set(row) == {
            "algorithm",
            "node_repairs",
            "edge_repairs",
            "total_repairs",
            "repair_cost",
            "satisfied_pct",
            "elapsed_seconds",
        }


class TestReporting:
    def test_format_table_alignment(self):
        rows = [{"algorithm": "ISP", "total_repairs": 5}, {"algorithm": "ALL", "total_repairs": 20}]
        text = format_table(rows, title="demo")
        assert "demo" in text
        assert "ISP" in text and "ALL" in text
        assert text.count("\n") >= 4

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([])

    def test_format_table_column_subset(self):
        rows = [{"a": 1, "b": 2}]
        text = format_table(rows, columns=["b"])
        assert "b" in text and "a" not in text.splitlines()[0]

    def test_rows_to_csv(self):
        rows = [{"x": 1, "y": 2.5}, {"x": 3, "y": 4.0}]
        csv = rows_to_csv(rows)
        assert csv.splitlines()[0] == "x,y"
        assert csv.splitlines()[1] == "1,2.5"

    def test_rows_to_csv_empty(self):
        assert rows_to_csv([]) == ""

    def test_pivot_series(self):
        rows = [
            {"x": 1, "algorithm": "ISP", "value": 10},
            {"x": 2, "algorithm": "ISP", "value": 12},
            {"x": 1, "algorithm": "OPT", "value": 9},
        ]
        series = pivot_series(rows, "x", "algorithm", "value")
        assert series["ISP"] == {1: 10, 2: 12}
        assert series["OPT"] == {1: 9}


class TestDemandBuilder:
    def test_far_apart_demand_size_and_flow(self):
        supply = bell_canada()
        demand = far_apart_demand(supply, 4, 10.0, seed=1)
        assert len(demand) == 4
        assert all(pair.demand == 10.0 for pair in demand.pairs())

    def test_far_apart_pairs_respect_distance(self):
        import networkx as nx

        supply = bell_canada()
        graph = supply.full_graph()
        diameter = nx.diameter(graph)
        demand = far_apart_demand(supply, 3, 5.0, seed=2)
        for pair in demand.pairs():
            assert nx.shortest_path_length(graph, pair.source, pair.target) >= diameter / 2

    def test_far_apart_demand_deterministic(self):
        supply = bell_canada()
        a = far_apart_demand(supply, 3, 5.0, seed=7)
        b = far_apart_demand(supply, 3, 5.0, seed=7)
        assert a.as_dict() == b.as_dict()

    def test_far_apart_demand_too_many_pairs(self):
        supply = grid_topology(2, 2)
        with pytest.raises(ValueError):
            far_apart_demand(supply, 50, 1.0, seed=1)

    def test_far_apart_reuses_endpoints_when_needed(self):
        supply = grid_topology(2, 3, capacity=10.0)
        # Only three endpoint-disjoint pairs exist in a 6-node grid, so the
        # fourth pair must reuse an endpoint.
        demand = far_apart_demand(supply, 4, 1.0, seed=3, min_fraction_of_diameter=0.5)
        assert len(demand) == 4

    def test_random_demand(self):
        supply = grid_topology(3, 3)
        demand = random_demand(supply, 5, 2.0, seed=4)
        assert len(demand) == 5
        assert demand.total_demand == pytest.approx(10.0)

    def test_random_demand_rejects_tiny_graph(self):
        from repro.network.supply import SupplyGraph

        supply = SupplyGraph()
        supply.add_node("only")
        with pytest.raises(ValueError):
            random_demand(supply, 1, 1.0)

    def test_invalid_arguments(self):
        supply = grid_topology(3, 3)
        with pytest.raises(ValueError):
            far_apart_demand(supply, 0, 1.0)
        with pytest.raises(ValueError):
            far_apart_demand(supply, 1, -1.0)
