"""Tests for repro.network.supply.SupplyGraph."""

import networkx as nx
import pytest

from repro.network.supply import DEFAULT_CAPACITY, SupplyGraph, canonical_edge


class TestCanonicalEdge:
    def test_order_independent(self):
        assert canonical_edge("b", "a") == canonical_edge("a", "b")

    def test_mixed_types_are_stable(self):
        assert canonical_edge(2, 1) == canonical_edge(1, 2)

    def test_tuple_nodes(self):
        assert canonical_edge((1, 0), (0, 1)) == canonical_edge((0, 1), (1, 0))


class TestConstruction:
    def test_empty_graph(self):
        supply = SupplyGraph()
        assert supply.number_of_nodes == 0
        assert supply.number_of_edges == 0
        assert supply.max_degree == 0

    def test_add_node_with_position(self):
        supply = SupplyGraph()
        supply.add_node("a", pos=(1, 2))
        assert supply.position("a") == (1.0, 2.0)

    def test_add_node_without_position(self):
        supply = SupplyGraph()
        supply.add_node("a")
        assert supply.position("a") is None

    def test_add_edge_creates_missing_endpoints(self):
        supply = SupplyGraph()
        supply.add_edge("a", "b", capacity=5.0)
        assert "a" in supply and "b" in supply
        assert supply.capacity("a", "b") == 5.0

    def test_add_edge_default_capacity(self):
        supply = SupplyGraph()
        supply.add_edge("a", "b")
        assert supply.capacity("a", "b") == DEFAULT_CAPACITY

    def test_self_loop_rejected(self):
        supply = SupplyGraph()
        with pytest.raises(ValueError):
            supply.add_edge("a", "a")

    def test_non_positive_capacity_rejected(self):
        supply = SupplyGraph()
        with pytest.raises(ValueError):
            supply.add_edge("a", "b", capacity=0.0)

    def test_nan_capacity_rejected(self):
        supply = SupplyGraph()
        with pytest.raises(ValueError):
            supply.add_edge("a", "b", capacity=float("nan"))
        assert supply.number_of_edges == 0

    def test_negative_repair_cost_rejected(self):
        supply = SupplyGraph()
        with pytest.raises(ValueError):
            supply.add_node("a", repair_cost=-1.0)

    def test_from_networkx(self):
        graph = nx.Graph()
        graph.add_node("x", pos=(0, 0), repair_cost=2.0)
        graph.add_node("y")
        graph.add_edge("x", "y", capacity=7.0, repair_cost=3.0, broken=True)
        supply = SupplyGraph(graph)
        assert supply.capacity("x", "y") == 7.0
        assert supply.edge_repair_cost("x", "y") == 3.0
        assert supply.node_repair_cost("x") == 2.0
        assert supply.is_broken_edge("x", "y")

    def test_directed_graph_rejected(self):
        with pytest.raises(ValueError):
            SupplyGraph(nx.DiGraph())

    def test_multigraph_rejected(self):
        with pytest.raises(ValueError):
            SupplyGraph(nx.MultiGraph())


class TestFailures:
    def test_break_and_repair_node(self, line_supply):
        line_supply.break_node("c")
        assert line_supply.is_broken_node("c")
        line_supply.repair_node("c")
        assert not line_supply.is_broken_node("c")

    def test_break_unknown_node(self, line_supply):
        with pytest.raises(KeyError):
            line_supply.break_node("zzz")

    def test_break_and_repair_edge(self, line_supply):
        line_supply.break_edge("a", "b")
        assert line_supply.is_broken_edge("b", "a")
        line_supply.repair_edge("b", "a")
        assert not line_supply.is_broken_edge("a", "b")

    def test_break_unknown_edge(self, line_supply):
        with pytest.raises(KeyError):
            line_supply.break_edge("a", "e")

    def test_break_all(self, line_supply):
        line_supply.break_all()
        assert line_supply.broken_nodes == set(line_supply.nodes)
        assert len(line_supply.broken_edges) == line_supply.number_of_edges

    def test_is_working_edge_accounts_for_endpoints(self, line_supply):
        assert line_supply.is_working_edge("a", "b")
        line_supply.break_node("a")
        assert not line_supply.is_working_edge("a", "b")

    def test_broken_sets_are_copies(self, line_supply):
        line_supply.break_node("a")
        snapshot = line_supply.broken_nodes
        snapshot.clear()
        assert line_supply.is_broken_node("a")


class TestCapacities:
    def test_residual_starts_at_nominal(self, line_supply):
        assert line_supply.residual("a", "b") == line_supply.capacity("a", "b")

    def test_consume_and_release(self, line_supply):
        line_supply.consume_capacity("a", "b", 4.0)
        assert line_supply.residual("a", "b") == pytest.approx(6.0)
        line_supply.release_capacity("a", "b", 2.0)
        assert line_supply.residual("a", "b") == pytest.approx(8.0)

    def test_release_capped_at_nominal(self, line_supply):
        line_supply.release_capacity("a", "b", 100.0)
        assert line_supply.residual("a", "b") == pytest.approx(10.0)

    def test_over_consumption_rejected(self, line_supply):
        with pytest.raises(ValueError):
            line_supply.consume_capacity("a", "b", 11.0)

    def test_consume_tolerates_float_noise(self, line_supply):
        line_supply.consume_capacity("a", "b", 10.0 + 1e-12)
        assert line_supply.residual("a", "b") == pytest.approx(0.0, abs=1e-9)

    def test_reset_residuals(self, line_supply):
        line_supply.consume_capacity("a", "b", 5.0)
        line_supply.reset_residuals()
        assert line_supply.residual("a", "b") == pytest.approx(10.0)

    def test_set_capacity_resets_residual(self, line_supply):
        line_supply.consume_capacity("a", "b", 5.0)
        line_supply.set_capacity("a", "b", 20.0)
        assert line_supply.residual("a", "b") == pytest.approx(20.0)

    def test_total_capacity(self, line_supply):
        assert line_supply.total_capacity() == pytest.approx(40.0)


class TestCosts:
    def test_default_costs_are_unit(self, line_supply):
        assert line_supply.node_repair_cost("a") == 1.0
        assert line_supply.edge_repair_cost("a", "b") == 1.0

    def test_set_costs(self, line_supply):
        line_supply.set_node_repair_cost("a", 5.0)
        line_supply.set_edge_repair_cost("a", "b", 2.5)
        assert line_supply.node_repair_cost("a") == 5.0
        assert line_supply.edge_repair_cost("a", "b") == 2.5

    def test_repair_cost_of(self, line_supply):
        cost = line_supply.repair_cost_of(["a", "b"], [("a", "b")])
        assert cost == pytest.approx(3.0)


class TestDerivedGraphs:
    def test_working_graph_excludes_broken(self, line_supply):
        line_supply.break_node("c")
        working = line_supply.working_graph()
        assert "c" not in working
        # Edges incident to the broken node disappear as well.
        assert not working.has_edge("b", "c")

    def test_working_graph_includes_repaired_extras(self, line_supply):
        line_supply.break_node("c")
        line_supply.break_edge("b", "c")
        working = line_supply.working_graph(extra_nodes={"c"}, extra_edges={("b", "c")})
        assert working.has_edge("b", "c")

    def test_working_graph_uses_residual(self, line_supply):
        line_supply.consume_capacity("a", "b", 4.0)
        working = line_supply.working_graph()
        assert working.edges["a", "b"]["capacity"] == pytest.approx(6.0)

    def test_working_graph_nominal_option(self, line_supply):
        line_supply.consume_capacity("a", "b", 4.0)
        working = line_supply.working_graph(use_residual=False)
        assert working.edges["a", "b"]["capacity"] == pytest.approx(10.0)

    def test_full_graph_keeps_broken(self, line_supply):
        line_supply.break_all()
        full = line_supply.full_graph()
        assert full.number_of_nodes() == 5
        assert full.number_of_edges() == 4

    def test_copy_is_independent(self, line_supply):
        clone = line_supply.copy()
        clone.break_node("a")
        clone.consume_capacity("a", "b", 5.0)
        assert not line_supply.is_broken_node("a")
        assert line_supply.residual("a", "b") == pytest.approx(10.0)

    def test_stats(self, line_supply):
        stats = line_supply.stats()
        assert stats["nodes"] == 5
        assert stats["edges"] == 4
        assert stats["connected"] is True
        assert stats["max_degree"] == 2

    def test_max_degree(self, grid3_supply):
        assert grid3_supply.max_degree == 4
