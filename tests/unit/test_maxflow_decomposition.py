"""Tests for max-flow helpers and flow decomposition."""

import networkx as nx
import pytest

from repro.flows.decomposition import decompose_flows, total_decomposed_flow
from repro.network.index import bottleneck_capacity, max_flow_over_path_set, max_flow_value


class TestMaxFlowValue:
    def test_line(self, line_supply):
        graph = line_supply.working_graph()
        assert max_flow_value(graph, "a", "e") == pytest.approx(10.0)

    def test_diamond(self, diamond_supply):
        graph = diamond_supply.working_graph()
        assert max_flow_value(graph, "s", "t") == pytest.approx(14.0)

    def test_same_node_is_infinite(self, line_supply):
        graph = line_supply.working_graph()
        assert max_flow_value(graph, "a", "a") == float("inf")

    def test_missing_node_is_zero(self, line_supply):
        graph = line_supply.working_graph()
        assert max_flow_value(graph, "a", "zzz") == 0.0

    def test_disconnected_is_zero(self, line_supply):
        line_supply.break_node("c")
        graph = line_supply.working_graph()
        assert max_flow_value(graph, "a", "e") == 0.0


class TestMaxFlowOverPathSet:
    def test_single_path(self, diamond_supply):
        graph = diamond_supply.full_graph()
        value = max_flow_over_path_set(graph, [("s", "a", "t")], "s", "t")
        assert value == pytest.approx(10.0)

    def test_two_paths(self, diamond_supply):
        graph = diamond_supply.full_graph()
        value = max_flow_over_path_set(graph, [("s", "a", "t"), ("s", "b", "t")], "s", "t")
        assert value == pytest.approx(14.0)

    def test_empty_path_set(self, diamond_supply):
        graph = diamond_supply.full_graph()
        assert max_flow_over_path_set(graph, [], "s", "t") == 0.0

    def test_unknown_edge_raises(self, diamond_supply):
        graph = diamond_supply.full_graph()
        with pytest.raises(KeyError):
            max_flow_over_path_set(graph, [("s", "t")], "s", "t")

    def test_bottleneck_capacity(self, diamond_supply):
        graph = diamond_supply.full_graph()
        assert bottleneck_capacity(graph, ("s", "b", "t")) == pytest.approx(4.0)


class TestDecomposeFlows:
    def test_single_path_flow(self):
        flows = {("a", "b"): 3.0, ("b", "c"): 3.0}
        decomposition = decompose_flows(flows, "a", "c")
        assert decomposition == [(("a", "b", "c"), pytest.approx(3.0))]

    def test_two_parallel_paths(self):
        flows = {("s", "a"): 2.0, ("a", "t"): 2.0, ("s", "b"): 1.0, ("b", "t"): 1.0}
        decomposition = decompose_flows(flows, "s", "t")
        assert total_decomposed_flow(decomposition) == pytest.approx(3.0)
        assert len(decomposition) == 2

    def test_cycle_is_dropped(self):
        # A cycle a->b->a carrying flow plus a genuine path.
        flows = {("s", "t"): 1.0, ("a", "b"): 5.0, ("b", "a"): 5.0}
        decomposition = decompose_flows(flows, "s", "t")
        assert total_decomposed_flow(decomposition) == pytest.approx(1.0)

    def test_unbalanced_noise_tolerated(self):
        flows = {("s", "a"): 1.0, ("a", "t"): 1.0, ("s", "b"): 1e-9}
        decomposition = decompose_flows(flows, "s", "t")
        assert total_decomposed_flow(decomposition) == pytest.approx(1.0)

    def test_no_flow(self):
        assert decompose_flows({}, "s", "t") == []

    def test_paths_are_simple(self):
        flows = {("s", "a"): 2.0, ("a", "b"): 2.0, ("b", "t"): 2.0, ("b", "a"): 1.0}
        decomposition = decompose_flows(flows, "s", "t")
        for path, _ in decomposition:
            assert len(set(path)) == len(path)

    def test_conservation_of_decomposed_flow(self):
        flows = {
            ("s", "a"): 4.0,
            ("s", "b"): 2.0,
            ("a", "t"): 3.0,
            ("a", "b"): 1.0,
            ("b", "t"): 3.0,
        }
        decomposition = decompose_flows(flows, "s", "t")
        assert total_decomposed_flow(decomposition) == pytest.approx(6.0)
