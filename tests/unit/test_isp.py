"""Tests for the ISP main algorithm (Section IV)."""

import pytest

from repro.core.isp import LP_EDGE_THRESHOLD, ISPConfig, _ISPState, iterative_split_prune
from repro.evaluation.metrics import evaluate_plan
from repro.failures.complete import CompleteDestruction
from repro.network.demand import DemandGraph
from repro.topologies.grids import grid_topology, ring_topology


class TestTrivialCases:
    def test_empty_demand_repairs_nothing(self, line_supply):
        line_supply.break_all()
        plan = iterative_split_prune(line_supply, DemandGraph())
        assert plan.total_repairs == 0

    def test_undamaged_network_repairs_nothing(self, line_supply, single_demand):
        plan = iterative_split_prune(line_supply, single_demand)
        assert plan.total_repairs == 0
        assert plan.total_satisfied() == pytest.approx(5.0)

    def test_inputs_not_modified(self, line_supply, single_demand):
        line_supply.break_all()
        iterative_split_prune(line_supply, single_demand)
        assert len(line_supply.broken_nodes) == 5
        assert single_demand.demand("a", "e") == 5.0

    def test_unreachable_demand_recorded(self, line_supply):
        line_supply.graph.remove_edge("c", "d")
        line_supply.break_all()
        demand = DemandGraph()
        demand.add("a", "e", 5.0)
        plan = iterative_split_prune(line_supply, demand)
        assert ("a", "e") in plan.metadata["unsatisfiable_pairs"]


class TestSingleDemandRecovery:
    def test_line_complete_destruction_is_optimal(self, line_supply, single_demand):
        line_supply.break_all()
        plan = iterative_split_prune(line_supply, single_demand)
        # The unique recovery is the full path: 5 nodes + 4 edges.
        assert plan.num_node_repairs == 5
        assert plan.num_edge_repairs == 4
        evaluation = evaluate_plan(line_supply, single_demand, plan)
        assert evaluation.satisfied_percentage == pytest.approx(100.0)

    def test_single_broken_edge_on_path(self, line_supply, single_demand):
        line_supply.break_edge("c", "d")
        plan = iterative_split_prune(line_supply, single_demand)
        assert plan.repaired_edges == {("c", "d")}
        assert plan.num_node_repairs == 0

    def test_broken_elements_off_path_not_repaired(self, diamond_supply):
        diamond_supply.break_node("b")
        diamond_supply.break_edge("s", "b")
        demand = DemandGraph()
        demand.add("s", "t", 8.0)
        plan = iterative_split_prune(diamond_supply, demand)
        assert plan.total_repairs == 0

    def test_demand_needing_both_branches(self, diamond_supply, diamond_demand):
        diamond_supply.break_all()
        plan = iterative_split_prune(diamond_supply, diamond_demand)
        assert plan.num_node_repairs == 4
        assert plan.num_edge_repairs == 4
        evaluation = evaluate_plan(diamond_supply, diamond_demand, plan)
        assert evaluation.satisfied_percentage == pytest.approx(100.0)

    def test_low_demand_uses_single_branch(self, diamond_supply):
        diamond_supply.break_all()
        demand = DemandGraph()
        demand.add("s", "t", 8.0)
        plan = iterative_split_prune(diamond_supply, demand)
        assert plan.num_node_repairs == 3
        assert plan.num_edge_repairs == 2


class TestMultiDemandRecovery:
    def test_grid_two_demands_full_satisfaction(self):
        supply = grid_topology(4, 4, capacity=10.0)
        CompleteDestruction().apply(supply)
        demand = DemandGraph()
        demand.add((0, 0), (3, 3), 5.0)
        demand.add((0, 3), (3, 0), 5.0)
        plan = iterative_split_prune(supply, demand)
        evaluation = evaluate_plan(supply, demand, plan)
        assert evaluation.satisfied_percentage == pytest.approx(100.0)
        assert evaluation.routing_violations == 0

    def test_sharing_beats_independent_paths(self):
        # Two demands whose endpoints sit on opposite corners: sharing the
        # centre of the grid costs fewer repairs than two disjoint paths.
        supply = grid_topology(3, 3, capacity=100.0)
        CompleteDestruction().apply(supply)
        demand = DemandGraph()
        demand.add((0, 0), (2, 2), 1.0)
        demand.add((0, 2), (2, 0), 1.0)
        plan = iterative_split_prune(supply, demand)
        # Two fully disjoint corner-to-corner paths would need 18 repairs.
        assert plan.total_repairs <= 18

    def test_ring_demands(self):
        supply = ring_topology(8, capacity=10.0)
        CompleteDestruction().apply(supply)
        demand = DemandGraph()
        demand.add(0, 4, 5.0)
        demand.add(2, 6, 5.0)
        plan = iterative_split_prune(supply, demand)
        evaluation = evaluate_plan(supply, demand, plan)
        assert evaluation.satisfied_percentage == pytest.approx(100.0)


class TestConfig:
    def test_bottleneck_mode_still_satisfies(self, grid3_supply):
        CompleteDestruction().apply(grid3_supply)
        demand = DemandGraph()
        demand.add((0, 0), (2, 2), 5.0)
        config = ISPConfig(split_amount_mode="bottleneck")
        plan = iterative_split_prune(grid3_supply, demand, config=config)
        evaluation = evaluate_plan(grid3_supply, demand, plan)
        assert evaluation.satisfied_percentage == pytest.approx(100.0)

    def test_non_bubble_pruning(self, grid3_supply):
        CompleteDestruction().apply(grid3_supply)
        demand = DemandGraph()
        demand.add((0, 0), (2, 2), 5.0)
        config = ISPConfig(require_bubble=False)
        plan = iterative_split_prune(grid3_supply, demand, config=config)
        evaluation = evaluate_plan(grid3_supply, demand, plan)
        assert evaluation.satisfied_percentage == pytest.approx(100.0)

    def test_iteration_limit_triggers_fallback(self, grid3_supply):
        CompleteDestruction().apply(grid3_supply)
        demand = DemandGraph()
        demand.add((0, 0), (2, 2), 5.0)
        config = ISPConfig(max_iterations=1)
        plan = iterative_split_prune(grid3_supply, demand, config=config)
        assert plan.metadata["fallback_used"]
        evaluation = evaluate_plan(grid3_supply, demand, plan)
        assert evaluation.satisfied_percentage == pytest.approx(100.0)

    def test_choice_options_outside_their_choices_rejected(self):
        with pytest.raises(ValueError, match="metric"):
            ISPConfig(metric="euclidean")
        with pytest.raises(ValueError, match="split_amount_mode"):
            ISPConfig(split_amount_mode="banana")

    @pytest.mark.parametrize(
        "rows, cols, edges, runs_the_lp",
        [(5, 45, 400, True), (6, 37, 401, False)],
        ids=["at-threshold", "above-threshold"],
    )
    def test_auto_mode_switches_at_the_edge_threshold(self, rows, cols, edges, runs_the_lp):
        """``"auto"`` keeps the paper's split LP up to ``LP_EDGE_THRESHOLD``
        (400) supply edges and takes the bottleneck approximation above it."""
        assert LP_EDGE_THRESHOLD == 400
        supply = grid_topology(rows, cols)
        assert supply.graph.number_of_edges() == edges
        demand = DemandGraph()
        demand.add((0, 0), (rows - 1, cols - 1), 1.0)
        state = _ISPState(supply, demand, ISPConfig())
        assert ISPConfig().split_amount_mode == "auto"
        assert (state.split_program is not None) is runs_the_lp


class TestPlanMetadata:
    def test_counters_present(self, grid3_supply):
        CompleteDestruction().apply(grid3_supply)
        demand = DemandGraph()
        demand.add((0, 0), (2, 2), 5.0)
        plan = iterative_split_prune(grid3_supply, demand)
        assert plan.iterations > 0
        assert plan.elapsed_seconds > 0
        assert set(plan.metadata) >= {"splits", "prunes", "direct_edge_repairs", "fallback_used"}

    def test_routing_is_consistent_with_repairs(self, grid3_supply):
        CompleteDestruction().apply(grid3_supply)
        demand = DemandGraph()
        demand.add((0, 0), (2, 2), 5.0)
        plan = iterative_split_prune(grid3_supply, demand)
        # Routes only traverse repaired or working elements and respect capacity.
        assert plan.validate_routing(grid3_supply, demand) == []
