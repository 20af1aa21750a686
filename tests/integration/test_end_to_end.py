"""End-to-end integration tests: full pipeline on realistic instances.

These tests run the complete workflow the examples and benchmarks use
(topology → disruption → demand → several algorithms → evaluation) and check
the qualitative claims of the paper on instances small enough to solve
exactly.
"""

import pytest

from repro.evaluation.demand_builder import far_apart_demand
from repro.evaluation.metrics import evaluate_plan
from repro.failures.complete import CompleteDestruction
from repro.failures.geographic import GaussianDisruption
from repro.heuristics.registry import get_algorithm
from repro.network.demand import DemandGraph
from repro.topologies.bellcanada import bell_canada
from repro.topologies.grids import grid_topology


@pytest.fixture(scope="module")
def bellcanada_instance():
    """Bell-Canada, complete destruction, 3 far-apart pairs of 10 units."""
    supply = bell_canada()
    CompleteDestruction().apply(supply)
    demand = far_apart_demand(supply, 3, 10.0, seed=101)
    return supply, demand


@pytest.fixture(scope="module")
def bellcanada_plans(bellcanada_instance):
    supply, demand = bellcanada_instance
    names = ["ISP", "OPT", "SRT", "GRD-COM", "GRD-NC", "ALL"]
    algorithms = [
        get_algorithm(name, time_limit=120.0) if name == "OPT" else get_algorithm(name)
        for name in names
    ]
    plans = {name: algorithm.solve(supply, demand) for name, algorithm in zip(names, algorithms)}
    evaluations = {
        name: evaluate_plan(supply, demand, plan) for name, plan in plans.items()
    }
    return plans, evaluations


class TestBellCanadaCompleteDestruction:
    def test_opt_is_lower_bound(self, bellcanada_plans):
        plans, _ = bellcanada_plans
        for name in ("ISP", "SRT", "GRD-COM", "GRD-NC", "ALL"):
            assert plans["OPT"].total_repairs <= plans[name].total_repairs + 1e-9

    def test_isp_close_to_optimal(self, bellcanada_plans):
        plans, _ = bellcanada_plans
        # The paper reports ISP within ~15% of OPT at low demand.
        assert plans["ISP"].total_repairs <= 1.35 * plans["OPT"].total_repairs

    def test_isp_beats_greedy_no_commitment(self, bellcanada_plans):
        plans, _ = bellcanada_plans
        assert plans["ISP"].total_repairs <= plans["GRD-NC"].total_repairs

    def test_all_is_upper_bound(self, bellcanada_plans):
        plans, _ = bellcanada_plans
        assert plans["ALL"].total_repairs == 48 + 64
        for name in ("ISP", "OPT", "SRT", "GRD-COM", "GRD-NC"):
            assert plans[name].total_repairs <= plans["ALL"].total_repairs

    def test_isp_and_grdnc_have_no_demand_loss(self, bellcanada_plans):
        _, evaluations = bellcanada_plans
        assert evaluations["ISP"].satisfied_percentage == pytest.approx(100.0)
        assert evaluations["GRD-NC"].satisfied_percentage == pytest.approx(100.0)
        assert evaluations["OPT"].satisfied_percentage == pytest.approx(100.0)

    def test_isp_routing_is_feasible(self, bellcanada_plans):
        plans, evaluations = bellcanada_plans
        assert evaluations["ISP"].routing_violations == 0

    def test_isp_runs_fast(self, bellcanada_plans):
        plans, _ = bellcanada_plans
        assert plans["ISP"].elapsed_seconds < 60.0


class TestGeographicDisruption:
    def test_partial_disruption_pipeline(self):
        supply = bell_canada()
        GaussianDisruption(variance=40.0).apply(supply, seed=7)
        demand = far_apart_demand(supply, 3, 10.0, seed=7)
        algorithms = [get_algorithm("ISP"), get_algorithm("SRT"), get_algorithm("ALL")]
        evaluations = [evaluate_plan(supply, demand, a.solve(supply, demand)) for a in algorithms]
        by_name = {e.algorithm: e for e in evaluations}
        assert by_name["ISP"].total_repairs <= by_name["ALL"].total_repairs
        assert by_name["ISP"].satisfied_percentage == pytest.approx(100.0)
        # Repairs never exceed what was actually destroyed.
        destroyed = len(supply.broken_nodes) + len(supply.broken_edges)
        for evaluation in evaluations:
            assert evaluation.total_repairs <= destroyed

    def test_no_disruption_means_no_repairs(self):
        supply = bell_canada()
        demand = far_apart_demand(supply, 3, 10.0, seed=9)
        for name in ("ISP", "SRT", "GRD-COM", "GRD-NC"):
            plan = get_algorithm(name).solve(supply, demand)
            assert plan.total_repairs == 0, name


class TestSharedCorridorEconomy:
    def test_isp_exploits_sharing_on_grid(self):
        # Four demands between the corners of a 5x5 grid, all of which can
        # share the central cross; ISP should repair far less than 4 disjoint
        # corner-to-corner paths (4 * 9 elements).
        supply = grid_topology(5, 5, capacity=100.0)
        CompleteDestruction().apply(supply)
        demand = DemandGraph()
        demand.add((0, 0), (4, 4), 1.0)
        demand.add((0, 4), (4, 0), 1.0)
        plan = get_algorithm("ISP").solve(supply, demand)
        evaluation = evaluate_plan(supply, demand, plan)
        assert evaluation.satisfied_percentage == pytest.approx(100.0)
        assert plan.total_repairs <= 30

    def test_opt_vs_isp_on_grid(self):
        supply = grid_topology(4, 4, capacity=50.0)
        CompleteDestruction().apply(supply)
        demand = DemandGraph()
        demand.add((0, 0), (3, 3), 5.0)
        demand.add((0, 3), (3, 0), 5.0)
        isp = get_algorithm("ISP").solve(supply, demand)
        opt = get_algorithm("OPT", time_limit=60.0).solve(supply, demand)
        assert opt.total_repairs <= isp.total_repairs
        assert isp.total_repairs <= 1.5 * opt.total_repairs
