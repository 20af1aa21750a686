"""Unit tests for the invariant checker: it must catch what it claims to.

The differential and fuzz suites assert the checker stays silent on honest
plans; this suite asserts the other direction — deliberately corrupted
plans trip exactly the invariant they violate.
"""

import pytest

from repro.failures.complete import CompleteDestruction
from repro.heuristics.registry import get_algorithm
from repro.network.demand import DemandGraph
from repro.network.plan import RecoveryPlan
from repro.topologies.grids import grid_topology
from repro.verification import InvariantReport, Violation, check_plan_invariants


def _instance():
    supply = grid_topology(3, 3, capacity=20.0)
    CompleteDestruction().apply(supply)
    demand = DemandGraph()
    demand.add((0, 0), (2, 2), 5.0)
    return supply, demand


def _invariants(violations):
    return {violation.invariant for violation in violations}


class TestHonestPlansPass:
    @pytest.mark.parametrize("name", ["ISP", "SRT", "ALL", "GRD-NC"])
    def test_no_violations(self, name):
        supply, demand = _instance()
        plan = get_algorithm(name).solve(supply.copy(), demand)
        assert check_plan_invariants(supply, demand, plan) == []

    def test_empty_plan_passes(self):
        supply, demand = _instance()
        assert check_plan_invariants(supply, demand, RecoveryPlan(algorithm="NOOP")) == []


class TestCorruptedPlansAreCaught:
    def test_repairing_a_working_element(self):
        supply, demand = _instance()
        supply.repair_node((0, 0))  # make one node working again
        plan = get_algorithm("ALL").solve(supply.copy(), demand)
        plan.add_node_repair((0, 0))
        violations = check_plan_invariants(supply, demand, plan)
        assert "repairs-within-damage" in _invariants(violations)

    def test_route_through_unrepaired_element(self):
        supply, demand = _instance()
        plan = RecoveryPlan(algorithm="EVIL")
        plan.add_route(((0, 0), (2, 2)), ((0, 0), (0, 1), (0, 2), (1, 2), (2, 2)), 5.0)
        violations = check_plan_invariants(supply, demand, plan)
        assert "routing-feasibility" in _invariants(violations)

    def test_route_with_wrong_endpoints(self):
        supply, demand = _instance()
        plan = get_algorithm("ISP").solve(supply.copy(), demand)
        # Claim a route for the demand pair that actually connects others.
        plan.routes[0] = type(plan.routes[0])(
            pair=((0, 0), (2, 2)), path=((0, 1), (0, 2)), flow=1.0
        )
        violations = check_plan_invariants(supply, demand, plan)
        assert "routing-feasibility" in _invariants(violations)

    def test_inconsistent_satisfied_bookkeeping(self):
        supply, demand = _instance()
        plan = get_algorithm("ISP").solve(supply.copy(), demand)
        pair = plan.routes[0].pair
        plan.satisfied_demand[pair] = plan.satisfied_demand[pair] + 3.0
        violations = check_plan_invariants(supply, demand, plan)
        assert "flow-conservation" in _invariants(violations)

    def test_metrics_mismatch(self):
        supply, demand = _instance()
        plan = get_algorithm("ALL").solve(supply.copy(), demand)
        violations = check_plan_invariants(
            supply, demand, plan, reported_metrics={"satisfied_pct": 12.5}
        )
        assert "metrics-consistency" in _invariants(violations)

    def test_cheaper_than_proven_optimum(self):
        supply, demand = _instance()
        optimal = get_algorithm("OPT", time_limit=30.0).solve(supply.copy(), demand)
        assert optimal.metadata["status"] == "optimal"
        # Forge a plan claiming full satisfaction with an impossible cost:
        # reuse OPT's repairs minus one element, which the audit LP will
        # reject as partial — so instead pretend the *optimum* cost is
        # higher by giving the heuristic a strict subset at lower cost.
        cheaper = RecoveryPlan(algorithm="FAKE")
        for node in optimal.repaired_nodes:
            cheaper.add_node_repair(node)
        for u, v in optimal.repaired_edges:
            cheaper.add_edge_repair(u, v)
        pricier = RecoveryPlan(algorithm="OPT")
        pricier.metadata["status"] = "optimal"
        for node in cheaper.repaired_nodes:
            pricier.add_node_repair(node)
        extra = next(iter(supply.broken_edges - cheaper.repaired_edges))
        for u, v in cheaper.repaired_edges:
            pricier.add_edge_repair(u, v)
        pricier.add_edge_repair(*extra)
        violations = check_plan_invariants(supply, demand, cheaper, optimal=pricier)
        assert "cost-dominance" in _invariants(violations)

    def test_unproven_optimum_with_dominating_bound_is_caught(self):
        supply, demand = _instance()
        plan = get_algorithm("ALL").solve(supply.copy(), demand)
        # A time-limited OPT run that found no good incumbent but proved a
        # dual bound above the heuristic's cost: the bound alone convicts.
        weak = RecoveryPlan(algorithm="OPT")
        weak.metadata["status"] = "feasible"
        weak.metadata["bound"] = plan.repair_cost(supply) + 1.0
        violations = check_plan_invariants(supply, demand, plan, optimal=weak)
        assert "cost-dominance" in _invariants(violations)
        message = next(
            str(v) for v in violations if v.invariant == "cost-dominance"
        )
        assert "dual bound" in message

    def test_unproven_optimum_with_loose_bound_stays_silent(self):
        supply, demand = _instance()
        plan = get_algorithm("ALL").solve(supply.copy(), demand)
        weak = RecoveryPlan(algorithm="OPT")
        weak.metadata["status"] = "feasible"
        weak.metadata["bound"] = 0.0  # trivially below any repair cost
        violations = check_plan_invariants(supply, demand, plan, optimal=weak)
        assert "cost-dominance" not in _invariants(violations)

    def test_garbage_bound_metadata_is_ignored(self):
        supply, demand = _instance()
        plan = get_algorithm("ALL").solve(supply.copy(), demand)
        for bound in (True, "12.5", None):
            weak = RecoveryPlan(algorithm="OPT")
            weak.metadata["status"] = "feasible"
            weak.metadata["bound"] = bound
            violations = check_plan_invariants(supply, demand, plan, optimal=weak)
            assert "cost-dominance" not in _invariants(violations)

    def test_unproven_optimum_is_not_a_baseline(self):
        supply, demand = _instance()
        cheap = get_algorithm("ISP").solve(supply.copy(), demand)
        for status in ("feasible", "error", None):  # None: status lost entirely
            weak = get_algorithm("ALL").solve(supply.copy(), demand)
            if status is not None:
                weak.metadata["status"] = status
            violations = check_plan_invariants(supply, demand, cheap, optimal=weak)
            assert "cost-dominance" not in _invariants(violations)

    def test_opt_status_survives_the_envelope_round_trip(self):
        import json

        from repro.api.results import jsonify_plan, plan_from_payload, plan_payload

        supply, demand = _instance()
        optimal = get_algorithm("OPT", time_limit=30.0).solve(supply.copy(), demand)
        assert optimal.metadata["status"] == "optimal"
        payload = json.loads(json.dumps(jsonify_plan(plan_payload(optimal))))
        rebuilt = plan_from_payload(payload, algorithm="OPT")
        assert rebuilt.metadata["status"] == "optimal"
        # An envelope OPT plan therefore still qualifies as the baseline.
        violations = check_plan_invariants(
            supply, demand, get_algorithm("ALL").solve(supply.copy(), demand),
            optimal=rebuilt,
        )
        assert "cost-dominance" not in _invariants(violations)


class TestOptimalGapDerivation:
    """_optimal_gap feeds the fuzz --verify gap statistics."""

    def _weak_plan(self, optimal, **metadata):
        weak = RecoveryPlan(algorithm="OPT")
        for node in optimal.repaired_nodes:
            weak.add_node_repair(node)
        for u, v in optimal.repaired_edges:
            weak.add_edge_repair(u, v)
        weak.metadata.update(metadata)
        return weak

    def test_proven_run_has_zero_gap(self):
        from repro.verification import _optimal_gap

        supply, demand = _instance()
        optimal = get_algorithm("OPT", time_limit=30.0).solve(supply.copy(), demand)
        assert _optimal_gap(supply, optimal) == 0.0

    def test_solver_reported_mip_gap_wins(self):
        from repro.verification import _optimal_gap

        supply, demand = _instance()
        optimal = get_algorithm("OPT", time_limit=30.0).solve(supply.copy(), demand)
        weak = self._weak_plan(optimal, status="feasible", mip_gap=0.125)
        assert _optimal_gap(supply, weak) == pytest.approx(0.125)
        # Negative solver noise clamps to zero rather than going negative.
        noisy = self._weak_plan(optimal, status="feasible", mip_gap=-1e-9)
        assert _optimal_gap(supply, noisy) == 0.0

    def test_gap_derived_from_bound_and_cost(self):
        from repro.verification import _optimal_gap

        supply, demand = _instance()
        optimal = get_algorithm("OPT", time_limit=30.0).solve(supply.copy(), demand)
        cost = optimal.repair_cost(supply)
        assert cost > 0
        weak = self._weak_plan(optimal, status="feasible", bound=cost / 2.0)
        assert _optimal_gap(supply, weak) == pytest.approx(0.5)

    def test_gap_is_unknowable_without_bound_or_mip_gap(self):
        from repro.verification import _optimal_gap

        supply, demand = _instance()
        optimal = get_algorithm("OPT", time_limit=30.0).solve(supply.copy(), demand)
        weak = self._weak_plan(optimal, status="feasible")
        assert _optimal_gap(supply, weak) is None

    def test_gap_summary_aggregates(self):
        report = InvariantReport()
        report.opt_gaps.extend([0.0, 0.25, 0.05])
        summary = report.gap_summary()
        assert summary == {
            "count": 3,
            "max": 0.25,
            "mean": pytest.approx(0.1),
        }


class TestReportTypes:
    def test_violation_str_includes_context(self):
        violation = Violation("cost-dominance", "ISP", "too cheap", request="abc123")
        assert "abc123" in str(violation) and "ISP" in str(violation)

    def test_report_summary(self):
        report = InvariantReport(checked=3)
        assert report.ok
        report.extend([Violation("x", "A", "d")])
        assert not report.ok
        assert report.summary() == {
            "plans_checked": 3,
            "violations": 1,
            "unproven_baselines": 0,
            "opt_gaps": {"count": 0, "max": 0.0, "mean": 0.0},
            "ok": False,
        }

    def test_unproven_envelope_baseline_is_counted_not_silent(self):
        from repro.api import RecoveryRequest, RecoveryService, TopologySpec
        from repro.verification import audit_result

        service = RecoveryService()
        request = RecoveryRequest(
            topology=TopologySpec("grid", kwargs={"rows": 3, "cols": 3}),
            algorithms=("OPT", "ALL"),
            seed=3,
            opt_time_limit=30.0,
        )
        envelope = service.solve(request)
        # Simulate a pre-status cache entry: strip the persisted status.
        envelope.run("OPT").plan.pop("status")
        report = audit_result(service, request, envelope)
        assert report.ok
        assert report.unproven_baselines == 1
