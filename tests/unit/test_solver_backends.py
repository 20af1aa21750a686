"""Backend parity suite for the solver substrate.

Every registered backend must be interchangeable: identical routability
verdicts, identical repair counts and identical evaluation metrics on the
tier-1 scenarios.  The suite parametrises over ``available_backends()`` so
the CI leg that installs ``highspy`` exercises the direct HiGHS backend with
the same assertions (locally only ``scipy`` may be present).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.tasks import execute_task, expand_tasks
from repro.evaluation.metrics import evaluate_plan
from repro.failures.complete import CompleteDestruction
from repro.flows.lp_backend import Commodity, FlowProblem
from repro.flows.milp import solve_minimum_recovery
from repro.flows.multicommodity import solve_multicommodity_recovery
from repro.flows.routability import routability_test
from repro.flows.solver.backends import (
    BACKEND_ENV_VAR,
    available_backends,
    default_backend_name,
    get_backend,
    set_default_backend,
)
from repro.flows.solver.incremental import (
    IncrementalFlowProblem,
    SolverContext,
    StructureCache,
    build_flow_problem,
    clear_structure_cache,
    shared_structure_cache,
    topology_signature,
)
from repro.flows.solver.stats import collect_solver_stats
from repro.flows.splitting_lp import maximum_splittable_amount
from repro.heuristics.registry import get_algorithm
from repro.network.demand import DemandGraph
from repro.topologies.grids import grid_topology

BACKENDS = available_backends()


@pytest.fixture(autouse=True)
def _reset_backend_selection(monkeypatch):
    """Keep backend selection hermetic per test."""
    monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
    set_default_backend(None)
    yield
    set_default_backend(None)


def broken_grid_instance():
    """3x3 grid, complete destruction, two hand-checkable demands."""
    supply = grid_topology(3, 3, capacity=10.0)
    CompleteDestruction().apply(supply)
    demand = DemandGraph()
    demand.add((0, 0), (2, 2), 5.0)
    demand.add((0, 2), (2, 0), 3.0)
    return supply, demand


class TestRegistry:
    def test_scipy_is_always_available(self):
        assert "scipy" in BACKENDS
        assert get_backend("scipy").name == "scipy"

    def test_default_resolution_order(self, monkeypatch):
        assert default_backend_name() == "scipy"
        monkeypatch.setenv(BACKEND_ENV_VAR, "scipy")
        assert default_backend_name() == "scipy"
        set_default_backend("scipy")
        assert default_backend_name() == "scipy"

    def test_unknown_backend_raises(self):
        with pytest.raises(KeyError, match="unknown LP backend"):
            get_backend("glpk")
        with pytest.raises(KeyError):
            set_default_backend("glpk")

    def test_env_var_selects_backend_at_solve_time(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "glpk")
        with pytest.raises(KeyError):
            get_backend()

    def test_backend_instance_passes_through(self):
        backend = get_backend("scipy")
        assert get_backend(backend) is backend


@pytest.mark.parametrize("backend_name", BACKENDS)
class TestBackendParity:
    """Every backend must reproduce the scipy reference results exactly."""

    def test_routability_verdicts(self, backend_name):
        supply, demand = broken_grid_instance()
        working = supply.working_graph()  # everything broken: unroutable
        full = supply.full_graph(use_residual=False)
        assert not routability_test(working, demand, backend=backend_name).routable
        outcome = routability_test(full, demand, want_flows=True, backend=backend_name)
        assert outcome.routable
        # The routing must satisfy every demand exactly.
        for commodity, flows in zip(outcome.commodities, outcome.flows):
            outflow = sum(
                value for (u, _), value in flows.items() if u == commodity.source
            )
            assert outflow == pytest.approx(commodity.demand, abs=1e-6)

    def test_isp_repairs_and_metrics_match_reference(self, backend_name):
        supply, demand = broken_grid_instance()
        reference_plan = get_algorithm("ISP").solve(supply, demand)
        reference = evaluate_plan(supply, demand, reference_plan)

        set_default_backend(backend_name)
        plan = get_algorithm("ISP").solve(supply, demand)
        evaluation = evaluate_plan(supply, demand, plan)

        # Repair *counts* and metrics must agree; the exact element sets may
        # legitimately differ between backends when an LP has alternate
        # optima (different optimal vertices give different routings).
        assert evaluation.node_repairs == reference.node_repairs
        assert evaluation.edge_repairs == reference.edge_repairs
        assert evaluation.total_repairs == reference.total_repairs
        assert evaluation.satisfied_percentage == pytest.approx(
            reference.satisfied_percentage, abs=1e-6
        )
        assert evaluation.repair_cost == pytest.approx(reference.repair_cost, abs=1e-6)

    def test_split_amount_matches_reference(self, backend_name):
        supply, demand = broken_grid_instance()
        full = supply.full_graph(use_residual=False)
        reference = maximum_splittable_amount(full, demand, ((0, 0), (2, 2)), (1, 1))
        amount = maximum_splittable_amount(
            full, demand, ((0, 0), (2, 2)), (1, 1), backend=backend_name
        )
        assert amount == pytest.approx(reference, abs=1e-6)

    def test_milp_objective_matches_reference(self, backend_name):
        supply, demand = broken_grid_instance()
        reference = solve_minimum_recovery(supply, demand)
        solution = solve_minimum_recovery(supply, demand, backend=backend_name)
        assert solution.status == reference.status == "optimal"
        assert solution.objective == pytest.approx(reference.objective, abs=1e-6)

    def test_multicommodity_relaxation_is_feasible(self, backend_name):
        supply, demand = broken_grid_instance()
        result = solve_multicommodity_recovery(supply, demand, backend=backend_name)
        assert result.feasible
        assert result.objective == pytest.approx(
            solve_multicommodity_recovery(supply, demand).objective, rel=1e-6
        )

    def test_engine_cell_metrics_match_reference(self, backend_name, monkeypatch):
        from repro.api.requests import DemandSpec, DisruptionSpec, TopologySpec
        from repro.engine.spec import ExperimentSpec, SweepAxis

        spec = ExperimentSpec(
            name="parity-grid",
            figure="Unit",
            topology=TopologySpec("grid", kwargs={"rows": 3, "cols": 3, "capacity": 10.0}),
            disruption=DisruptionSpec("complete"),
            demand=DemandSpec("random", num_pairs=2, flow_per_pair=5.0),
            sweep=SweepAxis(parameter="num_pairs", values=(2,), target="demand.num_pairs"),
            algorithms=("ISP", "SRT"),
        )
        tasks = expand_tasks(spec, seed=5)
        reference = [cell.metrics for task in tasks for cell in execute_task(task)]
        monkeypatch.setenv(BACKEND_ENV_VAR, backend_name)
        results = [cell.metrics for task in tasks for cell in execute_task(task)]
        for ours, theirs in zip(results, reference):
            for key in theirs:
                if key == "elapsed_seconds":
                    continue  # wall clock, not a solver output
                assert ours[key] == pytest.approx(theirs[key], abs=1e-6), key


class TestIncrementalProblem:
    def test_matrices_match_from_scratch_problem(self):
        supply, demand = broken_grid_instance()
        graph = supply.full_graph(use_residual=False)
        commodities = [
            Commodity(p.source, p.target, p.demand) for p in demand.pairs()
        ]
        reference = FlowProblem(graph, commodities)
        incremental = IncrementalFlowProblem(graph, commodities)
        for builder in ("capacity_matrix", "conservation_matrix"):
            a_ref, b_ref = getattr(reference, builder)()
            a_inc, b_inc = getattr(incremental, builder)()
            assert (a_ref != a_inc).nnz == 0
            assert np.allclose(b_ref, b_inc)

    def test_structure_cache_hits_on_same_topology(self):
        supply, demand = broken_grid_instance()
        graph = supply.full_graph(use_residual=False)
        commodities = [Commodity(p.source, p.target, p.demand) for p in demand.pairs()]
        cache = StructureCache()
        with collect_solver_stats() as stats:
            first = build_flow_problem(graph, commodities, cache=cache)
            second = build_flow_problem(graph, commodities[:1], cache=cache)
        assert stats.structure_misses == 1
        assert stats.structure_hits == 1
        assert first.structure is second.structure

    def test_capacity_delta_only_changes_rhs(self):
        supply, _ = broken_grid_instance()
        graph = supply.full_graph(use_residual=False)
        commodities = [Commodity((0, 0), (2, 2), 5.0)]
        cache = StructureCache()
        before = build_flow_problem(graph, commodities, cache=cache)
        a_before, b_before = before.capacity_matrix()
        edge = next(iter(graph.edges))
        graph.edges[edge]["capacity"] = 123.0
        after = build_flow_problem(graph, commodities, cache=cache)
        a_after, b_after = after.capacity_matrix()
        assert a_before is a_after  # identical cached block stack
        assert not np.allclose(b_before, b_after)
        assert 123.0 in b_after

    def test_signature_tracks_topology_not_capacity(self):
        graph = grid_topology(3, 3, capacity=10.0).full_graph(use_residual=False)
        signature = topology_signature(graph)
        edge = next(iter(graph.edges))
        graph.edges[edge]["capacity"] = 1.0
        assert topology_signature(graph) == signature
        graph.remove_edge(*edge)
        assert topology_signature(graph) != signature

    def test_shared_cache_is_bounded(self):
        clear_structure_cache()
        cache = shared_structure_cache()
        for rows in range(2, 8):
            graph = grid_topology(rows, 2, capacity=1.0).full_graph(use_residual=False)
            cache.structure_for(graph)
        assert len(cache) <= cache.maxsize


class TestSolverContext:
    def grid_problem(self, num_commodities=2):
        graph = grid_topology(3, 3, capacity=10.0).full_graph(use_residual=False)
        commodities = [
            Commodity((0, 0), (2, 2), 5.0),
            Commodity((0, 2), (2, 0), 3.0),
            Commodity((1, 0), (1, 2), 2.0),
        ][:num_commodities]
        return build_flow_problem(graph, commodities, cache=StructureCache())

    def test_exact_match_round_trip(self):
        context = SolverContext()
        problem = self.grid_problem(2)
        x = np.arange(problem.num_flow_variables, dtype=float)
        context.remember("tag", problem, x)
        assert np.array_equal(context.warm_start_for("tag", problem), x)
        assert context.warm_start_for("other-tag", problem) is None

    def test_added_commodity_pads_with_zeros(self):
        context = SolverContext()
        small = self.grid_problem(2)
        big = self.grid_problem(3)
        x = np.ones(small.num_flow_variables)
        context.remember("tag", small, x)
        padded = context.warm_start_for("tag", big)
        assert padded is not None
        assert len(padded) == big.num_flow_variables
        assert np.all(padded[: small.num_flow_variables] == 1.0)
        assert np.all(padded[small.num_flow_variables :] == 0.0)

    def test_removed_commodity_truncates(self):
        context = SolverContext()
        small = self.grid_problem(1)
        big = self.grid_problem(3)
        context.remember("tag", big, np.ones(big.num_flow_variables))
        truncated = context.warm_start_for("tag", small)
        assert truncated is not None
        assert len(truncated) == small.num_flow_variables

    def test_extra_columns_must_match(self):
        context = SolverContext()
        problem = self.grid_problem(2)
        context.remember("tag", problem, np.ones(problem.num_flow_variables + 1), extra_columns=1)
        assert context.warm_start_for("tag", problem) is None
        assert context.warm_start_for("tag", problem, extra_columns=1) is not None


class TestSolverStats:
    def test_routability_records_effort(self):
        supply, demand = broken_grid_instance()
        full = supply.full_graph(use_residual=False)
        with collect_solver_stats() as stats:
            assert routability_test(full, demand).routable
        assert stats.lp_solves == 1
        assert stats.solve_seconds > 0.0
        assert stats.build_seconds > 0.0

    def test_nested_collectors_both_record(self):
        supply, demand = broken_grid_instance()
        full = supply.full_graph(use_residual=False)
        with collect_solver_stats() as outer:
            routability_test(full, demand)
            with collect_solver_stats() as inner:
                routability_test(full, demand)
        assert inner.lp_solves == 1
        assert outer.lp_solves == 2

    def test_collectors_follow_a_copied_context_into_another_thread(self):
        import contextvars
        import threading

        from repro.obs.trace import trace_context

        supply, demand = broken_grid_instance()
        full = supply.full_graph(use_residual=False)
        with trace_context() as trace, collect_solver_stats() as stats:
            context = contextvars.copy_context()
            worker = threading.Thread(target=context.run, args=(routability_test, full, demand))
            worker.start()
            worker.join()
        solves = [span for span in trace.roots if span.name == "solver.solve"]
        # the collector sees exactly the solves the trace sees
        assert len(solves) == 1
        assert stats.lp_solves == 1

    def test_stats_dict_keys_keep_their_order(self):
        with collect_solver_stats() as stats:
            pass
        assert list(stats.as_dict()) == [
            "lp_solves",
            "milp_solves",
            "build_seconds",
            "solve_seconds",
            "warm_start_attempts",
            "warm_start_hits",
            "structure_hits",
            "structure_misses",
            "incumbent_seeds",
            "benders_iterations",
            "benders_cuts",
            "bound_reuses",
        ]
        assert all(isinstance(value, float) for value in stats.as_dict().values())

    def test_isp_plan_carries_solver_stats(self):
        supply, demand = broken_grid_instance()
        plan = get_algorithm("ISP").solve(supply, demand)
        stats = plan.metadata["solver"]
        assert stats["lp_solves"] >= 1
        evaluation = evaluate_plan(supply, demand, plan)
        assert evaluation.solver_stats == stats

    def test_engine_cell_reports_solver_extras(self):
        from repro.api.requests import DemandSpec, DisruptionSpec, TopologySpec
        from repro.engine.spec import ExperimentSpec, SweepAxis

        spec = ExperimentSpec(
            name="stats-grid",
            figure="Unit",
            topology=TopologySpec("grid", kwargs={"rows": 3, "cols": 3, "capacity": 10.0}),
            disruption=DisruptionSpec("complete"),
            demand=DemandSpec("random", num_pairs=1, flow_per_pair=5.0),
            sweep=SweepAxis(parameter="num_pairs", values=(1,), target="demand.num_pairs"),
            algorithms=("ISP",),
        )
        (result,) = execute_task(expand_tasks(spec, seed=5)[0])
        assert result.solver["lp_solves"] >= 1.0
        assert result.solver["solve_seconds"] > 0.0


class TestCliBackendSelection:
    def test_solve_accepts_lp_backend(self, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        code = main(
            [
                "solve",
                "--topology",
                "grid",
                "--topology-arg",
                "rows=3",
                "--topology-arg",
                "cols=3",
                "--pairs",
                "1",
                "--algorithms",
                "SRT",
                "--lp-backend",
                "scipy",
            ]
        )
        assert code == 0
        assert "SRT" in capsys.readouterr().out
        # The selection is exported for sweep worker processes.
        import os

        assert os.environ[BACKEND_ENV_VAR] == "scipy"

    def test_unknown_lp_backend_is_rejected(self):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "figure4", "--lp-backend", "bogus"])
