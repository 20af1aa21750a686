"""Solver substrate: the direct HiGHS backend, cached structure, bases, stats.

The backend runs scipy's bundled HiGHS core with the options
``linprog``/``milp`` set, so :class:`TestReferencePath` re-solves every
program of one Bell Canada request through ``linprog``/``milp`` and demands
bit-identical x, objective and status, and :class:`TestOptimumCheck`
compares the backend's check of an LP optimum with scipy's own
``_check_result``.  ``linprog``/``milp`` and ``_check_result`` appear here
only as those references.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, linprog, milp
from scipy.optimize._linprog_util import _check_result

import repro.core.isp as isp_module
import repro.flows.solver.backends as backends_module
from repro.api.requests import DemandSpec, DisruptionSpec, RecoveryRequest, TopologySpec
from repro.api.service import RecoveryService
from repro.engine.tasks import execute_task, expand_tasks
from repro.failures.complete import CompleteDestruction
from repro.flows.lp_backend import Commodity, FlowProblem
from repro.flows.routability import is_routable, routability_test
from repro.flows.solver.backends import LinearProgram, MILProgram, ScipyHighsBackend
from repro.flows.solver.incremental import (
    DEFAULT_STRUCTURE_CACHE_SIZE,
    IncrementalFlowProblem,
    build_flow_problem,
    instance_scope,
    topology_signature,
)
from repro.flows.solver.stats import solver_counts
from repro.flows.splitting_lp import SplitProgram, maximum_splittable_amount
from repro.network.demand import DemandGraph
from repro.network.index import GraphIndex
from repro.obs.trace import span
from repro.topologies.grids import grid_topology

def broken_grid_instance(capacity=10.0):
    """3x3 grid, complete destruction, two hand-checkable demands."""
    supply = grid_topology(3, 3, capacity=capacity)
    CompleteDestruction().apply(supply)
    demand = DemandGraph()
    demand.add((0, 0), (2, 2), 5.0)
    demand.add((0, 2), (2, 0), 3.0)
    return supply, demand


#: One Bell Canada request (complete destruction, 4 far-apart pairs of 10
#: units) with the six paper algorithms plus Figure 3's MCB/MCW: ISP's
#: splits all route in full (no split LP), OPT solves one MILP and MCW runs
#: the interior-point solver.
BELL_REQUEST = RecoveryRequest(
    topology=TopologySpec("bell-canada"),
    disruption=DisruptionSpec("complete"),
    demand=DemandSpec("routable-far-apart", num_pairs=4, flow_per_pair=10.0),
    algorithms=("ISP", "OPT", "SRT", "GRD-COM", "GRD-NC", "ALL", "MCB", "MCW"),
    seed=1,
)

#: ``BELL_REQUEST`` with 10.5 units per pair: a non-integral demand is
#: beyond the integral router, so every split LP reaches HiGHS.
FRACTIONAL_BELL_REQUEST = dataclasses.replace(
    BELL_REQUEST,
    demand=DemandSpec("routable-far-apart", num_pairs=4, flow_per_pair=10.5),
)


@pytest.fixture(scope="module")
def bell_solves():
    """``BELL_REQUEST``'s envelope and every program it solved, plus the
    routability LP on the request's intact graph and demand (the demand
    builder decides this request's draw by max-flow, without that LP).

    Each LP comes with the solution the run used when it started cold, or
    ``None`` when it started from a basis (re-solved cold below).
    """
    supply, demand, _ = RecoveryService().build_instance(BELL_REQUEST)
    lps, milps = [], []
    solve_lp, solve_milp = ScipyHighsBackend.solve_lp, ScipyHighsBackend.solve_milp

    def record_lp(self, program, basis=None):
        solution = solve_lp(self, program, basis)
        lps.append((program, solution if basis is None else None))
        return solution

    def record_milp(self, program):
        solution = solve_milp(self, program)
        milps.append((program, solution))
        return solution

    ScipyHighsBackend.solve_lp, ScipyHighsBackend.solve_milp = record_lp, record_milp
    try:
        result = RecoveryService().solve(BELL_REQUEST)
        is_routable(supply.full_graph(use_residual=False), demand)
    finally:
        ScipyHighsBackend.solve_lp, ScipyHighsBackend.solve_milp = solve_lp, solve_milp
    backend = ScipyHighsBackend()
    lps = [(program, solution or backend.solve_lp(program)) for program, solution in lps]
    return result, lps, milps


def linear_blocks(program):
    """``(A_ub, b_ub, A_eq, b_eq)`` of ``program``; a prebuilt row system
    (ISP's split LP) is split back into its leading ``-inf <= row <= b_ub``
    rows and its ``b_eq <= row <= b_eq`` rows."""
    if program.rows is None:
        return program.a_ub, program.b_ub, program.a_eq, program.b_eq
    matrix, lower, upper = program.rows
    num_ub = int(np.isneginf(lower).sum())
    assert np.isneginf(lower[:num_ub]).all()
    assert np.array_equal(lower[num_ub:], upper[num_ub:])
    return matrix[:num_ub], upper[:num_ub], matrix[num_ub:], upper[num_ub:]


def linprog_reference(program):
    """``(status, x, objective)`` of ``program`` through ``scipy.optimize.linprog``."""
    method = "highs-ipm" if program.method_hint == "interior-point" else "highs"
    a_ub, b_ub, a_eq, b_eq = linear_blocks(program)
    result = linprog(
        c=program.c,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=program.bounds,
        method=method,
    )
    if result.success:
        return "optimal", result.x, float(result.fun)
    return {2: "infeasible", 3: "unbounded"}.get(result.status, "error"), None, None


def milp_reference(program):
    """``(status, x, objective)`` of ``program`` through ``scipy.optimize.milp``."""
    options = {"mip_rel_gap": program.mip_rel_gap}
    if program.time_limit is not None:
        options["time_limit"] = float(program.time_limit)
    result = milp(
        c=program.c,
        constraints=[
            LinearConstraint(matrix, lb=lb, ub=ub) for matrix, lb, ub in program.constraints
        ],
        integrality=program.integrality,
        bounds=Bounds(lb=program.lb, ub=program.ub),
        options=options,
    )
    if result.status == 2:
        return "infeasible", None, None
    if result.x is None:
        return "error", None, None
    return ("optimal" if result.status == 0 else "feasible"), result.x, float(result.fun)


def outcome(solution):
    return solution.status, solution.x, solution.objective


def assert_bit_identical(ours, reference):
    assert ours[0] == reference[0]
    assert (ours[1] is None) == (reference[1] is None)
    if ours[1] is not None:
        assert ours[1].tobytes() == np.asarray(reference[1]).tobytes()
    assert ours[2] == reference[2]


class TestReferencePath:
    """The direct core reproduces ``linprog``/``milp`` bit for bit."""

    def test_every_lp_of_a_bell_request_matches_linprog(self, bell_solves):
        _, lps, _ = bell_solves
        assert len(lps) == 24
        assert any(program.method_hint == "interior-point" for program, _ in lps)
        for program, solution in lps:
            assert_bit_identical(outcome(solution), linprog_reference(program))

    def test_every_milp_of_a_bell_request_matches_milp(self, bell_solves):
        _, _, milps = bell_solves
        assert milps
        for program, solution in milps:
            assert_bit_identical(outcome(solution), milp_reference(program))

    def test_infeasible_lp(self):
        program = LinearProgram(
            c=np.ones(2), a_ub=sparse.csr_matrix([[1.0, 1.0]]), b_ub=np.array([-1.0])
        )
        solution = ScipyHighsBackend().solve_lp(program)
        assert solution.status == "infeasible"
        assert_bit_identical(outcome(solution), linprog_reference(program))

    def test_unbounded_lp(self):
        program = LinearProgram(
            c=np.array([-1.0, 0.0]), a_ub=sparse.csr_matrix([[1.0, -1.0]]), b_ub=np.array([1.0])
        )
        solution = ScipyHighsBackend().solve_lp(program)
        assert solution.status == "unbounded"
        assert_bit_identical(outcome(solution), linprog_reference(program))

    def test_bounds_are_read_like_linprog(self):
        pairs = [(0, None), (None, 2.0), (1.0, 1.0)]
        listed = LinearProgram(
            c=np.array([1.0, -1.0, 1.0]),
            a_ub=sparse.csr_matrix([[1.0, 1.0, 1.0]]),
            b_ub=np.array([5.0]),
            bounds=pairs,
        )
        array = dataclasses.replace(
            listed, bounds=np.array([[0, np.inf], [-np.inf, 2.0], [1.0, 1.0]])
        )
        for program in (listed, array):
            solution = ScipyHighsBackend().solve_lp(program)
            assert_bit_identical(outcome(solution), linprog_reference(listed))
        with pytest.raises(ValueError, match="bound pairs"):
            ScipyHighsBackend().solve_lp(dataclasses.replace(listed, bounds=pairs[:2]))

    def test_time_limited_milp_without_incumbent_is_an_error(self):
        rng = np.random.default_rng(0)
        weights = rng.integers(10, 100, size=(3, 60)).astype(float)
        program = MILProgram(
            c=-rng.integers(10, 100, size=60).astype(float),
            constraints=[
                (sparse.csr_matrix(weights), np.full(3, -np.inf), weights.sum(axis=1) / 3)
            ],
            integrality=np.ones(60),
            ub=1.0,
            time_limit=0.0,
        )
        solution = ScipyHighsBackend().solve_milp(program)
        assert solution.status == "error"
        assert_bit_identical(outcome(solution), milp_reference(program))


#: Hand-built solutions for linprog's check of an optimum: two columns in
#: [0, 1] and [0, inf), one ``<= 3`` row and one ``= 2`` row; the tolerance
#: is sqrt(1e-9) * 10 ~ 3.2e-4.
COL_LOWER, COL_UPPER = np.array([0.0, 0.0]), np.array([1.0, np.inf])
ROW_LOWER, ROW_UPPER = np.array([-np.inf, 2.0]), np.array([3.0, 2.0])


class TestOptimumCheck:
    """HiGHS's optimum passes the check linprog runs on it, or is an error."""

    @pytest.mark.parametrize(
        "x, rows, objective, feasible",
        [
            ([0.5, 1.0], [3.0, 2.0], 0.0, True),
            ([1.0 + 1e-4, 1.0], [3.0, 2.0 - 1e-4], 0.0, True),
            ([1.0 + 1e-3, 1.0], [3.0, 2.0], 0.0, False),
            ([-1e-3, 1.0], [3.0, 2.0], 0.0, False),
            ([0.5, 1e9], [-1e9, 2.0], 0.0, True),
            ([0.5, 1.0], [3.0 + 1e-3, 2.0], 0.0, False),
            ([0.5, 1.0], [3.0, 2.0 + 1e-3], 0.0, False),
            ([0.5, 1.0], [3.0, 2.0 - 1e-3], 0.0, False),
            ([np.nan, 1.0], [3.0, 2.0], 0.0, False),
            ([0.5, 1.0], [3.0, np.nan], 0.0, False),
            ([0.5, 1.0], [3.0, 2.0], np.nan, False),
        ],
    )
    def test_verdict_is_linprogs(self, x, rows, objective, feasible):
        x, rows = np.array(x), np.array(rows)
        verdict = backends_module._within_bounds(
            x, objective, rows, COL_LOWER, COL_UPPER, ROW_LOWER, ROW_UPPER
        )
        assert verdict is feasible
        status, _ = _check_result(
            x,
            objective,
            0,
            ROW_UPPER[:1] - rows[:1],
            ROW_UPPER[1:] - rows[1:],
            np.column_stack([COL_LOWER, COL_UPPER]),
            1e-9,
            "",
            None,
        )
        assert (status == 0) is feasible

    def test_an_optimum_that_fails_the_check_is_an_error(self, monkeypatch):
        program = LinearProgram(
            c=np.array([1.0, 1.0]),
            a_eq=sparse.csr_matrix([[1.0, 1.0]]),
            b_eq=np.array([2.0]),
        )
        assert ScipyHighsBackend().solve_lp(program).success
        # A negative tolerance rejects every vertex: one column sits on its bound.
        monkeypatch.setattr(backends_module, "_CHECK_TOL", -1.0)
        solution = ScipyHighsBackend().solve_lp(program)
        assert solution.status == "error"
        assert solution.x is None and solution.objective is None and solution.basis is None


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
        with instance_scope(), span("lookups") as scope:
            first = build_flow_problem(graph, commodities)
            second = build_flow_problem(graph, commodities[:1])
        assert scope.counts["structure_misses"] == 1
        assert scope.counts["structure_hits"] == 1
        assert first.structure is second.structure

    def test_nothing_is_kept_outside_a_scope(self):
        supply, demand = broken_grid_instance()
        graph = supply.full_graph(use_residual=False)
        commodities = [Commodity(p.source, p.target, p.demand) for p in demand.pairs()]
        with instance_scope():
            inside = build_flow_problem(graph, commodities)
        with span("lookups") as scope:
            first = build_flow_problem(graph, commodities)
            second = build_flow_problem(graph, commodities)
        assert scope.counts["structure_misses"] == 2
        assert "structure_hits" not in scope.counts
        assert len({id(inside.structure), id(first.structure), id(second.structure)}) == 3

    def test_capacity_delta_only_changes_rhs(self):
        supply, _ = broken_grid_instance()
        graph = supply.full_graph(use_residual=False)
        commodities = [Commodity((0, 0), (2, 2), 5.0)]
        with instance_scope():
            before = build_flow_problem(graph, commodities)
            a_before, b_before = before.capacity_matrix()
            edge = next(iter(graph.edges))
            graph.edges[edge]["capacity"] = 123.0
            after = build_flow_problem(graph, commodities)
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

    def test_scope_cache_is_bounded(self):
        with instance_scope() as scope:
            for rows in range(2, DEFAULT_STRUCTURE_CACHE_SIZE + 6):
                graph = grid_topology(rows, 2, capacity=1.0).full_graph(use_residual=False)
                build_flow_problem(graph, [])
        assert len(scope.structures) == scope.structures.maxsize == DEFAULT_STRUCTURE_CACHE_SIZE


class TestSplitBases:
    """A split whose instance routes in full sends no LP.  The basis tests
    use a non-integral capacity or demand, which the router leaves to
    HiGHS, so their split LPs all reach it."""

    def test_a_basis_is_kept_per_commodity_count(self):
        supply, demand = broken_grid_instance(capacity=10.5)
        program = SplitProgram(GraphIndex(supply))
        more = demand.copy()
        more.add((1, 0), (1, 2), 2.0)
        with span("splits") as scope:
            first = maximum_splittable_amount(program, demand, ((0, 0), (2, 2)), (1, 1))
            assert scope.counts["warm_start_attempts"] == 0
            again = maximum_splittable_amount(program, demand, ((0, 0), (2, 2)), (1, 1))
            assert scope.counts["warm_start_attempts"] == scope.counts["warm_start_hits"] == 1
            maximum_splittable_amount(program, more, ((0, 0), (2, 2)), (1, 1))
            assert scope.counts["warm_start_attempts"] == 1  # one more commodity
        assert first == again == 5.0

    def test_a_split_that_routes_in_full_sends_no_lp(self):
        # the integral grid routes both legs at 5 and the other pair at 3,
        # so dx = 5 without an LP, a structure lookup or a basis
        supply, demand = broken_grid_instance()
        with span("settled") as scope:
            amount = maximum_splittable_amount(
                SplitProgram(GraphIndex(supply)), demand, ((0, 0), (2, 2)), (1, 1)
            )
        assert amount == 5.0
        assert not scope.counts

    def test_basis_of_another_shape_is_refused(self):
        def program(n):
            return LinearProgram(c=np.ones(n), a_ub=sparse.csr_matrix(np.ones((1, n))), b_ub=[1.0])

        backend = ScipyHighsBackend()
        basis = backend.solve_lp(program(3)).basis
        with span("restarts") as scope:
            fits = backend.solve_lp(program(3), basis=basis)
            refused = backend.solve_lp(program(4), basis=basis)
        assert (scope.counts["warm_start_attempts"], scope.counts["warm_start_hits"]) == (2, 1)
        assert fits.success and refused.success
        assert_bit_identical(outcome(refused), outcome(backend.solve_lp(program(4))))

    def test_split_lps_return_the_same_amounts_with_and_without_bases(self, monkeypatch):
        pairs = []

        def both(program, demand, pair, via):
            warm = maximum_splittable_amount(program, demand, pair, via)
            # a fresh program holds no basis: a cold solve
            cold = maximum_splittable_amount(SplitProgram(program.index), demand, pair, via)
            pairs.append((warm, cold))
            return warm

        monkeypatch.setattr(isp_module, "maximum_splittable_amount", both)
        with span("solve") as scope:
            RecoveryService().solve(
                dataclasses.replace(FRACTIONAL_BELL_REQUEST, algorithms=("ISP",))
            )
        assert scope.counts["warm_start_hits"] > 0
        warm, cold = zip(*pairs)
        assert list(warm) == list(cold)

    def test_only_isp_starts_from_bases(self):
        result = RecoveryService().solve(FRACTIONAL_BELL_REQUEST)
        for run in result.results:
            hits, attempts = run.solver["warm_start_hits"], run.solver["warm_start_attempts"]
            if run.algorithm == "ISP":
                assert hits == attempts > 0
            else:
                assert hits == attempts == 0


class TestSolverStats:
    def test_routability_records_effort(self):
        supply, demand = broken_grid_instance()
        full = supply.full_graph(use_residual=False)
        with span("test") as scope:
            assert routability_test(full, demand).routable
        assert scope.counts["lp_solves"] == 1
        assert scope.counts["solve_seconds"] > 0.0
        assert scope.counts["build_seconds"] > 0.0

    def test_nested_collectors_both_record(self):
        supply, demand = broken_grid_instance()
        full = supply.full_graph(use_residual=False)
        with span("outer") as outer:
            routability_test(full, demand)
            with span("inner") as inner:
                routability_test(full, demand)
        assert inner.counts["lp_solves"] == 1
        assert outer.counts["lp_solves"] == 2

    def test_collectors_follow_a_copied_context_into_another_thread(self):
        import contextvars
        import threading

        from repro.obs.trace import trace_context

        supply, demand = broken_grid_instance()
        full = supply.full_graph(use_residual=False)
        with trace_context() as trace, span("caller") as scope:
            context = contextvars.copy_context()
            worker = threading.Thread(target=context.run, args=(routability_test, full, demand))
            worker.start()
            worker.join()
        assert trace.roots == [scope]
        solves = [node for node in scope.children if node.name == "solver.solve"]
        # the span counts exactly the solves the trace sees under it
        assert len(solves) == 1
        assert scope.counts["lp_solves"] == 1

    def test_stats_dict_keys_keep_their_order(self):
        with span("empty") as scope:
            pass
        assert list(solver_counts(scope)) == [
            "lp_solves",
            "milp_solves",
            "build_seconds",
            "solve_seconds",
            "warm_start_attempts",
            "warm_start_hits",
            "structure_hits",
            "structure_misses",
            "incumbent_seeds",
        ]
        assert all(isinstance(value, float) for value in solver_counts(scope).values())

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
