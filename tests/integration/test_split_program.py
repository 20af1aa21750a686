"""ISP's split program returns the ``dx`` of a from-scratch build.

:class:`~repro.flows.splitting_lp.SplitProgram` settles a split without an
LP when the split instance at ``dx = d_h`` routes in turn; otherwise it
keeps the LP's row system ready for HiGHS and writes only the ``dx``
column, the right-hand sides and ``dx``'s bound per split.  Here every
split of ISP runs on the quick Figure 4-6 Bell Canada instances and on
hypothesis grids is rebuilt from scratch: a
:class:`~repro.flows.lp_backend.FlowProblem` on the index's complete graph
(:meth:`GraphIndex.to_networkx`), the ``dx`` column from coordinates and
the backend's generic row system (``vstack`` and CSC conversion).  For a
split that reaches HiGHS, costs, column bounds, row bounds and the CSC
arrays must be equal, dtypes included, so HiGHS sees the same model and
returns the same ``dx``.  For a settled split, the from-scratch LP must
return the ``dx`` the program returned.
"""

from __future__ import annotations

from types import SimpleNamespace

import networkx as nx
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import sparse

import repro.core.isp as isp_module
import repro.flows.solver.backends as backends_module
from repro.core.isp import ISPConfig, iterative_split_prune
from repro.engine.registry import get_spec
from repro.engine.spec import build_instance
from repro.engine.tasks import expand_tasks
from repro.failures.complete import CompleteDestruction
from repro.flows.lp_backend import Commodity, FlowProblem
from repro.flows.solver.backends import LinearProgram, ScipyHighsBackend
from repro.flows.solver.incremental import build_flow_problem, instance_scope
from repro.network.demand import DemandGraph
from repro.topologies.grids import grid_topology


def reference_program(index, demand, pair, via, layout=None) -> LinearProgram:
    """The split LP built from scratch on the index's complete graph, or on
    ``layout`` (a graph of the same topology) with the index's residuals."""
    graph = index.to_networkx()
    if layout is not None:
        graph = layout.copy()
        for u, v in graph.edges:
            graph.edges[u, v]["capacity"] = float(index.residual[index.edge_of(u, v)])
    source, target = pair
    commodities, split = [], None
    for position, d in enumerate(demand.pairs()):
        commodities.append(Commodity(d.source, d.target, d.demand))
        if d.pair == tuple(sorted(pair, key=repr)):
            split, source, target = position, d.source, d.target
    first, second = len(commodities), len(commodities) + 1
    commodities += [Commodity(source, via, 0.0), Commodity(via, target, 0.0)]
    problem = FlowProblem(graph, commodities)
    num_flow = problem.num_flow_variables
    a_ub, b_ub = problem.capacity_matrix()
    a_ub = sparse.hstack([a_ub, sparse.csr_matrix((a_ub.shape[0], 1))]).tocsr()
    a_eq, b_eq = problem.conservation_matrix()
    node_row = {node: i for i, node in enumerate(problem.nodes)}
    entries = [
        (split, source, 1.0),
        (split, target, -1.0),
        (first, source, -1.0),
        (first, via, 1.0),
        (second, via, -1.0),
        (second, target, 1.0),
    ]
    column = sparse.csr_matrix(
        (
            [value for _, _, value in entries],
            (
                [commodity * len(problem.nodes) + node_row[node] for commodity, node, _ in entries],
                [0] * len(entries),
            ),
        ),
        shape=(a_eq.shape[0], 1),
    )
    a_eq = sparse.hstack([a_eq, column]).tocsr()
    costs = np.zeros(num_flow + 1)
    costs[num_flow] = -1.0
    bounds = np.column_stack([np.zeros(num_flow + 1), np.full(num_flow + 1, np.inf)])
    bounds[num_flow, 1] = demand.demand(*pair)
    return LinearProgram(c=costs, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq, bounds=bounds)


def highs_arrays(program: LinearProgram):
    """What the backend hands HiGHS for ``program``, by name."""
    costs = np.asarray(program.c, dtype=np.float64)
    col_lower, col_upper = backends_module._bounds_arrays(program.bounds, len(costs))
    matrix, row_lower, row_upper = program.row_system()
    assert matrix.shape == (len(row_lower), len(costs))
    return {
        "costs": costs,
        "col_lower": col_lower,
        "col_upper": col_upper,
        "row_lower": row_lower,
        "row_upper": row_upper,
        "indptr": matrix.indptr,
        "indices": matrix.indices,
        "data": matrix.data,
    }


@pytest.fixture
def compared(monkeypatch):
    """Check every split ISP makes against its reference.  Returns a
    namespace whose ``amounts`` lists the compared splits' results, split
    into ``solved`` (the split LP reached HiGHS) and ``settled`` (it did
    not); setting its ``layout`` builds the references on that graph.

    A solved split must hand HiGHS the reference's arrays.  A settled one
    must return what the reference LP solved from scratch returns."""
    checked = SimpleNamespace(amounts=[], solved=[], settled=[], layout=None)
    split = isp_module.maximum_splittable_amount
    solve_lp = ScipyHighsBackend.solve_lp

    def checking_split(program, demand, pair, via):
        reference = reference_program(program.index, demand, pair, via, checked.layout)
        sent = []

        def recording(self, lp, basis=None):
            sent.append(lp)
            return solve_lp(self, lp, basis)

        monkeypatch.setattr(ScipyHighsBackend, "solve_lp", recording)
        try:
            amount = split(program, demand, pair, via)
        finally:
            monkeypatch.setattr(ScipyHighsBackend, "solve_lp", solve_lp)
        if sent:
            (lp,) = sent
            theirs = highs_arrays(reference)
            for name, ours in highs_arrays(lp).items():
                assert ours.dtype == theirs[name].dtype, name
                assert np.array_equal(ours, theirs[name]), name
            checked.solved.append(amount)
        else:
            solution = ScipyHighsBackend().solve_lp(reference)
            assert solution.success
            assert float(solution.x[-1]) == amount
            checked.settled.append(amount)
        checked.amounts.append(amount)
        return amount

    monkeypatch.setattr(isp_module, "maximum_splittable_amount", checking_split)
    return checked


@pytest.fixture(scope="module")
def bell_instances():
    """(supply, demand) of the quick Figure 4-6 ISP instances."""
    figures = [
        ("bellcanada-demand-pairs", 11, (1, 3, 5), 1),
        ("bellcanada-demand-intensity", 13, (2, 10, 18), 1),
        ("bellcanada-disruption-extent", 17, (10, 80, 160), 2),
    ]
    instances = []
    for name, seed, values, runs in figures:
        spec = get_spec(name).replace(sweep_values=values, runs=runs, algorithms=("ISP",))
        for task in expand_tasks(spec, seed=seed):
            rng = np.random.default_rng(task.seed_sequence())
            instances.append(build_instance(spec, task.sweep_value, rng))
    return instances


@pytest.mark.parametrize("cached", [None, "same", "reversed"], ids=["cold", "same", "reversed"])
def test_bell_canada_split_lps_match_the_reference(compared, bell_instances, cached):
    """Every split LP of the quick Figure 4-6 runs.  With ``cached`` the
    instance scope already holds the complete graph's structure, built from
    ``full_graph()`` or from a graph of the same topology in reversed
    order, so the program takes its rows and columns from that structure."""
    for supply, demand in bell_instances:
        with instance_scope():
            if cached is not None:
                full = supply.full_graph(use_residual=False)
                if cached == "reversed":
                    layout = nx.Graph()
                    layout.add_nodes_from(reversed(list(full.nodes)))
                    layout.add_edges_from(reversed(list(full.edges)))
                    full = compared.layout = layout
                build_flow_problem(full, [])
            iterative_split_prune(supply, demand, ISPConfig(split_amount_mode="lp"))
    assert len(compared.amounts) > 100
    assert any(amount > 0 for amount in compared.amounts)
    # both kinds occur: most splits route in full, the rest reach HiGHS
    assert (len(compared.settled), len(compared.solved)) == (246, 11)


@st.composite
def grid_instances(draw):
    rows = draw(st.integers(min_value=2, max_value=5))
    cols = draw(st.integers(min_value=2, max_value=5))
    supply = grid_topology(rows, cols, capacity=draw(st.sampled_from([3.0, 10.0, 7.5])))
    nodes = list(supply.nodes)
    if draw(st.booleans()):
        CompleteDestruction().apply(supply)
    else:
        for node in draw(st.lists(st.sampled_from(nodes), max_size=len(nodes))):
            supply.break_node(node)
    demand = DemandGraph()
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        source, target = draw(
            st.lists(st.sampled_from(nodes), min_size=2, max_size=2, unique=True)
        )
        if not demand.has_pair(source, target):
            demand.add(source, target, draw(st.sampled_from([1.0, 2.5, 5.0, 9.0])))
    return supply, demand


@given(grid_instances())
@settings(
    max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
def test_grid_split_lps_match_the_reference(compared, instance):
    supply, demand = instance
    with instance_scope():
        iterative_split_prune(supply, demand, ISPConfig(split_amount_mode="lp"))
