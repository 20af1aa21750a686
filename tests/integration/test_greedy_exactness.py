"""Exactness contract of the greedy baselines on the graph index.

GRD-COM, GRD-NC and SRT enumerate their paths with the index's simple-path
kernel, GRD-NC runs the routability test only once its repairs join every
demand pair, and the request runner lets GRD-NC read the candidate list
GRD-COM enumerated on the same instance.  Every plan must equal the
networkx implementation kept here: the enumerator over
``networkx.shortest_simple_paths`` on ``full_graph()``, GRD-NC's loop that
rebuilt the working graph and ran the routability test after every
repaired path, and SRT's loop over networkx's paths.  Repair sets are
compared in iteration order, with the routes and the plan metadata
(timing and solver stats aside).
"""

from __future__ import annotations

import itertools

import hypothesis.strategies as st
import networkx as nx
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

import repro.network.index as index_module
from repro.api.requests import DemandSpec, DisruptionSpec, RecoveryRequest, TopologySpec
from repro.api.results import plan_payload
from repro.api.service import RecoveryService, run_algorithms
from repro.engine.registry import get_spec
from repro.engine.spec import build_instance
from repro.engine.tasks import expand_tasks
from repro.flows.routability import routability_test
from repro.flows.solver.incremental import current_scope, instance_scope
from repro.flows.solver.tolerances import EPSILON
from repro.heuristics import greedy
from repro.heuristics.greedy import (
    MAX_PATHS_PER_PAIR,
    CandidatePath,
    enumerate_candidate_paths,
    greedy_commitment,
    greedy_no_commitment,
)
from repro.heuristics.srt import shortest_path_repair
from repro.network.demand import DemandGraph
from repro.network.index import max_flow_over_path_set
from repro.network.paths import path_broken_elements, path_capacity, path_repair_cost
from repro.network.plan import RecoveryPlan
from repro.network.supply import SupplyGraph

#: The verdicts with which ``routability_test`` stops before its LP.
DISCONNECTED = ("demand endpoints missing", "no working path")


# ---------------------------------------------------------------------- #
# networkx references
# ---------------------------------------------------------------------- #
def reference_candidates(supply, demand, max_paths_per_pair=MAX_PATHS_PER_PAIR):
    """The candidate enumerator over ``networkx.shortest_simple_paths``."""
    graph = supply.full_graph(use_residual=False)
    candidates = []
    for pair in demand.pairs():
        if pair.source not in graph or pair.target not in graph:
            continue
        if not nx.has_path(graph, pair.source, pair.target):
            continue
        generator = nx.shortest_simple_paths(graph, pair.source, pair.target)
        for count, path in enumerate(generator):
            if count >= max_paths_per_pair:
                break
            path = tuple(path)
            capacity = path_capacity(graph, path)
            if capacity <= EPSILON:
                continue
            cost = path_repair_cost(supply, path)
            candidates.append(CandidatePath(pair.pair, path, cost / capacity, capacity, cost))
    candidates.sort(key=lambda c: (c.weight, len(c.path), repr(c.path)))
    return candidates


def reference_commitment(supply, demand, candidates, monkeypatch):
    """GRD-COM on the reference candidates (its loop is otherwise unchanged)."""
    with monkeypatch.context() as patch:
        patch.setattr(greedy, "enumerate_candidate_paths", lambda *args: list(candidates))
        return greedy_commitment(supply, demand)


def reference_no_commitment(supply, demand, candidates):
    """GRD-NC rebuilding the working graph for every routability test."""
    plan = RecoveryPlan(algorithm="GRD-NC")

    def routable():
        graph = supply.working_graph(
            extra_nodes=plan.repaired_nodes, extra_edges=plan.repaired_edges, use_residual=False
        )
        return routability_test(graph, demand).routable

    verdict = routable()
    used_paths = 0
    for candidate in candidates:
        if verdict:
            break
        nodes, edges = path_broken_elements(supply, candidate.path)
        for node in nodes:
            plan.add_node_repair(node)
        for u, v in edges:
            plan.add_edge_repair(u, v)
        used_paths += 1
        verdict = routable()
    plan.metadata["routable"] = verdict
    plan.metadata["paths_repaired"] = used_paths
    plan.metadata["candidate_paths"] = len(candidates)
    return plan


def reference_srt(supply, demand, max_paths_per_pair=200):
    """SRT over ``networkx.shortest_simple_paths``."""
    plan = RecoveryPlan(algorithm="SRT")
    graph = supply.full_graph(use_residual=False)
    for pair in sorted(demand.pairs(), key=lambda p: (-p.demand, repr(p.pair))):
        if pair.source not in graph or pair.target not in graph:
            continue
        if not nx.has_path(graph, pair.source, pair.target):
            continue
        selected = []
        for count, path in enumerate(nx.shortest_simple_paths(graph, pair.source, pair.target)):
            if count >= max_paths_per_pair:
                break
            selected.append(tuple(path))
            if max_flow_over_path_set(graph, selected, pair.source, pair.target) >= pair.demand:
                break
        for path in selected:
            nodes, edges = path_broken_elements(supply, path)
            for node in nodes:
                plan.add_node_repair(node)
            for u, v in edges:
                plan.add_edge_repair(u, v)
        plan.metadata.setdefault("paths_per_pair", {})[pair.pair] = len(selected)
    return plan


def assert_same_plan(actual, expected):
    assert list(actual.repaired_nodes) == list(expected.repaired_nodes)
    assert list(actual.repaired_edges) == list(expected.repaired_edges)
    assert actual.routes == expected.routes
    assert actual.metadata == expected.metadata


def run_checked_no_commitment(supply, demand, monkeypatch):
    """Run GRD-NC, checking its gate against a fresh working graph before
    the first repair and after every repaired path; returns the gate's
    verdicts."""
    verdicts = []
    plans = []
    original_repair, original_joined = greedy._repair_path, greedy._demand_joined

    def repair(supply_, plan, path, index=None):
        plans.append(plan)
        original_repair(supply_, plan, path, index)

    def joined(index, demand_):
        verdict = original_joined(index, demand_)
        plan = plans[-1] if plans else RecoveryPlan(algorithm="GRD-NC")
        fresh = supply.working_graph(plan.repaired_nodes, plan.repaired_edges, use_residual=False)
        stopped = routability_test(fresh, demand_).reason.startswith(DISCONNECTED)
        assert verdict != stopped
        verdicts.append(verdict)
        return verdict

    with monkeypatch.context() as patch:
        patch.setattr(greedy, "_repair_path", repair)
        patch.setattr(greedy, "_demand_joined", joined)
        plan = greedy_no_commitment(supply, demand)
    assert len(verdicts) == plan.metadata["paths_repaired"] + 1
    return verdicts


def check_instance(supply, demand, monkeypatch):
    """Every greedy plan equals its reference, and GRD-NC's gate holds."""
    candidates = reference_candidates(supply, demand)
    assert enumerate_candidate_paths(supply, demand) == candidates
    assert_same_plan(
        greedy_commitment(supply, demand),
        reference_commitment(supply, demand, candidates, monkeypatch),
    )
    assert_same_plan(
        greedy_no_commitment(supply, demand), reference_no_commitment(supply, demand, candidates)
    )
    assert_same_plan(shortest_path_repair(supply, demand), reference_srt(supply, demand))
    return run_checked_no_commitment(supply, demand, monkeypatch)


# ---------------------------------------------------------------------- #
# instances
# ---------------------------------------------------------------------- #
def quick_figure_instances():
    """The quick Figure 4-6 sweeps' instances (the benches' seeds and values)."""
    for name, seed, values, runs in (
        ("figure4", 11, (1, 3, 5), 1),
        ("figure5", 13, (2, 10, 18), 1),
        ("figure6", 17, (10, 80, 160), 2),
    ):
        spec = get_spec(name).replace(sweep_values=values, runs=runs)
        for task in expand_tasks(spec, seed=seed):
            rng = np.random.default_rng(task.seed_sequence())
            supply, demand = build_instance(spec, task.sweep_value, rng)
            yield f"{name}/{task.sweep_value}/{task.run_index}", supply, demand


QUICK_FIGURES = list(quick_figure_instances())


@pytest.mark.parametrize(
    "supply, demand", [case[1:] for case in QUICK_FIGURES], ids=[case[0] for case in QUICK_FIGURES]
)
def test_quick_figure_plans(supply, demand, monkeypatch):
    check_instance(supply, demand, monkeypatch)


def test_paper_bell_plans(paper_bell_requests, monkeypatch):
    service = RecoveryService()
    verdicts = []
    for request in paper_bell_requests(2016)[:10]:
        supply, demand, _ = service.build_instance(request)
        verdicts += check_instance(supply, demand, monkeypatch)
    # both gate verdicts occur, so both branches were compared
    assert True in verdicts and False in verdicts


@st.composite
def damaged_instances(draw):
    """A small damaged supply graph with fractional capacities and a demand."""
    size = draw(st.integers(min_value=3, max_value=8))
    supply = SupplyGraph()
    for node in range(size):
        supply.add_node(node, repair_cost=draw(st.sampled_from((0.5, 1.0, 2.0))))
    pairs = list(itertools.combinations(range(size), 2))
    for u, v in draw(st.lists(st.sampled_from(pairs), min_size=2, max_size=2 * size, unique=True)):
        capacity = draw(st.sampled_from((2.0, 5.0, 7.5, 10.0)))
        supply.add_edge(u, v, capacity=capacity, repair_cost=draw(st.sampled_from((1.0, 3.0))))
    for node in supply.nodes:
        if draw(st.booleans()):
            supply.break_node(node)
    for u, v in supply.edges:
        if draw(st.booleans()):
            supply.break_edge(u, v)
    demand = DemandGraph()
    for u, v in draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=3, unique=True)):
        demand.add(u, v, draw(st.sampled_from((1.0, 4.0, 6.5))))
    return supply, demand


@given(damaged_instances())
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
def test_random_instance_plans(monkeypatch, instance):
    check_instance(*instance, monkeypatch)


# ---------------------------------------------------------------------- #
# one enumeration per instance
# ---------------------------------------------------------------------- #
@pytest.fixture
def kernel_calls(monkeypatch):
    """Counts the simple-path kernel's calls (one per enumerated pair)."""
    calls = []
    original = index_module.simple_paths

    def counted(adjacency, source, target):
        calls.append((source, target))
        return original(adjacency, source, target)

    monkeypatch.setattr(index_module, "simple_paths", counted)
    return calls


def bell_request(seed, algorithms=("GRD-COM", "GRD-NC"), num_pairs=4):
    return RecoveryRequest(
        topology=TopologySpec("bell-canada"),
        disruption=DisruptionSpec("complete"),
        demand=DemandSpec("routable-far-apart", num_pairs=num_pairs, flow_per_pair=10.0),
        algorithms=algorithms,
        seed=seed,
    )


def plans_outside_scope(supply, demand):
    return [greedy_commitment(supply, demand), greedy_no_commitment(supply, demand)]


def test_run_algorithms_enumerates_once_per_instance(kernel_calls):
    request = bell_request(seed=5)
    supply, demand, _ = RecoveryService().build_instance(request)
    runs = run_algorithms(request.to_experiment_spec(), supply, demand)
    assert len(kernel_calls) == len(demand) == 4
    del kernel_calls[:]
    direct = plans_outside_scope(supply, demand)
    assert len(kernel_calls) == 2 * len(demand)
    assert [run.plan for run in runs] == [plan_payload(plan) for plan in direct]


def test_consecutive_solves_do_not_share_a_list(kernel_calls):
    service = RecoveryService()
    for seed, num_pairs in ((5, 4), (6, 3)):
        del kernel_calls[:]
        request = bell_request(seed, num_pairs=num_pairs)
        envelope = service.solve(request)
        assert len(kernel_calls) == num_pairs
        assert current_scope() is None
        supply, demand, _ = service.build_instance(request)
        direct = plans_outside_scope(supply, demand)
        assert [run.plan for run in envelope.results] == [plan_payload(plan) for plan in direct]


def test_calls_outside_a_scope_enumerate_every_time(kernel_calls):
    supply, demand, _ = RecoveryService().build_instance(bell_request(seed=7))
    first = enumerate_candidate_paths(supply, demand)
    second = enumerate_candidate_paths(supply, demand)
    assert len(kernel_calls) == 2 * len(demand)
    assert first == second == reference_candidates(supply, demand)
    assert first is not second


def test_scope_keys_on_instance_and_path_cap(kernel_calls):
    supply, demand, _ = RecoveryService().build_instance(bell_request(seed=7))
    other_supply, other_demand, _ = RecoveryService().build_instance(bell_request(seed=8))
    with instance_scope():
        first = enumerate_candidate_paths(supply, demand)
        first.clear()  # callers get their own copy
        assert enumerate_candidate_paths(supply, demand) == reference_candidates(supply, demand)
        assert len(kernel_calls) == len(demand)
        capped = enumerate_candidate_paths(supply, demand, max_paths_per_pair=3)
        assert capped == reference_candidates(supply, demand, max_paths_per_pair=3)
        assert len(kernel_calls) == 2 * len(demand)
        assert enumerate_candidate_paths(other_supply, other_demand) == reference_candidates(
            other_supply, other_demand
        )
    assert current_scope() is None
