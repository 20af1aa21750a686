"""Property tests for the scenario zoo: generators, failures, sampling.

Three families of properties keep the zoo honest:

* **seed determinism** — every stochastic generator (topologies, failure
  models, the scenario generator itself) reproduces its output exactly for
  the same seed;
* **non-mutation** — ``FailureModel.applied`` never touches the pristine
  graph it is given;
* **damage monotonicity** — turning a severity knob up (cascade
  propagation factor, number of epicentres, attack budget) never shrinks
  the failure set.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.requests import DisruptionSpec
from repro.failures.cascading import CascadingFailure
from repro.failures.geographic import MultiEpicenterDisruption
from repro.failures.targeted import TargetedAttack
from repro.scenarios import ScenarioGenerator, ScenarioSpace
from repro.topologies.zoo import barabasi_albert, fat_tree, watts_strogatz

seeds = st.integers(min_value=0, max_value=2**20)


# --------------------------------------------------------------------- #
# Seed determinism of the zoo generators
# --------------------------------------------------------------------- #
class TestGeneratorDeterminism:
    @settings(max_examples=15, deadline=None)
    @given(seed=seeds, num_nodes=st.integers(min_value=5, max_value=40))
    def test_barabasi_albert(self, seed, num_nodes):
        a = barabasi_albert(num_nodes=num_nodes, seed=seed)
        b = barabasi_albert(num_nodes=num_nodes, seed=seed)
        assert set(a.edges) == set(b.edges)
        assert all(a.position(n) == b.position(n) for n in a.nodes)

    @settings(max_examples=15, deadline=None)
    @given(
        seed=seeds,
        num_nodes=st.integers(min_value=8, max_value=30),
        probability=st.floats(min_value=0.0, max_value=0.5),
    )
    def test_watts_strogatz(self, seed, num_nodes, probability):
        a = watts_strogatz(num_nodes=num_nodes, rewire_probability=probability, seed=seed)
        b = watts_strogatz(num_nodes=num_nodes, rewire_probability=probability, seed=seed)
        assert set(a.edges) == set(b.edges)

    @settings(max_examples=5, deadline=None)
    @given(pods=st.sampled_from([2, 4, 6]))
    def test_fat_tree_needs_no_seed(self, pods):
        a, b = fat_tree(pods=pods), fat_tree(pods=pods)
        assert set(a.edges) == set(b.edges)
        assert a.stats()["connected"]


# --------------------------------------------------------------------- #
# `applied` never mutates the pristine graph
# --------------------------------------------------------------------- #
def _models(seed):
    return [
        CascadingFailure(num_triggers=2, propagation_factor=1.5),
        MultiEpicenterDisruption(variance=200.0, num_epicenters=2),
        TargetedAttack(node_budget=2, edge_budget=2),
        TargetedAttack(node_budget=1, metric="betweenness", adaptive=True),
    ]


class TestAppliedNonMutation:
    @settings(max_examples=10, deadline=None)
    @given(seed=seeds)
    def test_applied_leaves_pristine_graph_untouched(self, seed):
        pristine = barabasi_albert(num_nodes=20, seed=3)
        edges_before = set(pristine.edges)
        for model in _models(seed):
            disrupted, report = model.applied(pristine, seed=seed)
            assert not pristine.broken_nodes
            assert not pristine.broken_edges
            assert set(pristine.edges) == edges_before
            assert disrupted.broken_nodes == set(report.broken_nodes)
            assert disrupted.broken_edges == set(report.broken_edges)

    @settings(max_examples=10, deadline=None)
    @given(seed=seeds)
    def test_applied_matches_apply_for_same_seed(self, seed):
        pristine = watts_strogatz(num_nodes=16, seed=5)
        for model in _models(seed):
            disrupted, applied_report = model.applied(pristine, seed=seed)
            mutable = pristine.copy()
            apply_report = model.apply(mutable, seed=seed)
            assert applied_report == apply_report
            assert disrupted.broken_nodes == mutable.broken_nodes
            assert disrupted.broken_edges == mutable.broken_edges


# --------------------------------------------------------------------- #
# Damage monotonicity in the severity knobs
# --------------------------------------------------------------------- #
class TestDamageMonotonicity:
    @settings(max_examples=8, deadline=None)
    @given(seed=st.sampled_from(range(20)))
    def test_cascade_damage_grows_with_propagation_factor(self, seed):
        # Multi-round cascade dynamics are NOT provably monotone in the
        # propagation factor (a bigger first wave can shelter an element in
        # a later round — e.g. trigger seed 41 on this fixture dips by one
        # element), so this is a regression property over pinned trigger
        # seeds verified to be monotone, plus the two provable endpoint
        # facts: factor 0 is exactly the trigger set, and every cascade
        # contains it.
        supply = barabasi_albert(num_nodes=25, seed=7)
        totals = []
        trigger_only = CascadingFailure(
            num_triggers=2, propagation_factor=0.0, tolerance=0.2
        ).sample(supply, seed=seed)
        assert len(trigger_only.broken_nodes) == 2 and not trigger_only.broken_edges
        for factor in (0.0, 0.75, 1.5, 2.25, 3.0):
            model = CascadingFailure(
                num_triggers=2, propagation_factor=factor, tolerance=0.2
            )
            report = model.sample(supply, seed=seed)
            assert trigger_only.broken_nodes <= report.broken_nodes
            totals.append(report.total_broken)
        assert totals == sorted(totals)

    @settings(max_examples=10, deadline=None)
    @given(seed=seeds)
    def test_damage_grows_with_epicenter_count(self, seed):
        supply = watts_strogatz(num_nodes=20, seed=9)
        epicenters = ((10.0, 50.0), (90.0, 50.0), (50.0, 95.0), (50.0, 5.0))
        previous = frozenset()
        for count in range(1, len(epicenters) + 1):
            model = MultiEpicenterDisruption(
                variance=300.0, epicenters=epicenters[:count], intensity=0.9
            )
            report = model.sample(supply, seed=seed)
            broken = report.broken_nodes | report.broken_edges
            assert previous <= broken
            previous = broken

    @settings(max_examples=10, deadline=None)
    @given(
        metric=st.sampled_from(["degree", "betweenness"]),
        budgets=st.lists(
            st.integers(min_value=1, max_value=8), min_size=2, max_size=4
        ),
    )
    def test_static_attack_damage_grows_with_budget(self, metric, budgets):
        supply = barabasi_albert(num_nodes=18, seed=13)
        previous_nodes = frozenset()
        previous_edges = frozenset()
        for budget in sorted(budgets):
            report = TargetedAttack(
                node_budget=budget, edge_budget=budget, metric=metric
            ).sample(supply)
            assert previous_nodes <= report.broken_nodes
            assert previous_edges <= report.broken_edges
            previous_nodes = report.broken_nodes
            previous_edges = report.broken_edges

    @settings(max_examples=10, deadline=None)
    @given(
        metric=st.sampled_from(["degree", "betweenness"]),
        budgets=st.lists(
            st.integers(min_value=1, max_value=8), min_size=2, max_size=4
        ),
    )
    def test_adaptive_attack_is_prefix_monotone_per_knob(self, metric, budgets):
        # The adaptive removal *sequence* is budget-independent per element
        # type, so monotonicity holds when one budget varies and the other
        # is pinned (the edge phase starts from the post-node-attack graph).
        supply = barabasi_albert(num_nodes=18, seed=13)
        previous_nodes = frozenset()
        previous_edges = frozenset()
        for budget in sorted(budgets):
            nodes = TargetedAttack(
                node_budget=budget, metric=metric, adaptive=True
            ).sample(supply).broken_nodes
            edges = TargetedAttack(
                node_budget=1, edge_budget=budget, metric=metric, adaptive=True
            ).sample(supply).broken_edges
            assert previous_nodes <= nodes
            assert previous_edges <= edges
            previous_nodes, previous_edges = nodes, edges


# --------------------------------------------------------------------- #
# The scenario generator itself
# --------------------------------------------------------------------- #
class TestScenarioGenerator:
    @settings(max_examples=5, deadline=None)
    @given(seed=seeds)
    def test_request_stream_is_seed_deterministic(self, seed):
        space = ScenarioSpace(algorithms=("SRT",))
        a = ScenarioGenerator(space=space, seed=seed).requests(4)
        b = ScenarioGenerator(space=space, seed=seed).requests(4)
        assert a == b
        assert [r.digest() for r in a] == [r.digest() for r in b]

    @settings(max_examples=5, deadline=None)
    @given(seed=seeds)
    def test_sampled_requests_round_trip_and_materialise(self, seed):
        import json

        from repro.api.requests import RecoveryRequest

        generator = ScenarioGenerator(space=ScenarioSpace(algorithms=("SRT",)), seed=seed)
        for request in generator.requests(3):
            payload = json.loads(json.dumps(request.to_dict()))
            assert RecoveryRequest.from_dict(payload) == request
            assert generator._materialises(request)

    def test_sampled_disruptions_are_valid_specs(self):
        generator = ScenarioGenerator(seed=123)
        disruptions = [request.disruption for request in generator.requests(12)]
        kinds = {disruption.kind for disruption in disruptions}
        # The default space mixes paper-era and zoo disruptions.
        assert kinds <= set(
            ("complete", "gaussian", "random", "cascading", "multi-gaussian", "targeted")
        )
        # Each sampled spec carries every required parameter of its model.
        for disruption in disruptions:
            assert DisruptionSpec(disruption.kind, kwargs=dict(disruption.kwargs)) == disruption
