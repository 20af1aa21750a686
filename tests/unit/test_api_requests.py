"""Tests for the request schema of the service facade (repro.api.requests)."""

import json

import pytest

from repro.api.requests import (
    SCHEMA_VERSION,
    AssessmentRequest,
    DemandSpec,
    DisruptionSpec,
    RecoveryRequest,
    TopologySpec,
    config_digest,
    materialise_instance,
    request_from_dict,
)
from repro.engine.spec import ExperimentSpec
from repro.engine.tasks import expand_tasks


def grid_request(**changes):
    defaults = dict(
        topology=TopologySpec("grid", kwargs={"rows": 3, "cols": 3, "capacity": 10.0}),
        disruption=DisruptionSpec("complete"),
        demand=DemandSpec("far-apart", num_pairs=1, flow_per_pair=5.0),
        algorithms=("ISP", "ALL"),
        seed=3,
    )
    defaults.update(changes)
    return RecoveryRequest(**defaults)


class TestValidation:
    def test_unknown_topology_rejected(self):
        with pytest.raises(KeyError):
            TopologySpec("no-such-topology")

    def test_unknown_disruption_rejected(self):
        with pytest.raises(ValueError):
            DisruptionSpec("meteor")

    def test_unknown_demand_builder_rejected(self):
        with pytest.raises(KeyError):
            DemandSpec("no-such-builder")

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(KeyError):
            grid_request(algorithms=("ISP", "NO-SUCH"))

    def test_empty_algorithms_rejected(self):
        with pytest.raises(ValueError):
            grid_request(algorithms=())

    def test_unknown_backend_rejected(self):
        with pytest.raises(KeyError):
            grid_request(lp_backend="no-such-backend")

    def test_naming_the_one_backend_stays_in_the_digest(self):
        named = grid_request(lp_backend="scipy")
        assert named.to_dict()["solver"]["lp_backend"] == "scipy"
        assert RecoveryRequest.from_dict(named.to_dict()) == named
        assert named.digest() != grid_request().digest()

    def test_algorithm_names_canonicalised(self):
        request = grid_request(algorithms=("isp", "all"))
        assert request.algorithms == ("ISP", "ALL")

    def test_mapping_kwargs_rejected(self):
        # Dict-valued kwargs would silently break request hashability.
        with pytest.raises(TypeError):
            TopologySpec("grid", kwargs={"meta": {"a": 1}})

    def test_other_unhashable_kwargs_rejected(self):
        with pytest.raises(TypeError):
            TopologySpec("grid", kwargs={"tags": {1, 2}})

    def test_pinned_seed_controls_determinism(self):
        seeded = TopologySpec("erdos-renyi", kwargs={"num_nodes": 10, "seed": 5})
        entropy = TopologySpec("erdos-renyi", kwargs={"num_nodes": 10, "seed": None})
        unseeded = TopologySpec("erdos-renyi", kwargs={"num_nodes": 10})
        assert seeded.deterministic
        assert not entropy.deterministic
        assert not unseeded.deterministic
        assert TopologySpec("grid", kwargs={"rows": 3, "cols": 3}).deterministic

    def test_requests_are_hashable(self):
        assert len({grid_request(), grid_request(), grid_request(seed=4)}) == 2


class TestRoundTrip:
    def test_recovery_request_json_round_trip(self):
        request = grid_request(
            algorithm_kwargs={"ISP": {"split_amount_mode": "bottleneck"}},
            opt_time_limit=30,
        )
        payload = json.loads(json.dumps(request.to_dict()))
        assert payload["schema_version"] == SCHEMA_VERSION
        assert RecoveryRequest.from_dict(payload) == request

    def test_assessment_request_json_round_trip(self):
        request = AssessmentRequest(
            topology=TopologySpec("bell-canada"),
            disruption=DisruptionSpec("gaussian", kwargs={"variance": 60.0}),
            demand=DemandSpec(num_pairs=2, flow_per_pair=10.0),
            seed=7,
        )
        payload = json.loads(json.dumps(request.to_dict()))
        assert AssessmentRequest.from_dict(payload) == request

    def test_request_from_dict_dispatches_on_kind(self):
        recovery = grid_request()
        assessment = AssessmentRequest(topology=TopologySpec("bell-canada"))
        assert request_from_dict(recovery.to_dict()) == recovery
        assert request_from_dict(assessment.to_dict()) == assessment
        with pytest.raises(ValueError):
            request_from_dict({"kind": "unknown"})

    def test_newer_schema_rejected(self):
        payload = grid_request().to_dict()
        payload["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(ValueError):
            RecoveryRequest.from_dict(payload)

    def test_nested_tuple_kwargs_survive_the_trip(self):
        # Explicit demand pairs use nested tuples (grid nodes are tuples).
        request = grid_request(
            demand=DemandSpec(
                "explicit",
                num_pairs=2,
                flow_per_pair=6.0,
                kwargs={"pairs": (((0, 0), (2, 2)), ((0, 2), (2, 0)))},
            )
        )
        payload = json.loads(json.dumps(request.to_dict()))
        assert RecoveryRequest.from_dict(payload) == request

    def test_digest_is_stable_and_discriminates(self):
        request = grid_request()
        assert request.digest() == grid_request().digest()
        assert request.digest() != grid_request(seed=4).digest()


class TestSharedHashing:
    def test_request_tasks_share_engine_cache_hashing(self):
        """solve_batch keys are engine cell keys: same digest pipeline."""
        request = grid_request()
        (task,) = expand_tasks(request.to_experiment_spec(), seed=request.seed)
        for algorithm in request.algorithms:
            config = task.spec.cell_config(task.sweep_value, algorithm)
            config["root_entropy"] = task.root_entropy
            config["spawn_key"] = list(task.spawn_key)
            assert task.cache_key(algorithm) == config_digest(config)

    def test_algorithm_kwargs_change_the_cell_key(self):
        plain = grid_request(algorithms=("ISP",))
        tuned = grid_request(
            algorithms=("ISP",),
            algorithm_kwargs={"ISP": {"split_amount_mode": "bottleneck"}},
        )
        key = lambda request: expand_tasks(  # noqa: E731 - local shorthand
            request.to_experiment_spec(), seed=request.seed
        )[0].cache_key("ISP")
        assert key(plain) != key(tuned)


class TestExperimentSpecConfig:
    def test_from_config_round_trips_to_config(self):
        from repro.engine.registry import get_spec

        for name in ("bellcanada-demand-pairs", "erdos-renyi-scalability"):
            spec = get_spec(name)
            assert ExperimentSpec.from_config(spec.to_config()) == spec

    def test_from_config_round_trips_through_json(self):
        from repro.engine.registry import get_spec

        spec = get_spec("bellcanada-disruption-extent")
        payload = json.loads(json.dumps(spec.to_config()))
        assert ExperimentSpec.from_config(payload) == spec



class TestMaterialise:
    def test_prebuilt_supply_is_not_mutated(self):
        import numpy as np

        topology = TopologySpec("grid", kwargs={"rows": 3, "cols": 3, "capacity": 10.0})
        pristine = topology.build(np.random.default_rng(0), {})
        supply, demand, report = materialise_instance(
            topology,
            DisruptionSpec("complete"),
            DemandSpec("far-apart", num_pairs=1, flow_per_pair=5.0),
            np.random.default_rng(1),
            supply=pristine,
        )
        assert not pristine.broken_nodes and not pristine.broken_edges
        assert supply.broken_nodes and report.total_broken > 0
        assert len(demand) == 1

    def test_prebuilt_and_fresh_paths_build_identical_instances(self):
        import numpy as np

        topology = TopologySpec("bell-canada")
        disruption = DisruptionSpec("gaussian", kwargs={"variance": 60.0})
        demand_spec = DemandSpec(num_pairs=2, flow_per_pair=10.0)
        fresh_supply, fresh_demand, _ = materialise_instance(
            topology, disruption, demand_spec, np.random.default_rng(5)
        )
        pristine = topology.build(np.random.default_rng(0), {})
        cached_supply, cached_demand, _ = materialise_instance(
            topology, disruption, demand_spec, np.random.default_rng(5), supply=pristine
        )
        assert fresh_supply.broken_nodes == cached_supply.broken_nodes
        assert fresh_supply.broken_edges == cached_supply.broken_edges
        assert {p.pair for p in fresh_demand.pairs()} == {
            p.pair for p in cached_demand.pairs()
        }


class TestZooSchemaStability:
    """Acceptance pins for the scenario-zoo PR: new names round-trip, old
    cache keys stay bit-identical."""

    ZOO_TOPOLOGIES = {
        "barabasi-albert": {"num_nodes": 14, "attachment": 2},
        "watts-strogatz": {"num_nodes": 12, "nearest_neighbors": 4},
        "fat-tree": {"pods": 4},
    }
    ZOO_DISRUPTIONS = {
        "cascading": {"num_triggers": 2, "propagation_factor": 1.5},
        "multi-gaussian": {"variance": 20.0, "num_epicenters": 2},
        "targeted": {"node_budget": 2, "edge_budget": 1, "metric": "degree"},
    }

    def test_every_new_name_round_trips_through_recovery_request(self):
        for topology_name, topology_kwargs in self.ZOO_TOPOLOGIES.items():
            for kind, disruption_kwargs in self.ZOO_DISRUPTIONS.items():
                request = RecoveryRequest(
                    topology=TopologySpec(topology_name, kwargs=topology_kwargs),
                    disruption=DisruptionSpec(kind, kwargs=disruption_kwargs),
                    algorithms=("ISP",),
                    seed=7,
                )
                payload = json.loads(json.dumps(request.to_dict()))
                restored = RecoveryRequest.from_dict(payload)
                assert restored == request
                assert restored.digest() == request.digest()

    def test_existing_request_digest_is_pinned(self):
        # Golden value: adding zoo topologies/failures must never move the
        # digest of a request that predates them (cache compatibility).
        request = RecoveryRequest(
            topology=TopologySpec("grid", kwargs={"rows": 3, "cols": 3}),
            disruption=DisruptionSpec("complete"),
            demand=DemandSpec("routable-far-apart", num_pairs=1, flow_per_pair=5.0),
            algorithms=("ISP",),
            seed=3,
        )
        assert request.digest() == (
            "a5a767f512f4f5f9652e3be49480847a10c543ce8c86a5c51d49205fdb76e971"
        )

    def test_existing_engine_cache_key_is_pinned(self):
        from repro.engine.registry import get_spec
        from repro.engine.tasks import expand_tasks

        task = expand_tasks(get_spec("bellcanada-demand-pairs"), seed=11)[0]
        assert task.sweep_value == 1
        assert task.cache_key("ISP") == (
            "a4861ab36ea4630d6083d4967a045877e68773f5f8c7c750f9b5c6d083fd6725"
        )

    def test_opt_only_engine_cache_key_is_pinned(self):
        """OPT listed alone seeds itself, so its key carries no ``seeded_by``."""
        from repro.engine.registry import get_spec
        from repro.engine.tasks import expand_tasks

        spec = get_spec("bellcanada-demand-pairs")
        alone = expand_tasks(spec.replace(algorithms=("OPT",)), seed=11)[0]
        assert alone.cache_key("OPT") == (
            "62b9a208e386deb2dfb3a9727b38d925ec828f5bbfbf1c468c87eb0ecaae9568"
        )
        beside_heuristics = expand_tasks(spec, seed=11)[0]
        assert beside_heuristics.cache_key("OPT") != alone.cache_key("OPT")


class TestDisruptionKwargsValidation:
    def test_unknown_kwarg_rejected_eagerly(self):
        with pytest.raises(ValueError, match="num_trigger"):
            DisruptionSpec("cascading", kwargs={"num_trigger": 2})  # typo
        with pytest.raises(ValueError, match="spread"):
            DisruptionSpec("gaussian", kwargs={"spread": 3.0})

    @pytest.mark.parametrize("kind", ["gaussian", "multi-gaussian"])
    def test_missing_required_kwarg_rejected_eagerly(self, kind):
        with pytest.raises(ValueError, match="variance"):
            DisruptionSpec(kind)
        with pytest.raises(ValueError, match="variance"):
            DisruptionSpec.from_dict({"kind": kind, "kwargs": {"intensity": 0.5}})

    def test_parameterless_kinds_reject_kwargs(self):
        with pytest.raises(ValueError, match="takes no parameters"):
            DisruptionSpec("complete", kwargs={"variance": 3.0})
        with pytest.raises(ValueError, match="takes no parameters"):
            DisruptionSpec("none", kwargs={"x": 1})

    def test_valid_kwargs_still_accepted(self):
        DisruptionSpec("cascading", kwargs={"num_triggers": 2, "propagation_factor": 1.0})
        DisruptionSpec("targeted", kwargs={"node_budget": 1, "metric": "degree"})
        DisruptionSpec("gaussian", kwargs={"variance": 5.0})


class TestTopologyAndDemandKwargsValidation:
    def test_unknown_topology_kwarg_names_the_valid_ones(self):
        with pytest.raises(ValueError, match="bogus.*valid: rows, cols, capacity"):
            TopologySpec("grid", kwargs={"rows": 3, "cols": 3, "bogus": 1})
        with pytest.raises(ValueError, match="bogus"):
            TopologySpec.from_dict({"name": "bell-canada", "kwargs": {"bogus": 1}})

    def test_missing_required_topology_kwarg_rejected(self):
        with pytest.raises(ValueError, match="cols"):
            TopologySpec("grid", kwargs={"rows": 3})

    def test_unknown_demand_kwarg_names_the_valid_ones(self):
        with pytest.raises(ValueError, match="nonsense.*valid: num_pairs, flow_per_pair"):
            DemandSpec("far-apart", kwargs={"nonsense": 2})

    def test_demand_kwargs_may_not_name_what_the_builder_is_passed(self):
        # ``build`` passes the supply and the instance RNG itself.
        for name in ("seed", "supply"):
            with pytest.raises(ValueError, match=name):
                DemandSpec("random", kwargs={name: 1})

    @pytest.mark.parametrize("field", ["num_pairs", "flow_per_pair"])
    def test_demand_kwargs_may_not_repeat_a_field(self, field):
        # the kwarg would override the field, so two digests would name one instance
        with pytest.raises(ValueError, match=f"{field} is a DemandSpec field"):
            DemandSpec("random", num_pairs=4, kwargs={field: 2})

    def test_valid_kwargs_still_accepted(self):
        TopologySpec("grid", kwargs={"rows": 3, "cols": 3, "capacity": 5.0})
        TopologySpec("erdos-renyi", kwargs={"num_nodes": 12, "seed": 5})
        DemandSpec("far-apart", kwargs={"min_fraction_of_diameter": 0.3})
        DemandSpec("explicit", kwargs={"pairs": ((0, 1, 2.0),)})

    def test_a_recovery_request_with_a_bad_kwarg_fails_at_construction(self):
        payload = grid_request().to_dict()
        payload["demand"]["kwargs"] = {"nonsense": 2}
        with pytest.raises(ValueError, match="nonsense"):
            RecoveryRequest.from_dict(payload)


class TestAlgorithmSection:
    """The algorithm section is canonical and bound to the solvers at construction."""

    def test_duplicate_names_are_dropped_after_upper_casing(self):
        request = grid_request(algorithms=("ISP", "isp", "OPT"))
        assert request.algorithms == ("ISP", "OPT")
        assert request.digest() == grid_request(algorithms=("ISP", "OPT")).digest()
        assert RecoveryRequest.from_dict(request.to_dict()) == request

    @pytest.mark.parametrize(
        "algorithm_kwargs, match",
        [
            ({"ISP": {"bogus": 1}}, "bogus"),
            ({"SRT": {"nope": True}}, "nope"),
            ({"OPT": {"seed_plans": [1]}}, "seed_plans"),
            ({"ISP": {"split_amount_mode": "banana"}}, "split_amount_mode"),
            ({"ISP": {"metric": "euclidean"}}, "metric"),
            # OPT has one solve path and ISP's LP threshold is a constant:
            # the retired options are unknown like any other
            ({"OPT": {"strategy": "monolithic"}}, "strategy"),
            ({"OPT": {"strategy": "decomposed"}}, "strategy"),
            ({"OPT": {"strategy": "auto"}}, "strategy"),
            ({"ISP": {"lp_edge_threshold": 400}}, "lp_edge_threshold"),
        ],
    )
    def test_invalid_options_rejected_at_construction(self, algorithm_kwargs, match):
        with pytest.raises(ValueError, match=match):
            grid_request(algorithm_kwargs=algorithm_kwargs)
        payload = grid_request().to_dict()
        payload["algorithm_kwargs"] = algorithm_kwargs
        with pytest.raises(ValueError, match=match):
            RecoveryRequest.from_dict(payload)

    def test_options_for_an_unknown_algorithm_rejected(self):
        with pytest.raises(KeyError, match="NO-SUCH"):
            grid_request(algorithm_kwargs={"no-such": {}})

    def test_engine_specs_bind_options_too(self):
        spec = grid_request().to_experiment_spec()
        with pytest.raises(ValueError, match="bogus"):
            spec.replace(algorithm_kwargs={"ISP": {"bogus": 1}})

    def test_valid_options_still_accepted(self):
        request = grid_request(
            algorithm_kwargs={
                "ISP": {"metric": "hop", "split_amount_mode": "lp", "max_iterations": 5},
                "OPT": {"time_limit": 10.0, "mip_rel_gap": 0.0},
                "GRD-COM": {"max_paths_per_pair": 3},
            }
        )
        assert [name for name, _ in request.algorithm_kwargs] == ["GRD-COM", "ISP", "OPT"]
