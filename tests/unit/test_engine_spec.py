"""Tests for the declarative spec layer of the experiment engine."""

import dataclasses

import numpy as np
import pytest

from repro.api.requests import DemandSpec, DisruptionSpec, TopologySpec, config_digest
from repro.engine.registry import available_specs, get_spec, register_spec
from repro.engine.spec import ExperimentSpec, SweepAxis, build_instance
from repro.engine.tasks import expand_tasks


def small_spec(**changes):
    spec = ExperimentSpec(
        name="unit-grid",
        figure="Unit",
        topology=TopologySpec("grid", kwargs={"rows": 3, "cols": 3, "capacity": 10.0}),
        disruption=DisruptionSpec("complete"),
        demand=DemandSpec("random", num_pairs=1, flow_per_pair=5.0),
        sweep=SweepAxis(parameter="num_pairs", values=(1, 2), target="demand.num_pairs"),
        algorithms=("SRT", "ALL"),
        runs=2,
    )
    return spec.replace(**changes) if changes else spec


class TestSpecValidation:
    def test_unknown_topology_rejected(self):
        with pytest.raises(KeyError):
            TopologySpec("no-such-topology")

    def test_unknown_disruption_rejected(self):
        with pytest.raises(ValueError):
            DisruptionSpec("meteor")

    def test_unknown_demand_builder_rejected(self):
        with pytest.raises(KeyError):
            DemandSpec("wishful")

    def test_sweep_needs_values_and_valid_target(self):
        with pytest.raises(ValueError):
            SweepAxis(parameter="x", values=(), target="demand.num_pairs")
        with pytest.raises(ValueError):
            SweepAxis(parameter="x", values=(1,), target="nowhere")
        with pytest.raises(ValueError):
            SweepAxis(parameter="x", values=(1,), target="demand")

    def test_spec_needs_algorithms_and_runs(self):
        with pytest.raises(ValueError):
            small_spec(algorithms=())
        with pytest.raises(ValueError):
            small_spec(runs=0)

    def test_algorithms_are_upper_cased_and_deduplicated(self):
        from repro.engine.experiment import run_experiment

        spec = get_spec("figure4").replace(sweep_values=(1,), algorithms=("SRT", "srt", "ALL"))
        assert spec.algorithms == ("SRT", "ALL")
        rows = run_experiment(spec, seed=3).rows
        assert [(row["algorithm"], row["runs"]) for row in rows] == [("SRT", 1), ("ALL", 1)]

    def test_disruption_sweep_target_is_bound_at_construction(self):
        spec = get_spec("figure6")
        assert spec.sweep.target.startswith("disruption.")
        with pytest.raises(ValueError, match="spread"):
            spec.replace(sweep=dataclasses.replace(spec.sweep, target="disruption.spread"))

    @pytest.mark.parametrize(
        "target, match",
        [("topology.bogus", "unknown grid topology parameter"), ("demand.nonsense", "nonsense")],
    )
    def test_topology_and_demand_sweep_targets_are_bound_at_construction(self, target, match):
        with pytest.raises(ValueError, match=match):
            small_spec(sweep=SweepAxis(parameter="x", values=(1, 2), target=target))

    def test_valid_topology_and_demand_sweep_targets_are_accepted(self):
        small_spec(sweep=SweepAxis(parameter="rows", values=(2, 4), target="topology.rows"))
        small_spec(sweep=SweepAxis(parameter="flow", values=(1.0,), target="demand.flow_per_pair"))


class TestSweepTargets:
    def test_demand_target_overrides_pairs(self):
        spec = small_spec()
        supply, demand = build_instance(spec, 2, np.random.default_rng(1))
        assert len(demand) == 2

    def test_demand_field_targets_replace_the_field(self):
        spec = small_spec(
            sweep=SweepAxis(parameter="flow", values=(1.0, 2.5), target="demand.flow_per_pair")
        )
        _, demand = build_instance(spec, 2.5, np.random.default_rng(1))
        assert [pair.demand for pair in demand.pairs()] == [2.5]
        # cache keys still carry the swept value where they always did
        assert spec.cell_config(2.5, "SRT")["demand"]["kwargs"] == {"flow_per_pair": 2.5}

    def test_topology_target(self):
        spec = small_spec(
            sweep=SweepAxis(parameter="rows", values=(2, 4), target="topology.rows")
        )
        supply, _ = build_instance(spec, 4, np.random.default_rng(1))
        assert len(list(supply.nodes)) == 4 * 3

    def test_disruption_target(self):
        spec = small_spec(
            topology=TopologySpec("bell-canada"),
            disruption=DisruptionSpec("gaussian", kwargs={"variance": 1.0}),
            sweep=SweepAxis(
                parameter="variance", values=(1.0, 500.0), target="disruption.variance"
            ),
        )
        rng = np.random.default_rng(3)
        wide_supply, _ = build_instance(spec, 500.0, rng)
        narrow_supply, _ = build_instance(spec, 1.0, np.random.default_rng(3))
        wide = len(wide_supply.broken_nodes) + len(wide_supply.broken_edges)
        narrow = len(narrow_supply.broken_nodes) + len(narrow_supply.broken_edges)
        assert wide >= narrow

    def test_instance_deterministic_per_rng(self):
        spec = small_spec()
        a_supply, a_demand = build_instance(spec, 2, np.random.default_rng(7))
        b_supply, b_demand = build_instance(spec, 2, np.random.default_rng(7))
        assert a_demand.as_dict() == b_demand.as_dict()
        assert a_supply.broken_nodes == b_supply.broken_nodes


class TestReplaceAndConfig:
    def test_replace_sweep_values(self):
        spec = small_spec(sweep_values=(3, 4, 5))
        assert spec.sweep.values == (3, 4, 5)
        assert spec.sweep.parameter == "num_pairs"

    def test_to_config_is_json_stable(self):
        spec = small_spec()
        assert config_digest(spec.to_config()) == config_digest(small_spec().to_config())

    def test_cell_config_ignores_sweep_list_and_runs(self):
        wide = small_spec(sweep_values=(1, 2, 3, 4), runs=10)
        narrow = small_spec()
        assert wide.cell_config(2, "SRT") == narrow.cell_config(2, "SRT")

    def test_opt_time_limit_only_keys_opt_cells(self):
        fast = small_spec(opt_time_limit=10.0)
        slow = small_spec(opt_time_limit=600.0)
        assert fast.cell_config(1, "SRT") == slow.cell_config(1, "SRT")
        assert fast.cell_config(1, "OPT") != slow.cell_config(1, "OPT")

    def test_opt_cell_names_the_heuristics_that_seed_it(self):
        mixed = small_spec(
            algorithms=("OPT", "ISP", "SRT"), algorithm_kwargs={"ISP": {"metric": "hop"}}
        )
        assert mixed.cell_config(1, "OPT")["seeded_by"] == {"ISP": {"metric": "hop"}, "SRT": {}}
        assert "seeded_by" not in small_spec(algorithms=("OPT",)).cell_config(1, "OPT")
        # A heuristic's cell does not depend on what else is listed.
        assert mixed.cell_config(1, "SRT") == small_spec(algorithms=("SRT",)).cell_config(1, "SRT")


class TestTaskExpansion:
    def test_one_task_per_instance_in_sweep_then_run_order(self):
        tasks = expand_tasks(small_spec(), seed=5)
        assert [task.spawn_key for task in tasks] == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert [task.sweep_value for task in tasks] == [1, 1, 2, 2]

    def test_distinct_instances_get_distinct_streams(self):
        tasks = expand_tasks(small_spec(), seed=5)
        states = {tuple(task.seed_sequence().generate_state(4)) for task in tasks}
        assert len(states) == 4  # 2 values x 2 runs

    def test_spawned_roots_yield_distinct_experiments(self):
        # Children spawned from one parent share its entropy and differ only
        # in spawn key — the engine must still treat them as distinct roots.
        child_a, child_b = np.random.SeedSequence(42).spawn(2)
        tasks_a = expand_tasks(small_spec(), seed=child_a)
        tasks_b = expand_tasks(small_spec(), seed=child_b)
        assert tasks_a[0].root_entropy != tasks_b[0].root_entropy
        assert tasks_a[0].cache_key("SRT") != tasks_b[0].cache_key("SRT")
        state_a = tuple(tasks_a[0].seed_sequence().generate_state(4))
        state_b = tuple(tasks_b[0].seed_sequence().generate_state(4))
        assert state_a != state_b

    def test_list_entropy_seed_sequence_accepted(self):
        tasks = expand_tasks(small_spec(), seed=np.random.SeedSequence([1, 2, 3]))
        assert tasks[0].root_entropy == expand_tasks(
            small_spec(), seed=np.random.SeedSequence([1, 2, 3])
        )[0].root_entropy

    def test_extending_sweep_keeps_existing_seeds(self):
        base = {
            t.spawn_key: tuple(t.seed_sequence().generate_state(2))
            for t in expand_tasks(small_spec(), seed=5)
        }
        extended = {
            t.spawn_key: tuple(t.seed_sequence().generate_state(2))
            for t in expand_tasks(small_spec(sweep_values=(1, 2, 3), runs=4), seed=5)
        }
        for key, state in base.items():
            assert extended[key] == state


class TestRegistry:
    def test_paper_specs_registered(self):
        names = available_specs()
        assert "bellcanada-demand-pairs" in names
        assert "erdos-renyi-scalability" in names
        assert len(names) >= 6

    def test_alias_resolution(self):
        assert get_spec("figure4").name == "bellcanada-demand-pairs"

    def test_unknown_spec_raises(self):
        with pytest.raises(KeyError):
            get_spec("no-such-experiment")

    def test_register_refuses_duplicates(self):
        spec = get_spec("figure4")
        with pytest.raises(ValueError):
            register_spec(spec)


class TestRetiredShims:
    """The PR-3 moved-name shims are gone: the api layer is the only home."""

    RETIRED = ["TopologySpec", "DisruptionSpec", "DemandSpec", "config_digest"]

    @pytest.mark.parametrize("name", RETIRED)
    def test_retired_names_raise_attribute_error(self, name):
        import repro.engine.spec as spec_module

        with pytest.raises(AttributeError):
            getattr(spec_module, name)

    def test_unknown_attribute_still_raises(self):
        import repro.engine.spec as spec_module

        with pytest.raises(AttributeError):
            spec_module.NoSuchName

    def test_modules_import_without_warnings(self):
        """Nothing in the import graph may emit a DeprecationWarning.

        Imported in a fresh interpreter with DeprecationWarning escalated,
        so any deprecated access anywhere in the engine/api/online import
        graph fails loudly (reloading in-process would corrupt class
        identities for the rest of the suite).
        """
        import subprocess
        import sys

        result = subprocess.run(
            [
                sys.executable,
                "-W",
                "error::DeprecationWarning",
                "-c",
                "import repro.engine.experiment, repro.engine.registry, "
                "repro.engine.spec, repro.engine.tasks, repro.engine.executor, "
                "repro.api.service, repro.scenarios, repro.verification, "
                "repro.online, repro.cli",
            ],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
