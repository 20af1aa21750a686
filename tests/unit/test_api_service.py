"""Tests for the RecoveryService session layer (repro.api.service)."""

import dataclasses
import json

import pytest

from repro.api import (
    AssessmentRequest,
    DemandSpec,
    DisruptionSpec,
    RecoveryRequest,
    RecoveryResult,
    RecoveryService,
    TopologySpec,
)
from repro.api.service import DEFAULT_TOPOLOGY_CACHE_SIZE


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


def deterministic_metrics(run):
    return {k: v for k, v in run.metrics.items() if k != "elapsed_seconds"}


class TestSolve:
    def test_solve_returns_one_run_per_algorithm(self):
        result = RecoveryService().solve(grid_request())
        assert [run.algorithm for run in result.results] == ["ISP", "ALL"]
        assert result.broken_elements > 0
        for run in result.results:
            assert run.metrics["total_repairs"] > 0
            assert run.plan["repaired_nodes"] or run.plan["repaired_edges"]

    def test_solve_is_deterministic_across_sessions(self):
        first = RecoveryService().solve(grid_request())
        second = RecoveryService().solve(grid_request())
        for a, b in zip(first.results, second.results):
            assert deterministic_metrics(a) == deterministic_metrics(b)
            assert a.plan == b.plan

    def test_result_envelope_round_trips_through_json(self):
        result = RecoveryService().solve(grid_request())
        payload = json.loads(json.dumps(result.to_dict()))
        restored = RecoveryResult.from_dict(payload)
        # Tuple-valued grid node ids come back as tuples, not lists.
        assert restored.run("ISP").plan == result.run("ISP").plan
        assert restored == result

    def test_plan_reconstruction(self):
        result = RecoveryService().solve(grid_request(algorithms=("ISP",)))
        plan = result.run("ISP").to_plan()
        assert plan.total_repairs == int(result.run("ISP").metrics["total_repairs"])

    def test_algorithm_kwargs_are_honoured(self):
        # Forcing the bottleneck split mode must still produce a working plan.
        result = RecoveryService().solve(
            grid_request(
                algorithms=("ISP",),
                algorithm_kwargs={"ISP": {"split_amount_mode": "bottleneck"}},
            )
        )
        assert result.run("ISP").metrics["satisfied_pct"] == pytest.approx(100.0)

    @pytest.mark.parametrize("flow_per_pair", [float("nan"), float("inf")])
    def test_a_non_finite_flow_per_pair_is_rejected(self, flow_per_pair):
        demand = DemandSpec("routable-far-apart", num_pairs=1, flow_per_pair=flow_per_pair)
        with pytest.raises(ValueError):
            RecoveryService().solve(grid_request(demand=demand, algorithms=("ISP",)))


class TestRunOrder:
    """Heuristics run first and seed the exact solve; envelopes keep the request's order."""

    @staticmethod
    def record_runs(monkeypatch):
        from repro.heuristics.base import RecoveryAlgorithm

        calls = []
        original = RecoveryAlgorithm.solve

        def recording(self, supply, demand, **extra):
            calls.append((self.name, len(extra.get("seed_plans", ()))))
            return original(self, supply, demand, **extra)

        monkeypatch.setattr(RecoveryAlgorithm, "solve", recording)
        return calls

    def test_heuristics_run_first_and_seed_the_exact_solve(self, monkeypatch):
        calls = self.record_runs(monkeypatch)
        result = RecoveryService().solve(grid_request(algorithms=("OPT", "ISP", "SRT")))
        assert calls == [("ISP", 0), ("SRT", 0), ("OPT", 2)]
        assert [run.algorithm for run in result.results] == ["OPT", "ISP", "SRT"]
        assert result.run("OPT").plan["seeded"] is True

    def test_a_lone_opt_self_seeds_and_names_its_solve_path(self, monkeypatch):
        """OPT alone seeds itself with SRT inside the solver, so the runner
        passes no plans; the payload still carries ``strategy``."""
        calls = self.record_runs(monkeypatch)
        plan = RecoveryService().solve(grid_request(algorithms=("OPT",))).run("OPT").plan
        assert calls == [("OPT", 0)]
        assert plan["status"] == "optimal"
        assert plan["strategy"] == "decomposed"
        assert plan["seeded"] is True

    def test_on_heuristics_sees_the_heuristic_envelope_before_the_exact_solve(
        self, monkeypatch
    ):
        calls = self.record_runs(monkeypatch)
        seen = []
        final = RecoveryService().solve(
            grid_request(algorithms=("SRT", "OPT", "ISP")),
            on_heuristics=lambda early: seen.append((early, list(calls))),
        )
        ((early, calls_so_far),) = seen
        assert calls_so_far == [("SRT", 0), ("ISP", 0)]
        assert [run.algorithm for run in early.results] == ["SRT", "ISP"]
        assert early.results == [final.run("SRT"), final.run("ISP")]
        assert early.request == final.request
        assert early.broken_elements == final.broken_elements

    @pytest.mark.parametrize("algorithms", [("ISP", "SRT"), ("OPT",)])
    def test_on_heuristics_needs_both_classes(self, algorithms):
        seen = []
        RecoveryService().solve(grid_request(algorithms=algorithms), on_heuristics=seen.append)
        assert seen == []

    def test_each_run_is_one_service_run_span(self):
        from repro.obs.trace import trace_context

        with trace_context() as trace:
            RecoveryService().solve(grid_request(algorithms=("OPT", "ISP")))
        runs = [node for node in trace.roots if node.name == "service.run"]
        assert [node.attrs for node in runs] == [{"algorithm": "ISP"}, {"algorithm": "OPT"}]
        names = [node.name for node in trace.roots]
        assert names == ["service.materialise", "service.run", "service.run"]
        assert any(child.name == "solver.solve" for child in runs[1].children)


class TestSessionReuse:
    def test_repeated_solve_reports_equal_counts(self):
        service = RecoveryService()
        request = grid_request(algorithms=("ISP",))
        first = service.solve(request).run("ISP").solver
        second = service.solve(request).run("ISP").solver
        counts = [key for key in first if not key.endswith("_seconds")]
        # Structures are reused within the instance, never across requests.
        assert first["structure_misses"] > 0 and first["structure_hits"] > 0
        assert [first[key] for key in counts] == [second[key] for key in counts]

    def test_topology_lru_reuses_pristine_build(self):
        service = RecoveryService()
        service.solve(grid_request(seed=3))
        service.solve(grid_request(seed=4))
        info = service.cache_info()
        assert info["topology_cache_misses"] == 1
        assert info["topology_cache_hits"] == 1
        assert info["topology_cache_size"] == 1

    def test_the_lru_keeps_the_newest_pristine_builds(self):
        service = RecoveryService()
        grids = [
            grid_request(topology=TopologySpec("grid", kwargs={"rows": 3, "cols": cols}))
            for cols in range(3, DEFAULT_TOPOLOGY_CACHE_SIZE + 4)
        ]
        for request in grids:  # one more distinct grid than the LRU holds
            service.build_instance(request)
        service.build_instance(grids[-1])  # the newest is still held ...
        info = service.cache_info()
        assert info["topology_cache_size"] == info["topology_cache_capacity"] == 8
        assert (info["topology_cache_hits"], info["topology_cache_misses"]) == (1, 9)
        service.build_instance(grids[0])  # ... and the oldest was evicted
        assert service.cache_info()["topology_cache_misses"] == 10

    @pytest.mark.parametrize("raw", ["0", "3", "banana"])
    def test_the_retired_cache_size_variable_changes_nothing(self, monkeypatch, raw):
        """``$REPRO_TOPOLOGY_CACHE`` once disabled ("0"), shrank ("3") or
        refused ("banana") the LRU; a deployment still setting it gets the
        one fixed-size cache."""
        monkeypatch.setenv("REPRO_TOPOLOGY_CACHE", raw)
        service = RecoveryService()
        service.solve(grid_request(seed=3))
        service.solve(grid_request(seed=4))
        info = service.cache_info()
        assert info["topology_cache_capacity"] == DEFAULT_TOPOLOGY_CACHE_SIZE
        assert (info["topology_cache_hits"], info["topology_cache_misses"]) == (1, 1)
        assert info["topology_cache_size"] == 1

    def test_pinned_seed_topologies_are_cached(self):
        service = RecoveryService()
        request = grid_request(
            topology=TopologySpec(
                "erdos-renyi",
                kwargs={"num_nodes": 12, "edge_probability": 0.4, "capacity": 100.0, "seed": 5},
            ),
            demand=DemandSpec("random", num_pairs=1, flow_per_pair=1.0),
            algorithms=("SRT",),
        )
        first = service.solve(request)
        second = service.solve(request)
        info = service.cache_info()
        assert info["topology_cache_misses"] == 1
        assert info["topology_cache_hits"] == 1
        assert deterministic_metrics(first.results[0]) == deterministic_metrics(
            second.results[0]
        )

    def test_seeded_topologies_bypass_the_lru(self):
        service = RecoveryService()
        request = grid_request(
            topology=TopologySpec(
                "erdos-renyi",
                kwargs={"num_nodes": 12, "edge_probability": 0.4, "capacity": 100.0},
            ),
            demand=DemandSpec("random", num_pairs=1, flow_per_pair=1.0),
            algorithms=("SRT",),
        )
        service.solve(request)
        service.solve(request)
        assert service.cache_info()["topology_cache_size"] == 0


class TestAssess:
    def test_assess_matches_direct_assessment(self):
        request = AssessmentRequest(
            topology=TopologySpec("grid", kwargs={"rows": 3, "cols": 3}),
            disruption=DisruptionSpec("gaussian", kwargs={"variance": 2.0}),
            demand=DemandSpec("far-apart", num_pairs=1, flow_per_pair=2.0),
            seed=5,
        )
        service = RecoveryService()
        result = service.assess(request)
        assert result.summary["broken_nodes"] + result.summary["broken_edges"] > 0
        assert "pre_recovery_satisfied_pct" in result.summary
        # The envelope round-trips.
        from repro.api import AssessmentResult

        restored = AssessmentResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert restored == result


class TestSolveBatch:
    @staticmethod
    def comparable(envelope):
        """The envelope without its timing fields and ``cached`` flags."""
        payload = envelope.to_dict()
        del payload["wall_seconds"]
        for run in payload["results"]:
            del run["cached"], run["metrics"]["elapsed_seconds"]
            run["solver"] = {
                key: value for key, value in run["solver"].items() if not key.endswith("_seconds")
            }
        return payload

    def test_batch_matches_in_process_solve(self):
        bell = RecoveryRequest(
            topology=TopologySpec("bell-canada"),
            disruption=DisruptionSpec("complete"),
            demand=DemandSpec("far-apart", num_pairs=4, flow_per_pair=10.0),
            algorithms=("ISP", "SRT", "GRD-COM", "OPT"),
            seed=3,
        )
        requests = [grid_request(seed=3), grid_request(seed=9, algorithms=("SRT",)), bell]
        service = RecoveryService()
        batch = service.solve_batch(requests, jobs=2)
        for request, envelope in zip(requests, batch):
            assert [r.algorithm for r in envelope.results] == list(request.algorithms)
            assert self.comparable(envelope) == self.comparable(service.solve(request))

    def test_batch_after_opt_only_batch_matches_solve(self, tmp_path):
        """An OPT-only cell in a shared cache is never served to a seeded OPT."""
        full = RecoveryRequest(
            topology=TopologySpec("bell-canada"),
            disruption=DisruptionSpec("complete"),
            demand=DemandSpec("routable-far-apart", num_pairs=3, flow_per_pair=10.0),
            algorithms=("ISP", "OPT", "SRT", "GRD-COM", "GRD-NC", "ALL"),
            seed=1813342674,
        )
        alone = dataclasses.replace(full, algorithms=("OPT",))
        service = RecoveryService()
        (opt_only,) = service.solve_batch([alone], jobs=2, cache_dir=tmp_path)
        (batch,) = service.solve_batch([full], jobs=2, cache_dir=tmp_path)
        assert not any(run.cached for run in batch.results)
        solo = service.solve(full)
        assert self.comparable(batch) == self.comparable(solo)
        # On this instance the self-seeded and the heuristic-seeded OPT pick
        # different optimal repair sets of the same size.
        assert opt_only.results[0].plan != solo.run("OPT").plan
        assert opt_only.results[0].metrics["total_repairs"] == solo.run("OPT").metrics[
            "total_repairs"
        ]

    def test_batch_resumes_from_request_keyed_cache(self, tmp_path):
        requests = [grid_request(seed=3), grid_request(seed=9)]
        service = RecoveryService()
        first = service.solve_batch(requests, cache_dir=tmp_path)
        assert not any(run.cached for envelope in first for run in envelope.results)
        stored = len(list(tmp_path.glob("*.json")))
        assert stored == sum(len(request.algorithms) for request in requests)
        second = service.solve_batch(requests, cache_dir=tmp_path)
        assert all(run.cached for envelope in second for run in envelope.results)
        for a, b in zip(first, second):
            for run_a, run_b in zip(a.results, b.results):
                assert run_a.metrics == run_b.metrics
                assert run_a.plan == run_b.plan

    def test_batch_recomputes_planless_sweep_cache_entries(self, tmp_path):
        """A metrics-only cell cached by an older sweep must not yield an empty plan."""
        from repro.api.results import METRIC_KEYS
        from repro.engine.tasks import expand_tasks

        request = grid_request(algorithms=("ISP",))
        (task,) = expand_tasks(request.to_experiment_spec(), seed=request.seed)
        key = task.cache_key("ISP")
        # A sweep entry as older engines wrote it: metrics and solver_-prefixed
        # extras, no plan.
        stale_metrics = dict.fromkeys(METRIC_KEYS, 0.0)
        (tmp_path / f"{key}.json").write_text(
            json.dumps(
                {
                    "key": key,
                    "task": {
                        "spec": task.spec.name,
                        "cell": task.spec.cell_config(task.sweep_value, "ISP"),
                        "root_entropy": task.root_entropy,
                        "spawn_key": list(task.spawn_key),
                    },
                    "result": {
                        "sweep_value": task.sweep_value,
                        "value_index": 0,
                        "run_index": 0,
                        "algorithm": "ISP",
                        "metrics": stale_metrics,
                        "broken_elements": 0,
                        "wall_seconds": 0.0,
                        "extras": {"solver_lp_solves": 1.0},
                    },
                }
            )
        )
        envelope = RecoveryService().solve_batch([request], cache_dir=tmp_path)[0]
        run = envelope.results[0]
        assert not run.cached  # recomputed, not served plan-less
        assert run.metrics != stale_metrics
        assert run.plan["repaired_nodes"] or run.plan["repaired_edges"]
        # The recompute overwrote the entry; the next batch is served plans.
        again = RecoveryService().solve_batch([request], cache_dir=tmp_path)[0]
        assert again.results[0].cached
        assert again.results[0].plan == run.plan

    def test_cached_batch_plans_survive_json_storage(self, tmp_path):
        # Grid node ids are tuples; the disk cache stores them as lists and
        # the envelope canonicalises them back.
        request = grid_request(algorithms=("ISP",))
        service = RecoveryService()
        fresh = service.solve_batch([request], cache_dir=tmp_path)[0]
        cached = service.solve_batch([request], cache_dir=tmp_path)[0]
        assert cached.results[0].cached
        assert cached.results[0].plan == fresh.results[0].plan


class TestSweep:
    """``sweep(name, **changes)``: a registered figure, scaled by the caller."""

    def test_changes_reach_the_registered_spec(self, monkeypatch):
        import repro.api.service as service_module
        from repro.engine.registry import get_spec

        seen = []
        monkeypatch.setattr(
            service_module, "run_experiment", lambda spec, **kwargs: seen.append((spec, kwargs))
        )
        RecoveryService().sweep(
            "figure4", seed=2, sweep_values=[1, 2], runs=3, algorithms=("ISP", "ALL")
        )
        (spec, kwargs), = seen
        assert spec == get_spec("bellcanada-demand-pairs").replace(
            sweep_values=(1, 2), runs=3, algorithms=("ISP", "ALL")
        )
        assert kwargs["seed"] == 2

    def test_alias_sweep_rows_and_series(self):
        result = RecoveryService().sweep(
            "figure4", seed=2, sweep_values=(1, 2), runs=2, algorithms=("SRT", "ALL")
        )
        assert (result.name, result.figure) == ("bellcanada-demand-pairs", "Figure 4")
        # one row per (sweep value, algorithm), in sweep then algorithm order
        assert [(row["num_pairs"], row["algorithm"]) for row in result.rows] == [
            (1, "SRT"), (1, "ALL"), (2, "SRT"), (2, "ALL"),
        ]
        assert all(row["runs"] == 2 for row in result.rows)
        series = result.series("total_repairs")
        assert set(series) == {"SRT", "ALL"}
        assert set(series["ALL"]) == {1, 2}
        assert series["SRT"][2] <= series["ALL"][2]

    def test_rows_are_flat_with_fixed_leading_keys(self):
        result = RecoveryService().sweep(
            "figure4", seed=2, sweep_values=(1,), runs=1, algorithms=("ALL",)
        )
        (row,) = result.rows
        assert list(row)[:10] == [
            "num_pairs",
            "algorithm",
            "runs",
            "node_repairs",
            "edge_repairs",
            "total_repairs",
            "repair_cost",
            "satisfied_pct",
            "elapsed_seconds",
            "broken_elements",
        ]
        assert row["algorithm"] == "ALL"
        assert row["total_repairs"] == row["broken_elements"]
