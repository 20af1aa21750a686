"""Tests for the scenario generator and the fuzz harness."""

import dataclasses

import pytest

from repro.api.service import RecoveryService
from repro.scenarios import DEFAULT_SPACE, ScenarioGenerator, ScenarioSpace, run_fuzz
from repro.verification import audit_result

SMALL_SPACE = ScenarioSpace(
    topologies=(("grid", {"rows": (3,), "cols": (3,), "capacity": (20.0,)}),),
    disruptions=(("complete", {}), ("targeted", {"node_budget": (2,)})),
    algorithms=("ISP", "SRT", "ALL"),
    num_pairs=(1, 2),
    flow_per_pair=(4.0,),
)


class TestScenarioSpace:
    def test_default_space_uses_all_algorithms(self):
        from repro.heuristics.registry import available_algorithms

        assert DEFAULT_SPACE.resolved_algorithms() == tuple(available_algorithms())

    def test_explicit_algorithms_win(self):
        assert SMALL_SPACE.resolved_algorithms() == ("ISP", "SRT", "ALL")


class TestScenarioGenerator:
    def test_budget_requests(self):
        requests = ScenarioGenerator(space=SMALL_SPACE, seed=1).requests(5)
        assert len(requests) == 5
        assert all(request.topology.name == "grid" for request in requests)

    def test_invalid_budget_rejected(self):
        with pytest.raises(ValueError):
            ScenarioGenerator(space=SMALL_SPACE).requests(0)

    def test_overconstrained_space_raises(self):
        # barabasi-albert with num_nodes <= attachment can never build.
        broken = dataclasses.replace(
            SMALL_SPACE,
            topologies=(("barabasi-albert", {"num_nodes": (2,), "attachment": (5,)}),),
        )
        generator = ScenarioGenerator(space=broken, seed=0, max_attempts=3)
        with pytest.raises(RuntimeError):
            generator.sample_request()
        assert generator.discarded == 3

    def test_distinct_seeds_give_distinct_streams(self):
        a = ScenarioGenerator(space=SMALL_SPACE, seed=1).requests(4)
        b = ScenarioGenerator(space=SMALL_SPACE, seed=2).requests(4)
        assert [r.digest() for r in a] != [r.digest() for r in b]

    def test_sample_request_is_the_single_draw_primitive(self):
        # requests(n) is exactly n sample_request() calls on the same
        # stream: interleaving the two APIs must give identical draws.
        batch = ScenarioGenerator(space=SMALL_SPACE, seed=3).requests(3)
        generator = ScenarioGenerator(space=SMALL_SPACE, seed=3)
        singles = [generator.sample_request() for _ in range(3)]
        assert [r.digest() for r in singles] == [r.digest() for r in batch]

    def test_sample_request_materialises(self):
        import numpy as np

        from repro.api.requests import materialise_instance
        from repro.engine.tasks import cell_seed_sequence, root_entropy

        request = ScenarioGenerator(space=SMALL_SPACE, seed=11).sample_request()
        rng = np.random.default_rng(cell_seed_sequence(root_entropy(request.seed), 0, 0))
        supply, demand, _ = materialise_instance(
            request.topology, request.disruption, request.demand, rng
        )
        assert demand.total_demand > 0


class TestSampleOnlineSpec:
    def test_sampled_spec_is_valid_and_seeded(self):
        from repro.online import OnlineScenarioSpec

        spec = ScenarioGenerator(space=SMALL_SPACE, seed=5).sample_online_spec(epochs=3)
        assert isinstance(spec, OnlineScenarioSpec)
        assert spec.epochs == 3
        assert len(spec.events) == 1
        assert spec.opt_time_limit == SMALL_SPACE.opt_time_limit

    def test_sampling_is_deterministic(self):
        a = ScenarioGenerator(space=SMALL_SPACE, seed=5).sample_online_spec()
        b = ScenarioGenerator(space=SMALL_SPACE, seed=5).sample_online_spec()
        assert a.digest() == b.digest()

    def test_distinct_seeds_vary_the_temporal_layer(self):
        digests = {
            ScenarioGenerator(space=SMALL_SPACE, seed=seed).sample_online_spec().digest()
            for seed in range(6)
        }
        assert len(digests) > 1

    def test_custom_events_menu(self):
        menu = ({"kind": "cascade", "probability": 0.9},)
        spec = ScenarioGenerator(space=SMALL_SPACE, seed=5).sample_online_spec(
            events_menu=menu
        )
        assert spec.events[0].kind == "cascade"
        assert spec.events[0].probability == 0.9


class TestRunFuzz:
    def test_verified_campaign_is_clean(self):
        report = run_fuzz(budget=3, seed=5, space=SMALL_SPACE)
        assert report.ok
        assert report.audit.checked == 3 * 3  # requests x algorithms
        assert len(report.envelopes) == 3
        payload = report.to_dict()
        assert payload["kind"] == "fuzz-report"
        assert payload["ok"] is True
        assert len(payload["requests"]) == 3

    def test_unverified_campaign_skips_audit(self):
        report = run_fuzz(budget=2, seed=5, space=SMALL_SPACE, verify=False)
        assert report.audit.checked == 0
        assert report.ok  # no audit, no violations

    def test_campaign_is_reproducible(self):
        a = run_fuzz(budget=2, seed=9, space=SMALL_SPACE, verify=False)
        b = run_fuzz(budget=2, seed=9, space=SMALL_SPACE, verify=False)
        assert [r.digest() for r in a.requests] == [r.digest() for r in b.requests]
        for left, right in zip(a.envelopes, b.envelopes):
            for run_a, run_b in zip(left.results, right.results):
                assert run_a.plan == run_b.plan

    def test_cache_dir_makes_campaigns_resumable(self, tmp_path):
        first = run_fuzz(
            budget=2, seed=3, space=SMALL_SPACE, verify=False, cache_dir=str(tmp_path)
        )
        assert not any(run.cached for env in first.envelopes for run in env.results)
        second = run_fuzz(
            budget=2, seed=3, space=SMALL_SPACE, verify=False, cache_dir=str(tmp_path)
        )
        assert all(run.cached for env in second.envelopes for run in env.results)

    def test_rows_align_with_requests(self):
        report = run_fuzz(budget=2, seed=5, space=SMALL_SPACE, verify=False)
        rows = report.rows()
        assert len(rows) == 2
        assert rows[0]["request"] == report.requests[0].digest()[:12]
        assert {row["disruption"] for row in rows} <= {"complete", "targeted"}


class TestAuditEnvelope:
    def test_audit_result_matches_in_process_solve(self):
        service = RecoveryService()
        generator = ScenarioGenerator(space=SMALL_SPACE, seed=7)
        request = generator.sample_request()
        envelope = service.solve(request)
        report = audit_result(service, request, envelope)
        assert report.ok
        assert report.checked == len(request.algorithms)
