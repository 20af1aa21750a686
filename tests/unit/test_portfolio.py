"""Unit tests of the portfolio racer: staging helpers and two-stage solves."""

import json

import pytest

from repro.api.requests import (
    DemandSpec,
    DisruptionSpec,
    RecoveryRequest,
    TopologySpec,
)
from repro.api.results import AlgorithmRun, RecoveryResult
from repro.api.service import RecoveryService
from repro.portfolio import (
    PORTFOLIO_KEY,
    annotation,
    is_exact,
    pending_algorithms,
    proven_exact_runs,
    split_algorithms,
    solve_two_stage,
)
from repro.verification import audit_result


def staged_request(seed: int = 3, algorithms=("OPT", "ISP", "SRT")) -> RecoveryRequest:
    return RecoveryRequest(
        topology=TopologySpec("grid", kwargs={"rows": 3, "cols": 3}),
        disruption=DisruptionSpec("complete"),
        demand=DemandSpec(num_pairs=2, flow_per_pair=4.0),
        algorithms=algorithms,
        seed=seed,
        opt_time_limit=60.0,
    )


def _run(algorithm: str, status: str = "optimal") -> AlgorithmRun:
    return AlgorithmRun(algorithm=algorithm, metrics={}, plan={"status": status}, solver={})


class TestStagingHelpers:
    def test_exactness_is_case_insensitive(self):
        assert is_exact("OPT") and is_exact("opt")
        assert not is_exact("ISP")

    def test_split_preserves_each_classes_order(self):
        assert split_algorithms(["OPT", "SRT", "ISP"]) == (["SRT", "ISP"], ["OPT"])

    def test_annotation_shape(self):
        payload = annotation("heuristic", pending=["OPT"])
        assert payload == {
            "stage": "heuristic",
            "pending": ["OPT"],
            "upgraded": False,
            "proven_exact_runs": 0,
            "exact_runs": 0,
        }
        assert "error" not in payload
        assert annotation("heuristic", error="boom")["error"] == "boom"

    def test_pending_algorithms_tolerates_malformed_envelopes(self):
        assert pending_algorithms(None) == []
        assert pending_algorithms({"results": []}) == []
        assert pending_algorithms({PORTFOLIO_KEY: "junk"}) == []
        assert pending_algorithms({PORTFOLIO_KEY: {"pending": ["OPT"]}}) == ["OPT"]
        assert pending_algorithms({PORTFOLIO_KEY: {"pending": []}}) == []

    def test_proven_exact_runs_judges_by_solver_status(self):
        runs = [_run("ISP"), _run("OPT", "optimal"), _run("OPT", "feasible")]
        assert proven_exact_runs(runs) == (1, 2)


class TestSolveTwoStage:
    def test_heuristic_envelope_is_published_before_the_exact_lands(self):
        service = RecoveryService()
        request = staged_request()
        published = []
        envelope, info = solve_two_stage(
            service, request, publish=lambda early: published.append(early) or True
        )

        assert info == {"staged": True, "published": True, "proven": 1, "exact": 1}
        (stage1,) = published
        marker = stage1[PORTFOLIO_KEY]
        assert marker["stage"] == "heuristic"
        assert marker["pending"] == ["OPT"]
        assert marker["upgraded"] is False
        assert [run["algorithm"] for run in stage1["results"]] == ["ISP", "SRT"]

        final = envelope[PORTFOLIO_KEY]
        assert final["stage"] == "exact"
        assert final["pending"] == []
        assert final["upgraded"] is True
        # the envelope keeps the *requested* order, exacts included
        assert [run["algorithm"] for run in envelope["results"]] == ["OPT", "ISP", "SRT"]
        opt = envelope["results"][0]["plan"]
        assert opt["status"] == "optimal"
        assert opt["seeded"] is True

    def test_upgraded_envelope_is_audit_clean(self):
        service = RecoveryService()
        request = staged_request()
        envelope, _ = solve_two_stage(service, request, publish=lambda early: True)
        result = RecoveryResult.from_dict(envelope)
        report = audit_result(service, request, result)
        assert report.ok, "; ".join(map(str, report.violations))
        assert report.unproven_baselines == 0
        assert report.opt_gaps == [0.0]

    def test_published_bytes_round_trip_the_store_unchanged(self, tmp_path):
        from repro.server.stores import JobStore

        service = RecoveryService()
        request = staged_request(seed=5)
        with JobStore(tmp_path / "jobs.db") as store:
            store.submit(request)
            record = store.claim("w0")

            snapshots = []

            def publish(early):
                landed = store.complete(record.digest, early, worker="w0")
                snapshots.append(json.dumps(store.get(record.digest).result, sort_keys=True))
                return landed

            envelope, info = solve_two_stage(service, request, publish=publish)
            # the stored stage-1 row was exactly the published envelope, and
            # it stayed byte-stable until the upgrade replaced it
            assert info["published"] is True
            assert snapshots == [
                json.dumps(store.get(record.digest).result, sort_keys=True)
            ]
            assert store.upgrade_result(record.digest, envelope, worker="w0")
            assert store.get(record.digest).result == envelope
            assert pending_algorithms(store.get(record.digest).result) == []

    def test_requests_with_nothing_to_race_fall_back_to_single_stage(self):
        service = RecoveryService()
        request = staged_request(algorithms=("ISP", "SRT"))
        envelope, info = solve_two_stage(service, request, publish=lambda early: True)
        assert info["staged"] is False
        assert info["published"] is False
        assert PORTFOLIO_KEY not in envelope
        assert [run["algorithm"] for run in envelope["results"]] == ["ISP", "SRT"]

    def test_duplicate_algorithm_names_run_once(self):
        service = RecoveryService()
        request = staged_request(algorithms=("ISP", "ISP", "OPT"))
        envelope, info = solve_two_stage(service, request)
        assert info["staged"] is True
        assert [run["algorithm"] for run in envelope["results"]] == ["ISP", "OPT"]

    def test_stage2_failure_keeps_the_heuristic_answer(self, monkeypatch):
        from repro.heuristics.base import RecoveryAlgorithm

        original = RecoveryAlgorithm.solve

        def exploding(self, supply, demand, **extra):
            if self.name == "OPT":
                raise RuntimeError("milp exploded")
            return original(self, supply, demand, **extra)

        monkeypatch.setattr(RecoveryAlgorithm, "solve", exploding)
        service = RecoveryService()
        request = staged_request()
        published = []
        envelope, info = solve_two_stage(
            service, request, publish=lambda early: published.append(early) or True
        )

        assert info["staged"] and info["published"]
        assert info["proven"] == 0 and info["exact"] == 0
        marker = envelope[PORTFOLIO_KEY]
        assert marker["stage"] == "heuristic"
        assert "milp exploded" in marker["error"]
        # pending is cleared: the heuristic answer is final, caches may admit it
        assert marker["pending"] == []
        assert marker["upgraded"] is True
        assert pending_algorithms(envelope) == []
        assert [run["algorithm"] for run in envelope["results"]] == ["ISP", "SRT"]
        # the answer is the published stage-1 envelope, only re-annotated
        (stage1,) = published
        assert {**envelope, PORTFOLIO_KEY: None} == {**stage1, PORTFOLIO_KEY: None}

    def test_publish_failure_propagates(self):
        def failing(early):
            raise RuntimeError("store unavailable")

        with pytest.raises(RuntimeError, match="store unavailable"):
            solve_two_stage(RecoveryService(), staged_request(), publish=failing)

    def test_heuristic_failure_propagates_unpublished(self, monkeypatch):
        from repro.heuristics.base import RecoveryAlgorithm

        def exploding(self, supply, demand, **extra):
            raise RuntimeError(f"{self.name} exploded")

        monkeypatch.setattr(RecoveryAlgorithm, "solve", exploding)
        published = []
        with pytest.raises(RuntimeError, match="ISP exploded"):
            solve_two_stage(RecoveryService(), staged_request(), publish=published.append)
        assert published == []
