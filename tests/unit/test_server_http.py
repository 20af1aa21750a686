"""Unit tests of the HTTP front end, driven through the ServiceClient.

The server runs on a background thread with its own event loop and a real
TCP socket, so these tests exercise the actual wire protocol (request
parsing, status codes, content types) without spawning worker processes.
"""

import asyncio
import json
import threading
import urllib.request

import pytest

from repro.api.requests import (
    AssessmentRequest,
    DemandSpec,
    DisruptionSpec,
    RecoveryRequest,
    TopologySpec,
)
from repro.obs.trace import TRACE_HEADER, normalize_trace_id, render_trace
from repro.server.client import ServiceClient, ServiceError
from repro.server.http import RecoveryServer
from repro.server.stores import JobStore


def grid_request(seed: int = 1) -> RecoveryRequest:
    return RecoveryRequest(
        topology=TopologySpec("grid", kwargs={"rows": 3, "cols": 3}),
        disruption=DisruptionSpec("complete"),
        demand=DemandSpec(num_pairs=1, flow_per_pair=5.0),
        algorithms=("ISP",),
        seed=seed,
    )


class ServerHarness:
    """A front end on a background event-loop thread, plus its client."""

    def __init__(self, store: JobStore, **kwargs) -> None:
        self.store = store
        self.kwargs = kwargs
        self._ready = threading.Event()
        self._stop: asyncio.Event = None
        self._loop: asyncio.AbstractEventLoop = None
        self.server: RecoveryServer = None
        self.client: ServiceClient = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        async def main() -> None:
            self.server = RecoveryServer(self.store, **self.kwargs)
            await self.server.start(port=0)
            self._loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()
            self._ready.set()
            await self._stop.wait()
            await self.server.stop()

        asyncio.run(main())

    def __enter__(self) -> "ServerHarness":
        self._thread.start()
        assert self._ready.wait(timeout=10), "server failed to start"
        self.client = ServiceClient(f"http://127.0.0.1:{self.server.port}", timeout=10.0)
        return self

    def __exit__(self, *_: object) -> None:
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=10)


@pytest.fixture()
def store(tmp_path):
    with JobStore(tmp_path / "jobs.db") as handle:
        yield handle


@pytest.fixture()
def harness(store):
    with ServerHarness(store, workers_alive=lambda: 2) as running:
        yield running


class TestSubmission:
    def test_solve_accepts_and_persists_the_job(self, harness, store):
        response = harness.client.solve(grid_request())
        assert response["deduplicated"] is False
        digest = response["job"]["digest"]
        assert digest == grid_request().digest()
        assert store.get(digest).state == "queued"

    def test_duplicate_solve_is_a_dedup_hit(self, harness):
        harness.client.solve(grid_request())
        response = harness.client.solve(grid_request())
        assert response["deduplicated"] is True
        assert harness.server.dedup_hits == 1

    def test_dedup_of_a_done_job_returns_the_result_inline(self, harness, store):
        harness.client.solve(grid_request())
        record = store.claim("w0")
        store.complete(record.digest, {"kind": "recovery-result", "results": []})
        response = harness.client.solve(grid_request())
        assert response["deduplicated"] is True
        assert response["job"]["state"] == "done"
        assert response["job"]["result"]["kind"] == "recovery-result"

    def test_assess_round_trips(self, harness, store):
        request = AssessmentRequest(
            topology=TopologySpec("grid", kwargs={"rows": 3, "cols": 3}),
            disruption=DisruptionSpec("gaussian", kwargs={"variance": 2.0}),
            seed=2,
        )
        response = harness.client.assess(request)
        assert store.get(response["job"]["digest"]).kind == "assessment"

    def test_batch_submits_and_dedups(self, harness, store):
        requests = [grid_request(seed=1), grid_request(seed=2), grid_request(seed=1)]
        response = harness.client.batch(requests)
        assert len(response["jobs"]) == 3
        flags = [job["deduplicated"] for job in response["jobs"]]
        assert flags == [False, False, True]
        assert store.queue_depth() == 2

    def test_batch_accepts_mixed_solve_and_assess_requests(self, harness, store):
        assessment = AssessmentRequest(
            topology=TopologySpec("grid", kwargs={"rows": 3, "cols": 3}),
            disruption=DisruptionSpec("gaussian", kwargs={"variance": 2.0}),
            seed=4,
        )
        response = harness.client.batch([grid_request().to_dict(), assessment.to_dict()])
        kinds = {store.get(job["job"]["digest"]).kind for job in response["jobs"]}
        assert kinds == {"recovery", "assessment"}

    def test_retrying_a_failed_job_is_a_202_not_a_dedup_hit(self, harness, store):
        harness.client.solve(grid_request())
        record = store.claim("w0")
        store.fail(record.digest, "boom")
        response = harness.client.solve(grid_request())
        # the retry requeues a fresh execution: not deduplicated, counted 202
        assert response["deduplicated"] is False
        assert response["job"]["state"] == "queued"
        assert harness.server.dedup_hits == 0
        assert harness.server.http_requests[("/v1/solve", 202)] == 2


class TestValidation:
    def test_unknown_topology_is_a_400_with_the_schema_error(self, harness):
        payload = grid_request().to_dict()
        payload["topology"]["name"] = "atlantis"
        with pytest.raises(ServiceError) as excinfo:
            harness.client.solve(payload)
        assert excinfo.value.status == 400
        assert "unknown topology" in str(excinfo.value)

    def test_missing_required_disruption_parameter_is_a_400(self, harness, store):
        payload = grid_request().to_dict()
        payload["disruption"] = {"kind": "gaussian", "kwargs": {}}
        with pytest.raises(ServiceError) as excinfo:
            harness.client.solve(payload)
        assert excinfo.value.status == 400
        assert "variance" in str(excinfo.value)
        assert store.jobs() == []

    @pytest.mark.parametrize(
        "section, kwargs, match",
        [
            ("topology", {"rows": 3, "cols": 3, "bogus": 1}, "bogus"),
            ("demand", {"nonsense": 2}, "nonsense"),
        ],
    )
    def test_unknown_topology_or_demand_parameter_is_a_400(
        self, harness, store, section, kwargs, match
    ):
        payload = grid_request().to_dict()
        payload[section]["kwargs"] = kwargs
        with pytest.raises(ServiceError) as excinfo:
            harness.client.solve(payload)
        assert excinfo.value.status == 400
        assert match in str(excinfo.value) and "valid:" in str(excinfo.value)
        assert store.jobs() == []

    def test_demand_kwargs_repeating_a_field_are_a_400(self, harness, store):
        payload = grid_request().to_dict()
        payload["demand"]["kwargs"] = {"num_pairs": 2}
        with pytest.raises(ServiceError) as excinfo:
            harness.client.solve(payload)
        assert excinfo.value.status == 400
        assert "num_pairs is a DemandSpec field" in str(excinfo.value)
        assert store.jobs() == []

    @pytest.mark.parametrize(
        "algorithm_kwargs, match",
        [
            ({"ISP": {"split_amount_mode": "banana"}}, "split_amount_mode"),
            ({"OPT": {"strategy": "monolithic"}}, "strategy"),
            ({"OPT": {"strategy": "auto"}}, "strategy"),
            ({"ISP": {"lp_edge_threshold": 400}}, "lp_edge_threshold"),
        ],
    )
    def test_invalid_algorithm_option_is_a_400(self, harness, store, algorithm_kwargs, match):
        payload = grid_request().to_dict()
        payload["algorithm_kwargs"] = algorithm_kwargs
        with pytest.raises(ServiceError) as excinfo:
            harness.client.solve(payload)
        assert excinfo.value.status == 400
        assert match in str(excinfo.value)
        assert store.jobs() == []

    def test_invalid_json_body_is_a_400(self, harness):
        url = f"{harness.client.base_url}/v1/solve"
        request = urllib.request.Request(
            url, data=b"{not json", headers={"Content-Type": "application/json"}
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=5)
        assert excinfo.value.code == 400

    def test_wrong_kind_on_solve_is_a_400(self, harness):
        payload = grid_request().to_dict()
        payload["kind"] = "assessment"
        with pytest.raises(ServiceError) as excinfo:
            harness.client.solve(payload)
        assert excinfo.value.status == 400

    def test_batch_without_requests_is_a_400(self, harness):
        with pytest.raises(ServiceError) as excinfo:
            harness.client._call("POST", "/v1/batch", {"requests": []})
        assert excinfo.value.status == 400

    def test_batch_reports_the_offending_index(self, harness):
        good = grid_request().to_dict()
        bad = grid_request().to_dict()
        bad["algorithms"] = ["NOPE"]
        with pytest.raises(ServiceError) as excinfo:
            harness.client.batch([good, bad])
        assert excinfo.value.status == 400
        assert "requests[1]" in str(excinfo.value)

    def test_unknown_path_is_a_404(self, harness):
        with pytest.raises(ServiceError) as excinfo:
            harness.client._call("GET", "/v2/everything")
        assert excinfo.value.status == 404

    def test_unknown_job_is_a_404(self, harness):
        with pytest.raises(ServiceError) as excinfo:
            harness.client.job("0" * 64)
        assert excinfo.value.status == 404

    def test_wrong_method_is_a_405(self, harness):
        with pytest.raises(ServiceError) as excinfo:
            harness.client._call("POST", "/healthz", {})
        assert excinfo.value.status == 405

    def test_oversized_body_is_a_400(self, store):
        with ServerHarness(store, max_body_bytes=64) as harness:
            with pytest.raises(ServiceError) as excinfo:
                harness.client.solve(grid_request())
            assert excinfo.value.status == 400
            assert "exceeds" in str(excinfo.value)


class TestAdmissionControl:
    def test_queue_full_rejects_new_submissions_with_429(self, store):
        with ServerHarness(store, max_queue_depth=1) as harness:
            harness.client.solve(grid_request(seed=1))
            with pytest.raises(ServiceError) as excinfo:
                harness.client.solve(grid_request(seed=2))
            assert excinfo.value.status == 429
            assert excinfo.value.payload["max_queue_depth"] == 1

    def test_dedup_hits_are_admitted_even_when_full(self, store):
        with ServerHarness(store, max_queue_depth=1) as harness:
            harness.client.solve(grid_request(seed=1))
            response = harness.client.solve(grid_request(seed=1))
            assert response["deduplicated"] is True

    def test_batch_admission_counts_only_fresh_jobs(self, store):
        with ServerHarness(store, max_queue_depth=2) as harness:
            harness.client.solve(grid_request(seed=1))
            # one dedup + one fresh fits depth 2; two fresh would not
            response = harness.client.batch([grid_request(seed=1), grid_request(seed=2)])
            assert len(response["jobs"]) == 2
            with pytest.raises(ServiceError) as excinfo:
                harness.client.batch([grid_request(seed=3), grid_request(seed=4)])
            assert excinfo.value.status == 429


class _DrainingDepthStore:
    """A store whose queue depth drops between reads (workers draining).

    Scripted depths are served one per ``queue_depth`` call; the regression
    under test is that the 429 path reads the depth exactly once, so the
    rejection body reports the depth that *triggered* the rejection rather
    than whatever a second read would see.
    """

    def __init__(self, inner, depths):
        self._inner = inner
        self._depths = list(depths)
        self.depth_calls = 0

    def queue_depth(self):
        self.depth_calls += 1
        if self._depths:
            return self._depths.pop(0)
        return self._inner.queue_depth()

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TestRejectionDepthConsistency:
    def test_submit_429_reports_the_depth_that_triggered_it(self, store):
        wrapped = _DrainingDepthStore(store, depths=[3, 0])
        server = RecoveryServer(wrapped, max_queue_depth=2)
        status, body, _ = server._submit(grid_request(seed=9).to_dict(), RecoveryRequest)
        assert status == 429
        assert body["queue_depth"] == 3  # the triggering depth, not the later 0
        assert wrapped.depth_calls == 1

    def test_batch_429_reports_the_depth_that_triggered_it(self, store):
        wrapped = _DrainingDepthStore(store, depths=[3, 0])
        server = RecoveryServer(wrapped, max_queue_depth=2)
        payload = {"requests": [grid_request(seed=8).to_dict(), grid_request(seed=9).to_dict()]}
        status, body, _ = server._batch(payload)
        assert status == 429
        assert body["queue_depth"] == 3
        assert wrapped.depth_calls == 1


class TestObservation:
    def test_job_view_round_trips_the_request(self, harness):
        submitted = harness.client.solve(grid_request())
        view = harness.client.job(submitted["job"]["digest"])
        assert view["state"] == "queued"
        rebuilt = RecoveryRequest.from_dict(view["request"])
        assert rebuilt == grid_request()

    def test_healthz_reports_queue_and_workers(self, harness):
        harness.client.solve(grid_request())
        health = harness.client.healthz()
        assert health["status"] == "ok"
        assert health["queue_depth"] == 1
        assert health["workers_alive"] == 2
        assert health["jobs"]["queued"] == 1

    def test_healthz_degrades_when_the_expected_fleet_is_dead(self, store):
        with ServerHarness(
            store, workers_alive=lambda: 0, expected_workers=2
        ) as harness:
            assert harness.client.healthz()["status"] == "degraded"

    def test_metrics_exposition_is_wellformed_prometheus(self, harness, store):
        harness.client.solve(grid_request())
        record = store.claim("w0")
        store.complete(record.digest, {})
        store.record_worker_stats(
            "w0", {"topology_cache_hits": 3, "topology_cache_misses": 1, "jobs_done": 1}
        )
        text = harness.client.metrics()
        lines = text.strip().splitlines()
        samples = [line for line in lines if not line.startswith("#")]
        for line in samples:
            name_part, value = line.rsplit(" ", 1)
            float(value)  # every sample line ends in a number
            assert name_part.startswith("repro_")
        assert 'repro_jobs_total{state="done"} 1' in lines
        assert "repro_topology_cache_hits_total 3" in lines
        assert "repro_topology_cache_misses_total 1" in lines
        assert "repro_solve_latency_seconds_count 1" in lines
        bucket_lines = [l for l in lines if "solve_latency_seconds_bucket" in l]
        assert bucket_lines[-1].startswith('repro_solve_latency_seconds_bucket{le="+Inf"}')

    def test_metric_families_are_stable(self, harness):
        """Dashboards key on these names and types; a change here breaks them."""
        text = harness.client.metrics()
        families = [line.split()[2:4] for line in text.splitlines() if line.startswith("# TYPE")]
        assert families == [
            ["repro_jobs_total", "gauge"],
            ["repro_queue_depth", "gauge"],
            ["repro_workers_alive", "gauge"],
            ["repro_worker_utilization", "gauge"],
            ["repro_uptime_seconds", "gauge"],
            ["repro_store_schema_version", "gauge"],
            ["repro_envelope_cache_size", "gauge"],
            ["repro_http_requests_total", "counter"],
            ["repro_submissions_total", "counter"],
            ["repro_dedup_hits_total", "counter"],
            ["repro_fast_path_hits_total", "counter"],
            ["repro_http_connections_total", "counter"],
            ["repro_keepalive_reuse_total", "counter"],
            ["repro_envelope_cache_hits_total", "counter"],
            ["repro_envelope_cache_misses_total", "counter"],
            ["repro_slow_requests_total", "counter"],
            ["repro_slow_request_threshold_seconds", "gauge"],
            ["repro_solve_latency_seconds", "histogram"],
            ["repro_queue_wait_seconds", "histogram"],
            ["repro_serialize_seconds", "histogram"],
            ["repro_served_latency_seconds", "histogram"],
            ["repro_fleet_jobs_done_total", "counter"],
            ["repro_fleet_jobs_failed_total", "counter"],
            ["repro_fleet_busy_seconds_total", "counter"],
            ["repro_claim_batches_total", "counter"],
            ["repro_claim_batch_jobs_total", "counter"],
            ["repro_topology_cache_hits_total", "counter"],
            ["repro_topology_cache_misses_total", "counter"],
            ["repro_solver_lp_solves_total", "counter"],
            ["repro_solver_milp_solves_total", "counter"],
            ["repro_solver_solve_seconds_total", "counter"],
            ["repro_solver_incumbent_seeds_total", "counter"],
            ["repro_portfolio_stage1_total", "counter"],
            ["repro_portfolio_upgrades_total", "counter"],
            ["repro_portfolio_proven_total", "counter"],
            ["repro_portfolio_exact_total", "counter"],
            ["repro_portfolio_proven_fraction", "gauge"],
        ]

    def test_http_request_counter_labels_jobs_uniformly(self, harness):
        submitted = harness.client.solve(grid_request())
        harness.client.job(submitted["job"]["digest"])
        with pytest.raises(ServiceError):
            harness.client.job("0" * 64)
        counters = harness.server.http_requests
        assert counters[("/v1/jobs", 200)] == 1
        assert counters[("/v1/jobs", 404)] == 1
        assert counters[("/v1/solve", 202)] == 1

    def test_metrics_content_type_is_text(self, harness):
        with urllib.request.urlopen(
            f"{harness.client.base_url}/metrics", timeout=5
        ) as response:
            assert response.headers.get("Content-Type", "").startswith("text/plain")
            json.dumps(response.read().decode())  # readable text


def _post_raw(base_url: str, path: str, payload: dict):
    """POST and return (status, raw body bytes) — for byte-equality checks."""
    request = urllib.request.Request(
        f"{base_url}{path}",
        data=json.dumps(payload).encode("utf-8"),
        method="POST",
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=5) as response:
        return response.status, response.read()


def _complete_via_worker(store: JobStore, digest: str, result: dict) -> None:
    record = store.claim("w0")
    assert record is not None and record.digest == digest
    assert store.complete(digest, result, worker="w0")


class TestFastPath:
    def test_done_submission_is_byte_equal_to_the_uncached_envelope(self, harness, store):
        harness.client.solve(grid_request())
        _complete_via_worker(store, grid_request().digest(), {"answer": 42})
        status, raw = _post_raw(
            harness.client.base_url, "/v1/solve", grid_request().to_dict()
        )
        assert status == 200
        expected = json.dumps(
            {
                "job": store.get(grid_request().digest()).to_dict(include_request=False),
                "deduplicated": True,
            },
            indent=2,
        ).encode("utf-8")
        assert raw == expected
        # the second hit comes straight from the LRU — still byte-equal
        status, again = _post_raw(
            harness.client.base_url, "/v1/solve", grid_request().to_dict()
        )
        assert status == 200 and again == expected
        assert harness.server.envelope_cache_hits >= 1

    def test_job_view_of_a_done_digest_is_byte_equal_from_cache(self, harness, store):
        harness.client.solve(grid_request())
        digest = grid_request().digest()
        _complete_via_worker(store, digest, {"answer": 1})
        expected = json.dumps(
            {"job": store.get(digest).to_dict()}, indent=2
        ).encode("utf-8")
        for _ in range(2):  # miss then hit
            with urllib.request.urlopen(
                f"{harness.client.base_url}/v1/jobs/{digest}", timeout=5
            ) as response:
                assert response.read() == expected

    def test_fast_path_counts_without_touching_the_queue(self, harness, store):
        harness.client.solve(grid_request())
        _complete_via_worker(store, grid_request().digest(), {})
        depth_before = store.queue_depth()
        response = harness.client.solve(grid_request())
        assert response["deduplicated"] is True
        assert harness.server.fast_path_hits == 1
        assert harness.server.dedup_hits == 1
        assert store.queue_depth() == depth_before

    def test_pending_dedup_is_not_a_fast_path_hit(self, harness):
        harness.client.solve(grid_request())
        response = harness.client.solve(grid_request())  # still queued
        assert response["deduplicated"] is True
        assert harness.server.dedup_hits == 1
        assert harness.server.fast_path_hits == 0

    def test_batch_fast_paths_done_digests(self, harness, store):
        harness.client.solve(grid_request(seed=1))
        _complete_via_worker(store, grid_request(seed=1).digest(), {"done": True})
        depth_before = store.queue_depth()
        response = harness.client.batch([grid_request(seed=1), grid_request(seed=2)])
        flags = [job["deduplicated"] for job in response["jobs"]]
        assert flags == [True, False]
        assert harness.server.fast_path_hits == 1
        assert store.queue_depth() == depth_before + 1  # only the fresh job queued

    def test_envelope_cache_is_bounded(self, store):
        with ServerHarness(
            store, workers_alive=lambda: 1, envelope_cache_size=1
        ) as harness:
            for seed in (1, 2):
                harness.client.solve(grid_request(seed=seed))
                _complete_via_worker(store, grid_request(seed=seed).digest(), {})
                harness.client.solve(grid_request(seed=seed))
            assert len(harness.server._done_cache) == 1
            assert harness.server.envelope_cache_misses == 2


class TestPortfolioCacheability:
    """Pending portfolio envelopes are served fresh, never memoised."""

    def _pending(self) -> dict:
        return {"results": [], "portfolio": {"stage": "heuristic", "pending": ["OPT"]}}

    def _final(self) -> dict:
        return {"results": [], "portfolio": {"stage": "exact", "pending": []}}

    def test_cacheable_judges_the_pending_annotation(self, store):
        store.submit(grid_request())
        record = store.claim("w0")
        store.complete(record.digest, self._pending(), worker="w0")
        assert not RecoveryServer._cacheable(store.get(record.digest))
        store.upgrade_result(record.digest, self._final(), worker="w0")
        assert RecoveryServer._cacheable(store.get(record.digest))

    def test_pending_envelope_is_not_fast_path_cached(self, harness, store):
        """A done-but-pending row must be re-read so upgrades are visible."""
        harness.client.solve(grid_request())
        digest = grid_request().digest()
        _complete_via_worker(store, digest, self._pending())

        response = harness.client.solve(grid_request())  # dedup of a pending row
        assert response["deduplicated"] is True
        assert response["job"]["result"]["portfolio"]["pending"] == ["OPT"]
        assert harness.server.fast_path_hits == 0
        assert digest not in harness.server._done_cache

        # the in-place upgrade is immediately visible to clients
        assert store.upgrade_result(digest, self._final(), worker="w0")
        view = harness.client.job(digest)
        assert view["result"]["portfolio"]["stage"] == "exact"
        upgraded = harness.client.solve(grid_request())
        assert upgraded["job"]["result"]["portfolio"]["pending"] == []
        assert harness.server.fast_path_hits >= 1


class TestKeepAlive:
    def test_one_connection_serves_many_requests(self, harness):
        for _ in range(3):
            harness.client.healthz()
        assert harness.server.connections_total == 1
        assert harness.server.keepalive_reuse == 2

    def test_connection_close_header_is_honored(self, harness):
        # urllib sends Connection: close, so every request is a new socket
        for _ in range(2):
            with urllib.request.urlopen(
                f"{harness.client.base_url}/healthz", timeout=5
            ) as response:
                assert response.headers.get("Connection") == "close"
        assert harness.server.connections_total == 2
        assert harness.server.keepalive_reuse == 0

    def test_client_survives_a_server_side_idle_close(self, store):
        import time as _time

        with ServerHarness(
            store, workers_alive=lambda: 1, idle_timeout=0.2
        ) as harness:
            assert harness.client.healthz()["status"] == "ok"
            _time.sleep(0.6)  # the daemon reaps the idle keep-alive socket
            assert harness.client.healthz()["status"] == "ok"  # retried on a fresh one
            assert harness.server.connections_total == 2


class TestEnqueueNotification:
    def test_on_enqueue_fires_only_for_fresh_queue_work(self, store):
        nudges = []
        with ServerHarness(
            store, workers_alive=lambda: 1, on_enqueue=lambda: nudges.append(1)
        ) as harness:
            harness.client.solve(grid_request(seed=1))
            assert len(nudges) == 1
            harness.client.solve(grid_request(seed=1))  # dedup: nothing enqueued
            assert len(nudges) == 1
            harness.client.batch([grid_request(seed=2), grid_request(seed=3)])
            assert len(nudges) == 2  # one nudge per batch, not per item


class TestReadiness:
    def test_workers_ready_counts_stats_beacons(self, store):
        with ServerHarness(
            store,
            workers_alive=lambda: 2,
            worker_ids=lambda: ["w-a", "w-b"],
        ) as harness:
            assert harness.client.healthz()["workers_ready"] == 0
            store.record_worker_stats("w-a", {"jobs_done": 0})
            assert harness.client.healthz()["workers_ready"] == 1
            store.record_worker_stats("w-b", {"jobs_done": 0})
            store.record_worker_stats("w-stale", {"jobs_done": 0})  # not in the fleet
            assert harness.client.healthz()["workers_ready"] == 2

    def test_new_counters_appear_in_metrics(self, harness, store):
        harness.client.solve(grid_request())
        _complete_via_worker(store, grid_request().digest(), {})
        harness.client.solve(grid_request())
        text = harness.client.metrics()
        for name in (
            "repro_fast_path_hits_total",
            "repro_http_connections_total",
            "repro_keepalive_reuse_total",
            "repro_envelope_cache_hits_total",
            "repro_envelope_cache_misses_total",
            "repro_envelope_cache_size",
            "repro_claim_batches_total",
            "repro_claim_batch_jobs_total",
        ):
            assert name in text
        assert "repro_fast_path_hits_total 1" in text


def _raw_call(base_url: str, path: str, payload=None, trace_header=None):
    """(status, body bytes, headers) with an optional inbound trace header."""
    headers = {"Content-Type": "application/json"}
    if trace_header is not None:
        headers[TRACE_HEADER] = trace_header
    request = urllib.request.Request(
        f"{base_url}{path}",
        data=json.dumps(payload).encode("utf-8") if payload is not None else None,
        method="POST" if payload is not None else "GET",
        headers=headers,
    )
    with urllib.request.urlopen(request, timeout=5) as response:
        return response.status, response.read(), dict(response.headers)


class TestTracing:
    """The cross-process trace surface: header echo, persistence, /v1/trace."""

    def test_every_response_echoes_a_minted_trace_id(self, harness):
        status, _, headers = _raw_call(
            harness.client.base_url, "/v1/solve", grid_request().to_dict()
        )
        assert status == 202
        minted = headers.get(TRACE_HEADER)
        assert normalize_trace_id(minted) == minted  # well-formed, usable

    def test_inbound_trace_id_is_accepted_and_stamped_on_the_job(self, harness, store):
        status, body, headers = _raw_call(
            harness.client.base_url,
            "/v1/solve",
            grid_request().to_dict(),
            trace_header="caller-trace-0001",
        )
        assert status == 202
        assert headers.get(TRACE_HEADER) == "caller-trace-0001"
        digest = json.loads(body)["job"]["digest"]
        assert store.get(digest).trace_id == "caller-trace-0001"

    def test_garbage_inbound_trace_id_is_replaced_not_rejected(self, harness):
        status, _, headers = _raw_call(
            harness.client.base_url,
            "/v1/solve",
            grid_request().to_dict(),
            trace_header="bad header!!",
        )
        assert status == 202  # tracing never 400s
        echoed = headers.get(TRACE_HEADER)
        assert echoed and echoed != "bad header!!"

    def test_trace_endpoint_merges_frontend_and_worker_sources(self, harness, store):
        _raw_call(
            harness.client.base_url,
            "/v1/solve",
            grid_request().to_dict(),
            trace_header="caller-trace-0002",
        )
        digest = grid_request().digest()
        # a worker would persist its own tree after executing the job
        store.save_spans(
            digest,
            "worker",
            {
                "trace_id": "caller-trace-0002",
                "pid": 99,
                "spans": [{"name": "worker.execute", "wall_seconds": 0.2, "cpu_seconds": 0.2}],
                "dropped_spans": 0,
            },
            trace_id="caller-trace-0002",
        )
        doc = harness.client.trace(digest)
        assert doc["digest"] == digest
        assert doc["trace_id"] == "caller-trace-0002"
        assert set(doc["sources"]) == {"frontend", "worker"}
        frontend_roots = [node["name"] for node in doc["sources"]["frontend"]["spans"]]
        assert frontend_roots == ["http.request"]
        children = {
            node["name"]
            for node in doc["sources"]["frontend"]["spans"][0].get("children", [])
        }
        assert {"http.read", "http.parse", "http.enqueue"} <= children
        assert doc["sources"]["frontend"]["trace_id"] == "caller-trace-0002"
        # the merged doc renders (smoke: the CLI path consumes exactly this)
        assert "worker.execute" in render_trace(doc)

    def test_trace_of_an_unknown_digest_is_a_404(self, harness):
        with pytest.raises(ServiceError) as excinfo:
            harness.client.trace("0" * 64)
        assert excinfo.value.status == 404
        assert harness.server.http_requests[("/v1/trace", 404)] == 1

    def test_trace_requests_count_under_a_normalized_path(self, harness):
        harness.client.solve(grid_request())
        harness.client.trace(grid_request().digest())
        assert harness.server.http_requests[("/v1/trace", 200)] == 1

    def test_batch_persists_the_shared_trace_under_each_fresh_digest(
        self, harness, store
    ):
        _raw_call(
            harness.client.base_url,
            "/v1/batch",
            {"requests": [grid_request(seed=1).to_dict(), grid_request(seed=2).to_dict()]},
            trace_header="caller-batch-0001",
        )
        for seed in (1, 2):
            digest = grid_request(seed=seed).digest()
            assert store.get(digest).trace_id == "caller-batch-0001"
            sources = store.load_spans(digest)
            assert sources["frontend"]["trace_id"] == "caller-batch-0001"

    def test_trace_header_never_perturbs_the_digest(self, harness, store):
        """Golden: same request with three different trace headers, one job."""
        digests = set()
        for trace_header in (None, "caller-trace-000a", "caller-trace-000b"):
            _, body, _ = _raw_call(
                harness.client.base_url,
                "/v1/solve",
                grid_request(seed=5).to_dict(),
                trace_header=trace_header,
            )
            digests.add(json.loads(body)["job"]["digest"])
        assert digests == {grid_request(seed=5).digest()}
        assert store.queue_depth() == 1

    def test_fast_path_bodies_stay_byte_identical_across_trace_ids(
        self, harness, store
    ):
        """Golden: telemetry rides the header; cached bodies never vary."""
        harness.client.solve(grid_request())
        _complete_via_worker(store, grid_request().digest(), {"answer": 42})
        bodies = set()
        for trace_header in ("caller-trace-00aa", "caller-trace-00bb", None):
            status, body, headers = _raw_call(
                harness.client.base_url,
                "/v1/solve",
                grid_request().to_dict(),
                trace_header=trace_header,
            )
            assert status == 200
            if trace_header:  # the echo still works on cached serves
                assert headers.get(TRACE_HEADER) == trace_header
            bodies.add(body)
        # the envelope carries the *job row's* trace_id (set at creation),
        # which is identical however later fetches are traced
        assert len(bodies) == 1
        assert harness.server.envelope_cache_hits >= 1


class TestStageMetrics:
    def test_healthz_reports_queue_and_workers(self, harness):
        health = harness.client.healthz()
        assert set(health) == {
            "status",
            "uptime_seconds",
            "queue_depth",
            "jobs",
            "workers_alive",
            "workers_ready",
            "max_queue_depth",
        }
        assert health["queue_depth"] == 0

    def test_stage_histograms_appear_after_a_completed_job(self, harness, store):
        harness.client.solve(grid_request())
        _complete_via_worker(store, grid_request().digest(), {"answer": 1})
        text = harness.client.metrics()
        for name in (
            "repro_queue_wait_seconds",
            "repro_serialize_seconds",
            "repro_served_latency_seconds",
        ):
            assert f"{name}_count 1" in text
            assert f'{name}_bucket{{le="+Inf"}} 1' in text
            assert f"{name}_sum" in text

    def test_slow_request_counter_and_threshold_gauge(self, store):
        with ServerHarness(
            store, workers_alive=lambda: 1, slow_request_threshold=1e-9
        ) as harness:
            harness.client.solve(grid_request())  # any request is "slow" now
            assert harness.server.slow_requests >= 1
            text = harness.client.metrics()
            assert "repro_slow_requests_total" in text
            assert "repro_slow_request_threshold_seconds 1e-09" in text

    def test_default_threshold_keeps_fast_requests_unflagged(self, harness):
        harness.client.solve(grid_request())
        assert harness.server.slow_requests == 0
