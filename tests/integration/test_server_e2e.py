"""End-to-end tests of the recovery daemon.

These boot the real thing — ``repro.cli serve`` as a subprocess with worker
processes attached — and drive it through the public HTTP protocol, so
they cover exactly the deployment shape of the CI smoke job:

* a served solve returns the same envelope the in-process service returns;
* restarting the daemon mid-queue loses no accepted job (durability);
* ``kill -9`` on a worker mid-job leaves a requeueable ``running`` row
  which the next startup returns to the queue (crash recovery);
* the load harness completes against a live daemon with zero failures and
  writes a well-formed ``BENCH_server.json``.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.api.requests import (
    DemandSpec,
    DisruptionSpec,
    RecoveryRequest,
    TopologySpec,
)
from repro.api.service import RecoveryService
from repro.server.client import ServiceClient
from repro.server.loadtest import run_loadtest
from repro.server.stores import JobStore
from repro.server.workers import HOLD_ENV_VAR, worker_loop

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def grid_request(seed: int = 1) -> RecoveryRequest:
    return RecoveryRequest(
        topology=TopologySpec("grid", kwargs={"rows": 3, "cols": 3}),
        disruption=DisruptionSpec("complete"),
        demand=DemandSpec(num_pairs=1, flow_per_pair=5.0),
        algorithms=("ISP",),
        seed=seed,
    )


def subprocess_env(**extra: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env.update(extra)
    return env


class Daemon:
    """A ``repro.cli serve`` subprocess bound to a temp store."""

    def __init__(self, db: Path, workers: int = 1, port: int = 0) -> None:
        self.db = db
        self.port = port or free_port()
        self.workers = workers
        self.process: subprocess.Popen = None
        self.client = ServiceClient(f"http://127.0.0.1:{self.port}", timeout=10.0)

    def __enter__(self) -> "Daemon":
        self.process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "serve",
                "--db",
                str(self.db),
                "--port",
                str(self.port),
                "--workers",
                str(self.workers),
                "--poll-interval",
                "0.05",
            ],
            env=subprocess_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
        )
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"daemon exited early: {self.process.stderr.read().decode()}"
                )
            try:
                self.client.healthz()
                return self
            except OSError:
                time.sleep(0.2)
        raise RuntimeError("daemon did not become healthy in 60s")

    def __exit__(self, *_: object) -> None:
        self.stop()

    def stop(self, timeout: float = 30.0) -> None:
        if self.process is None or self.process.poll() is not None:
            return
        self.process.send_signal(signal.SIGTERM)
        try:
            self.process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait(timeout=5)


class TestServedSolve:
    def test_served_envelope_matches_in_process_service(self, tmp_path):
        request = grid_request(seed=11)
        with Daemon(tmp_path / "jobs.db") as daemon:
            submitted = daemon.client.solve(request)
            assert submitted["deduplicated"] is False
            view = daemon.client.wait(submitted["job"]["digest"], timeout=60)
        assert view["state"] == "done"
        served = view["result"]

        direct = RecoveryService().solve(request).to_dict()
        assert served["kind"] == "recovery-result"
        assert served["request"] == direct["request"]
        assert served["broken_elements"] == direct["broken_elements"]
        served_runs = {run["algorithm"]: run for run in served["results"]}
        direct_runs = {run["algorithm"]: run for run in direct["results"]}
        assert served_runs.keys() == direct_runs.keys()
        for name, run in direct_runs.items():
            assert served_runs[name]["plan"] == run["plan"]
            for key, value in run["metrics"].items():
                if key == "elapsed_seconds":
                    continue  # wall clock differs between processes
                assert served_runs[name]["metrics"][key] == pytest.approx(value)

    def test_healthz_and_metrics_reflect_the_served_job(self, tmp_path):
        with Daemon(tmp_path / "jobs.db") as daemon:
            submitted = daemon.client.solve(grid_request(seed=3))
            daemon.client.wait(submitted["job"]["digest"], timeout=60)
            health = daemon.client.healthz()
            assert health["jobs"]["done"] == 1
            assert health["workers_alive"] == 1
            metrics = daemon.client.metrics()
        assert 'repro_jobs_total{state="done"} 1' in metrics
        assert "repro_fleet_jobs_done_total 1" in metrics
        assert "repro_topology_cache_misses_total 1" in metrics


class TestDurability:
    def test_restart_mid_queue_loses_no_accepted_job(self, tmp_path):
        """Accepted jobs survive a daemon stop/start cycle and all finish."""
        db = tmp_path / "jobs.db"
        requests = [grid_request(seed=seed) for seed in range(1, 6)]
        with Daemon(db, workers=1) as daemon:
            for request in requests:
                daemon.client.solve(request)
            # stop immediately: most of the queue is still pending
        with JobStore(db) as store:
            assert sum(store.counts().values()) == len(requests)
            assert store.counts()["done"] < len(requests)
        with Daemon(db, workers=2) as daemon:
            for request in requests:
                view = daemon.client.wait(request.digest(), timeout=90)
                assert view["state"] == "done"
        with JobStore(db) as store:
            assert store.counts()["done"] == len(requests)
            assert store.counts()["failed"] == 0


class TestWorkerCrashRecovery:
    def test_kill9_mid_job_leaves_a_requeueable_running_row(self, tmp_path):
        """SIGKILL a worker holding a job; the row must requeue and finish."""
        db = tmp_path / "jobs.db"
        request = grid_request(seed=21)
        with JobStore(db) as store:
            store.submit(request)

        worker = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.server.workers",
                "--db",
                str(db),
                "--worker-id",
                "doomed",
                "--poll-interval",
                "0.05",
            ],
            env=subprocess_env(**{HOLD_ENV_VAR: "60"}),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            with JobStore(db) as store:
                deadline = time.monotonic() + 30
                while time.monotonic() < deadline:
                    record = store.get(request.digest())
                    if record.state == "running":
                        break
                    time.sleep(0.05)
                assert record.state == "running", "worker never claimed the job"

                os.kill(worker.pid, signal.SIGKILL)
                worker.wait(timeout=10)

                # the kill-9'd worker left a requeueable running row
                orphan = store.get(request.digest())
                assert orphan.state == "running"
                assert orphan.worker == "doomed"
                assert store.requeue_orphans() == 1
                requeued = store.get(request.digest())
                assert requeued.state == "queued"
                assert requeued.attempts == 1
        finally:
            if worker.poll() is None:
                worker.kill()
                worker.wait(timeout=10)

        # a fresh worker executes the requeued job to completion
        handled = worker_loop(str(db), "rescuer", max_jobs=2)
        assert handled == 1
        with JobStore(db) as store:
            final = store.get(request.digest())
            assert final.state == "done"
            assert final.worker == "rescuer"
            assert final.attempts == 2


class TestLoadtest:
    def test_loadtest_round_trip_produces_a_wellformed_bench(self, tmp_path):
        out = tmp_path / "BENCH_server.json"
        with Daemon(tmp_path / "jobs.db", workers=2) as daemon:
            report = run_loadtest(
                daemon.client.base_url,
                rps=8.0,
                duration=2.0,
                distinct=4,
                seed=7,
                out=str(out),
                wait_timeout=90.0,
            )
        assert report.ok, report.failures
        assert report.failed_jobs == 0
        assert report.errors == 0
        assert report.completed_jobs == report.unique_jobs > 0
        assert report.dedup_hits > 0  # 16 submissions cycled over 4 requests
        assert report.dedup_hit_rate > 0.5

        payload = json.loads(out.read_text())
        assert payload["kind"] == "server-bench"
        assert payload["ok"] is True
        assert payload["achieved_rps"] > 0
        for population in ("submit_latency", "job_latency"):
            assert set(payload[population]) == {"p50", "p95", "p99"}
            assert payload[population]["p50"] <= payload[population]["p99"]

    def test_loadtest_rejects_a_bad_space_and_rates(self, tmp_path):
        with pytest.raises(KeyError, match="unknown scenario space"):
            run_loadtest("http://127.0.0.1:1", rps=1, duration=1, space="galaxy")
        with pytest.raises(ValueError, match="--rps"):
            run_loadtest("http://127.0.0.1:1", rps=0, duration=1)
        with pytest.raises(ValueError, match="--duration"):
            run_loadtest("http://127.0.0.1:1", rps=1, duration=0)
