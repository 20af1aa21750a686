"""In-process tests of the daemon coroutine and the serve/loadtest CLI glue."""

import asyncio
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.api.requests import (
    DemandSpec,
    DisruptionSpec,
    RecoveryRequest,
    TopologySpec,
)
from repro.cli import main
from repro.server.client import ServiceClient
from repro.server.daemon import ServerConfig, serve
from repro.server.stores import REMOVED_LAYOUT_MESSAGE, JobStore
from repro.server.workers import worker_loop

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")


def grid_request(seed: int = 1) -> RecoveryRequest:
    return RecoveryRequest(
        topology=TopologySpec("grid", kwargs={"rows": 3, "cols": 3}),
        disruption=DisruptionSpec("complete"),
        demand=DemandSpec(num_pairs=1, flow_per_pair=5.0),
        algorithms=("ISP",),
        seed=seed,
    )


class TestServeCoroutine:
    def test_serve_requeues_orphans_before_workers_start(self, tmp_path, capsys):
        """A crashed run's ``running`` job is queued again by the next boot."""
        db = tmp_path / "jobs.db"
        with JobStore(db) as store:
            store.submit(grid_request(seed=4))
            assert store.claim("crashed-worker") is not None  # orphan it

        config = ServerConfig(db=str(db), port=0, workers=1, poll_interval=0.05)

        async def boot_and_cancel() -> None:
            ready = asyncio.Event()
            task = asyncio.ensure_future(serve(config, ready=ready))
            await asyncio.wait_for(ready.wait(), timeout=30)
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task

        asyncio.run(boot_and_cancel())
        stderr = capsys.readouterr().err
        assert "requeued 1 orphaned running job(s)" in stderr
        assert "repro.server listening on" in stderr
        assert "drained and stopped" in stderr
        with JobStore(db) as store:
            # the worker may or may not have finished it before the drain,
            # but the orphan is never stuck in 'running' after shutdown
            assert store.get(grid_request(seed=4).digest()).state in ("queued", "done")

    def test_a_stale_topology_cache_variable_neither_stops_the_boot_nor_a_worker(
        self, tmp_path, monkeypatch
    ):
        """``$REPRO_TOPOLOGY_CACHE`` is read by nothing: a value that once
        failed the boot before any worker spawned now boots a daemon whose
        worker (which inherits the variable) serves the queue."""
        monkeypatch.setenv("REPRO_TOPOLOGY_CACHE", "banana")
        db = tmp_path / "jobs.db"
        with JobStore(db) as store:
            store.submit(grid_request(seed=5))
        digest = grid_request(seed=5).digest()
        config = ServerConfig(db=str(db), port=0, workers=1, poll_interval=0.05)

        async def boot_serve_and_cancel() -> str:
            ready = asyncio.Event()
            task = asyncio.ensure_future(serve(config, ready=ready))
            await asyncio.wait_for(ready.wait(), timeout=30)
            deadline = time.monotonic() + 30
            with JobStore(db) as store:
                while store.get(digest).state != "done" and time.monotonic() < deadline:
                    await asyncio.sleep(0.05)
                state = store.get(digest).state
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
            return state

        assert asyncio.run(boot_serve_and_cancel()) == "done"


class TestCliServe:
    def test_serve_rejects_bad_worker_count(self, tmp_path):
        with pytest.raises(SystemExit, match="--workers"):
            main(["serve", "--db", str(tmp_path / "x.db"), "--workers", "0"])

    def test_serve_rejects_bad_queue_depth(self, tmp_path):
        with pytest.raises(SystemExit, match="--max-queue-depth"):
            main(["serve", "--db", str(tmp_path / "x.db"), "--max-queue-depth", "0"])

    def test_serve_rejects_bad_claim_batch(self, tmp_path):
        with pytest.raises(SystemExit, match="--claim-batch"):
            main(["serve", "--db", str(tmp_path / "x.db"), "--claim-batch", "0"])

    @pytest.mark.parametrize("shards", ["0", "2", "4"])
    def test_serve_refuses_every_shards_value_but_one(self, tmp_path, shards):
        with pytest.raises(SystemExit, match="5e2b833") as refused:
            main(["serve", "--db", str(tmp_path / "x.db"), "--shards", shards])
        assert str(refused.value) == f"--shards {shards}: {REMOVED_LAYOUT_MESSAGE}"

    def test_serve_refuses_a_store_directory(self, tmp_path):
        store_dir = tmp_path / "fleet.db"
        store_dir.mkdir()
        with pytest.raises(SystemExit, match="5e2b833") as refused:
            main(["serve", "--db", str(store_dir), "--port", "0"])
        assert REMOVED_LAYOUT_MESSAGE in str(refused.value)
        assert list(store_dir.iterdir()) == []

    def test_serve_accepts_one_shard_and_prints_the_readiness_line(self, tmp_path):
        """``perfbench/served.py`` launches ``serve --shards 1 --port 0`` and
        reads the port from this line, trailing space included."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [REPO_SRC, env.get("PYTHONPATH")]))
        log = tmp_path / "serve.log"
        readiness = re.compile(rb"repro\.server listening on http://[^:\s]+:(\d+) ")
        with open(log, "wb") as sink:
            daemon = subprocess.Popen(
                [
                    sys.executable, "-m", "repro.cli", "serve",
                    "--db", str(tmp_path / "jobs.db"),
                    "--port", "0", "--workers", "1", "--shards", "1",
                ],
                env=env,
                stdout=subprocess.DEVNULL,
                stderr=sink,
            )
        try:
            deadline = time.monotonic() + 60
            while not readiness.search(log.read_bytes()):
                assert daemon.poll() is None, log.read_text()
                assert time.monotonic() < deadline, "serve never printed its readiness line"
                time.sleep(0.05)
        finally:
            daemon.send_signal(signal.SIGTERM)
            try:
                daemon.wait(timeout=60)
            except subprocess.TimeoutExpired:
                daemon.kill()
                daemon.wait(timeout=5)


class TestArrivalModels:
    def test_uniform_offsets_pace_evenly(self):
        from repro.server.loadtest import arrival_offsets

        assert arrival_offsets(5, 10.0) == [0.0, 0.1, 0.2, 0.3, 0.4]

    def test_bursty_offsets_are_deterministic_and_monotone(self):
        from repro.server.loadtest import arrival_offsets

        first = arrival_offsets(300, 25.0, arrival="bursty", seed=11)
        assert first == arrival_offsets(300, 25.0, arrival="bursty", seed=11)
        assert first != arrival_offsets(300, 25.0, arrival="bursty", seed=12)
        assert first == sorted(first)
        assert len(first) == 300

    def test_bursty_offsets_keep_the_long_run_rate(self):
        from repro.server.loadtest import arrival_offsets

        offsets = arrival_offsets(1000, 50.0, arrival="bursty", seed=3)
        rate = len(offsets) / offsets[-1]
        assert 30.0 < rate < 85.0  # ~50 rps, delivered in spikes

    def test_bursty_offsets_actually_burst(self):
        from repro.server.loadtest import arrival_offsets

        offsets = arrival_offsets(200, 20.0, arrival="bursty", seed=5)
        simultaneous = len(offsets) - len(set(offsets))
        assert simultaneous > 50  # many arrivals share a burst instant

    def test_unknown_arrival_model_is_rejected(self):
        from repro.server.loadtest import arrival_offsets, run_loadtest

        with pytest.raises(ValueError, match="unknown arrival model"):
            arrival_offsets(10, 5.0, arrival="diurnal")
        with pytest.raises(ValueError, match="unknown arrival model"):
            run_loadtest("http://127.0.0.1:1", rps=5, duration=1, arrival="diurnal")


class TestCliLoadtest:
    def test_loadtest_round_trip_against_inprocess_daemon(self, tmp_path, capsys):
        """`repro.cli loadtest` against a live in-process front end + worker."""
        db = tmp_path / "jobs.db"
        store = JobStore(db)

        ports = {}
        ready = threading.Event()
        stop_box = {}

        def front_end() -> None:
            from repro.server.http import RecoveryServer

            async def run() -> None:
                server = RecoveryServer(store, workers_alive=lambda: 1)
                await server.start(port=0)
                ports["port"] = server.port
                stop_box["loop"] = asyncio.get_running_loop()
                stop_box["stop"] = asyncio.Event()
                ready.set()
                await stop_box["stop"].wait()
                await server.stop()

            asyncio.run(run())

        class Flag:
            def __init__(self):
                self.value = False

            def set(self):
                self.value = True

            def is_set(self):
                return self.value

        flag = Flag()
        server_thread = threading.Thread(target=front_end, daemon=True)
        worker_thread = threading.Thread(
            target=worker_loop,
            args=(str(db), "w0"),
            kwargs={"poll_interval": 0.02, "stop": flag},
            daemon=True,
        )
        server_thread.start()
        assert ready.wait(timeout=10)
        worker_thread.start()
        try:
            out = tmp_path / "BENCH_server.json"
            code = main(
                [
                    "loadtest",
                    "--url",
                    f"http://127.0.0.1:{ports['port']}",
                    "--rps",
                    "10",
                    "--duration",
                    "1",
                    "--distinct",
                    "3",
                    "--seed",
                    "7",
                    "--out",
                    str(out),
                    "--json",
                ]
            )
            assert code == 0
            bench = json.loads(out.read_text())
            assert bench["ok"] is True
            assert bench["failed_jobs"] == 0
            assert bench["dedup_hits"] > 0
            printed = json.loads(capsys.readouterr().out)
            assert printed["kind"] == "server-bench"
        finally:
            flag.set()
            stop_box["loop"].call_soon_threadsafe(stop_box["stop"].set)
            server_thread.join(timeout=10)
            worker_thread.join(timeout=10)
            store.close()

    def test_loadtest_rejects_bad_scenario_space(self):
        with pytest.raises(SystemExit, match="unknown scenario space"):
            main(["loadtest", "--url", "http://127.0.0.1:1", "--scenario-space", "galaxy"])

    def test_loadtest_unreachable_daemon_exits_cleanly(self, tmp_path):
        code = main(
            [
                "loadtest",
                "--url",
                "http://127.0.0.1:9",
                "--rps",
                "3",
                "--duration",
                "1",
                "--distinct",
                "2",
                "--wait-timeout",
                "2",
                "--out",
                str(tmp_path / "bench.json"),
            ]
        )
        assert code == 1  # transport errors are reported, not crashed on


class TestLoadtestOverheadMeasurement:
    def test_measure_direct_records_the_overhead_ratio(self, tmp_path):
        """measure_direct adds the served-vs-direct trajectory fields."""
        from repro.server.loadtest import run_loadtest

        db = tmp_path / "jobs.db"
        store = JobStore(db)

        ports = {}
        ready = threading.Event()
        stop_box = {}

        def front_end() -> None:
            from repro.server.http import RecoveryServer

            async def run() -> None:
                server = RecoveryServer(store, workers_alive=lambda: 1)
                await server.start(port=0)
                ports["port"] = server.port
                stop_box["loop"] = asyncio.get_running_loop()
                stop_box["stop"] = asyncio.Event()
                ready.set()
                await stop_box["stop"].wait()
                await server.stop()

            asyncio.run(run())

        flag = threading.Event()
        server_thread = threading.Thread(target=front_end, daemon=True)
        worker_thread = threading.Thread(
            target=worker_loop,
            args=(str(db), "w0"),
            kwargs={"poll_interval": 0.02, "stop": flag},
            daemon=True,
        )
        server_thread.start()
        assert ready.wait(timeout=10)
        worker_thread.start()
        try:
            out = tmp_path / "BENCH_server.json"
            report = run_loadtest(
                f"http://127.0.0.1:{ports['port']}",
                rps=8,
                duration=0.5,
                distinct=2,
                seed=3,
                out=str(out),
                measure_direct=True,
            )
            assert report.ok
            assert report.served_solves_per_sec > 0
            assert report.direct_solves_per_sec > 0
            assert report.paced_vs_direct_pct is not None
            bench = json.loads(out.read_text())
            assert bench["schema_version"] == 2
            assert bench["direct_seconds"] > 0
            assert bench["paced_vs_direct_pct"] == pytest.approx(report.paced_vs_direct_pct)
            # the ratio is self-consistent with the recorded rates
            expected = (bench["direct_solves_per_sec"] / bench["served_solves_per_sec"] - 1) * 100
            assert bench["paced_vs_direct_pct"] == pytest.approx(expected)
        finally:
            flag.set()
            stop_box["loop"].call_soon_threadsafe(stop_box["stop"].set)
            server_thread.join(timeout=10)
            worker_thread.join(timeout=10)
            store.close()

    def test_plain_loadtest_leaves_direct_fields_empty(self, tmp_path):
        from repro.server.loadtest import LoadtestReport

        payload = LoadtestReport(target_rps=1.0, duration_seconds=1.0).to_dict()
        assert payload["direct_seconds"] == 0.0
        assert payload["paced_vs_direct_pct"] is None
