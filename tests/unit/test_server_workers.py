"""Unit tests of the worker loop, its wakeup channel and the worker fleet."""

import json
import multiprocessing
import os
import sqlite3
import threading
import time

import pytest

from repro.api.requests import (
    AssessmentRequest,
    DemandSpec,
    DisruptionSpec,
    RecoveryRequest,
    TopologySpec,
)
from repro.server.stores import JobStore, StoreSchemaError
from repro.server.workers import WakeupNotifier, WakeupReceiver, WorkerFleet, worker_loop


def grid_request(seed: int = 1) -> RecoveryRequest:
    return RecoveryRequest(
        topology=TopologySpec("grid", kwargs={"rows": 3, "cols": 3}),
        disruption=DisruptionSpec("complete"),
        demand=DemandSpec(num_pairs=1, flow_per_pair=5.0),
        algorithms=("ISP",),
        seed=seed,
    )


class TestWorkerLoop:
    def test_drain_mode_executes_the_queue_and_stores_envelopes(self, tmp_path):
        db = tmp_path / "jobs.db"
        with JobStore(db) as store:
            for seed in (1, 2):
                store.submit(grid_request(seed=seed))
            store.submit(
                AssessmentRequest(
                    topology=TopologySpec("grid", kwargs={"rows": 3, "cols": 3}),
                    disruption=DisruptionSpec("gaussian", kwargs={"variance": 2.0}),
                    seed=3,
                )
            )
        handled = worker_loop(str(db), "w0", max_jobs=10)
        assert handled == 3
        with JobStore(db) as store:
            assert store.counts() == {"queued": 0, "running": 0, "done": 3, "failed": 0}
            solve = store.get(grid_request(seed=1).digest())
            assert solve.result["kind"] == "recovery-result"
            assert solve.result["results"][0]["algorithm"] == "ISP"
            assessments = [
                record for record in store.jobs() if record.kind == "assessment"
            ]
            assert assessments[0].result["kind"] == "assessment-result"

    def test_worker_counters_reach_the_store(self, tmp_path):
        db = tmp_path / "jobs.db"
        with JobStore(db) as store:
            # the same deterministic topology twice: second solve hits the LRU
            store.submit(grid_request(seed=1))
            store.submit(grid_request(seed=2))
        worker_loop(str(db), "w0", max_jobs=10)
        with JobStore(db) as store:
            totals = store.worker_stats_totals()
        assert totals["jobs_done"] == 2
        assert totals["jobs_failed"] == 0
        assert totals["topology_cache_misses"] == 1
        assert totals["topology_cache_hits"] == 1
        assert totals["lp_solves"] > 0
        assert totals["busy_seconds"] > 0

    def test_portfolio_worker_upgrades_the_envelope_and_counts_stages(self, tmp_path):
        db = tmp_path / "jobs.db"
        staged = RecoveryRequest(
            topology=TopologySpec("grid", kwargs={"rows": 3, "cols": 3}),
            disruption=DisruptionSpec("complete"),
            demand=DemandSpec(num_pairs=1, flow_per_pair=5.0),
            algorithms=("ISP", "OPT"),
            seed=4,
            opt_time_limit=60.0,
        )
        with JobStore(db) as store:
            store.submit(staged)
            store.submit(grid_request(seed=5))  # ISP-only: nothing to race
        handled = worker_loop(str(db), "w0", max_jobs=10, portfolio=True)
        assert handled == 2
        with JobStore(db) as store:
            done = store.get(staged.digest())
            assert done.state == "done"
            marker = done.result["portfolio"]
            assert marker["stage"] == "exact"
            assert marker["pending"] == []
            assert marker["upgraded"] is True
            assert [run["algorithm"] for run in done.result["results"]] == ["ISP", "OPT"]
            assert done.result["results"][1]["plan"]["status"] == "optimal"
            # the unstaged job carries no portfolio annotation
            assert "portfolio" not in store.get(grid_request(seed=5).digest()).result
            totals = store.worker_stats_totals()
        assert totals["jobs_done"] == 2
        assert totals["portfolio_stage1"] == 1
        assert totals["portfolio_upgrades"] == 1
        assert totals["portfolio_exact"] == 1
        assert totals["portfolio_proven"] == 1
        assert totals["incumbent_seeds"] >= 1

    def test_unexecutable_job_is_failed_not_crashed(self, tmp_path):
        db = tmp_path / "jobs.db"
        with JobStore(db) as store:
            record, _ = store.submit(grid_request(seed=1))
            # corrupt the stored payload the way a schema drift would:
            # parsing fails at execution time, not at claim time
            store._conn.execute(
                "UPDATE jobs SET request = ? WHERE digest = ?",
                (json.dumps({"kind": "recovery"}), record.digest),
            )
        handled = worker_loop(str(db), "w0", max_jobs=10)
        assert handled == 1
        with JobStore(db) as store:
            failed = store.get(record.digest)
            assert failed.state == "failed"
            assert "topology" in failed.error  # the KeyError's traceback
            assert store.worker_stats_totals()["jobs_failed"] == 1

    def test_stop_event_ends_the_loop(self, tmp_path):
        db = tmp_path / "jobs.db"
        JobStore(db).close()

        class Flag:
            def __init__(self):
                self.value = False

            def set(self):
                self.value = True

            def is_set(self):
                return self.value

        flag = Flag()
        timer = threading.Timer(0.3, flag.set)
        timer.start()
        started = time.perf_counter()
        handled = worker_loop(str(db), "w0", poll_interval=0.01, stop=flag)
        timer.cancel()
        assert handled == 0
        assert time.perf_counter() - started < 5.0

    def test_a_store_directory_is_refused_before_any_work(self, tmp_path):
        """A directory was the removed sharded store's layout; it is not a store."""
        fleet = tmp_path / "fleet.db"
        fleet.mkdir()
        with pytest.raises(StoreSchemaError, match="5e2b833"):
            worker_loop(str(fleet), "w0", max_jobs=1)
        assert list(fleet.iterdir()) == []


class TestWorkerFleet:
    def test_fleet_validates_worker_count(self, tmp_path):
        with pytest.raises(ValueError, match="at least one worker"):
            WorkerFleet(str(tmp_path / "jobs.db"), workers=0)

    def test_fleet_drain_before_start_is_a_noop(self, tmp_path):
        fleet = WorkerFleet(str(tmp_path / "jobs.db"), workers=1)
        assert fleet.alive() == 0
        fleet.drain(timeout=1.0)

    def test_double_start_is_rejected(self, tmp_path):
        db = tmp_path / "jobs.db"
        JobStore(db).close()
        fleet = WorkerFleet(str(db), workers=1, poll_interval=0.05)
        fleet.start()
        try:
            assert fleet.alive() == 1
            assert len(fleet.pids()) == 1
            with pytest.raises(RuntimeError, match="already started"):
                fleet.start()
        finally:
            fleet.drain(timeout=15.0)
        assert fleet.alive() == 0


class TestPristineTopologies:
    """Each worker's in-process LRU is its one topology cache."""

    def test_each_worker_pays_its_own_cold_build(self, tmp_path):
        db = tmp_path / "jobs.db"
        with JobStore(db) as store:
            store.submit(grid_request(seed=1))
        worker_loop(str(db), "w0", max_jobs=1)
        with JobStore(db) as store:
            store.submit(grid_request(seed=2))  # the same grid, a new draw
        worker_loop(str(db), "w1", max_jobs=1)
        with JobStore(db) as store:
            assert store.counts()["done"] == 2
            totals = store.worker_stats_totals()
        # no pristine build crosses between workers: w1 built the grid again
        assert totals["topology_cache_misses"] == 2
        assert totals.get("topology_cache_hits", 0) == 0
        assert not [key for key in totals if key.startswith("warm_topology")]

    def test_a_store_left_with_sidecar_rows_is_served(self, tmp_path):
        """A file still at schema 4 carries the old ``topology_cache`` table
        (here with an unreadable row); the worker's open drops it and serves."""
        db = tmp_path / "jobs.db"
        with JobStore(db) as store:
            store.submit(grid_request(seed=1))
        conn = sqlite3.connect(db)
        conn.execute(
            "CREATE TABLE topology_cache (digest TEXT PRIMARY KEY, "
            "payload BLOB NOT NULL, created_at REAL NOT NULL)"
        )
        conn.execute(
            "INSERT INTO topology_cache VALUES ('bogus', ?, 1.0)",
            (sqlite3.Binary(b"not-a-pickle"),),
        )
        conn.execute("PRAGMA user_version=4")
        conn.commit()
        conn.close()
        assert worker_loop(str(db), "w0", max_jobs=1) == 1
        with JobStore(db) as store:
            assert store.counts()["done"] == 1
            assert store.worker_stats_totals()["topology_cache_misses"] == 1
        conn = sqlite3.connect(db)
        try:
            names = conn.execute("SELECT name FROM sqlite_master WHERE type = 'table'")
            assert "topology_cache" not in {name for (name,) in names}
        finally:
            conn.close()


class TestEventDrivenDispatch:
    def test_stop_event_wait_ends_an_idle_sleep_immediately(self, tmp_path):
        """SIGTERM mid-sleep must not wait out the poll interval."""
        db = tmp_path / "jobs.db"
        JobStore(db).close()
        stop = threading.Event()
        timer = threading.Timer(0.3, stop.set)
        timer.start()
        started = time.perf_counter()
        # a 30s poll interval: only the event's wait() can end this promptly
        handled = worker_loop(str(db), "w0", poll_interval=30.0, stop=stop)
        timer.cancel()
        assert handled == 0
        assert time.perf_counter() - started < 5.0

    def test_wakeup_channel_wakes_an_idle_worker(self, tmp_path):
        db = tmp_path / "jobs.db"
        JobStore(db).close()
        reader, writer = multiprocessing.get_context("spawn").Pipe(duplex=False)
        notifier = WakeupNotifier()
        notifier.attach(writer)
        stop = threading.Event()
        handled_box = []

        def run() -> None:
            handled_box.append(
                worker_loop(
                    str(db),
                    "w0",
                    poll_interval=30.0,
                    stop=stop,
                    wakeup=WakeupReceiver(reader),
                )
            )

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        time.sleep(0.5)  # the worker is now parked in its 30s idle wait
        with JobStore(db) as store:
            store.submit(grid_request(seed=1))
        notifier.notify()
        deadline = time.monotonic() + 15
        with JobStore(db) as store:
            while time.monotonic() < deadline:
                if store.counts()["done"] == 1:
                    break
                time.sleep(0.05)
            assert store.counts()["done"] == 1, "nudge did not wake the worker"
        stop.set()
        notifier.notify()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert handled_box == [1]
        notifier.close()

    def test_batched_claims_drain_a_burst_in_few_round_trips(self, tmp_path):
        db = tmp_path / "jobs.db"
        with JobStore(db) as store:
            for seed in range(5):
                store.submit(grid_request(seed=seed + 1))
        handled = worker_loop(str(db), "w0", max_jobs=10, claim_batch=4)
        assert handled == 5
        with JobStore(db) as store:
            totals = store.worker_stats_totals()
            assert store.counts()["done"] == 5
        assert totals["claim_batch_jobs"] == 5
        assert totals["claim_batches"] == 2  # 4 + 1, not 5 single claims


class TestWakeupChannel:
    """The enqueue nudge: one byte per ``notify``, broadcast to every worker."""

    @pytest.fixture()
    def channel(self):
        """A notifier and a factory attaching one worker pipe per call."""
        notifier = WakeupNotifier()
        readers = []

        def attach():
            reader, writer = multiprocessing.get_context("spawn").Pipe(duplex=False)
            notifier.attach(writer)
            readers.append(reader)
            return WakeupReceiver(reader), writer

        yield notifier, attach
        notifier.close()
        for reader in readers:
            reader.close()

    def test_notify_wakes_every_attached_worker(self, channel):
        notifier, attach = channel
        receivers = [attach()[0] for _ in range(3)]
        assert not any(receiver.wait(0) for receiver in receivers)
        notifier.notify()
        assert all(receiver.wait(0) for receiver in receivers)

    def test_a_burst_of_nudges_is_one_wakeup(self, channel):
        notifier, attach = channel
        receiver, _ = attach()
        for _ in range(5):
            notifier.notify()
        assert receiver.wait(0)
        assert not receiver.wait(0)  # the burst was drained in one wait

    def test_notify_neither_blocks_nor_raises_on_a_full_pipe(self, channel):
        """A full pipe already holds a pending wakeup; the event loop must not stall."""
        notifier, attach = channel
        receiver, writer = attach()
        with pytest.raises(BlockingIOError):
            while True:
                os.write(writer.fileno(), b"!" * 4096)
        nudge = threading.Thread(target=notifier.notify, daemon=True)
        nudge.start()
        nudge.join(timeout=5)
        assert not nudge.is_alive()
        assert receiver.wait(0)
        assert not receiver.wait(0)

    def test_a_closed_notifier_ends_every_wait(self, channel):
        """At end-of-file the pipe polls readable for ever and reads ``b""``;
        each wait must still return instead of draining it for ever."""
        notifier, attach = channel
        receiver, _ = attach()
        notifier.close()
        results = []
        waiter = threading.Thread(
            target=lambda: results.extend(receiver.wait(0.2) for _ in range(2)),
            daemon=True,
        )
        waiter.start()
        waiter.join(timeout=10)  # a hang guard: checks liveness, not timing
        assert not waiter.is_alive(), "wait() spun on the closed pipe"
        assert results == [False, False]

    def test_a_closed_notifier_leaves_the_stop_event_in_charge(self, channel):
        """Without its notifier a receiver waits on ``stop`` like a worker
        without a pipe, so a set stop event ends even a 30 s wait."""
        notifier, _ = channel
        reader, writer = multiprocessing.get_context("spawn").Pipe(duplex=False)
        notifier.attach(writer)
        stop = threading.Event()
        receiver = WakeupReceiver(reader, stop)
        notifier.close()
        stop.set()
        waiter = threading.Thread(target=lambda: receiver.wait(30.0), daemon=True)
        waiter.start()
        waiter.join(timeout=10)  # a hang guard: checks liveness, not timing
        assert not waiter.is_alive(), "the stop event did not end the wait"
        reader.close()

    def test_a_nudge_written_before_the_close_is_still_delivered(self, channel):
        """The notifier may write and then close: the pending byte is a
        wakeup, and only the wait after it falls back to ``stop`` (set here,
        so no wait in this test blocks)."""
        notifier, _ = channel
        reader, writer = multiprocessing.get_context("spawn").Pipe(duplex=False)
        notifier.attach(writer)
        stop = threading.Event()
        stop.set()
        receiver = WakeupReceiver(reader, stop)
        notifier.notify()
        notifier.close()
        results = []
        waiter = threading.Thread(
            target=lambda: results.extend(receiver.wait(30.0) for _ in range(2)),
            daemon=True,
        )
        waiter.start()
        waiter.join(timeout=10)  # a hang guard: checks liveness, not timing
        assert not waiter.is_alive(), "wait() spun on the closed pipe"
        # the nudge (then end-of-file); after it, no pipe: the stop event answers
        assert results == [True, False]
        reader.close()


class TestFleetWakeup:
    def test_fleet_validates_claim_batch(self, tmp_path):
        with pytest.raises(ValueError, match="claim batch"):
            WorkerFleet(str(tmp_path / "jobs.db"), workers=1, claim_batch=0)

    def test_notify_wakes_the_fleet_and_drain_interrupts_the_idle_wait(self, tmp_path):
        """With a 30s poll interval only the wakeup pipe can move jobs."""
        db = tmp_path / "jobs.db"
        JobStore(db).close()
        fleet = WorkerFleet(str(db), workers=1, poll_interval=30.0)
        fleet.start()
        try:
            assert len(fleet.worker_ids()) == 1
            time.sleep(0.5)
            with JobStore(db) as store:
                store.submit(grid_request(seed=1))
            fleet.notify()
            deadline = time.monotonic() + 60
            with JobStore(db) as store:
                while time.monotonic() < deadline:
                    if store.counts()["done"] == 1:
                        break
                    time.sleep(0.1)
                assert store.counts()["done"] == 1, "notify did not reach the worker"
        finally:
            # drain must interrupt the 30s idle wait, not sit it out
            started = time.perf_counter()
            fleet.drain(timeout=20.0)
            assert time.perf_counter() - started < 20.0
        assert fleet.alive() == 0
        assert fleet.worker_ids() == []
