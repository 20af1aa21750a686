"""The store contract suite: the invariants ``http``/``workers``/``daemon`` rely on.

The suite *is* the contract documented in ``repro/server/stores/base.py``
— dedup, lifecycle, claim races, claim-holder guards, the poison budget,
crash recovery and worker beacons — checked on
:class:`~repro.server.stores.JobStore`.  Each test runs once per way the
store's file is met in service (the parametrized ``store`` fixture):

``fresh``
    a new file behind one handle;
``migrated``
    a file created at schema version 1 and upgraded in place on open, as a
    daemon upgraded over its old database finds it;
``shared``
    two handles on one file, successive calls alternating between them, as
    the daemon's front end and its worker processes share the file — no
    answer may depend on state one handle keeps to itself.

Store internals (schema migrations, SQL-level write skipping) live in
``test_server_store.py``.
"""

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
import repro.server
from repro.server.stores import DEFAULT_MAX_ATTEMPTS, JobStore


def grid_request(seed: int = 1, pairs: int = 1) -> RecoveryRequest:
    return RecoveryRequest(
        topology=TopologySpec("grid", kwargs={"rows": 3, "cols": 3}),
        disruption=DisruptionSpec("complete"),
        demand=DemandSpec(num_pairs=pairs, flow_per_pair=5.0),
        algorithms=("ISP",),
        seed=seed,
    )


def assess_request(seed: int = 1) -> AssessmentRequest:
    return AssessmentRequest(
        topology=TopologySpec("grid", kwargs={"rows": 3, "cols": 3}),
        disruption=DisruptionSpec("complete"),
        demand=DemandSpec(num_pairs=1, flow_per_pair=5.0),
        seed=seed,
    )


def create_v1_database(path) -> None:
    """An empty store at schema version 1: ``jobs`` and ``worker_stats`` only."""
    conn = sqlite3.connect(path)
    conn.execute(
        """
        CREATE TABLE jobs (
            digest      TEXT PRIMARY KEY,
            kind        TEXT NOT NULL,
            request     TEXT NOT NULL,
            state       TEXT NOT NULL
                        CHECK (state IN ('queued', 'running', 'done', 'failed')),
            result      TEXT,
            error       TEXT,
            attempts    INTEGER NOT NULL DEFAULT 0,
            worker      TEXT,
            created_at  REAL NOT NULL,
            started_at  REAL,
            finished_at REAL
        )
        """
    )
    conn.execute("CREATE INDEX jobs_state_created ON jobs (state, created_at)")
    conn.execute(
        """
        CREATE TABLE worker_stats (
            worker     TEXT PRIMARY KEY,
            updated_at REAL NOT NULL,
            counters   TEXT NOT NULL
        )
        """
    )
    conn.execute("PRAGMA user_version=1")
    conn.commit()
    conn.close()


class SharedFile:
    """Two handles on one file; each attribute lookup takes the next handle."""

    def __init__(self, path) -> None:
        self._handles = (JobStore(path), JobStore(path))
        self._lookups = 0

    def __getattr__(self, name):
        handle = self._handles[self._lookups % 2]
        self._lookups += 1
        return getattr(handle, name)

    def close(self) -> None:
        for handle in self._handles:
            handle.close()


@pytest.fixture()
def store_path(tmp_path):
    return tmp_path / "jobs.db"


@pytest.fixture(params=["fresh", "migrated", "shared"])
def store(request, store_path):
    if request.param == "migrated":
        create_v1_database(store_path)
    handle = SharedFile(store_path) if request.param == "shared" else JobStore(store_path)
    try:
        yield handle
    finally:
        handle.close()


class TestProtocol:
    def test_the_store_is_the_one_exported_job_store(self, store_path):
        with JobStore(store_path) as store:
            assert type(store) is repro.server.JobStore
        assert JobStore.__name__ == "JobStore"


class TestSubmission:
    def test_submit_creates_a_queued_job(self, store):
        record, created = store.submit(grid_request())
        assert created
        assert record.state == "queued"
        assert record.attempts == 0
        assert record.first_finished_at is None
        assert store.queue_depth() == 1

    def test_resubmission_is_deduplicated(self, store):
        first, created = store.submit(grid_request())
        again, created_again = store.submit(grid_request())
        assert created and not created_again
        assert first.digest == again.digest
        assert store.queue_depth() == 1

    def test_dict_and_object_submissions_share_a_digest(self, store):
        record, _ = store.submit(grid_request())
        same, created = store.submit(grid_request().to_dict())
        assert not created
        assert same.digest == record.digest

    def test_kinds_get_distinct_digests(self, store):
        solve, _ = store.submit(grid_request())
        assess, created = store.submit(assess_request())
        assert created
        assert solve.digest != assess.digest
        assert assess.kind == "assessment"

    def test_failed_job_is_requeued_by_resubmission(self, store):
        record, _ = store.submit(grid_request())
        claimed = store.claim("w1")
        store.fail(claimed.digest, "boom", worker="w1")
        requeued, created = store.submit(grid_request())
        assert not created  # still the same job, not a new row
        assert requeued.state == "queued"
        assert requeued.error is None
        assert requeued.attempts == 0
        assert requeued.first_finished_at is None

    def test_submit_many_matches_per_item_submit(self, store):
        requests = [grid_request(seed) for seed in range(4)] + [grid_request(0)]
        outcomes = store.submit_many(requests)
        assert len(outcomes) == 5
        assert [created for _, created in outcomes] == [True, True, True, True, False]
        assert outcomes[4][0].digest == outcomes[0][0].digest  # in-batch dedup
        assert len({record.digest for record, _ in outcomes}) == 4
        assert store.queue_depth() == 4

    def test_submit_many_keeps_input_order(self, store):
        requests = [grid_request(seed) for seed in range(6)]
        outcomes = store.submit_many(requests)
        expected = [store.submit(request)[0].digest for request in requests]
        assert [record.digest for record, _ in outcomes] == expected


class TestClaims:
    def test_claims_are_globally_fifo(self, store):
        digests = []
        for seed in range(8):
            record, _ = store.submit(grid_request(seed))
            digests.append(record.digest)
            time.sleep(0.002)  # distinct created_at, so order is by age
        claimed = [store.claim("w1").digest for _ in range(8)]
        assert claimed == digests

    def test_claim_batch_respects_limit_and_order(self, store):
        expected = []
        for seed in range(6):
            record, _ = store.submit(grid_request(seed))
            expected.append(record.digest)
            time.sleep(0.002)
        batch = store.claim_batch("w1", limit=4)
        assert [record.digest for record in batch] == expected[:4]
        assert all(record.state == "running" for record in batch)
        assert all(record.worker == "w1" for record in batch)
        assert store.queue_depth() == 2

    def test_racing_claimers_get_each_job_exactly_once(self, store, store_path):
        for seed in range(12):
            store.submit(grid_request(seed))
        results = {}
        barrier = threading.Barrier(3)

        def racer(name):
            handle = JobStore(store_path)  # own connection, like a worker
            try:
                barrier.wait()
                got = []
                while True:
                    batch = handle.claim_batch(name, limit=2)
                    if not batch:
                        break
                    got.extend(record.digest for record in batch)
                results[name] = got
            finally:
                handle.close()

        threads = [threading.Thread(target=racer, args=(f"w{i}",)) for i in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        claimed = [digest for got in results.values() for digest in got]
        assert len(claimed) == 12
        assert len(set(claimed)) == 12  # exactly once, no duplicates
        assert store.queue_depth() == 0

    def test_claim_on_empty_queue_returns_none(self, store):
        assert store.claim("w1") is None
        assert store.claim_batch("w1", limit=8) == []


class TestClaimHolderGuard:
    def test_wrong_worker_cannot_complete(self, store):
        record, _ = store.submit(grid_request())
        store.claim("w1")
        assert not store.complete(record.digest, {"x": 1}, worker="intruder")
        assert store.get(record.digest).state == "running"
        assert store.complete(record.digest, {"x": 1}, worker="w1")
        assert store.get(record.digest).state == "done"

    def test_wrong_worker_cannot_fail(self, store):
        record, _ = store.submit(grid_request())
        store.claim("w1")
        assert not store.fail(record.digest, "boom", worker="intruder")
        assert store.get(record.digest).state == "running"

    def test_terminal_rows_cannot_be_completed_again(self, store):
        record, _ = store.submit(grid_request())
        store.claim("w1")
        store.complete(record.digest, {"x": 1}, worker="w1")
        assert not store.complete(record.digest, {"x": 2}, worker="w1")
        assert not store.fail(record.digest, "late", worker="w1")
        assert store.get(record.digest).result == {"x": 1}

    def test_requeued_row_rejects_the_old_holder(self, store):
        record, _ = store.submit(grid_request())
        store.claim("w1")
        store.requeue_orphans()  # daemon restart while w1 still runs
        store.claim("w2")
        assert not store.complete(record.digest, {"stale": True}, worker="w1")
        assert store.complete(record.digest, {"fresh": True}, worker="w2")
        assert store.get(record.digest).result == {"fresh": True}


class TestUpgradeResult:
    def test_upgrade_replaces_a_done_envelope_in_place(self, store):
        record, _ = store.submit(grid_request())
        store.claim("w1")
        store.complete(record.digest, {"stage": 1}, worker="w1")
        assert store.upgrade_result(record.digest, {"stage": 2}, worker="w1")
        final = store.get(record.digest)
        assert final.state == "done"
        assert final.result == {"stage": 2}

    def test_upgrade_requires_a_done_row(self, store):
        record, _ = store.submit(grid_request())
        assert not store.upgrade_result(record.digest, {"early": True})
        store.claim("w1")
        assert not store.upgrade_result(record.digest, {"early": True}, worker="w1")
        assert store.get(record.digest).result is None

    def test_upgrade_never_touches_first_completion_time(self, store):
        """The satellite-1 regression, as a contract: claim -> *first* answer.

        An upgraded job must keep its original completion stamp for the
        latency histogram — ``finished_at`` moves (the envelope changed),
        ``first_finished_at`` must not.
        """
        record, _ = store.submit(grid_request())
        store.claim("w1")
        store.complete(record.digest, {"stage": 1}, worker="w1")
        first = store.get(record.digest)
        time.sleep(0.05)
        assert store.upgrade_result(record.digest, {"stage": 2}, worker="w1")
        upgraded = store.get(record.digest)
        assert upgraded.first_finished_at == first.first_finished_at
        assert upgraded.finished_at > first.finished_at
        # and the histogram samples measure claim -> first completion
        [(completed_at, seconds)] = store.solve_latency_samples()
        assert completed_at == first.first_finished_at
        assert seconds == pytest.approx(first.first_finished_at - first.started_at)
        assert seconds < 0.05  # not polluted by the 50 ms upgrade delay


class TestPoisonBudget:
    def _exhaust(self, store, digest):
        """Burn the oldest queued job's whole attempt budget via crashes.

        FIFO makes single claims deterministic: the target (submitted
        first) is re-claimed every round, other jobs never touched.
        """
        for _ in range(DEFAULT_MAX_ATTEMPTS):
            [claimed] = store.claim_batch("w1", limit=1)
            assert claimed.digest == digest
            store.requeue_orphans()  # the worker "crashed" mid-execution

    def test_exhausted_job_is_failed_not_reclaimed(self, store):
        record, _ = store.submit(grid_request())
        self._exhaust(store, record.digest)
        assert store.claim("w1") is None
        final = store.get(record.digest)
        assert final.state == "failed"
        assert "gave up" in final.error

    def test_sweep_preserves_the_root_cause_error(self, store):
        """The satellite-2 regression: the give-up text appends, not overwrites.

        The requeue breadcrumb names the worker that vanished; the poison
        sweep must carry it into the terminal error instead of replacing
        it with only the generic give-up message.
        """
        record, _ = store.submit(grid_request())
        self._exhaust(store, record.digest)
        store.claim("w2")  # triggers the sweep
        final = store.get(record.digest)
        assert final.state == "failed"
        assert "gave up after 3 failed attempt(s)" in final.error
        assert "vanished mid-execution" in final.error
        assert "w1" in final.error

    def test_healthy_jobs_are_unaffected_by_the_sweep(self, store):
        poisoned, _ = store.submit(grid_request(1))
        time.sleep(0.002)  # distinct created_at: the poisoned job is oldest
        healthy, _ = store.submit(grid_request(2))
        self._exhaust(store, poisoned.digest)
        claimed = store.claim_batch("w2", limit=10)
        assert [record.digest for record in claimed] == [healthy.digest]
        assert store.get(poisoned.digest).state == "failed"
        assert store.get(healthy.digest).state == "running"


class TestCrashRecovery:
    def test_requeue_orphans_returns_running_rows_to_the_queue(self, store):
        record, _ = store.submit(grid_request())
        claimed = store.claim("w1")
        assert claimed.attempts == 1
        assert store.requeue_orphans() == 1
        requeued = store.get(record.digest)
        assert requeued.state == "queued"
        assert requeued.attempts == 1  # the budget is spent, not reset
        assert requeued.worker is None
        assert requeued.started_at is None
        assert "vanished mid-execution" in requeued.error

    def test_requeue_orphans_spares_terminal_rows(self, store):
        done, _ = store.submit(grid_request(1))
        failed, _ = store.submit(grid_request(2))
        for _ in range(2):
            store.claim("w1")
        store.complete(done.digest, {"x": 1}, worker="w1")
        store.fail(failed.digest, "boom", worker="w1")
        assert store.requeue_orphans() == 0
        assert store.get(done.digest).state == "done"
        assert store.get(failed.digest).state == "failed"

    def test_mid_batch_crash_loses_nothing(self, store):
        digests = [store.submit(grid_request(seed))[0].digest for seed in range(3)]
        batch = store.claim_batch("w1", limit=3)
        assert len(batch) == 3
        store.complete(batch[0].digest, {"x": 1}, worker="w1")
        # the worker dies here; the two un-executed claims are orphans
        assert store.requeue_orphans() == 2
        states = {digest: store.get(digest).state for digest in digests}
        assert sorted(states.values()) == ["done", "queued", "queued"]

    def test_clean_completion_clears_the_breadcrumb(self, store):
        record, _ = store.submit(grid_request())
        store.claim("w1")
        store.requeue_orphans()
        assert store.get(record.digest).error is not None
        store.claim("w2")
        store.complete(record.digest, {"x": 1}, worker="w2")
        final = store.get(record.digest)
        assert final.state == "done"
        assert final.error is None  # a done row answered cleanly


class TestIntrospection:
    def test_counts_cover_every_state(self, store):
        assert store.counts() == {"queued": 0, "running": 0, "done": 0, "failed": 0}
        for seed in range(4):
            store.submit(grid_request(seed))
        store.claim("w1")
        claimed = store.claim("w1")
        store.complete(claimed.digest, {"x": 1}, worker="w1")
        assert store.counts() == {"queued": 2, "running": 1, "done": 1, "failed": 0}
        assert store.queue_depth() == 2

    def test_jobs_filters_by_state_and_orders_newest_first(self, store):
        digests = []
        for seed in range(5):
            record, _ = store.submit(grid_request(seed))
            digests.append(record.digest)
            time.sleep(0.002)
        store.claim("w1")
        queued = store.jobs(state="queued")
        assert [record.digest for record in queued] == digests[1:][::-1]
        assert len(store.jobs(limit=2)) == 2
        with pytest.raises(ValueError):
            store.jobs(state="nonsense")

    def test_solve_latencies_cover_all_done_jobs(self, store):
        for seed in range(3):
            store.submit(grid_request(seed))
        for _ in range(3):
            claimed = store.claim("w1")
            store.complete(claimed.digest, {"x": 1}, worker="w1")
        latencies = store.solve_latencies()
        assert len(latencies) == 3
        assert all(value >= 0.0 for value in latencies)
        samples = store.solve_latency_samples()
        assert [stamp for stamp, _ in samples] == sorted(
            (stamp for stamp, _ in samples), reverse=True
        )


class TestWorkerBeacons:
    def test_worker_ids_list_every_reporter(self, store):
        assert store.worker_ids() == []
        store.record_worker_stats("w1", {"jobs_done": 1})
        store.record_worker_stats("w0", {"jobs_done": 2})
        assert store.worker_ids() == ["w0", "w1"]

    def test_totals_sum_each_worker_once(self, store):
        store.record_worker_stats("w0", {"jobs_done": 2, "busy_seconds": 0.5})
        store.record_worker_stats("w1", {"jobs_done": 3})
        store.record_worker_stats("w0", {"jobs_done": 4, "busy_seconds": 1.0})  # upsert
        totals = store.worker_stats_totals()
        assert totals["jobs_done"] == 7.0
        assert totals["busy_seconds"] == 1.0


class TestTelemetry:
    """Schema-v4 telemetry surface: trace ids, span sidecar, stage samples.

    All of it is observability-only — it must never perturb digests or
    result envelopes — but the *storage* behaviour is part of the store
    contract: the HTTP layer stamps ids and the trace endpoint reads span
    trees through it.
    """

    def test_submit_stamps_the_creating_trace_id(self, store):
        record, created = store.submit(grid_request(), trace_id="trace-created-01")
        assert created
        assert record.trace_id == "trace-created-01"
        assert store.get(record.digest).trace_id == "trace-created-01"
        assert store.get(record.digest).to_dict()["trace_id"] == "trace-created-01"

    def test_dedup_keeps_the_creators_trace_id(self, store):
        first, _ = store.submit(grid_request(), trace_id="trace-original-1")
        again, created = store.submit(grid_request(), trace_id="trace-retry-0002")
        assert not created
        assert again.trace_id == "trace-original-1"
        assert store.get(first.digest).trace_id == "trace-original-1"

    def test_submit_many_stamps_every_created_row(self, store):
        requests = [grid_request(seed=s) for s in (1, 2, 3)]
        results = store.submit_many(requests, trace_id="trace-batch-0001")
        assert all(created for _, created in results)
        for record, _ in results:
            assert store.get(record.digest).trace_id == "trace-batch-0001"

    def test_untraced_submission_leaves_trace_id_none(self, store):
        record, _ = store.submit(grid_request())
        assert record.trace_id is None
        assert store.get(record.digest).to_dict()["trace_id"] is None

    def test_trace_id_never_perturbs_the_digest(self, store):
        """Golden: telemetry rides beside the request, never inside it."""
        with_trace, _ = store.submit(grid_request(seed=7), trace_id="trace-golden-001")
        bare = grid_request(seed=7).digest()
        assert with_trace.digest == bare

    def test_span_sidecar_round_trips_by_source(self, store):
        record, _ = store.submit(grid_request(), trace_id="trace-spans-0001")
        frontend = {"trace_id": "trace-spans-0001", "pid": 1, "spans": [], "dropped_spans": 0}
        worker = {
            "trace_id": "trace-spans-0001",
            "pid": 2,
            "spans": [{"name": "worker.execute", "wall_seconds": 0.5, "cpu_seconds": 0.4}],
            "dropped_spans": 0,
        }
        store.save_spans(record.digest, "frontend", frontend, trace_id="trace-spans-0001")
        store.save_spans(record.digest, "worker", worker, trace_id="trace-spans-0001")
        loaded = store.load_spans(record.digest)
        assert loaded == {"frontend": frontend, "worker": worker}
        assert store.load_spans("unknown-digest") == {}

    def test_span_sidecar_upserts_per_source(self, store):
        record, _ = store.submit(grid_request())
        stale = {"trace_id": None, "pid": 3, "spans": [], "dropped_spans": 0}
        fresh = {
            "trace_id": None,
            "pid": 4,
            "spans": [{"name": "worker.execute", "wall_seconds": 0.1, "cpu_seconds": 0.1}],
            "dropped_spans": 0,
        }
        store.save_spans(record.digest, "worker", stale)
        store.save_spans(record.digest, "worker", fresh)  # retry replaces
        assert store.load_spans(record.digest) == {"worker": fresh}

    def test_stage_latency_samples_cover_done_jobs(self, store):
        record, _ = store.submit(grid_request())
        store.claim("w1")
        store.complete(record.digest, {"x": 1}, worker="w1")
        stages = store.stage_latency_samples()
        assert set(stages) == {"queue_wait", "serialize", "served"}
        assert len(stages["queue_wait"]) == 1
        assert len(stages["serialize"]) == 1
        assert len(stages["served"]) == 1
        assert all(value >= 0.0 for samples in stages.values() for value in samples)

    def test_stage_latency_samples_empty_store(self, store):
        stages = store.stage_latency_samples()
        assert set(stages) == {"queue_wait", "serialize", "served"}
        assert all(samples == [] for samples in stages.values())
