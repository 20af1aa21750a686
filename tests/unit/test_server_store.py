"""Unit tests of the durable job store: lifecycle, dedup, crash safety."""

import json
import sqlite3
import threading

import pytest
from test_store_contract import create_v1_database

from repro.api.requests import (
    AssessmentRequest,
    DemandSpec,
    DisruptionSpec,
    RecoveryRequest,
    TopologySpec,
)
from repro.server.stores import (
    DEFAULT_MAX_ATTEMPTS,
    JobStore,
    SCHEMA_VERSION,
    StoreSchemaError,
)


def grid_request(seed: int = 1, pairs: int = 1) -> RecoveryRequest:
    return RecoveryRequest(
        topology=TopologySpec("grid", kwargs={"rows": 3, "cols": 3}),
        disruption=DisruptionSpec("complete"),
        demand=DemandSpec(num_pairs=pairs, flow_per_pair=5.0),
        algorithms=("ISP",),
        seed=seed,
    )


#: The tables of a schema-5 store, fresh or migrated.
CURRENT_TABLES = {"jobs", "trace_spans", "worker_stats"}


def tables(path):
    """The table names in the SQLite file at ``path``."""
    conn = sqlite3.connect(path)
    try:
        names = conn.execute("SELECT name FROM sqlite_master WHERE type = 'table'")
        return {name for (name,) in names}
    finally:
        conn.close()


def rows(path):
    """Every row of the jobs, worker_stats and trace_spans tables, in key order."""
    conn = sqlite3.connect(path)
    try:
        return {
            table: conn.execute(f"SELECT * FROM {table} ORDER BY 1, 2").fetchall()
            for table in sorted(CURRENT_TABLES)
        }
    finally:
        conn.close()


@pytest.fixture()
def store(tmp_path):
    with JobStore(tmp_path / "jobs.db") as handle:
        yield handle


class TestSchema:
    def test_fresh_database_gets_current_version(self, store):
        assert store.schema_version == SCHEMA_VERSION

    def test_newer_schema_is_rejected(self, tmp_path):
        path = tmp_path / "future.db"
        conn = sqlite3.connect(path)
        conn.execute(f"PRAGMA user_version={SCHEMA_VERSION + 1}")
        conn.close()
        with pytest.raises(StoreSchemaError, match="schema version"):
            JobStore(path)

    def test_reopening_is_idempotent(self, tmp_path):
        path = tmp_path / "jobs.db"
        JobStore(path).close()
        with JobStore(path) as again:
            assert again.schema_version == SCHEMA_VERSION

    def test_a_directory_is_refused_naming_the_last_commit_that_reads_it(self, tmp_path):
        """A directory of shard files was the removed sharded store's layout."""
        path = tmp_path / "fleet.db"
        path.mkdir()
        (path / "shards.json").write_text('{"layout": "sharded", "shards": 2}')
        JobStore(path / "shard-00.db").close()
        before = sorted(entry.name for entry in path.iterdir())
        with pytest.raises(StoreSchemaError, match="5e2b833"):
            JobStore(path)
        assert sorted(entry.name for entry in path.iterdir()) == before


class TestSubmission:
    def test_submit_returns_queued_record(self, store):
        record, created = store.submit(grid_request())
        assert created
        assert record.state == "queued"
        assert record.kind == "recovery"
        assert record.attempts == 0
        assert record.digest == grid_request().digest()

    def test_duplicate_submission_dedups_by_digest(self, store):
        first, created_first = store.submit(grid_request())
        second, created_second = store.submit(grid_request())
        assert created_first and not created_second
        assert first.digest == second.digest
        assert store.counts()["queued"] == 1

    def test_dict_and_object_submissions_share_a_digest(self, store):
        _, created_first = store.submit(grid_request())
        _, created_second = store.submit(grid_request().to_dict())
        assert created_first and not created_second

    def test_assessment_requests_are_accepted(self, store):
        request = AssessmentRequest(
            topology=TopologySpec("grid", kwargs={"rows": 3, "cols": 3}),
            disruption=DisruptionSpec("gaussian", kwargs={"variance": 2.0}),
            seed=5,
        )
        record, created = store.submit(request)
        assert created and record.kind == "assessment"

    def test_resubmitting_a_failed_job_requeues_it(self, store):
        record, _ = store.submit(grid_request())
        claimed = store.claim("w0")
        store.fail(claimed.digest, "boom")
        requeued, created = store.submit(grid_request())
        assert not created
        assert requeued.state == "queued"
        assert requeued.attempts == 0
        assert requeued.error is None

    def test_resubmitting_a_done_job_returns_the_stored_result(self, store):
        store.submit(grid_request())
        claimed = store.claim("w0")
        store.complete(claimed.digest, {"kind": "recovery-result", "results": []})
        record, created = store.submit(grid_request())
        assert not created
        assert record.state == "done"
        assert record.result == {"kind": "recovery-result", "results": []}


class TestClaim:
    def test_claim_moves_oldest_queued_to_running(self, store):
        store.submit(grid_request(seed=1))
        record = store.claim("w0")
        assert record is not None
        assert record.state == "running"
        assert record.worker == "w0"
        assert record.attempts == 1
        assert store.get(record.digest).state == "running"

    def test_claim_on_empty_queue_returns_none(self, store):
        assert store.claim("w0") is None

    def test_one_job_is_claimed_exactly_once(self, store):
        store.submit(grid_request())
        first = store.claim("w0")
        second = store.claim("w1")
        assert first is not None
        assert second is None

    def test_complete_stores_the_envelope(self, store):
        store.submit(grid_request())
        record = store.claim("w0")
        store.complete(record.digest, {"answer": 42})
        done = store.get(record.digest)
        assert done.state == "done"
        assert done.result == {"answer": 42}
        assert done.finished_at is not None

    def test_fail_stores_the_error(self, store):
        store.submit(grid_request())
        record = store.claim("w0")
        store.fail(record.digest, "solver exploded")
        failed = store.get(record.digest)
        assert failed.state == "failed"
        assert failed.error == "solver exploded"

    def test_stale_worker_cannot_overwrite_a_reassigned_job(self, store):
        """A worker that lost its claim to a requeue must not land writes."""
        store.submit(grid_request())
        stale = store.claim("stale")
        store.requeue_orphans()  # e.g. a daemon restart while 'stale' still runs
        fresh = store.claim("fresh")
        assert store.complete(fresh.digest, {"winner": "fresh"}, worker="fresh")
        # the stale worker's late outcome is a no-op, both ways
        assert not store.fail(stale.digest, "late failure", worker="stale")
        assert not store.complete(stale.digest, {"winner": "stale"}, worker="stale")
        final = store.get(stale.digest)
        assert final.state == "done"
        assert final.result == {"winner": "fresh"}

    def test_complete_without_worker_still_requires_a_running_row(self, store):
        store.submit(grid_request())
        assert not store.complete(grid_request().digest(), {})  # still queued
        store.claim("w0")
        assert store.complete(grid_request().digest(), {})

    def test_upgrade_result_replaces_a_done_envelope_in_place(self, store):
        store.submit(grid_request())
        record = store.claim("w0")
        store.complete(record.digest, {"stage": 1}, worker="w0")
        first_finished = store.get(record.digest).finished_at
        assert store.upgrade_result(record.digest, {"stage": 2}, worker="w0")
        done = store.get(record.digest)
        assert done.state == "done"
        assert done.result == {"stage": 2}
        # finished_at tracks when the envelope reached its final form
        assert done.finished_at >= first_finished

    def test_upgrade_result_requires_a_done_row(self, store):
        store.submit(grid_request())
        assert not store.upgrade_result(grid_request().digest(), {"stage": 2})
        store.claim("w0")
        assert not store.upgrade_result(grid_request().digest(), {"stage": 2})
        store.fail(grid_request().digest(), "boom", worker="w0")
        assert not store.upgrade_result(grid_request().digest(), {"stage": 2})

    def test_upgrade_result_honours_the_worker_guard(self, store):
        store.submit(grid_request())
        record = store.claim("w0")
        store.complete(record.digest, {"stage": 1}, worker="w0")
        assert not store.upgrade_result(record.digest, {"stage": 2}, worker="w1")
        assert store.get(record.digest).result == {"stage": 1}
        # without a worker the guard is only on the state
        assert store.upgrade_result(record.digest, {"stage": 2})
        assert store.get(record.digest).result == {"stage": 2}

    def test_poison_job_fails_after_attempt_budget(self, store):
        store.submit(grid_request())
        for _ in range(DEFAULT_MAX_ATTEMPTS):
            record = store.claim("w0")
            assert record is not None
            assert store.requeue_orphans() == 1  # simulate a worker crash
        assert store.claim("w0") is None
        final = store.get(grid_request().digest())
        assert final.state == "failed"
        assert "gave up" in final.error


class TestCrashRecovery:
    def test_requeue_orphans_returns_running_jobs_to_the_queue(self, store):
        store.submit(grid_request(seed=1))
        store.submit(grid_request(seed=2))
        store.claim("w0")
        store.claim("w1")
        assert store.counts()["running"] == 2
        assert store.requeue_orphans() == 2
        counts = store.counts()
        assert counts["running"] == 0
        assert counts["queued"] == 2
        # attempt counts survive the requeue (that is the poison-job guard)
        assert all(record.attempts == 1 for record in store.jobs(state="queued"))

    def test_requeue_orphans_leaves_terminal_jobs_alone(self, store):
        store.submit(grid_request(seed=1))
        record = store.claim("w0")
        store.complete(record.digest, {})
        assert store.requeue_orphans() == 0
        assert store.get(record.digest).state == "done"


class TestConcurrentAccess:
    def test_racing_workers_claim_a_job_exactly_once(self, tmp_path):
        """Many threads, each with its own connection, race for few jobs."""
        path = tmp_path / "race.db"
        with JobStore(path) as seeding:
            for seed in (1, 2, 3):
                seeding.submit(grid_request(seed=seed))

        claims = []
        lock = threading.Lock()
        barrier = threading.Barrier(8)

        def racer(identity: int) -> None:
            with JobStore(path) as handle:
                barrier.wait()
                while True:
                    record = handle.claim(f"w{identity}")
                    if record is None:
                        break
                    with lock:
                        claims.append(record.digest)
                    handle.complete(record.digest, {})

        threads = [threading.Thread(target=racer, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert sorted(claims) == sorted(set(claims))  # no digest executed twice
        assert len(claims) == 3
        with JobStore(path) as verify:
            assert verify.counts()["done"] == 3

    def test_racing_duplicate_submissions_create_one_row(self, tmp_path):
        path = tmp_path / "dupes.db"
        JobStore(path).close()
        created_flags = []
        lock = threading.Lock()
        barrier = threading.Barrier(6)

        def submitter() -> None:
            with JobStore(path) as handle:
                barrier.wait()
                _, created = handle.submit(grid_request(seed=9))
                with lock:
                    created_flags.append(created)

        threads = [threading.Thread(target=submitter) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert created_flags.count(True) == 1
        with JobStore(path) as verify:
            assert sum(verify.counts().values()) == 1


class TestIntrospection:
    def test_counts_cover_every_state(self, store):
        assert store.counts() == {"queued": 0, "running": 0, "done": 0, "failed": 0}
        store.submit(grid_request())
        assert store.counts()["queued"] == 1

    def test_jobs_filters_by_state_and_rejects_unknown(self, store):
        store.submit(grid_request())
        assert len(store.jobs(state="queued")) == 1
        assert store.jobs(state="done") == []
        with pytest.raises(ValueError, match="unknown job state"):
            store.jobs(state="bogus")

    def test_solve_latencies_reflect_completed_jobs(self, store):
        store.submit(grid_request())
        record = store.claim("w0")
        store.complete(record.digest, {})
        latencies = store.solve_latencies()
        assert len(latencies) == 1
        assert latencies[0] >= 0.0

    def test_worker_stats_totals_sum_across_workers(self, store):
        store.record_worker_stats("w0", {"jobs_done": 2, "lp_solves": 5.0})
        store.record_worker_stats("w1", {"jobs_done": 3, "lp_solves": 1.5})
        store.record_worker_stats("w1", {"jobs_done": 4, "lp_solves": 2.0})  # refresh
        totals = store.worker_stats_totals()
        assert totals["jobs_done"] == 6
        assert totals["lp_solves"] == 7.0

    def test_record_to_dict_includes_result_once_done(self, store):
        store.submit(grid_request())
        record = store.claim("w0")
        store.complete(record.digest, {"x": 1})
        payload = store.get(record.digest).to_dict()
        assert payload["state"] == "done"
        assert payload["result"] == {"x": 1}
        assert json.dumps(payload)  # JSON-serialisable wire shape
        trimmed = store.get(record.digest).to_dict(include_request=False)
        assert "request" not in trimmed


class TestBatchedClaims:
    def test_claim_batch_claims_up_to_the_limit_in_fifo_order(self, store):
        digests = [store.submit(grid_request(seed=seed))[0].digest for seed in (1, 2, 3, 4)]
        batch = store.claim_batch("w0", limit=3)
        assert [record.digest for record in batch] == digests[:3]
        assert all(record.state == "running" for record in batch)
        assert all(record.worker == "w0" for record in batch)
        assert all(record.attempts == 1 for record in batch)
        assert store.counts() == {"queued": 1, "running": 3, "done": 0, "failed": 0}

    def test_claim_batch_on_empty_queue_returns_empty_list(self, store):
        assert store.claim_batch("w0", limit=8) == []

    def test_claim_batch_rejects_nonpositive_limit(self, store):
        with pytest.raises(ValueError, match="limit"):
            store.claim_batch("w0", limit=0)

    def test_single_claim_delegates_to_batch_of_one(self, store):
        store.submit(grid_request(seed=1))
        store.submit(grid_request(seed=2))
        record = store.claim("w0")
        assert record is not None
        assert store.counts()["running"] == 1

    def test_claim_holder_guard_holds_for_every_job_in_a_batch(self, store):
        """A stale worker must not land outcomes on any reassigned batch job."""
        for seed in (1, 2, 3):
            store.submit(grid_request(seed=seed))
        stale_batch = store.claim_batch("stale", limit=3)
        store.requeue_orphans()  # the whole batch is reassigned
        fresh_batch = store.claim_batch("fresh", limit=3)
        assert len(fresh_batch) == 3
        for record in fresh_batch:
            assert store.complete(record.digest, {"winner": "fresh"}, worker="fresh")
        for record in stale_batch:
            assert not store.complete(record.digest, {"winner": "stale"}, worker="stale")
            assert not store.fail(record.digest, "late", worker="stale")
            assert store.get(record.digest).result == {"winner": "fresh"}

    def test_claim_batch_skips_attempt_exhausted_jobs(self, store):
        store.submit(grid_request(seed=1))
        for _ in range(DEFAULT_MAX_ATTEMPTS):
            assert store.claim_batch("w0", limit=4)
            store.requeue_orphans()
        assert store.claim_batch("w0", limit=4) == []
        assert store.get(grid_request(seed=1).digest()).state == "failed"

    def test_threaded_batch_claimers_never_double_claim(self, tmp_path):
        """Racing batched claimers partition the queue without overlap."""
        path = tmp_path / "race.db"
        with JobStore(path) as seeding:
            for seed in range(12):
                seeding.submit(grid_request(seed=seed + 1))

        claims = []
        lock = threading.Lock()
        barrier = threading.Barrier(6)

        def racer(identity: int) -> None:
            with JobStore(path) as handle:
                barrier.wait()
                while True:
                    batch = handle.claim_batch(f"w{identity}", limit=3)
                    if not batch:
                        break
                    with lock:
                        claims.extend(record.digest for record in batch)
                    for record in batch:
                        handle.complete(record.digest, {}, worker=f"w{identity}")

        threads = [threading.Thread(target=racer, args=(i,)) for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert sorted(claims) == sorted(set(claims))  # no digest claimed twice
        assert len(claims) == 12
        with JobStore(path) as verify:
            assert verify.counts()["done"] == 12

    def test_requeue_orphans_recovers_a_mid_batch_crash(self, store):
        """A worker that dies after claiming a batch loses the whole batch."""
        for seed in (1, 2, 3):
            store.submit(grid_request(seed=seed))
        batch = store.claim_batch("doomed", limit=3)
        store.complete(batch[0].digest, {}, worker="doomed")  # one landed, then crash
        assert store.requeue_orphans() == 2
        counts = store.counts()
        assert counts == {"queued": 2, "running": 0, "done": 1, "failed": 0}
        # the requeued jobs keep their attempt count (poison-job budget)
        assert all(record.attempts == 1 for record in store.jobs(state="queued"))
        recovered = store.claim_batch("rescue", limit=4)
        assert {record.digest for record in recovered} == {r.digest for r in batch[1:]}


class TestSubmitMany:
    def test_submit_many_queues_every_new_request(self, store):
        requests = [grid_request(seed=seed) for seed in (1, 2, 3)]
        results = store.submit_many(requests)
        assert [created for _, created in results] == [True, True, True]
        assert [record.digest for record, _ in results] == [r.digest() for r in requests]
        assert store.counts()["queued"] == 3

    def test_submit_many_dedups_against_existing_rows(self, store):
        store.submit(grid_request(seed=1))
        results = store.submit_many([grid_request(seed=1), grid_request(seed=2)])
        assert [created for _, created in results] == [False, True]
        assert store.counts()["queued"] == 2

    def test_submit_many_dedups_repeats_within_one_batch(self, store):
        results = store.submit_many([grid_request(seed=1), grid_request(seed=1)])
        assert [created for _, created in results] == [True, False]
        assert store.counts()["queued"] == 1

    def test_submit_many_requeues_failed_rows(self, store):
        store.submit(grid_request(seed=1))
        record = store.claim("w0")
        store.fail(record.digest, "boom", worker="w0")
        results = store.submit_many([grid_request(seed=1)])
        assert [created for _, created in results] == [False]
        requeued = store.get(record.digest)
        assert requeued.state == "queued"
        assert requeued.error is None

    def test_submit_many_accepts_dict_payloads(self, store):
        results = store.submit_many([grid_request(seed=7).to_dict()])
        assert results[0][1] is True
        assert results[0][0].kind == "recovery"


class TestMigration:
    def _create_v1_database(self, path) -> None:
        """A version-1 store (the contract suite's ``migrated`` file)
        holding one queued job."""
        create_v1_database(path)
        conn = sqlite3.connect(path)
        conn.execute(
            "INSERT INTO jobs (digest, kind, request, state, created_at) "
            "VALUES ('keepme', 'recovery', '{}', 'queued', 1.0)"
        )
        conn.commit()
        conn.close()

    def test_v1_database_is_upgraded_in_place(self, tmp_path):
        path = tmp_path / "v1.db"
        self._create_v1_database(path)
        with JobStore(path) as upgraded:
            assert upgraded.schema_version == SCHEMA_VERSION
            # version-1 data survived the migration
            assert upgraded.get("keepme").state == "queued"
        assert tables(path) == CURRENT_TABLES

    def _create_v2_database(self, path) -> None:
        """A version-2 store as PR 6 left it: v1 plus the topology sidecar."""
        self._create_v1_database(path)
        conn = sqlite3.connect(path)
        conn.execute(
            """
            CREATE TABLE topology_cache (
                digest     TEXT PRIMARY KEY,
                payload    BLOB NOT NULL,
                created_at REAL NOT NULL
            )
            """
        )
        conn.execute(
            "INSERT INTO jobs (digest, kind, request, state, result, attempts, "
            "worker, created_at, started_at, finished_at) "
            "VALUES ('olddone', 'recovery', '{}', 'done', '{}', 1, 'w1', 1.0, 2.0, 5.0)"
        )
        conn.execute("PRAGMA user_version=2")
        conn.commit()
        conn.close()

    def test_v2_database_gains_backfilled_first_completion(self, tmp_path):
        """Migration to v3: ``first_finished_at`` appears, backfilled from
        ``finished_at`` so pre-split done rows keep their histogram
        contribution unchanged."""
        path = tmp_path / "v2.db"
        self._create_v2_database(path)
        with JobStore(path) as upgraded:
            assert upgraded.schema_version == SCHEMA_VERSION
            done = upgraded.get("olddone")
            assert done.first_finished_at == done.finished_at == 5.0
            assert upgraded.get("keepme").first_finished_at is None
            assert upgraded.solve_latencies() == [3.0]  # 5.0 - 2.0
        assert tables(path) == CURRENT_TABLES  # the v2 sidecar went at v5

    def _create_v3_database(self, path) -> None:
        """A version-3 store as PR 7 left it: v2 plus first_finished_at."""
        self._create_v2_database(path)
        conn = sqlite3.connect(path)
        conn.execute("ALTER TABLE jobs ADD COLUMN first_finished_at REAL")
        conn.execute(
            "UPDATE jobs SET first_finished_at = finished_at "
            "WHERE state = 'done' AND finished_at IS NOT NULL"
        )
        conn.execute("PRAGMA user_version=3")
        conn.commit()
        conn.close()

    def test_v3_database_gains_the_telemetry_surface(self, tmp_path):
        """Migration to v4: ``trace_id``/``serialize_seconds`` columns and
        the ``trace_spans`` sidecar appear; pre-v4 rows read back with no
        trace id and keep contributing to the stage histograms."""
        path = tmp_path / "v3.db"
        self._create_v3_database(path)
        with JobStore(path) as upgraded:
            assert upgraded.schema_version == SCHEMA_VERSION
            # old rows carry no trace id, but the field is present
            done = upgraded.get("olddone")
            assert done.trace_id is None
            assert done.to_dict()["trace_id"] is None
            # their stage samples survive: queue wait 1.0, served 4.0,
            # serialize unknown (NULL) so it contributes no sample
            stages = upgraded.stage_latency_samples()
            assert stages["queue_wait"] == [1.0]  # 2.0 - 1.0
            assert stages["served"] == [4.0]  # 5.0 - 1.0
            assert stages["serialize"] == []
            # the span sidecar works on the upgraded store ...
            tree = {"trace_id": "t-migrated-001", "pid": 9, "spans": [], "dropped_spans": 0}
            upgraded.save_spans("olddone", "worker", tree, trace_id="t-migrated-001")
            assert upgraded.load_spans("olddone") == {"worker": tree}
            # ... and new submissions stamp trace ids
            record, created = upgraded.submit(
                grid_request(seed=99), trace_id="t-fresh-000001"
            )
            assert created and record.trace_id == "t-fresh-000001"
            # v1/v2 survivors are still intact after two more migrations
            assert upgraded.get("keepme").state == "queued"
        assert tables(path) == CURRENT_TABLES

    def _create_v4_database(self, path) -> None:
        """A version-4 store with rows in every table: done jobs with
        envelopes, worker stats, span trees and the topology sidecar (two
        stand-ins for pickled graphs)."""
        self._create_v3_database(path)
        conn = sqlite3.connect(path)
        conn.execute("ALTER TABLE jobs ADD COLUMN trace_id TEXT")
        conn.execute("ALTER TABLE jobs ADD COLUMN serialize_seconds REAL")
        conn.execute(
            """
            CREATE TABLE trace_spans (
                digest     TEXT NOT NULL,
                source     TEXT NOT NULL,
                trace_id   TEXT,
                payload    TEXT NOT NULL,
                created_at REAL NOT NULL,
                PRIMARY KEY (digest, source)
            )
            """
        )
        envelope = {"kind": "recovery-result", "results": [{"algorithm": "ISP"}]}
        conn.execute(
            "INSERT INTO jobs (digest, kind, request, state, result, attempts, worker, "
            "created_at, started_at, finished_at, first_finished_at, trace_id, "
            "serialize_seconds) VALUES ('v4done', 'recovery', '{}', 'done', ?, 1, 'w2', "
            "10.0, 11.0, 12.5, 12.0, 't-v4-done', 0.001)",
            (json.dumps(envelope, sort_keys=True),),
        )
        conn.execute(
            "INSERT INTO worker_stats (worker, updated_at, counters) VALUES (?, 13.0, ?)",
            ("w2", json.dumps({"jobs_done": 2, "warm_topology_loads": 1,
                               "topology_cache_hits": 4})),
        )
        for source in ("frontend", "worker"):
            tree = {"trace_id": "t-v4-done", "pid": 7, "spans": [{"name": source}],
                    "dropped_spans": 0}
            conn.execute(
                "INSERT INTO trace_spans (digest, source, trace_id, payload, created_at) "
                "VALUES ('v4done', ?, 't-v4-done', ?, 12.0)",
                (source, json.dumps(tree, sort_keys=True)),
            )
        for digest in ("grid-3x3", "ring-8"):
            conn.execute(
                "INSERT INTO topology_cache (digest, payload, created_at) VALUES (?, ?, 1.0)",
                (digest, sqlite3.Binary(b"pickled-graph")),
            )
        conn.execute("PRAGMA user_version=4")
        conn.commit()
        conn.close()

    def test_v4_database_drops_the_topology_sidecar_and_keeps_everything_else(
        self, tmp_path
    ):
        """Migration to v5: the ``topology_cache`` table goes; every job,
        envelope, worker-stats row and span tree reads back unchanged."""
        path = tmp_path / "v4.db"
        self._create_v4_database(path)
        before = rows(path)
        with JobStore(path) as upgraded:
            assert upgraded.schema_version == SCHEMA_VERSION == 5
            done = upgraded.get("v4done")
            assert done.result == {"kind": "recovery-result", "results": [{"algorithm": "ISP"}]}
            assert done.trace_id == "t-v4-done"
            assert upgraded.get("olddone").state == "done"
            assert upgraded.get("keepme").state == "queued"
            assert upgraded.worker_ids() == ["w2"]
            assert upgraded.worker_stats_totals()["topology_cache_hits"] == 4.0
            assert set(upgraded.load_spans("v4done")) == {"frontend", "worker"}
        assert tables(path) == CURRENT_TABLES
        assert rows(path) == before

    def test_fresh_and_migrated_v1_files_end_with_the_same_tables(self, tmp_path):
        fresh, migrated = tmp_path / "fresh.db", tmp_path / "migrated.db"
        JobStore(fresh).close()
        create_v1_database(migrated)
        JobStore(migrated).close()
        assert tables(fresh) == tables(migrated) == CURRENT_TABLES

    @pytest.mark.parametrize("version", [1, 2, 3, 4])
    def test_a_migrated_file_reopens_unchanged(self, tmp_path, version):
        """The chain runs once: a file upgraded from any older version
        reopens at the current version with the same tables and rows."""
        path = tmp_path / f"v{version}.db"
        getattr(self, f"_create_v{version}_database")(path)
        JobStore(path).close()
        migrated = rows(path)
        assert tables(path) == CURRENT_TABLES
        with JobStore(path) as reopened:
            assert reopened.schema_version == SCHEMA_VERSION
        assert tables(path) == CURRENT_TABLES
        assert rows(path) == migrated


class TestPoisonSweepWrites:
    """Satellite-2 regression: the sweep must not write when nothing matches."""

    def test_claim_poll_without_exhausted_rows_takes_no_write(self, store):
        store.submit(grid_request())
        store.claim("w1")  # the queue is now empty, nothing exhausted
        before = store._conn.total_changes
        assert store.claim("w2") is None
        assert store.claim_batch("w2", limit=8) == []
        assert store.sweep_exhausted() == 0
        assert store._conn.total_changes == before

    def test_sweep_writes_only_when_a_budget_is_spent(self, store):
        record, _ = store.submit(grid_request())
        for _ in range(DEFAULT_MAX_ATTEMPTS):
            store.claim("w1")
            store.requeue_orphans()
        assert store.sweep_exhausted() == 1
        assert store.get(record.digest).state == "failed"
        # a second sweep finds nothing and writes nothing
        before = store._conn.total_changes
        assert store.sweep_exhausted() == 0
        assert store._conn.total_changes == before


class TestWorkerBeacons:
    def test_worker_ids_lists_every_stats_row(self, store):
        assert store.worker_ids() == []
        store.record_worker_stats("w1", {"jobs_done": 0})
        store.record_worker_stats("w0", {"jobs_done": 0})
        assert store.worker_ids() == ["w0", "w1"]
