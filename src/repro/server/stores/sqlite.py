"""The job store: one SQLite file as a durable queue + result cache.

One database file holds every job a daemon has ever accepted, which is what
makes the service crash-safe: an accepted job survives daemon restarts,
worker crashes and power loss, and a finished job's envelope is served from
disk forever after (idempotent re-submission of the same request returns
the stored row instead of recomputing).  :class:`JobStore` keeps the
contract stated in :mod:`repro.server.stores.base`.

Schema (version 5)
------------------
``PRAGMA user_version`` carries the schema version.  Three tables:

``jobs``
    One row per accepted request, keyed by the library-wide
    :func:`~repro.api.requests.config_digest` of the canonical request
    payload — the same digest the engine's result cache and the service
    session use, so "the same job" means the same thing at every layer.

    =================  =======  ================================================
    column             type     meaning
    =================  =======  ================================================
    digest             TEXT PK  ``config_digest(request.to_dict())``
    kind               TEXT     ``recovery`` or ``assessment``
    request            TEXT     canonical request payload (JSON)
    state              TEXT     ``queued`` / ``running`` / ``done`` / ``failed``
    result             TEXT     versioned result envelope (JSON), once ``done``
    error              TEXT     failure detail, once ``failed``
    attempts           INTEGER  how many times a worker claimed the job
    worker             TEXT     id of the worker that (last) claimed the job
    created_at         REAL     unix time of first submission
    started_at         REAL     unix time of the (last) claim
    finished_at        REAL     unix time the envelope reached its current form
    first_finished_at  REAL     unix time of the *first* completion (version 3)
    trace_id           TEXT     trace id of the creating submission (version 4)
    serialize_seconds  REAL     envelope ``json.dumps`` cost at completion (v4)
    =================  =======  ================================================

    ``finished_at`` moves when a portfolio upgrade replaces a done
    envelope in place; ``first_finished_at`` never does — it is what the
    ``/metrics`` solve-latency histogram measures (claim → first answer).
    ``trace_id`` is telemetry only: it rides *next to* the request, never
    inside it, so it can never perturb the digest or the envelope.
    ``serialize_seconds`` likewise sticks to the first completion — the
    serialize-stage histogram measures the serve path, not upgrades.

``worker_stats``
    One row per worker id: a JSON object of monotonic counters (jobs done,
    topology-cache hits/misses, solver effort) refreshed after every job so
    the daemon's ``/metrics`` can aggregate fleet-wide totals without
    talking to worker processes.

``trace_spans`` (version 4)
    The cross-process span sidecar: one JSON span-tree payload per
    ``(digest, source)``, where ``source`` is ``frontend`` (written at
    submission by the HTTP ingress) or ``worker`` (written when the
    claiming worker finishes).  ``GET /v1/trace/{digest}`` merges the
    sources into one trace.  Rows are upserted — a retried execution
    replaces the stale worker tree — and live outside the job row so the
    envelope fast path never touches (or re-serializes) telemetry.

Migration policy
----------------
Opening a database whose ``user_version`` is *newer* than this library
raises :class:`StoreSchemaError` (never guess at a future format).  An
*older* version is migrated in-place inside one transaction by the
``_MIGRATIONS`` chain (version 3 adds ``jobs.first_finished_at``,
backfilled from ``finished_at`` — the best available approximation for
rows that predate the split; version 4 adds
``jobs.trace_id``/``jobs.serialize_seconds`` and the ``trace_spans``
sidecar — pre-existing rows simply carry no telemetry; version 5 drops the
``topology_cache`` table that version 2 added, a fleet-shared copy of the
pristine topologies each worker's service session caches anyway).
Removing or renaming a column requires a new version — the store never
alters the meaning of an existing column in place.

Concurrency
-----------
WAL journal mode lets the HTTP front end read (counts, job lookups) while
workers write.  Every mutating operation is a single atomic statement
(``UPDATE ... RETURNING`` for claims, ``INSERT ... ON CONFLICT`` for
submissions), so any number of worker *processes* can share one database:
two workers racing for the same queued job get it exactly once, and a
worker killed mid-job (even ``kill -9``) leaves a ``running`` row that
:meth:`JobStore.requeue_orphans` returns to the queue on daemon
startup.
"""

from __future__ import annotations

import json
import sqlite3
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.obs.logging import get_logger
from repro.obs.trace import record_timed
from repro.server.stores.base import (
    DEFAULT_MAX_ATTEMPTS,
    Request,
    STATES,
    StoreSchemaError,
    canonical_request,
)

#: Bump when a column changes meaning; see the migration policy above.
SCHEMA_VERSION = 5

#: Why a directory is refused as a store path.
REMOVED_LAYOUT_MESSAGE = (
    "the sharded job store (a directory of shard files) was removed; "
    "a job store is one SQLite file, and commit 5e2b833 is the last that "
    "reads a sharded store"
)

_LOG = get_logger(__name__)


@dataclass(frozen=True)
class JobRecord:
    """One row of the ``jobs`` table, as plain data."""

    digest: str
    kind: str
    request: Dict[str, Any]
    state: str
    result: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    attempts: int = 0
    worker: Optional[str] = None
    created_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    first_finished_at: Optional[float] = None
    trace_id: Optional[str] = None
    serialize_seconds: Optional[float] = None

    def to_dict(self, include_request: bool = True) -> Dict[str, Any]:
        """The wire shape of a job (what ``GET /v1/jobs/{digest}`` returns)."""
        payload: Dict[str, Any] = {
            "digest": self.digest,
            "kind": self.kind,
            "state": self.state,
            "attempts": self.attempts,
            "worker": self.worker,
            "created_at": self.created_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "first_finished_at": self.first_finished_at,
            "trace_id": self.trace_id,
        }
        if include_request:
            payload["request"] = self.request
        if self.result is not None:
            payload["result"] = self.result
        if self.error is not None:
            payload["error"] = self.error
        return payload


def _record(row: sqlite3.Row) -> JobRecord:
    return JobRecord(
        digest=row["digest"],
        kind=row["kind"],
        request=json.loads(row["request"]),
        state=row["state"],
        result=json.loads(row["result"]) if row["result"] is not None else None,
        error=row["error"],
        attempts=int(row["attempts"]),
        worker=row["worker"],
        created_at=float(row["created_at"]),
        started_at=None if row["started_at"] is None else float(row["started_at"]),
        finished_at=None if row["finished_at"] is None else float(row["finished_at"]),
        first_finished_at=(
            None
            if row["first_finished_at"] is None
            else float(row["first_finished_at"])
        ),
        trace_id=row["trace_id"],
        serialize_seconds=(
            None
            if row["serialize_seconds"] is None
            else float(row["serialize_seconds"])
        ),
    )


_CREATE_JOBS = """
CREATE TABLE IF NOT EXISTS jobs (
    digest            TEXT PRIMARY KEY,
    kind              TEXT NOT NULL,
    request           TEXT NOT NULL,
    state             TEXT NOT NULL CHECK (state IN ('queued', 'running', 'done', 'failed')),
    result            TEXT,
    error             TEXT,
    attempts          INTEGER NOT NULL DEFAULT 0,
    worker            TEXT,
    created_at        REAL NOT NULL,
    started_at        REAL,
    finished_at       REAL,
    first_finished_at REAL,
    trace_id          TEXT,
    serialize_seconds REAL
)
"""

_CREATE_JOBS_STATE_INDEX = """
CREATE INDEX IF NOT EXISTS jobs_state_created ON jobs (state, created_at)
"""

_CREATE_WORKER_STATS = """
CREATE TABLE IF NOT EXISTS worker_stats (
    worker     TEXT PRIMARY KEY,
    updated_at REAL NOT NULL,
    counters   TEXT NOT NULL
)
"""

_CREATE_TRACE_SPANS = """
CREATE TABLE IF NOT EXISTS trace_spans (
    digest     TEXT NOT NULL,
    source     TEXT NOT NULL,
    trace_id   TEXT,
    payload    TEXT NOT NULL,
    created_at REAL NOT NULL,
    PRIMARY KEY (digest, source)
)
"""

#: version -> statements upgrading *to* that version (applied in order for
#: every version above the database's).
_MIGRATIONS: Dict[int, Tuple[str, ...]] = {
    # Version 2 created the topology sidecar that version 5 drops, so no
    # store, fresh or migrated, ends up holding it.
    2: (),
    3: (
        "ALTER TABLE jobs ADD COLUMN first_finished_at REAL",
        # Best available backfill: rows written before the split measured
        # claim -> final envelope; treating that as the first completion
        # keeps their histogram contribution unchanged.
        "UPDATE jobs SET first_finished_at = finished_at WHERE finished_at IS NOT NULL",
    ),
    4: (
        # Telemetry rides beside the request, never inside it: existing
        # rows simply carry no trace id and no stage timings.
        "ALTER TABLE jobs ADD COLUMN trace_id TEXT",
        "ALTER TABLE jobs ADD COLUMN serialize_seconds REAL",
        _CREATE_TRACE_SPANS,
    ),
    5: ("DROP TABLE IF EXISTS topology_cache",),
}


class JobStore:
    """A process's handle on one shared job database file.

    Each process (HTTP front end, every worker) opens its own store; SQLite
    coordinates them through the database file.  The handle is cheap — one
    connection in autocommit mode with a busy timeout, so concurrent
    writers queue behind each other instead of failing.  A ``path`` that
    is a directory raises :class:`StoreSchemaError`.
    """

    def __init__(self, path: Union[str, Path], busy_timeout: float = 10.0) -> None:
        self.path = Path(path)
        if self.path.is_dir():
            raise StoreSchemaError(
                f"job store {self.path} is a directory: {REMOVED_LAYOUT_MESSAGE}"
            )
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._conn = sqlite3.connect(
            self.path, timeout=busy_timeout, isolation_level=None, check_same_thread=False
        )
        self._conn.row_factory = sqlite3.Row
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.execute(f"PRAGMA busy_timeout={int(busy_timeout * 1000)}")
        self._ensure_schema()

    # ------------------------------------------------------------------ #
    # Schema
    # ------------------------------------------------------------------ #
    def _ensure_schema(self) -> None:
        version = int(self._conn.execute("PRAGMA user_version").fetchone()[0])
        if version > SCHEMA_VERSION:
            raise StoreSchemaError(
                f"job store {self.path} has schema version {version}, "
                f"this library understands <= {SCHEMA_VERSION}"
            )
        self._conn.execute("BEGIN IMMEDIATE")
        try:
            if version == 0:
                self._conn.execute(_CREATE_JOBS)
                self._conn.execute(_CREATE_JOBS_STATE_INDEX)
                self._conn.execute(_CREATE_WORKER_STATS)
                self._conn.execute(_CREATE_TRACE_SPANS)
            else:
                for target in range(version + 1, SCHEMA_VERSION + 1):
                    for statement in _MIGRATIONS.get(target, ()):
                        self._conn.execute(statement)
            self._conn.execute(f"PRAGMA user_version={SCHEMA_VERSION}")
            self._conn.execute("COMMIT")
        except BaseException:
            self._conn.execute("ROLLBACK")
            raise
        if 0 < version < SCHEMA_VERSION:
            _LOG.info(
                "store schema migrated",
                extra={
                    "db": str(self.path),
                    "from_version": version,
                    "to_version": SCHEMA_VERSION,
                },
            )

    @property
    def schema_version(self) -> int:
        return int(self._conn.execute("PRAGMA user_version").fetchone()[0])

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "JobStore":
        return self

    def __exit__(self, *_: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Submission (idempotent by digest)
    # ------------------------------------------------------------------ #
    _REQUEUE_FAILED = (
        "UPDATE jobs SET state = 'queued', error = NULL, attempts = 0, "
        "worker = NULL, started_at = NULL, finished_at = NULL, "
        "first_finished_at = NULL "
        "WHERE digest = ? AND state = 'failed'"
    )

    def submit(
        self,
        request: Union[Request, Dict[str, Any]],
        trace_id: Optional[str] = None,
    ) -> Tuple[JobRecord, bool]:
        """Accept ``request`` and return ``(record, created)``.

        The request is canonicalised through the schema classes first, so
        two payloads describing the same instance (however the client
        ordered or defaulted their fields) land on the same digest.  A
        digest already present is returned as-is (``created=False``) — the
        dedup that makes retries and duplicate clients free.  One
        exception: a previously *failed* job is requeued by resubmission
        (fresh attempt budget), because the client asking again is the
        natural retry trigger.

        ``trace_id`` (telemetry only — it never feeds the digest) is
        stamped on the row the submission *creates*; a dedup hit keeps the
        creating submission's id, so a job's trace is the trace of the
        request that caused the work.
        """
        parsed, payload, digest = canonical_request(request)
        cursor = self._conn.execute(
            """
            INSERT INTO jobs (digest, kind, request, state, created_at, trace_id)
            VALUES (?, ?, ?, 'queued', ?, ?)
            ON CONFLICT (digest) DO NOTHING
            """,
            (digest, parsed.kind, json.dumps(payload, sort_keys=True), time.time(), trace_id),
        )
        created = cursor.rowcount == 1
        if not created:
            self._conn.execute(self._REQUEUE_FAILED, (digest,))
        record = self.get(digest)
        assert record is not None
        return record, created

    def submit_many(
        self,
        requests: Sequence[Union[Request, Dict[str, Any]]],
        trace_id: Optional[str] = None,
    ) -> List[Tuple[JobRecord, bool]]:
        """Accept a batch of requests in **one transaction**.

        Semantically identical to calling :meth:`submit` per item (same
        dedup, same failed-row requeue), but the whole batch costs a single
        WAL commit instead of one per job — the round-trip that makes an
        8-request burst as cheap as one submission.  ``trace_id`` (one
        HTTP request, one trace) is stamped on every row the batch creates.
        """
        parsed_items: List[Tuple[Request, str, str]] = []
        for request in requests:
            parsed, payload, digest = canonical_request(request)
            parsed_items.append((parsed, digest, json.dumps(payload, sort_keys=True)))

        results: List[Tuple[str, bool]] = []
        now = time.time()
        self._conn.execute("BEGIN IMMEDIATE")
        try:
            for parsed, digest, payload_json in parsed_items:
                cursor = self._conn.execute(
                    """
                    INSERT INTO jobs (digest, kind, request, state, created_at, trace_id)
                    VALUES (?, ?, ?, 'queued', ?, ?)
                    ON CONFLICT (digest) DO NOTHING
                    """,
                    (digest, parsed.kind, payload_json, now, trace_id),
                )
                created = cursor.rowcount == 1
                if not created:
                    self._conn.execute(self._REQUEUE_FAILED, (digest,))
                results.append((digest, created))
            self._conn.execute("COMMIT")
        except BaseException:
            self._conn.execute("ROLLBACK")
            raise
        records: List[Tuple[JobRecord, bool]] = []
        for digest, created in results:
            record = self.get(digest)
            assert record is not None
            records.append((record, created))
        return records

    # ------------------------------------------------------------------ #
    # Worker side: claim / complete / fail
    # ------------------------------------------------------------------ #
    def claim(
        self, worker: str, max_attempts: int = DEFAULT_MAX_ATTEMPTS
    ) -> Optional[JobRecord]:
        """Atomically move the oldest queued job to ``running`` for ``worker``.

        A batch claim of size one — see :meth:`claim_batch` for the
        guarantees.
        """
        batch = self.claim_batch(worker, limit=1, max_attempts=max_attempts)
        return batch[0] if batch else None

    def sweep_exhausted(self, max_attempts: int = DEFAULT_MAX_ATTEMPTS) -> int:
        """Fail queued jobs whose attempt budget is spent; return the count.

        The sweep runs ahead of every claim so a poison job (one that
        keeps crashing its worker) is failed instead of handed out again.
        Two deliberate behaviours:

        * **no-op means no write** — the common case (nothing exhausted)
          is answered by an index-only read, so claim polls on an idle or
          healthy queue never take the write lock;
        * **the root cause survives** — any error already recorded on the
          row (the requeue breadcrumb naming the vanished worker, or a
          detail an external tool stored) is appended to the give-up
          message instead of being overwritten.
        """
        exhausted = self._conn.execute(
            "SELECT 1 FROM jobs WHERE state = 'queued' AND attempts >= ? LIMIT 1",
            (int(max_attempts),),
        ).fetchone()
        if exhausted is None:
            return 0
        cursor = self._conn.execute(
            """
            UPDATE jobs
            SET state = 'failed', finished_at = ?,
                error = 'gave up after ' || attempts || ' failed attempt(s)'
                        || CASE
                               WHEN error IS NOT NULL AND error != ''
                               THEN '; last error: ' || error
                               ELSE ''
                           END
            WHERE state = 'queued' AND attempts >= ?
            """,
            (time.time(), int(max_attempts)),
        )
        return cursor.rowcount

    def claim_batch(
        self, worker: str, limit: int = 1, max_attempts: int = DEFAULT_MAX_ATTEMPTS
    ) -> List[JobRecord]:
        """Atomically claim up to ``limit`` oldest queued jobs for ``worker``.

        Exactly one of any number of racing workers receives a given job —
        the single ``UPDATE ... RETURNING`` statement is the whole
        transaction, so a burst of N jobs costs one store round-trip
        instead of N claim polls.  Jobs whose attempt budget is exhausted
        (requeued after repeatedly crashing their worker) are failed
        instead of handed out again.  Every claimed job carries the same
        claim-holder guard as a single claim: :meth:`complete` and
        :meth:`fail` only land while the row is ``running`` under
        ``worker``, and a worker crashing mid-batch leaves every claimed
        row ``running`` for :meth:`requeue_orphans` to recover.
        """
        if limit < 1:
            raise ValueError("claim_batch limit must be at least 1")
        self.sweep_exhausted(max_attempts)
        rows = self._conn.execute(
            """
            UPDATE jobs
            SET state = 'running', worker = ?, started_at = ?, attempts = attempts + 1
            WHERE digest IN (
                SELECT digest FROM jobs
                WHERE state = 'queued' AND attempts < ?
                ORDER BY created_at, digest LIMIT ?
            ) AND state = 'queued'
            RETURNING *
            """,
            (worker, time.time(), int(max_attempts), int(limit)),
        ).fetchall()
        records = [_record(row) for row in rows]
        records.sort(key=lambda record: (record.created_at, record.digest))
        return records

    def _finish(self, digest: str, worker: Optional[str], assignments: str, values: Tuple) -> bool:
        """Terminal-state update, guarded so only the claim holder lands it.

        A worker that lost its claim — its ``running`` row was requeued by
        a daemon restart and handed to someone else — must not overwrite
        the new holder's outcome, so the update only matches a ``running``
        row (and, when ``worker`` is given, one still assigned to that
        worker).  Returns whether the write landed.
        """
        guard = "state = 'running'"
        params = tuple(values) + (digest,)
        if worker is not None:
            guard += " AND worker = ?"
            params += (worker,)
        cursor = self._conn.execute(
            f"UPDATE jobs SET {assignments} WHERE digest = ? AND {guard}", params
        )
        return cursor.rowcount == 1

    def complete(self, digest: str, result: Dict[str, Any], worker: Optional[str] = None) -> bool:
        """Store ``result`` and move the job to ``done`` (claim holder only).

        Both completion stamps are set to the same instant:
        ``first_finished_at`` stays put through later portfolio upgrades
        (it is what the latency histogram measures), while ``finished_at``
        tracks the envelope's final form.  Any requeue breadcrumb in
        ``error`` is cleared — a done row answered cleanly.

        The envelope's ``json.dumps`` cost is measured here (this *is*
        the serving path's serialize stage) and stored in
        ``serialize_seconds`` for the ``/metrics`` histogram; it also
        lands as a ``store.serialize`` span when a trace is active.
        """
        serialize_started = time.perf_counter()
        encoded = json.dumps(result, sort_keys=True)
        serialize_seconds = time.perf_counter() - serialize_started
        record_timed("store.serialize", serialize_seconds, bytes=len(encoded))
        now = time.time()
        return self._finish(
            digest,
            worker,
            "state = 'done', result = ?, error = NULL, finished_at = ?, "
            "first_finished_at = ?, serialize_seconds = ?",
            (encoded, now, now, serialize_seconds),
        )

    def upgrade_result(
        self, digest: str, result: Dict[str, Any], worker: Optional[str] = None
    ) -> bool:
        """Replace the stored envelope of a **done** job in place.

        The portfolio path completes a job early with its heuristic
        envelope (so pollers see an answer immediately) and calls this when
        the exact solve lands.  The update only matches a ``done`` row —
        and, when ``worker`` is given, one finished by that worker — so a
        row that was requeued and re-executed elsewhere keeps the new
        holder's outcome.  ``finished_at`` is refreshed (it marks when the
        envelope reached its final form); ``first_finished_at`` is *not* —
        the solve-latency histogram measures claim → first answer, and an
        upgrade is a better answer, not a slower one.
        """
        guard = "state = 'done'"
        params: Tuple = (json.dumps(result, sort_keys=True), time.time(), digest)
        if worker is not None:
            guard += " AND worker = ?"
            params += (worker,)
        cursor = self._conn.execute(
            f"UPDATE jobs SET result = ?, finished_at = ? WHERE digest = ? AND {guard}",
            params,
        )
        return cursor.rowcount == 1

    def fail(self, digest: str, error: str, worker: Optional[str] = None) -> bool:
        """Record ``error`` and move the job to ``failed`` (claim holder only)."""
        return self._finish(
            digest,
            worker,
            "state = 'failed', error = ?, finished_at = ?",
            (str(error), time.time()),
        )

    def requeue_orphans(self) -> int:
        """Return every ``running`` job to the queue (daemon startup).

        A ``running`` row with no live worker is a crashed execution; its
        attempt count is preserved, so a job that keeps killing workers
        exhausts :data:`DEFAULT_MAX_ATTEMPTS` and fails instead of cycling
        forever.  A breadcrumb naming the vanished worker is recorded in
        ``error`` so the poison sweep can report a root cause when the
        budget runs out (a later clean completion clears it).  A
        still-live worker whose job gets requeued out from under it (e.g.
        an external worker across a daemon restart) cannot corrupt the
        re-execution: :meth:`complete`/:meth:`fail` only land while the
        row is ``running`` under the caller's claim.
        """
        cursor = self._conn.execute(
            """
            UPDATE jobs
            SET state = 'queued', started_at = NULL,
                error = 'worker ''' || COALESCE(worker, '?')
                        || ''' vanished mid-execution (attempt ' || attempts || ')',
                worker = NULL
            WHERE state = 'running'
            """
        )
        return cursor.rowcount

    # ------------------------------------------------------------------ #
    # Lookups and metrics
    # ------------------------------------------------------------------ #
    def get(self, digest: str) -> Optional[JobRecord]:
        row = self._conn.execute("SELECT * FROM jobs WHERE digest = ?", (digest,)).fetchone()
        return _record(row) if row is not None else None

    def jobs(self, state: Optional[str] = None, limit: int = 1000) -> List[JobRecord]:
        """The newest ``limit`` jobs, optionally filtered by state."""
        if state is not None and state not in STATES:
            raise ValueError(f"unknown job state {state!r}; valid: {', '.join(STATES)}")
        if state is None:
            rows = self._conn.execute(
                "SELECT * FROM jobs ORDER BY created_at DESC LIMIT ?", (int(limit),)
            )
        else:
            rows = self._conn.execute(
                "SELECT * FROM jobs WHERE state = ? ORDER BY created_at DESC LIMIT ?",
                (state, int(limit)),
            )
        return [_record(row) for row in rows.fetchall()]

    def counts(self) -> Dict[str, int]:
        """Job counts by state (every state present, zero-filled)."""
        totals = dict.fromkeys(STATES, 0)
        for row in self._conn.execute("SELECT state, COUNT(*) AS n FROM jobs GROUP BY state"):
            totals[row["state"]] = int(row["n"])
        return totals

    def queue_depth(self) -> int:
        row = self._conn.execute("SELECT COUNT(*) FROM jobs WHERE state = 'queued'").fetchone()
        return int(row[0])

    def solve_latency_samples(self, limit: int = 2048) -> List[Tuple[float, float]]:
        """``(completed_at, seconds)`` of the newest done jobs, newest first.

        ``seconds`` is claim → **first** completion: a portfolio upgrade
        refreshes ``finished_at`` but must not re-enter the histogram
        window with a claim → final-upgrade duration, so both the window
        ordering and the duration use ``first_finished_at`` (falling back
        to ``finished_at`` only for pre-version-3 rows).
        """
        rows = self._conn.execute(
            """
            SELECT COALESCE(first_finished_at, finished_at) AS completed_at,
                   COALESCE(first_finished_at, finished_at) - started_at AS seconds
            FROM jobs
            WHERE state = 'done' AND started_at IS NOT NULL AND finished_at IS NOT NULL
            ORDER BY completed_at DESC LIMIT ?
            """,
            (int(limit),),
        ).fetchall()
        return [(float(row["completed_at"]), float(row["seconds"])) for row in rows]

    def solve_latencies(self, limit: int = 2048) -> List[float]:
        """Execution seconds (claim to first completion) of the newest done jobs."""
        return [max(0.0, seconds) for _, seconds in self.solve_latency_samples(limit)]

    def stage_latency_samples(self, limit: int = 2048) -> Dict[str, List[float]]:
        """Per-stage latency samples of the newest done jobs.

        Three sample sets feed the ``/metrics`` stage histograms:

        * ``queue_wait`` — submission → (last) claim;
        * ``serialize`` — the envelope's ``json.dumps`` cost at completion;
        * ``served`` — submission → first completion, the end-to-end
          latency a polling client experiences (portfolio upgrades do not
          re-enter, same rule as the solve-latency histogram).
        """
        rows = self._conn.execute(
            """
            SELECT created_at, started_at, serialize_seconds,
                   COALESCE(first_finished_at, finished_at) AS completed_at
            FROM jobs
            WHERE state = 'done' AND started_at IS NOT NULL AND finished_at IS NOT NULL
            ORDER BY completed_at DESC LIMIT ?
            """,
            (int(limit),),
        ).fetchall()
        samples: Dict[str, List[float]] = {"queue_wait": [], "serialize": [], "served": []}
        for row in rows:
            samples["queue_wait"].append(
                max(0.0, float(row["started_at"]) - float(row["created_at"]))
            )
            if row["serialize_seconds"] is not None:
                samples["serialize"].append(max(0.0, float(row["serialize_seconds"])))
            samples["served"].append(
                max(0.0, float(row["completed_at"]) - float(row["created_at"]))
            )
        return samples

    # ------------------------------------------------------------------ #
    # Trace-span sidecar (one JSON span tree per (digest, source))
    # ------------------------------------------------------------------ #
    def save_spans(
        self,
        digest: str,
        source: str,
        payload: Dict[str, Any],
        trace_id: Optional[str] = None,
    ) -> None:
        """Upsert one source's span tree for ``digest``.

        Upsert, not write-once: a retried execution replaces the stale
        worker tree, and the newest spans are the ones that describe the
        row a client can fetch.
        """
        self._conn.execute(
            "INSERT INTO trace_spans (digest, source, trace_id, payload, created_at) "
            "VALUES (?, ?, ?, ?, ?) "
            "ON CONFLICT (digest, source) DO UPDATE SET trace_id = excluded.trace_id, "
            "payload = excluded.payload, created_at = excluded.created_at",
            (digest, str(source), trace_id, json.dumps(payload, sort_keys=True), time.time()),
        )

    def load_spans(self, digest: str) -> Dict[str, Dict[str, Any]]:
        """Every stored span tree for ``digest``, keyed by source."""
        trees: Dict[str, Dict[str, Any]] = {}
        for row in self._conn.execute(
            "SELECT source, payload FROM trace_spans WHERE digest = ?", (digest,)
        ):
            try:
                trees[row["source"]] = json.loads(row["payload"])
            except ValueError:
                continue  # a corrupt sidecar row must never break the trace view
        return trees

    # ------------------------------------------------------------------ #
    # Worker-reported counters
    # ------------------------------------------------------------------ #
    def record_worker_stats(self, worker: str, counters: Dict[str, float]) -> None:
        """Refresh ``worker``'s counter snapshot (monotonic per worker)."""
        self._conn.execute(
            "INSERT INTO worker_stats (worker, updated_at, counters) VALUES (?, ?, ?) "
            "ON CONFLICT (worker) DO UPDATE SET updated_at = excluded.updated_at, "
            "counters = excluded.counters",
            (worker, time.time(), json.dumps(counters, sort_keys=True)),
        )

    def worker_ids(self) -> List[str]:
        """Worker ids that have reported a counter snapshot.

        Workers write their first (zeroed) snapshot as soon as their warm
        service session is built, so presence here doubles as a readiness
        beacon — the daemon's ``/healthz`` counts its own fleet's ids.
        """
        rows = self._conn.execute("SELECT worker FROM worker_stats ORDER BY worker")
        return [row["worker"] for row in rows.fetchall()]

    def worker_stats_totals(self) -> Dict[str, float]:
        """Fleet-wide counter totals (summed across worker snapshots)."""
        totals: Dict[str, float] = {}
        for row in self._conn.execute("SELECT counters FROM worker_stats"):
            try:
                counters = json.loads(row["counters"])
            except ValueError:
                continue
            for key, value in counters.items():
                if isinstance(value, (int, float)):
                    totals[key] = totals.get(key, 0.0) + float(value)
        return totals


__all__ = [
    "JobRecord",
    "JobStore",
    "REMOVED_LAYOUT_MESSAGE",
    "SCHEMA_VERSION",
]
