"""The worker fleet: processes that pull jobs and execute them.

Each worker is one OS process owning one
:class:`~repro.api.service.RecoveryService` — the session that accumulates
the pristine-topology LRU across jobs, which is exactly the reuse the
service layer was built for.  Solver structures live for one job's
instance, so a job's envelope does not depend on the jobs before it.
The loop is deliberately simple::

    claim batch -> execute each (solve | assess) -> complete | fail -> report counters

Claims are atomic store operations (``UPDATE ... RETURNING``) taking up to
:data:`DEFAULT_CLAIM_BATCH` jobs per round-trip, so any number of workers
share one database with no coordinator: a duplicate submission is a single
row, and a single row is executed exactly once.  A worker crashing mid-batch
leaves every claimed row ``running`` for
:meth:`~repro.server.stores.sqlite.JobStore.requeue_orphans` to recover.

Idle workers do **not** poll-sleep: the daemon passes each fleet worker one
end of a wakeup pipe and writes a byte on every enqueue, so an idle worker
wakes the moment work arrives (the idle timeout is only the fallback for
externally attached workers and missed notifications).

Shutdown is cooperative: SIGTERM (or :meth:`WorkerFleet.drain`) sets a flag
the loop checks *between* batches — the idle wait uses the stop event's
``wait(timeout)``, so a sleeping worker wakes immediately instead of
finishing its interval.  An in-flight batch always finishes and its results
are stored — the daemon's graceful drain loses nothing.  A worker killed
outright (``kill -9``) leaves its jobs ``running`` in the store;
``requeue_orphans`` returns such rows to the queue when the daemon next
starts.

``python -m repro.server.workers --db PATH`` runs a single foreground
worker — useful for scaling a deployment beyond one machine (point workers
anywhere at the shared database file) and for the crash-recovery tests.
"""

from __future__ import annotations

import argparse
import multiprocessing
import os
import signal
import sys
import time
import traceback
from typing import Dict, List, Optional, Sequence

from repro.api.requests import AssessmentRequest, request_from_dict
from repro.obs.logging import configure_from_env, get_logger, warn_rate_limited
from repro.obs.trace import record_timed, span, trace_context
from repro.server.stores import DEFAULT_MAX_ATTEMPTS, JobRecord, JobStore

_LOG = get_logger(__name__)

#: Seconds a worker waits between claim attempts on an empty queue.  With a
#: wakeup channel attached this is only the fallback for a missed
#: notification; without one it is the poll interval.
DEFAULT_POLL_INTERVAL = 0.2

#: Jobs a worker claims per store round-trip (one ``UPDATE…RETURNING``).
DEFAULT_CLAIM_BATCH = 4

#: Test hook: when set (seconds), a worker holds every claimed job in the
#: ``running`` state for that long before executing it.  This exists so the
#: crash-recovery suite can deterministically observe (and kill) a worker
#: mid-job; production deployments never set it.
HOLD_ENV_VAR = "REPRO_SERVER_TEST_HOLD"

#: Solver-effort keys aggregated from result envelopes into worker counters.
_SOLVER_KEYS = (
    "lp_solves",
    "milp_solves",
    "solve_seconds",
    "build_seconds",
    "incumbent_seeds",
)


class WakeupReceiver:
    """The worker end of a wakeup pipe: block until notified (or timeout).

    The daemon writes single bytes on enqueue; :meth:`wait` blocks on the
    pipe and drains whatever accumulated, collapsing a burst of
    notifications into one wakeup.  Once the daemon's end is closed the
    pipe reads end-of-file for ever, so the receiver drops it (a nudge read
    before the end-of-file still wakes this wait) and from then on waits on
    ``stop`` instead, as a worker without a pipe does.
    """

    def __init__(self, connection, stop=None) -> None:
        self._connection = connection
        self._stop = stop

    def wait(self, timeout: float) -> bool:
        """Wait up to ``timeout`` seconds; True if a notification arrived."""
        if self._connection is not None:
            woken = False
            try:
                if not self._connection.poll(timeout):
                    return False
                while self._connection.poll(0):
                    if not os.read(self._connection.fileno(), 4096):
                        raise EOFError("the wakeup notifier closed its end")
                    woken = True
                return True
            except (OSError, EOFError):
                self._connection = None  # the notifier is gone (daemon died)
            if woken:
                return True  # a nudge written before the close still counts
        _pause(self._stop, timeout)
        return False


class WakeupNotifier:
    """The daemon end: one byte per wakeup, never blocking the event loop."""

    def __init__(self) -> None:
        self._writers: List[object] = []

    def attach(self, writer) -> None:
        os.set_blocking(writer.fileno(), False)
        self._writers.append(writer)

    def notify(self) -> None:
        """Nudge every worker; a full pipe means a wakeup is already pending."""
        for writer in self._writers:
            try:
                os.write(writer.fileno(), b"!")
            except (BlockingIOError, OSError):
                pass

    def close(self) -> None:
        for writer in self._writers:
            try:
                writer.close()
            except OSError:
                pass
        self._writers.clear()


def _execute(service, record: JobRecord) -> Dict[str, object]:
    """Run one job through the service session, returning the envelope dict."""
    request = request_from_dict(record.request)
    if isinstance(request, AssessmentRequest):
        return service.assess(request).to_dict()
    return service.solve(request).to_dict()


def _execute_portfolio(
    service, store: JobStore, record: JobRecord, worker_id: str, counters: Dict[str, float]
) -> Dict[str, object]:
    """Run one recovery job as a two-stage portfolio race.

    The heuristic envelope *completes* the job row immediately (pollers get
    an answer while the exact solve runs); when the exact stage lands, the
    stored envelope is upgraded in place.  Returns the final envelope.
    """
    from repro.portfolio import solve_two_stage  # deferred like the service

    request = request_from_dict(record.request)

    def publish(envelope: Dict[str, object]) -> bool:
        landed = store.complete(record.digest, envelope, worker=worker_id)
        if landed:
            counters["portfolio_stage1"] += 1
        return landed

    envelope, info = solve_two_stage(service, request, publish=publish)
    if info["published"]:
        if store.upgrade_result(record.digest, envelope, worker=worker_id):
            counters["portfolio_upgrades"] += 1
    else:
        store.complete(record.digest, envelope, worker=worker_id)
    counters["portfolio_proven"] += info["proven"]
    counters["portfolio_exact"] += info["exact"]
    return envelope


def _solver_counters(envelope: Dict[str, object]) -> Dict[str, float]:
    """Sum the per-run solver stats of one recovery envelope."""
    totals = dict.fromkeys(_SOLVER_KEYS, 0.0)
    for run in envelope.get("results", []):
        solver = run.get("solver", {}) if isinstance(run, dict) else {}
        for key in _SOLVER_KEYS:
            totals[key] += float(solver.get(key, 0.0))
    return totals


def _pause(stop, timeout: float) -> None:
    """Sleep ``timeout`` seconds, ending early if ``stop`` is set meanwhile.

    Waiting on the stop event (rather than ``time.sleep``) means SIGTERM —
    which sets the event — ends the interval immediately instead of letting
    the worker finish its sleep.
    """
    if stop is not None and callable(getattr(stop, "wait", None)):
        stop.wait(timeout)
    else:
        time.sleep(timeout)


def _idle_wait(stop, wakeup, timeout: float) -> None:
    """One idle interval: the wakeup channel if the worker has one, else ``stop``."""
    if wakeup is not None:
        wakeup.wait(timeout)
    else:
        _pause(stop, timeout)


def worker_loop(
    db_path: str,
    worker_id: str,
    poll_interval: float = DEFAULT_POLL_INTERVAL,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    stop=None,
    max_jobs: Optional[int] = None,
    wakeup: Optional[WakeupReceiver] = None,
    claim_batch: int = DEFAULT_CLAIM_BATCH,
    portfolio: bool = False,
) -> int:
    """Pull and execute jobs until ``stop`` is set; return the jobs handled.

    ``stop`` is any object with an ``is_set()`` method (a
    ``multiprocessing.Event`` in the fleet, a ``threading.Event`` in
    tests); ``None`` runs until ``max_jobs`` (or forever).  ``wakeup``
    (fleet workers) replaces the idle poll with an event-driven wait on the
    daemon's enqueue notifications.  Counters — jobs done/failed, busy
    seconds, claim batches and their sizes, the session's topology-cache
    hits and misses, aggregated solver effort —
    are written back to the store after every batch so the daemon's
    ``/metrics`` reflects the fleet live.

    With ``portfolio=True`` recovery jobs mixing heuristics with an exact
    algorithm execute in two stages (see :mod:`repro.portfolio`): the job
    completes with the heuristic envelope as soon as it exists, and the
    stored result is upgraded in place when the exact solve lands.  The
    ``portfolio_stage1`` / ``portfolio_upgrades`` / ``portfolio_proven`` /
    ``portfolio_exact`` counters account the race.
    """
    from repro.api.service import RecoveryService  # deferred: workers import lazily

    store = JobStore(db_path)
    service = RecoveryService()
    hold = float(os.environ.get(HOLD_ENV_VAR, "0") or "0")
    counters: Dict[str, float] = {
        "jobs_done": 0.0,
        "jobs_failed": 0.0,
        "busy_seconds": 0.0,
        "claim_batches": 0.0,
        "claim_batch_jobs": 0.0,
        "portfolio_stage1": 0.0,
        "portfolio_upgrades": 0.0,
        "portfolio_proven": 0.0,
        "portfolio_exact": 0.0,
    }
    # The first snapshot doubles as the readiness beacon /healthz counts.
    store.record_worker_stats(worker_id, counters)
    _LOG.info("worker ready", extra={"worker": worker_id})
    handled = 0
    try:
        while not (stop is not None and stop.is_set()):
            limit = int(claim_batch)
            if max_jobs is not None:
                limit = max(1, min(limit, max_jobs - handled))
            claim_started = time.perf_counter()
            batch = store.claim_batch(worker_id, limit=limit, max_attempts=max_attempts)
            claim_seconds = time.perf_counter() - claim_started
            if not batch:
                if max_jobs is not None:
                    break  # drain mode: an empty queue ends the run
                _idle_wait(stop, wakeup, poll_interval)
                continue
            counters["claim_batches"] += 1
            counters["claim_batch_jobs"] += len(batch)
            for record in batch:
                if hold > 0:
                    time.sleep(hold)
                started = time.perf_counter()
                failed = False
                # The job's trace resumes here: the front end stamped the
                # trace id on the row at submission, so the worker's spans
                # join the same end-to-end trace.  The batch-wide claim cost
                # is charged to the first job of the batch (with the batch
                # size attached), not duplicated onto all.
                with trace_context(record.trace_id) as trace:
                    if claim_seconds > 0:
                        record_timed("worker.claim", claim_seconds, jobs=len(batch))
                    try:
                        with span(
                            "worker.execute",
                            digest=record.digest,
                            kind=record.kind,
                            worker=worker_id,
                        ):
                            if portfolio and record.kind == "recovery":
                                envelope = _execute_portfolio(
                                    service, store, record, worker_id, counters
                                )
                            else:
                                envelope = _execute(service, record)
                                with span("worker.persist"):
                                    store.complete(
                                        record.digest, envelope, worker=worker_id
                                    )
                    except Exception:
                        failed = True
                        counters["jobs_failed"] += 1
                        store.fail(
                            record.digest,
                            traceback.format_exc(limit=20),
                            worker=worker_id,
                        )
                    else:
                        counters["jobs_done"] += 1
                        for key, value in _solver_counters(envelope).items():
                            counters[key] = counters.get(key, 0.0) + value
                handled += 1
                elapsed = time.perf_counter() - started
                counters["busy_seconds"] += elapsed
                try:
                    store.save_spans(
                        record.digest, "worker", trace.to_payload(), trace.trace_id
                    )
                except Exception as error:
                    warn_rate_limited(
                        _LOG,
                        "span-persist",
                        "failed to persist worker spans",
                        digest=record.digest,
                        error=f"{type(error).__name__}: {error}",
                    )
                log_fields = {
                    "trace_id": trace.trace_id,
                    "digest": record.digest,
                    "worker": worker_id,
                    "kind": record.kind,
                    "seconds": round(elapsed, 6),
                }
                if failed:
                    _LOG.warning("job failed", extra=log_fields)
                else:
                    _LOG.info("job done", extra=log_fields)
                claim_seconds = 0.0
            counters.update(
                {key: float(value) for key, value in service.cache_info().items()}
            )
            store.record_worker_stats(worker_id, counters)
            if max_jobs is not None and handled >= max_jobs:
                break
    finally:
        store.close()
    return handled


def _fleet_entry(
    db_path: str,
    worker_id: str,
    poll_interval: float,
    max_attempts: int,
    stop_event,
    wakeup_connection,
    claim_batch: int,
    portfolio: bool,
) -> None:
    """Process target for fleet workers: wire SIGTERM to the stop event.

    SIGTERM requests a drain (finish the in-flight batch, then exit); the
    fleet escalates to SIGKILL only if a worker overstays the drain
    timeout.
    """
    configure_from_env()  # spawn gives a fresh interpreter; match the daemon
    signal.signal(signal.SIGTERM, lambda *_: stop_event.set())
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the daemon handles Ctrl-C
    worker_loop(
        db_path,
        worker_id,
        poll_interval=poll_interval,
        max_attempts=max_attempts,
        stop=stop_event,
        wakeup=WakeupReceiver(wakeup_connection, stop_event),
        claim_batch=claim_batch,
        portfolio=portfolio,
    )


class WorkerFleet:
    """N worker processes attached to one job store."""

    def __init__(
        self,
        db_path: str,
        workers: int = 2,
        poll_interval: float = DEFAULT_POLL_INTERVAL,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        claim_batch: int = DEFAULT_CLAIM_BATCH,
        portfolio: bool = False,
    ) -> None:
        if workers < 1:
            raise ValueError("a worker fleet needs at least one worker")
        if claim_batch < 1:
            raise ValueError("a fleet claim batch needs at least one job")
        self.db_path = str(db_path)
        self.workers = int(workers)
        self.poll_interval = float(poll_interval)
        self.max_attempts = int(max_attempts)
        self.claim_batch = int(claim_batch)
        self.portfolio = bool(portfolio)
        # "spawn" keeps workers independent of the daemon's asyncio state
        # (forking a process with a live event loop inherits it wholesale).
        self._context = multiprocessing.get_context("spawn")
        self._stop = self._context.Event()
        self._processes: List[multiprocessing.Process] = []
        self._notifier = WakeupNotifier()
        self._worker_ids: List[str] = []

    def start(self) -> None:
        if self._processes:
            raise RuntimeError("fleet already started")
        for index in range(self.workers):
            worker_id = f"worker-{os.getpid()}-{index}"
            reader, writer = self._context.Pipe(duplex=False)
            process = self._context.Process(
                target=_fleet_entry,
                args=(
                    self.db_path,
                    worker_id,
                    self.poll_interval,
                    self.max_attempts,
                    self._stop,
                    reader,
                    self.claim_batch,
                    self.portfolio,
                ),
                daemon=True,
            )
            process.start()
            reader.close()  # the child owns the read end now
            self._notifier.attach(writer)
            self._processes.append(process)
            self._worker_ids.append(worker_id)

    def notify(self) -> None:
        """Wake idle workers: the daemon calls this on every enqueue."""
        self._notifier.notify()

    def alive(self) -> int:
        return sum(1 for process in self._processes if process.is_alive())

    def pids(self) -> List[int]:
        return [process.pid for process in self._processes if process.pid is not None]

    def worker_ids(self) -> List[str]:
        """The ids this fleet's workers report counters under."""
        return list(self._worker_ids)

    def drain(self, timeout: float = 30.0) -> None:
        """Graceful shutdown: let in-flight jobs finish, then reap.

        The stop flag is paired with a wakeup nudge, so idle workers end
        their wait immediately instead of sleeping out the interval.
        Workers that ignore the drain past ``timeout`` are terminated (their
        job rows stay ``running`` and are requeued on the next startup —
        the same path as a crash, by design).
        """
        self._stop.set()
        self._notifier.notify()
        deadline = time.monotonic() + timeout
        for process in self._processes:
            process.join(timeout=max(0.1, deadline - time.monotonic()))
        for process in self._processes:
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)
        self._notifier.close()
        self._processes.clear()
        self._worker_ids.clear()


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one foreground worker (``python -m repro.server.workers``)."""
    parser = argparse.ArgumentParser(
        prog="repro.server.workers", description="run a single recovery worker"
    )
    parser.add_argument("--db", required=True, help="path to the shared job store")
    parser.add_argument("--worker-id", default=f"worker-{os.getpid()}", help="worker identity")
    parser.add_argument(
        "--poll-interval", type=float, default=DEFAULT_POLL_INTERVAL, help="idle poll seconds"
    )
    parser.add_argument(
        "--claim-batch",
        type=int,
        default=DEFAULT_CLAIM_BATCH,
        help="jobs claimed per store round-trip",
    )
    parser.add_argument(
        "--max-jobs",
        type=int,
        default=None,
        help="drain mode: handle at most this many jobs, exit when the queue empties",
    )
    parser.add_argument(
        "--portfolio",
        action="store_true",
        help="two-stage portfolio execution: complete jobs with the heuristic "
        "envelope first, upgrade in place when the exact solve lands",
    )
    args = parser.parse_args(argv)
    configure_from_env()  # an externally attached worker logs like the daemon

    # A real threading.Event so the idle wait ends the moment SIGTERM sets
    # it, instead of the worker finishing its sleep interval.
    import threading

    flag = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: flag.set())
    handled = worker_loop(
        args.db,
        args.worker_id,
        poll_interval=args.poll_interval,
        stop=flag,
        max_jobs=args.max_jobs,
        claim_batch=args.claim_batch,
        portfolio=args.portfolio,
    )
    print(f"{args.worker_id}: handled {handled} job(s)", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess in tests
    sys.exit(main())
