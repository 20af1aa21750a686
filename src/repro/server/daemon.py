"""Daemon orchestration: store + worker fleet + HTTP front end.

``repro.cli serve`` builds a :class:`ServerConfig` and calls
:func:`run_server`, which owns the whole lifecycle:

1. open (creating if needed) the durable store and **requeue orphans** —
   jobs left ``running`` by a previous crash go back to the queue before
   any worker starts, so an accepted job is never lost;
2. start the worker fleet (N processes pulling from the store);
3. serve HTTP until SIGTERM/SIGINT, then drain: stop accepting, let
   in-flight jobs finish, reap the fleet.

The readiness line (``repro.server listening on ...``) is printed to
stderr once the socket is bound — scripts and CI wait for it before
sending traffic.
"""

from __future__ import annotations

import asyncio
import signal
import sys
from dataclasses import dataclass
from typing import Optional

from repro.obs.logging import configure_logging, get_logger
from repro.server.http import (
    DEFAULT_MAX_QUEUE_DEPTH,
    DEFAULT_SLOW_REQUEST_THRESHOLD,
    RecoveryServer,
)
from repro.server.stores import DEFAULT_MAX_ATTEMPTS, JobStore
from repro.server.workers import DEFAULT_CLAIM_BATCH, DEFAULT_POLL_INTERVAL, WorkerFleet

#: Default TCP port of the recovery daemon.
DEFAULT_PORT = 8351


@dataclass(frozen=True)
class ServerConfig:
    """Everything a daemon run needs, as plain data."""

    db: str
    host: str = "127.0.0.1"
    port: int = DEFAULT_PORT
    workers: int = 2
    max_queue_depth: int = DEFAULT_MAX_QUEUE_DEPTH
    poll_interval: float = DEFAULT_POLL_INTERVAL
    max_attempts: int = DEFAULT_MAX_ATTEMPTS
    claim_batch: int = DEFAULT_CLAIM_BATCH
    drain_timeout: float = 30.0
    #: Two-stage portfolio execution (heuristic envelope first, upgraded in
    #: place when the exact solve lands).  Off by default: with it on, a
    #: "done" job's envelope may still change, which clients must opt into.
    portfolio: bool = False
    #: Structured-log level and format for the daemon *and* its spawned
    #: workers (exported via env; see ``repro.obs.logging``).
    log_level: str = "info"
    log_format: str = "json"
    #: Seconds of in-server handling beyond which a request counts as slow
    #: (the ``repro_slow_requests_total`` counter).
    slow_request_threshold: float = DEFAULT_SLOW_REQUEST_THRESHOLD


async def serve(config: ServerConfig, ready: Optional[asyncio.Event] = None) -> None:
    """Run the daemon until the surrounding loop cancels this coroutine.

    ``ready`` (if given) is set once the HTTP socket is bound — in-process
    harnesses await it instead of parsing stderr.
    """
    # Configure logging before the fleet spawns: configure_logging exports
    # the level/format env vars the worker processes configure from.
    configure_logging(level=config.log_level, log_format=config.log_format)
    log = get_logger(__name__)

    store = JobStore(config.db)
    orphans = store.requeue_orphans()
    if orphans:
        print(f"repro.server: requeued {orphans} orphaned running job(s)", file=sys.stderr)
        log.info("requeued orphaned jobs", extra={"count": orphans})

    fleet = WorkerFleet(
        config.db,
        workers=config.workers,
        poll_interval=config.poll_interval,
        max_attempts=config.max_attempts,
        claim_batch=config.claim_batch,
        portfolio=config.portfolio,
    )
    fleet.start()

    front = RecoveryServer(
        store,
        workers_alive=fleet.alive,
        max_queue_depth=config.max_queue_depth,
        expected_workers=config.workers,
        on_enqueue=fleet.notify,
        worker_ids=fleet.worker_ids,
        slow_request_threshold=config.slow_request_threshold,
    )
    try:
        await front.start(host=config.host, port=config.port)
        # Scripts and CI parse this exact stderr line for readiness; the
        # structured log line below is the machine-friendly twin.
        print(
            f"repro.server listening on http://{config.host}:{front.port} "
            f"(workers={config.workers}, db={config.db})",
            file=sys.stderr,
            flush=True,
        )
        log.info(
            "daemon listening",
            extra={
                "host": config.host,
                "port": front.port,
                "workers": config.workers,
                "db": config.db,
            },
        )
        if ready is not None:
            ready.set()
        while True:  # serve until cancelled
            await asyncio.sleep(3600)
    finally:
        await front.stop()
        fleet.drain(timeout=config.drain_timeout)
        store.close()
        print("repro.server: drained and stopped", file=sys.stderr, flush=True)


def run_server(config: ServerConfig) -> int:
    """Blocking entry point: serve until SIGTERM/SIGINT, drain, return 0."""

    async def _main() -> None:
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, stop.set)
        task = asyncio.ensure_future(serve(config))
        stopped = asyncio.ensure_future(stop.wait())
        done, _ = await asyncio.wait({task, stopped}, return_when=asyncio.FIRST_COMPLETED)
        if task in done:
            stopped.cancel()
            task.result()  # propagate startup errors (port in use, bad db)
            return
        task.cancel()
        try:
            await task
        except asyncio.CancelledError:
            pass

    asyncio.run(_main())
    return 0


__all__ = ["DEFAULT_PORT", "ServerConfig", "run_server", "serve"]
