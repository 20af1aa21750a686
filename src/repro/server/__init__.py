"""``repro.server`` — the recovery-as-a-service daemon.

The paper's algorithms become a long-running service in four pieces:

* :mod:`repro.server.stores` — the durable job store (one WAL-mode,
  schema-versioned SQLite file) holding request envelopes keyed by
  ``config_digest`` with states ``queued -> running -> done|failed``;
* :mod:`repro.server.http` — the asyncio JSON front end (``/v1/solve``,
  ``/v1/assess``, ``/v1/batch``, ``/v1/jobs/{digest}``, ``/healthz``,
  ``/metrics``) with admission control;
* :mod:`repro.server.workers` — the worker fleet: N processes pulling jobs
  from the store and executing them through a per-process
  :class:`~repro.api.service.RecoveryService`, draining on SIGTERM;
* :mod:`repro.server.daemon` — ties the three together behind
  ``repro.cli serve``.

Clients talk to a running daemon through
:class:`repro.server.client.ServiceClient`;
:func:`repro.server.loadtest.run_loadtest` replays generated scenario
traffic against one and writes the throughput/latency artefact
(``BENCH_server.json``).
"""

from repro.server.client import ServiceClient, ServiceError
from repro.server.daemon import ServerConfig, run_server
from repro.server.loadtest import LoadtestReport, run_loadtest
from repro.server.stores import JobRecord, JobStore, StoreSchemaError
from repro.server.workers import WorkerFleet, worker_loop

__all__ = [
    "JobRecord",
    "JobStore",
    "LoadtestReport",
    "ServerConfig",
    "ServiceClient",
    "ServiceError",
    "StoreSchemaError",
    "WorkerFleet",
    "run_loadtest",
    "run_server",
    "worker_loop",
]
