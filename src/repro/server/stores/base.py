"""The job-store contract: what :class:`~repro.server.stores.sqlite.JobStore` owes.

The HTTP front end, the worker fleet and the portfolio racer all lean on
the store's behaviour without naming it.  This module states that
behaviour as a contract, and ``tests/unit/test_store_contract.py`` holds
the store to it.

Invariants (the contract)
-------------------------
The store must provide all of the following:

Identity & dedup
    A job *is* its :func:`~repro.api.requests.config_digest`.  Submitting
    a digest that already exists returns the stored row
    (``created=False``); two racing submitters of the same digest create
    exactly one row.  The only exception: resubmitting a **failed** digest
    requeues it with a fresh attempt budget and a cleared error.

Lifecycle
    ``queued → running → done | failed``.  ``done`` rows are terminal and
    immutable except through ``upgrade_result``, which replaces the
    envelope of a done row in place (the portfolio path) and refreshes
    ``finished_at`` but never ``first_finished_at`` — the latency
    histogram measures claim → *first* answer.

Claims
    ``claim_batch`` hands each queued job to exactly one of any number
    of racing claimers, oldest ``(created_at, digest)`` first, and
    increments its attempt count.  A claim is atomic: there is no
    observable intermediate state.

Claim-holder guard
    ``complete`` and ``fail`` only land while the row is ``running``
    (and, when a worker id is given, still assigned to that worker).  A worker that lost its claim
    to a requeue can never overwrite the new holder's outcome.

Poison budget
    A queued job whose attempt count has reached ``max_attempts`` is
    failed by the next claim sweep instead of being handed out again.
    The sweep *appends* to any recorded root-cause error rather than
    overwriting it, and performs no write at all when no queued row has
    exhausted its budget.

Crash recovery
    ``requeue_orphans`` returns every ``running`` row to the queue
    (attempt counts preserved) and records a breadcrumb of the vanished
    worker in ``error`` so the poison sweep can report a root cause.  Terminal rows are never touched.

Worker beacons
    ``record_worker_stats`` upserts one counter snapshot per worker id;
    ``worker_ids`` lists every worker that has reported (the readiness
    beacon ``/healthz`` counts); ``worker_stats_totals`` sums numeric
    counters across the whole fleet, each worker counted once.

Telemetry (schema v4)
    ``submit``/``submit_many`` accept an optional ``trace_id`` stamped on
    the rows the call *creates* (a dedup hit keeps the creating
    submission's id); the id is telemetry only and **never** feeds the
    digest.  ``save_spans`` upserts one JSON span tree per
    ``(digest, source)`` — upsert, not write-once: a retried execution
    replaces the stale tree — and ``load_spans`` returns every source's
    tree for a digest.  ``stage_latency_samples`` reports queue-wait,
    serialize and end-to-end served latencies of done jobs.

Anything *not* in this contract — migration chains, SQL — is private to
the store.
"""

from __future__ import annotations

from typing import Any, Dict, Union

from repro.api.requests import (
    AssessmentRequest,
    RecoveryRequest,
    config_digest,
    request_from_dict,
)

Request = Union[AssessmentRequest, RecoveryRequest]

#: A claim marks a job failed instead of running it again once a worker has
#: already attempted it this many times (poison-job guard: a job that
#: crashes its worker would otherwise be requeued and crash the next one,
#: forever).
DEFAULT_MAX_ATTEMPTS = 3

#: The job lifecycle, in order.
STATES = ("queued", "running", "done", "failed")


class StoreSchemaError(RuntimeError):
    """The database speaks a schema this library does not understand."""


def canonical_request(request: Union[Request, Dict[str, Any]]):
    """``(parsed, payload, digest)`` for a request object or raw payload.

    The store canonicalises through the schema classes first, so two
    payloads describing the same instance (however the client ordered or
    defaulted their fields) land on the same digest, and dedup by digest
    means dedup by instance.
    """
    if isinstance(request, (AssessmentRequest, RecoveryRequest)):
        parsed = request
    else:
        parsed = request_from_dict(dict(request))
    payload = parsed.to_dict()
    return parsed, payload, config_digest(payload)


__all__ = [
    "DEFAULT_MAX_ATTEMPTS",
    "Request",
    "STATES",
    "StoreSchemaError",
    "canonical_request",
]
