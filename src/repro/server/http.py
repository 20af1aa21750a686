"""The asyncio HTTP front end of the recovery daemon.

A deliberately small HTTP/1.1 server on ``asyncio.start_server`` — no
framework, no threads — speaking JSON:

==========================  =====================================================
endpoint                    behaviour
==========================  =====================================================
``POST /v1/solve``          submit a :class:`~repro.api.requests.RecoveryRequest`
``POST /v1/assess``         submit an :class:`~repro.api.requests.AssessmentRequest`
``POST /v1/batch``          submit ``{"requests": [...]}`` in one call
``GET /v1/jobs/{digest}``   job state + result envelope once ``done``
``GET /v1/trace/{digest}``  the job's cross-process span tree, merged by source
``GET /healthz``            liveness + queue/worker snapshot
``GET /metrics``            Prometheus text format
==========================  =====================================================

Every request runs inside a trace: the id is accepted from an inbound
``X-Repro-Trace-Id`` header (or minted), echoed back on the response, and
stamped on every job row the request creates — telemetry only, it never
feeds ``config_digest``, never rides a result envelope, and never touches
the fast path's pre-serialized bytes.  Front-end spans (read, parse,
enqueue) are persisted to the store's ``trace_spans`` sidecar for fresh
submissions so ``GET /v1/trace/{digest}`` can merge them with the claiming
worker's spans into one end-to-end tree.

Connections are **keep-alive** by default: one TCP connection serves any
number of sequential (or pipelined) requests, closing only when the client
says ``Connection: close``, speaks HTTP/1.0, or idles past the timeout.
That turns the polling client's per-request connect/teardown into a single
persistent socket — the dominant cost of the old serve path.

Submission is *asynchronous and idempotent*: the response is the durable
job row (HTTP 202 for a newly accepted job, 200 for a digest already
known — the dedup hit), and clients poll ``/v1/jobs/{digest}`` for the
result.  A digest that already holds a ``done`` envelope takes the
**in-process fast path**: the front end answers straight from a bounded
LRU of pre-serialized response bodies without touching the queue, a
worker, or ``json.dumps`` — a done row is immutable, so the bytes are
serialized once per digest and replayed verbatim.  Accepted jobs nudge the
worker fleet through ``on_enqueue`` (the daemon wires the fleet's wakeup
pipes in), so idle workers wake event-driven instead of poll-sleeping.

Admission control keeps the daemon responsive under overload: a new job
arriving while the queue holds ``max_queue_depth`` entries is rejected
with 429 (dedup hits are always admitted — they cost nothing), and
malformed payloads get 400 with the schema error message.

Store calls are synchronous SQLite operations of a few hundred
microseconds; at the request rates a single daemon serves they are cheaper
than handing them to a thread pool, so handlers call the store directly.
"""

from __future__ import annotations

import asyncio
import json
import time
from collections import OrderedDict
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.api.requests import AssessmentRequest, RecoveryRequest, request_from_dict
from repro.obs.logging import get_logger, warn_rate_limited
from repro.obs.trace import (
    TRACE_HEADER,
    current_trace_id,
    normalize_trace_id,
    record_timed,
    span,
    trace_context,
)
from repro.portfolio import pending_algorithms
from repro.server.stores import JobRecord, JobStore, STATES

#: Largest accepted request body; beyond it the request is a 400.
DEFAULT_MAX_BODY_BYTES = 1_048_576

#: Queued jobs beyond which new (non-dedup) submissions are rejected (429).
DEFAULT_MAX_QUEUE_DEPTH = 256

#: Done-envelope fast-path entries retained (pre-serialized response bodies).
DEFAULT_ENVELOPE_CACHE_SIZE = 256

#: Seconds a keep-alive connection may idle between requests before the
#: server closes it (quietly — an idle close is not an error).
DEFAULT_IDLE_TIMEOUT = 30.0

#: Seconds of in-server handling beyond which a request increments the
#: slow-request counter (``serve --slow-request-threshold`` overrides).
DEFAULT_SLOW_REQUEST_THRESHOLD = 1.0

#: Histogram bucket upper bounds (seconds) for solve latency.
LATENCY_BUCKETS = (0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0)

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    429: "Too Many Requests",
    500: "Internal Server Error",
}


class RecoveryServer:
    """The HTTP front end, bound to one :class:`JobStore`.

    ``workers_alive`` is a zero-argument callable reporting the live worker
    count (the daemon passes the fleet's prober; tests pass a constant), so
    the front end stays ignorant of process management.  ``worker_ids``
    (optional, same pattern) names the fleet's expected worker identities;
    with it ``/healthz`` reports ``workers_ready`` — how many of those
    workers have written their first counter snapshot, i.e. finished their
    warm-up and are claiming jobs.  ``on_enqueue`` is called after every
    submission that adds queue work (the daemon passes the fleet's wakeup
    notifier).
    """

    def __init__(
        self,
        store: JobStore,
        workers_alive: Optional[Callable[[], int]] = None,
        max_queue_depth: int = DEFAULT_MAX_QUEUE_DEPTH,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
        expected_workers: Optional[int] = None,
        on_enqueue: Optional[Callable[[], None]] = None,
        worker_ids: Optional[Callable[[], List[str]]] = None,
        envelope_cache_size: int = DEFAULT_ENVELOPE_CACHE_SIZE,
        idle_timeout: float = DEFAULT_IDLE_TIMEOUT,
        request_timeout: float = 30.0,
        slow_request_threshold: float = DEFAULT_SLOW_REQUEST_THRESHOLD,
    ) -> None:
        self.store = store
        self.workers_alive = workers_alive or (lambda: 0)
        self.worker_ids = worker_ids
        self.on_enqueue = on_enqueue
        self.max_queue_depth = int(max_queue_depth)
        self.max_body_bytes = int(max_body_bytes)
        self.expected_workers = expected_workers
        self.envelope_cache_size = int(envelope_cache_size)
        self.idle_timeout = float(idle_timeout)
        self.request_timeout = float(request_timeout)
        self.slow_request_threshold = float(slow_request_threshold)
        self.started_at = time.time()
        self.dedup_hits = 0
        self.submissions = 0
        self.fast_path_hits = 0
        self.slow_requests = 0
        self.connections_total = 0
        self.keepalive_reuse = 0
        self.envelope_cache_hits = 0
        self.envelope_cache_misses = 0
        self.http_requests: Dict[Tuple[str, int], int] = {}
        # digest -> {"record": JobRecord, "bodies": {flavor: bytes}} for
        # *done* jobs only; a done row is immutable, so entries never go
        # stale (a failed row retried gets a fresh digest row state, but
        # failed rows are never cached).
        self._done_cache: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self._connections: Set[asyncio.StreamWriter] = set()
        self._server: Optional[asyncio.AbstractServer] = None
        self.port: Optional[int] = None
        self._log = get_logger(__name__)
        # Digests whose front-end span tree should be persisted when the
        # request's trace closes.  Handlers run synchronously on the one
        # event loop, so appending here and draining in _respond never
        # interleaves across requests.
        self._trace_persist: List[str] = []

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    async def start(self, host: str = "127.0.0.1", port: int = 0) -> None:
        """Bind and start serving; ``port=0`` picks a free port (see .port)."""
        self._server = await asyncio.start_server(self._handle, host=host, port=port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            # keep-alive connections would otherwise linger until their
            # idle timeout; closing them unblocks the handlers immediately
            for writer in list(self._connections):
                writer.close()
            await self._server.wait_closed()
            self._server = None

    # ------------------------------------------------------------------ #
    # Connection handling (keep-alive loop)
    # ------------------------------------------------------------------ #
    async def _handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self.connections_total += 1
        self._connections.add(writer)
        served = 0
        try:
            while True:
                try:
                    request_line = await asyncio.wait_for(
                        reader.readline(), timeout=self.idle_timeout
                    )
                except (asyncio.TimeoutError, ConnectionError, OSError):
                    break  # idle or dead connection: reap quietly
                if not request_line or request_line in (b"\r\n", b"\n"):
                    break  # peer closed (or trailing CRLF of a pipeline)
                if served:
                    self.keepalive_reuse += 1
                try:
                    status, payload, content_type, keep_alive, trace_id = await self._respond(
                        request_line, reader
                    )
                except Exception as error:  # never let a handler kill the server
                    status, payload, content_type, keep_alive, trace_id = (
                        500,
                        {"error": f"internal error: {type(error).__name__}: {error}"},
                        "application/json",
                        False,
                        None,
                    )
                served += 1
                if isinstance(payload, (bytes, bytearray)):
                    body = bytes(payload)
                elif isinstance(payload, str):
                    body = payload.encode("utf-8")
                else:
                    body = json.dumps(payload, indent=2).encode("utf-8")
                trace_header = f"{TRACE_HEADER}: {trace_id}\r\n" if trace_id else ""
                head = (
                    f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
                    f"Content-Type: {content_type}\r\n"
                    f"Content-Length: {len(body)}\r\n"
                    f"{trace_header}"
                    f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n\r\n"
                )
                try:
                    writer.write(head.encode("ascii") + body)
                    await writer.drain()
                except (ConnectionError, BrokenPipeError, OSError):
                    break
                if not keep_alive:
                    break
        finally:
            self._connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError, OSError):
                pass

    async def _respond(self, request_line: bytes, reader: asyncio.StreamReader):
        """Parse one request off the wire (bounded) and route it.

        The rest of the request — headers and body — shares one timeout, so
        a client that stalls mid-headers or mid-body cannot pin a
        connection coroutine (and its file descriptor) forever.  Returns
        ``(status, payload, content_type, keep_alive, trace_id)``.
        """
        read_started = time.perf_counter()
        try:
            parsed = await asyncio.wait_for(
                self._read_request(request_line, reader), timeout=self.request_timeout
            )
        except asyncio.TimeoutError:
            return 400, {"error": "timed out reading the request"}, "application/json", False, None
        except (asyncio.IncompleteReadError, ConnectionError):
            return 400, {"error": "connection closed mid-request"}, "application/json", False, None
        if isinstance(parsed, str):  # a parse error message; framing is lost
            return 400, {"error": parsed}, "application/json", False, None
        method, path, body, keep_alive, trace_header = parsed
        read_seconds = time.perf_counter() - read_started

        # The whole handler runs inside one trace: inbound id honoured,
        # otherwise minted here (the ingress point of the pipeline).
        handled_started = time.perf_counter()
        with trace_context(normalize_trace_id(trace_header)) as trace:
            with span("http.request", method=method, path=path.split("?")[0]):
                record_timed("http.read", read_seconds, bytes=len(body))
                status, payload, content_type = self._route(method, path, body)
            self._persist_frontend_spans(trace)
        handled_seconds = time.perf_counter() - handled_started
        if handled_seconds > self.slow_request_threshold:
            self.slow_requests += 1
            warn_rate_limited(
                self._log,
                "slow-request",
                "slow request",
                trace_id=trace.trace_id,
                method=method,
                path=path.split("?")[0],
                seconds=round(handled_seconds, 6),
                threshold=self.slow_request_threshold,
            )
        self._count(path, status)
        return status, payload, content_type, keep_alive, trace.trace_id

    def _persist_frontend_spans(self, trace) -> None:
        """Write this request's span tree for every digest it created.

        Only *fresh* submissions are recorded — a dedup hit belongs to the
        trace that created the row.  A batch persists the same request tree
        under each digest it created (batches are small; the duplication
        keeps every digest's trace self-contained).  Persistence is
        telemetry: a failure is logged (rate-limited) and never surfaces.
        """
        if not self._trace_persist:
            return
        digests, self._trace_persist = self._trace_persist, []
        payload = trace.to_payload()
        for digest in digests:
            try:
                self.store.save_spans(digest, "frontend", payload, trace.trace_id)
            except Exception as error:
                warn_rate_limited(
                    self._log,
                    "span-persist",
                    "failed to persist frontend spans",
                    digest=digest,
                    error=f"{type(error).__name__}: {error}",
                )

    async def _read_request(self, request_line: bytes, reader: asyncio.StreamReader):
        """Read one request; ``(method, path, body, keep_alive, trace_header)``
        or an error str."""
        parts = request_line.decode("latin-1").split()
        if len(parts) < 2:
            return "malformed request line"
        method, path = parts[0].upper(), parts[1]
        version = parts[2].upper() if len(parts) >= 3 else "HTTP/1.1"
        keep_alive = version != "HTTP/1.0"

        content_length = 0
        trace_header: Optional[str] = None
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            header = name.strip().lower()
            if header == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    return "malformed Content-Length"
            elif header == "connection":
                token = value.strip().lower()
                if token == "close":
                    keep_alive = False
                elif token == "keep-alive":
                    keep_alive = True
            elif header == TRACE_HEADER.lower():
                trace_header = value.strip()

        if content_length > self.max_body_bytes:
            self._count(path, 400)
            return f"request body exceeds {self.max_body_bytes} bytes"
        body = await reader.readexactly(content_length) if content_length else b""
        return method, path, body, keep_alive, trace_header

    def _count(self, path: str, status: int) -> None:
        endpoint = path.split("?")[0]
        if endpoint.startswith("/v1/jobs/"):
            endpoint = "/v1/jobs"
        elif endpoint.startswith("/v1/trace/"):
            endpoint = "/v1/trace"
        key = (endpoint, int(status))
        self.http_requests[key] = self.http_requests.get(key, 0) + 1

    # ------------------------------------------------------------------ #
    # Done-envelope fast path (bounded LRU of pre-serialized bodies)
    # ------------------------------------------------------------------ #
    def _done_entry(self, digest: str) -> Optional[Dict[str, Any]]:
        """The cached entry for a done digest, bumping LRU order on a hit."""
        entry = self._done_cache.get(digest)
        if entry is not None:
            self._done_cache.move_to_end(digest)
            self.envelope_cache_hits += 1
        return entry

    @staticmethod
    def _cacheable(record: JobRecord) -> bool:
        """Whether a done row's envelope is final (safe for the LRU).

        A portfolio job completes early with its heuristic envelope and is
        *upgraded in place* when the exact solve lands — caching bytes
        while ``portfolio.pending`` is non-empty would replay the stale
        heuristic answer forever.  Such rows are served straight from the
        store until the upgrade clears ``pending``.
        """
        return not pending_algorithms(record.result)

    def _remember_done(self, record: JobRecord) -> Dict[str, Any]:
        """Admit a freshly fetched done record into the LRU."""
        entry = self._done_cache.get(record.digest)
        if entry is None:
            self.envelope_cache_misses += 1
            entry = {"record": record, "bodies": {}}
            self._done_cache[record.digest] = entry
            while len(self._done_cache) > self.envelope_cache_size:
                self._done_cache.popitem(last=False)
        return entry

    @staticmethod
    def _done_body(entry: Dict[str, Any], flavor: str) -> bytes:
        """The pre-serialized response body; rendered once per (digest, flavor)."""
        body = entry["bodies"].get(flavor)
        if body is None:
            record: JobRecord = entry["record"]
            if flavor == "submit":
                payload = {"job": record.to_dict(include_request=False), "deduplicated": True}
            else:
                payload = {"job": record.to_dict()}
            body = json.dumps(payload, indent=2).encode("utf-8")
            entry["bodies"][flavor] = body
        return body

    def _notify_enqueue(self) -> None:
        """Nudge the fleet about fresh queue work."""
        if self.on_enqueue is None:
            return
        try:
            self.on_enqueue()
        except Exception as error:
            # a wakeup nudge must never fail a submission — but a broken
            # wakeup pipe should not be invisible either (workers fall back
            # to poll-sleeping, quietly adding latency)
            warn_rate_limited(
                self._log,
                "wakeup-nudge",
                "wakeup nudge failed; workers will fall back to polling",
                error=f"{type(error).__name__}: {error}",
            )

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #
    def _route(self, method: str, path: str, body: bytes):
        path = path.split("?")[0]
        if path == "/healthz":
            if method != "GET":
                return 405, {"error": "healthz is GET-only"}, "application/json"
            return 200, self._healthz(), "application/json"
        if path == "/metrics":
            if method != "GET":
                return 405, {"error": "metrics is GET-only"}, "application/json"
            return 200, self.render_metrics(), "text/plain; version=0.0.4"
        if path.startswith("/v1/jobs/"):
            if method != "GET":
                return 405, {"error": "jobs is GET-only"}, "application/json"
            return self._job(path[len("/v1/jobs/") :])
        if path.startswith("/v1/trace/"):
            if method != "GET":
                return 405, {"error": "trace is GET-only"}, "application/json"
            return self._trace(path[len("/v1/trace/") :])
        if path in ("/v1/solve", "/v1/assess", "/v1/batch"):
            if method != "POST":
                return 405, {"error": f"{path} is POST-only"}, "application/json"
            try:
                payload = json.loads(body.decode("utf-8")) if body else {}
            except (ValueError, UnicodeDecodeError) as error:
                return 400, {"error": f"invalid JSON body: {error}"}, "application/json"
            if not isinstance(payload, dict):
                return 400, {"error": "the request body must be a JSON object"}, "application/json"
            if path == "/v1/batch":
                return self._batch(payload)
            expected = RecoveryRequest if path == "/v1/solve" else AssessmentRequest
            return self._submit(payload, expected)
        return 404, {"error": f"unknown path {path!r}"}, "application/json"

    # ------------------------------------------------------------------ #
    # Endpoints
    # ------------------------------------------------------------------ #
    def _parse(self, payload: Dict[str, Any], expected: Optional[type] = None):
        """Parse a request payload; ``expected=None`` accepts either kind.

        A payload without an explicit ``kind`` defaults to the expected
        kind (``recovery`` when unconstrained, matching the store default).
        """
        payload = dict(payload)
        payload.setdefault("kind", expected.kind if expected else RecoveryRequest.kind)
        try:
            request = request_from_dict(payload)
        except (KeyError, ValueError, TypeError) as error:
            raise ValueError(str(error.args[0]) if error.args else str(error)) from None
        if expected is not None and not isinstance(request, expected):
            raise ValueError(
                f"expected a {expected.kind!r} request, got kind {request.kind!r}"
            )
        return request

    def _submit(self, payload: Dict[str, Any], expected: type):
        try:
            with span("http.parse"):
                request = self._parse(payload, expected)
        except ValueError as error:
            return 400, {"error": str(error)}, "application/json"
        self.submissions += 1
        digest = request.digest()
        entry = self._done_entry(digest)
        if entry is not None:
            # fast path: the done envelope is served from the in-process
            # LRU — no queue, no worker, no re-serialization
            self.dedup_hits += 1
            self.fast_path_hits += 1
            return 200, self._done_body(entry, "submit"), "application/json"
        existing = self.store.get(digest)
        if existing is not None and existing.state != "failed":
            self.dedup_hits += 1
            if existing.state == "done" and self._cacheable(existing):
                self.fast_path_hits += 1
                return 200, self._done_body(self._remember_done(existing), "submit"), "application/json"
            return (
                200,
                {"job": existing.to_dict(include_request=False), "deduplicated": True},
                "application/json",
            )
        # One depth read decides *and* reports: a second read could disagree
        # with the one that triggered the rejection (workers drain the queue
        # between the two), making the body lie about why the client was
        # turned away.
        queue_depth = self.store.queue_depth()
        if queue_depth >= self.max_queue_depth:
            return (
                429,
                {
                    "error": "queue full",
                    "queue_depth": queue_depth,
                    "max_queue_depth": self.max_queue_depth,
                },
                "application/json",
            )
        # Reaching here the job is either new or a failed row being retried
        # — both trigger a fresh execution, so both are 202 and neither is a
        # dedup hit (a retry is requeued work, not a cached answer).
        with span("http.enqueue", digest=digest):
            record, _ = self.store.submit(request, trace_id=current_trace_id())
        self._trace_persist.append(record.digest)
        self._notify_enqueue()
        return (
            202,
            {"job": record.to_dict(include_request=False), "deduplicated": False},
            "application/json",
        )

    def _batch(self, payload: Dict[str, Any]):
        items = payload.get("requests")
        if not isinstance(items, list) or not items:
            return (
                400,
                {"error": 'a batch body needs a non-empty "requests" list'},
                "application/json",
            )
        requests = []
        with span("http.parse", count=len(items)):
            for index, item in enumerate(items):
                if not isinstance(item, dict):
                    return 400, {"error": f"requests[{index}] is not an object"}, "application/json"
                try:
                    # both kinds are accepted: a batch may mix solve and assess
                    requests.append(self._parse(item))
                except ValueError as error:
                    return 400, {"error": f"requests[{index}]: {error}"}, "application/json"

        # One store read per item; dedup is judged per item in order, so a
        # digest repeated *within* the batch counts too, while a failed row
        # being retried does not (it triggers a fresh execution).
        digests = [request.digest() for request in requests]
        plan: List[Tuple[str, Any]] = []  # ("done", entry) | ("dedup", record) | ("fresh", request)
        seen_fresh: Dict[str, int] = {}
        fresh: List[Any] = []
        for request, digest in zip(requests, digests):
            entry = self._done_entry(digest)
            if entry is not None:
                plan.append(("done", entry))
                continue
            if digest in seen_fresh:
                plan.append(("repeat", digest))
                continue
            existing = self.store.get(digest)
            if existing is not None and existing.state != "failed":
                if existing.state == "done" and self._cacheable(existing):
                    plan.append(("done", self._remember_done(existing)))
                else:
                    plan.append(("dedup", existing))
                continue
            seen_fresh[digest] = len(fresh)
            fresh.append(request)
            plan.append(("fresh", digest))
        # Same single-read rule as _submit: the depth that triggers the 429
        # is the depth the body reports.
        queue_depth = self.store.queue_depth()
        if queue_depth + len(fresh) > self.max_queue_depth:
            return (
                429,
                {
                    "error": "queue full",
                    "queue_depth": queue_depth,
                    "admitting": len(fresh),
                    "max_queue_depth": self.max_queue_depth,
                },
                "application/json",
            )
        self.submissions += len(requests)
        # every fresh item lands in one store transaction (one WAL commit
        # for the whole burst), then the fleet gets a single wakeup nudge
        submitted: Dict[str, JobRecord] = {}
        if fresh:
            with span("http.enqueue", count=len(fresh)):
                for record, _ in self.store.submit_many(
                    fresh, trace_id=current_trace_id()
                ):
                    submitted[record.digest] = record
            self._trace_persist.extend(submitted)
            self._notify_enqueue()
        jobs = []
        for kind, value in plan:
            if kind == "done":
                self.dedup_hits += 1
                self.fast_path_hits += 1
                record = value["record"]
                jobs.append(
                    {"job": record.to_dict(include_request=False), "deduplicated": True}
                )
            elif kind == "dedup":
                self.dedup_hits += 1
                jobs.append(
                    {"job": value.to_dict(include_request=False), "deduplicated": True}
                )
            elif kind == "repeat":
                self.dedup_hits += 1
                jobs.append(
                    {
                        "job": submitted[value].to_dict(include_request=False),
                        "deduplicated": True,
                    }
                )
            else:
                jobs.append(
                    {
                        "job": submitted[value].to_dict(include_request=False),
                        "deduplicated": False,
                    }
                )
        return 202, {"jobs": jobs}, "application/json"

    def _job(self, digest: str):
        entry = self._done_entry(digest)
        if entry is not None:
            return 200, self._done_body(entry, "job"), "application/json"
        record = self.store.get(digest)
        if record is None:
            return 404, {"error": f"no job with digest {digest!r}"}, "application/json"
        if record.state == "done" and self._cacheable(record):
            return 200, self._done_body(self._remember_done(record), "job"), "application/json"
        return 200, {"job": record.to_dict()}, "application/json"

    def _trace(self, digest: str):
        """The merged cross-process span document for a job digest.

        ``sources`` maps span origin (``frontend``, ``worker``) to the span
        tree that process persisted; a job mid-flight shows whichever
        sources have landed so far.  404 only when the digest itself is
        unknown — a known job with no spans yet returns an empty mapping.
        """
        record = self.store.get(digest)
        if record is None:
            return 404, {"error": f"no job with digest {digest!r}"}, "application/json"
        return (
            200,
            {
                "digest": digest,
                "trace_id": record.trace_id,
                "state": record.state,
                "sources": self.store.load_spans(digest),
            },
            "application/json",
        )

    def _healthz(self) -> Dict[str, Any]:
        counts = self.store.counts()
        alive = self.workers_alive()
        if self.worker_ids is not None:
            expected = set(self.worker_ids())
            ready = len(expected & set(self.store.worker_ids())) if expected else 0
        else:
            ready = alive
        # "degraded" (still HTTP 200: the front end *is* live) flags a dead
        # fleet — accepted jobs would queue with nobody to drain them.
        degraded = self.expected_workers is not None and alive < 1
        return {
            "status": "degraded" if degraded else "ok",
            "uptime_seconds": time.time() - self.started_at,
            "queue_depth": counts["queued"],
            "jobs": counts,
            "workers_alive": alive,
            "workers_ready": ready,
            "max_queue_depth": self.max_queue_depth,
        }

    # ------------------------------------------------------------------ #
    # Metrics
    # ------------------------------------------------------------------ #
    def render_metrics(self) -> str:
        """The Prometheus text exposition of the daemon's state."""
        counts = self.store.counts()
        workers = self.workers_alive()
        running = counts["running"]
        utilization = (running / workers) if workers else 0.0
        lines: List[str] = []

        def gauge(name: str, value: float, help_text: str, labels: str = "") -> None:
            lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} gauge")
            lines.append(f"{name}{labels} {value:g}")

        def counter(name: str, value: float, help_text: str) -> None:
            lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} counter")
            lines.append(f"{name} {value:g}")

        def histogram(name: str, samples: Sequence[float], help_text: str) -> None:
            lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} histogram")
            cumulative = 0
            remaining = sorted(samples)
            for bound in LATENCY_BUCKETS:
                while remaining and remaining[0] <= bound:
                    remaining.pop(0)
                    cumulative += 1
                lines.append(f'{name}_bucket{{le="{bound:g}"}} {cumulative}')
            lines.append(f'{name}_bucket{{le="+Inf"}} {len(samples)}')
            lines.append(f"{name}_sum {sum(samples):g}")
            lines.append(f"{name}_count {len(samples)}")

        lines.append("# HELP repro_jobs_total Jobs in the durable store by state.")
        lines.append("# TYPE repro_jobs_total gauge")
        for state in STATES:
            lines.append(f'repro_jobs_total{{state="{state}"}} {counts[state]}')

        gauge("repro_queue_depth", counts["queued"], "Queued jobs awaiting a worker.")
        gauge("repro_workers_alive", workers, "Live worker processes.")
        gauge(
            "repro_worker_utilization",
            utilization,
            "Running jobs over live workers (0..1).",
        )
        gauge(
            "repro_uptime_seconds",
            time.time() - self.started_at,
            "Seconds since the front end started.",
        )
        gauge(
            "repro_store_schema_version",
            self.store.schema_version,
            "Schema version of the job store.",
        )
        gauge(
            "repro_envelope_cache_size",
            len(self._done_cache),
            "Done envelopes held by the fast-path LRU.",
        )

        lines.append("# HELP repro_http_requests_total HTTP requests by endpoint and status.")
        lines.append("# TYPE repro_http_requests_total counter")
        for (endpoint, status), count in sorted(self.http_requests.items()):
            lines.append(
                f'repro_http_requests_total{{endpoint="{endpoint}",status="{status}"}} {count}'
            )

        counter(
            "repro_submissions_total",
            self.submissions,
            "Requests submitted to the front end.",
        )
        counter(
            "repro_dedup_hits_total",
            self.dedup_hits,
            "Submissions answered by an existing digest.",
        )
        counter(
            "repro_fast_path_hits_total",
            self.fast_path_hits,
            "Submissions answered in-process from a stored done envelope.",
        )
        counter(
            "repro_http_connections_total",
            self.connections_total,
            "TCP connections accepted by the front end.",
        )
        counter(
            "repro_keepalive_reuse_total",
            self.keepalive_reuse,
            "Requests served on an already-used keep-alive connection.",
        )
        counter(
            "repro_envelope_cache_hits_total",
            self.envelope_cache_hits,
            "Responses served from the pre-serialized envelope LRU.",
        )
        counter(
            "repro_envelope_cache_misses_total",
            self.envelope_cache_misses,
            "Done envelopes serialized and admitted to the LRU.",
        )

        counter(
            "repro_slow_requests_total",
            self.slow_requests,
            "Requests whose in-server handling exceeded the slow threshold.",
        )
        gauge(
            "repro_slow_request_threshold_seconds",
            self.slow_request_threshold,
            "Handling seconds beyond which a request counts as slow.",
        )

        histogram(
            "repro_solve_latency_seconds",
            self.store.solve_latencies(),
            "Execution time of completed jobs "
            "(claim to first completion; portfolio upgrades do not re-enter).",
        )

        stages = self.store.stage_latency_samples()
        histogram(
            "repro_queue_wait_seconds",
            stages.get("queue_wait", ()),
            "Seconds completed jobs waited in the queue (created to claimed).",
        )
        histogram(
            "repro_serialize_seconds",
            stages.get("serialize", ()),
            "Seconds spent serializing result envelopes at completion.",
        )
        histogram(
            "repro_served_latency_seconds",
            stages.get("served", ()),
            "End-to-end seconds from submission to first stored answer.",
        )

        totals = self.store.worker_stats_totals()
        fleet_metrics = (
            ("jobs_done", "repro_fleet_jobs_done_total", "Jobs completed by the fleet."),
            ("jobs_failed", "repro_fleet_jobs_failed_total", "Jobs failed by the fleet."),
            ("busy_seconds", "repro_fleet_busy_seconds_total", "Fleet seconds spent executing."),
            (
                "claim_batches",
                "repro_claim_batches_total",
                "Batched claim round-trips issued by the fleet.",
            ),
            (
                "claim_batch_jobs",
                "repro_claim_batch_jobs_total",
                "Jobs received through batched claims (jobs / batches = mean size).",
            ),
            (
                "topology_cache_hits",
                "repro_topology_cache_hits_total",
                "Pristine-topology LRU hits across worker sessions.",
            ),
            (
                "topology_cache_misses",
                "repro_topology_cache_misses_total",
                "Pristine-topology LRU misses across worker sessions.",
            ),
            ("lp_solves", "repro_solver_lp_solves_total", "LP solves across worker sessions."),
            (
                "milp_solves",
                "repro_solver_milp_solves_total",
                "MILP solves across worker sessions.",
            ),
            (
                "solve_seconds",
                "repro_solver_solve_seconds_total",
                "Solver seconds across worker sessions.",
            ),
            (
                "incumbent_seeds",
                "repro_solver_incumbent_seeds_total",
                "Exact solves seeded with a verified heuristic incumbent.",
            ),
            (
                "portfolio_stage1",
                "repro_portfolio_stage1_total",
                "Jobs answered early with their heuristic envelope.",
            ),
            (
                "portfolio_upgrades",
                "repro_portfolio_upgrades_total",
                "Stored envelopes upgraded in place by a landed exact solve.",
            ),
            (
                "portfolio_proven",
                "repro_portfolio_proven_total",
                "Exact runs that finished with a proven-optimal status.",
            ),
            (
                "portfolio_exact",
                "repro_portfolio_exact_total",
                "Exact runs executed by the fleet (proven / exact = proven fraction).",
            ),
        )
        for key, name, help_text in fleet_metrics:
            counter(name, totals.get(key, 0.0), help_text)
        exact_runs = totals.get("portfolio_exact", 0.0)
        gauge(
            "repro_portfolio_proven_fraction",
            (totals.get("portfolio_proven", 0.0) / exact_runs) if exact_runs else 0.0,
            "Fraction of executed exact runs that carry a proven optimum.",
        )
        return "\n".join(lines) + "\n"


__all__ = [
    "DEFAULT_ENVELOPE_CACHE_SIZE",
    "DEFAULT_IDLE_TIMEOUT",
    "DEFAULT_MAX_BODY_BYTES",
    "DEFAULT_MAX_QUEUE_DEPTH",
    "DEFAULT_SLOW_REQUEST_THRESHOLD",
    "LATENCY_BUCKETS",
    "RecoveryServer",
]
