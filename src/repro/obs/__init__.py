"""Observability primitives: tracing, structured logging, telemetry.

``repro.obs`` is the instrument panel of the serving pipeline.  It is
deliberately dependency-free (stdlib only) and import-cheap, so every
layer — the asyncio HTTP front end, spawned worker processes, the solver
substrate — can lean on it without cycles:

:mod:`repro.obs.trace`
    Contextvar-scoped spans with monotonic wall + CPU time and counts (the
    library's one measurement scope: run-level solver stats are summed on
    spans), trace ids minted at HTTP ingress and carried across processes
    on the job row, and the flame-style renderer behind ``repro.cli trace``.

:mod:`repro.obs.logging`
    Structured JSON (or plain-text) logging with automatic trace-id
    correlation and rate-limited warnings for noisy failure modes.

The hard invariant: **nothing in this package may perturb an answer.**
Trace ids never enter ``config_digest``, span payloads never ride result
envelopes, and with no active trace a span only times and counts while
every other hook is a contextvar read that returns immediately.
"""

from repro.obs.logging import configure_logging, get_logger, warn_rate_limited
from repro.obs.trace import (
    TRACE_HEADER,
    current_trace,
    current_trace_id,
    new_trace_id,
    record_timed,
    span,
    trace_context,
)

__all__ = [
    "TRACE_HEADER",
    "configure_logging",
    "current_trace",
    "current_trace_id",
    "get_logger",
    "new_trace_id",
    "record_timed",
    "span",
    "trace_context",
    "warn_rate_limited",
]
