"""Spans, the library's one measurement scope, and the traces they join.

A **span** is one timed stage inside a process: a named node capturing
monotonic wall time (``time.perf_counter``) and CPU time
(``time.process_time``).  The open spans live in one contextvar, so their
nesting mirrors the call structure, survives ``await`` boundaries (which a
``threading.local`` would not) and follows ``contextvars.copy_context()``
into another thread.  Every span **counts**: :func:`count` adds to every
span open in the calling context, so a span sums what was counted inside
it, nested spans and copied-context threads included.  The solver
substrate (:mod:`repro.flows.solver.stats`) counts its effort this way, and
each algorithm run reads its ``solver`` stats off its ``service.run`` span.

A **trace** follows one request across processes: minted (or accepted via
the ``X-Repro-Trace-Id`` header) at HTTP ingress, stamped on the durable
job row, picked up by whichever worker claims the job, and finally merged
back into one tree by ``GET /v1/trace/{digest}``.  A span opened while a
trace is active joins that trace's tree under the innermost open span of
the same trace; with no active trace it times and counts but is recorded
nowhere.

Usage::

    with trace_context() as trace:          # activates a trace
        with span("http.request", method="POST"):
            with span("http.parse"):
                ...
        payload = trace.to_payload()        # JSON-safe span tree

    with span("service.run") as run:        # no trace needed to count
        ...
    run.counts                              # everything counted inside

Two properties the serving layer depends on:

* **Cheap without a trace.**  An untraced ``span(...)`` is one small object
  and two contextvar writes, and ``record_timed(...)`` with no active trace
  is a single contextvar read, so both are safe in library code.
* **Bounded traces.**  A trace records at most
  :data:`MAX_SPANS_PER_TRACE` spans (a pathological solve cannot balloon
  the sidecar row); overflow is counted in ``dropped_spans``, never
  silently lost.  A span over the budget still counts.

Trace ids and span payloads must never feed ``config_digest`` or result
envelopes — they ride headers, the ``jobs.trace_id`` column and the
``trace_spans`` sidecar table only.
"""

from __future__ import annotations

import contextvars
import os
import time
import uuid
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple

#: The HTTP header a trace id rides on — echoed on every response and
#: accepted inbound so external callers can stitch our trace into theirs.
TRACE_HEADER = "X-Repro-Trace-Id"

#: Spans recorded per trace before overflow counting starts.
MAX_SPANS_PER_TRACE = 1000

#: Characters accepted in an inbound trace id (anything else is replaced
#: by a freshly minted id rather than rejected — tracing never 400s).
_ID_CHARS = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_")


def new_trace_id() -> str:
    """A fresh 32-hex-char trace id."""
    return uuid.uuid4().hex


def normalize_trace_id(value: Optional[str]) -> Optional[str]:
    """A usable trace id from an inbound header value, or ``None``.

    Accepts 8–128 chars of ``[A-Za-z0-9_-]`` (covers W3C-style hex ids and
    uuids with dashes); anything else — too short, too long, control
    characters — is treated as absent so the caller mints a fresh id.
    """
    if not isinstance(value, str):
        return None
    candidate = value.strip()
    if not (8 <= len(candidate) <= 128):
        return None
    if not all(ch in _ID_CHARS for ch in candidate):
        return None
    return candidate


class Span:
    """One timed, counting, nestable stage; part of a trace's tree when ``trace`` is set.

    Opened with :func:`span` (``with span(...) as node``); entering pushes it
    on the open spans of this context, leaving times it and pops it.
    """

    __slots__ = (
        "name",
        "attrs",
        "started_at",
        "wall_seconds",
        "cpu_seconds",
        "children",
        "counts",
        "trace",
        "_wall0",
        "_cpu0",
        "_open",
    )

    def __init__(self, name: str, attrs: Dict[str, Any]) -> None:
        self.name = str(name)
        self.attrs = attrs
        self.started_at = time.time()  # epoch: aligns spans across processes
        self.wall_seconds = 0.0
        self.cpu_seconds = 0.0
        self.children: List["Span"] = []
        #: What :func:`count` added while this span was open.
        self.counts: Dict[str, float] = {}
        #: The trace whose tree holds this span, if any.
        self.trace: Optional["Trace"] = None
        self._wall0 = time.perf_counter()
        self._cpu0 = time.process_time()
        self._open = True

    def __enter__(self) -> "Span":
        open_spans = _OPEN.get()
        trace = _ACTIVE.get()
        if trace is not None:
            trace.attach(self, open_spans)
        _OPEN.set(open_spans + (self,))
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.finish()
        # back to the spans open before this one, whatever order the exits
        # come in: a span still open inside it (a generator finalised late)
        # leaves with it, and a span already left with its parent, or
        # exited in another context, changes nothing
        open_spans = _OPEN.get()
        if self in open_spans:
            _OPEN.set(open_spans[: open_spans.index(self)])

    def finish(self) -> None:
        self.wall_seconds = time.perf_counter() - self._wall0
        self.cpu_seconds = time.process_time() - self._cpu0
        self._open = False

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe form; an open span reports its elapsed time so far."""
        wall = self.wall_seconds
        cpu = self.cpu_seconds
        if self._open:
            wall = time.perf_counter() - self._wall0
            cpu = time.process_time() - self._cpu0
        payload: Dict[str, Any] = {
            "name": self.name,
            "started_at": self.started_at,
            "wall_seconds": wall,
            "cpu_seconds": cpu,
        }
        if self.attrs:
            payload["attrs"] = dict(self.attrs)
        if self._open:
            payload["in_progress"] = True
        if self.children:
            payload["children"] = [child.to_dict() for child in self.children]
        return payload


class Trace:
    """The span tree of one traced request in this process."""

    __slots__ = ("trace_id", "roots", "span_count", "dropped_spans")

    def __init__(self, trace_id: str) -> None:
        self.trace_id = trace_id
        self.roots: List[Span] = []
        self.span_count = 0
        self.dropped_spans = 0

    def attach(self, node: Span, open_spans: Tuple[Span, ...]) -> None:
        """Add ``node`` under the innermost of ``open_spans`` in this tree.

        Over the budget the node is only counted in ``dropped_spans``.
        """
        if self.span_count >= MAX_SPANS_PER_TRACE:
            self.dropped_spans += 1
            return
        self.span_count += 1
        node.trace = self
        for parent in reversed(open_spans):
            if parent.trace is self:
                parent.children.append(node)
                return
        self.roots.append(node)

    def to_payload(self) -> Dict[str, Any]:
        """The JSON-safe cross-process slice of this trace (one source)."""
        return {
            "trace_id": self.trace_id,
            "pid": os.getpid(),
            "spans": [node.to_dict() for node in self.roots],
            "dropped_spans": self.dropped_spans,
        }


_ACTIVE: contextvars.ContextVar[Optional[Trace]] = contextvars.ContextVar(
    "repro_active_trace", default=None
)

#: The spans open in this context, outermost first: the only stack of
#: measurement scopes.
_OPEN: contextvars.ContextVar[Tuple[Span, ...]] = contextvars.ContextVar(
    "repro_open_spans", default=()
)


def current_trace() -> Optional[Trace]:
    """The trace active in this context, if any."""
    return _ACTIVE.get()


def current_trace_id() -> Optional[str]:
    """The id of the active trace, if any (log correlation reads this)."""
    trace = _ACTIVE.get()
    return trace.trace_id if trace is not None else None


@contextmanager
def trace_context(trace_id: Optional[str] = None) -> Iterator[Trace]:
    """Activate a trace for the enclosed block (nesting replaces, scoped).

    ``trace_id=None`` mints a fresh id; the HTTP ingress passes the
    normalized inbound header, workers pass the id stored on the job row.
    The trace object stays readable (``to_payload``) after the block ends,
    which is how callers persist it.
    """
    trace = Trace(trace_id or new_trace_id())
    token = _ACTIVE.set(trace)
    try:
        yield trace
    finally:
        _ACTIVE.reset(token)


def span(name: str, **attrs: Any) -> Span:
    """A span to time the ``with`` block it opens; it sums every :func:`count` inside it.

    The span joins the active trace's tree, if a trace is active and under
    its budget; otherwise it is recorded nowhere, but it still times and
    counts.
    """
    return Span(name, attrs)


def count(**amounts: float) -> None:
    """Add ``amounts`` to the counts of every span open in this context."""
    for node in _OPEN.get():
        counts = node.counts
        for key, amount in amounts.items():
            counts[key] = counts.get(key, 0) + amount


def record_timed(
    name: str, wall_seconds: float, cpu_seconds: float = 0.0, **attrs: Any
) -> None:
    """Attach an externally measured stage to the active trace (hook form).

    The solver-substrate reporters (``record_solve``/``record_build``…)
    already hold measured durations; this lets them contribute spans
    without restructuring their call sites.  No active trace: no-op.
    """
    trace = _ACTIVE.get()
    if trace is None:
        return
    node = Span(name, attrs)
    node.started_at -= max(0.0, float(wall_seconds))
    node.wall_seconds = float(wall_seconds)
    node.cpu_seconds = float(cpu_seconds)
    node._open = False
    trace.attach(node, _OPEN.get())


# --------------------------------------------------------------------- #
# Rendering (the `repro.cli trace` flame-style tree)
# --------------------------------------------------------------------- #
def _format_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:7.3f}s "
    return f"{seconds * 1000.0:7.2f}ms"


def _render_span(
    node: Dict[str, Any], scale: float, indent: int, lines: List[str]
) -> None:
    wall = float(node.get("wall_seconds", 0.0))
    cpu = float(node.get("cpu_seconds", 0.0))
    bar = "▇" * max(1, int(round((wall / scale) * 24))) if scale > 0 else "▏"
    attrs = node.get("attrs") or {}
    suffix = "".join(f" {key}={value}" for key, value in sorted(attrs.items()))
    if node.get("in_progress"):
        suffix += " [in progress]"
    lines.append(
        f"{'  ' * indent}{node.get('name', '?'):<{max(4, 36 - 2 * indent)}} "
        f"{_format_seconds(wall)} wall {_format_seconds(cpu)} cpu  {bar}{suffix}"
    )
    for child in node.get("children", []):
        _render_span(child, scale, indent + 1, lines)


def render_trace(doc: Dict[str, Any]) -> str:
    """The flame-style text tree of a ``GET /v1/trace/{digest}`` document.

    Bars are scaled per source against that source's longest root span, so
    a microsecond front-end trace and a multi-second worker trace are each
    readable on their own scale.
    """
    lines = [
        f"trace {doc.get('trace_id') or '(none)'} · digest {doc.get('digest', '?')}"
        f" · state {doc.get('state', '?')}"
    ]
    sources = doc.get("sources") or {}
    for source in sorted(sources):
        payload = sources[source] or {}
        spans = payload.get("spans") or []
        pid = payload.get("pid")
        dropped = int(payload.get("dropped_spans", 0) or 0)
        header = f"{source}" + (f" (pid {pid})" if pid is not None else "")
        if dropped:
            header += f" [{dropped} span(s) dropped]"
        lines.append(header)
        scale = max((float(node.get("wall_seconds", 0.0)) for node in spans), default=0.0)
        for node in spans:
            _render_span(node, scale, 1, lines)
        if not spans:
            lines.append("  (no spans recorded)")
    if not sources:
        lines.append("(no spans recorded yet)")
    return "\n".join(lines)


__all__ = [
    "MAX_SPANS_PER_TRACE",
    "Span",
    "TRACE_HEADER",
    "Trace",
    "count",
    "current_trace",
    "current_trace_id",
    "new_trace_id",
    "normalize_trace_id",
    "record_timed",
    "render_trace",
    "span",
    "trace_context",
]
