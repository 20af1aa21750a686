"""Structured logging for the serving pipeline, correlated by trace id.

The daemon and every worker process emit one JSON object per line on
stderr (or a human ``text`` format, ``serve --log-format text``)::

    {"ts": 1722980000.123456, "level": "info", "logger": "repro.server.workers",
     "event": "job done", "trace_id": "9f0c...", "worker": "worker-41-0",
     "digest": "ab12...", "seconds": 0.041}

Schema: ``ts`` (unix epoch), ``level``, ``logger``, ``event`` (the
human-stable message — extra context rides separate keys, so log lines are
grep-able *and* parseable), ``trace_id`` (present whenever a trace is
active in the emitting context or the caller passes one explicitly), plus
any keyword fields the call site attached via ``extra``.

Configuration flows one way: ``repro.cli serve --log-level/--log-format``
→ :func:`configure_logging` in the daemon process, which also exports
:data:`LOG_LEVEL_ENV_VAR`/:data:`LOG_FORMAT_ENV_VAR` so spawned worker
processes (a fresh interpreter each — the fleet uses the ``spawn``
context) pick the same settings up through :func:`configure_from_env`.

Unconfigured (library/test) use stays quiet and cheap: loggers exist,
``caplog`` sees records, nothing is printed below WARNING.

:func:`warn_rate_limited` is for failure modes that can fire in a tight
loop (a dead wakeup pipe, a failed span write): at most one record per
``key`` per ``interval``, with a ``suppressed`` count on the next emitted
record so bursts are visible without flooding.
"""

from __future__ import annotations

import json
import logging
import os
import sys
import threading
import time
from typing import Any, Dict, Optional, TextIO, Tuple

from repro.obs.trace import current_trace_id

#: Environment variables the daemon exports so spawned workers log alike.
LOG_LEVEL_ENV_VAR = "REPRO_LOG_LEVEL"
LOG_FORMAT_ENV_VAR = "REPRO_LOG_FORMAT"

#: Accepted ``--log-level`` values (argparse choices reuse this).
LOG_LEVELS = ("debug", "info", "warning", "error")

#: Accepted ``--log-format`` values.
LOG_FORMATS = ("json", "text")

#: Seconds between emissions of the same rate-limited warning key.
DEFAULT_RATE_LIMIT_INTERVAL = 30.0

#: The root of the library's logger tree; configure_logging binds here.
_ROOT_LOGGER = "repro"

#: LogRecord attributes that are logging machinery, not caller fields.
_RESERVED = frozenset(
    vars(
        logging.LogRecord("", 0, "", 0, "", (), None)
    ).keys()
) | {"message", "asctime", "taskName"}


class JsonFormatter(logging.Formatter):
    """One JSON object per line; caller ``extra`` keys ride at top level."""

    def format(self, record: logging.LogRecord) -> str:
        payload: Dict[str, Any] = {
            "ts": round(record.created, 6),
            "level": record.levelname.lower(),
            "logger": record.name,
            "event": record.getMessage(),
        }
        trace_id = getattr(record, "trace_id", None) or current_trace_id()
        if trace_id:
            payload["trace_id"] = trace_id
        for key, value in record.__dict__.items():
            if key in _RESERVED or key.startswith("_") or key == "trace_id":
                continue
            payload[key] = value
        if record.exc_info and record.exc_info[0] is not None:
            payload["exc_type"] = record.exc_info[0].__name__
            payload["exc"] = self.formatException(record.exc_info)
        return json.dumps(payload, default=str, sort_keys=True)


class TextFormatter(logging.Formatter):
    """Human form of the same record: message first, fields as key=value."""

    def format(self, record: logging.LogRecord) -> str:
        fields = []
        trace_id = getattr(record, "trace_id", None) or current_trace_id()
        if trace_id:
            fields.append(f"trace_id={trace_id}")
        for key, value in sorted(record.__dict__.items()):
            if key in _RESERVED or key.startswith("_") or key == "trace_id":
                continue
            fields.append(f"{key}={value}")
        suffix = (" " + " ".join(fields)) if fields else ""
        line = (
            f"{self.formatTime(record, '%H:%M:%S')} {record.levelname:<7} "
            f"{record.name}: {record.getMessage()}{suffix}"
        )
        if record.exc_info and record.exc_info[0] is not None:
            line += "\n" + self.formatException(record.exc_info)
        return line


def get_logger(name: str) -> logging.Logger:
    """A logger under the library tree (``repro.*``)."""
    if name != _ROOT_LOGGER and not name.startswith(_ROOT_LOGGER + "."):
        name = f"{_ROOT_LOGGER}.{name}"
    return logging.getLogger(name)


def configure_logging(
    level: str = "info",
    log_format: str = "json",
    stream: Optional[TextIO] = None,
) -> logging.Logger:
    """Wire the ``repro`` logger tree to one stderr handler; idempotent.

    Reconfiguring replaces the previous obs handler instead of stacking a
    second one, so tests (and a daemon restarted in-process) can call this
    freely.  Also exports the env vars spawned workers configure from.
    """
    if level not in LOG_LEVELS:
        raise ValueError(f"unknown log level {level!r}; valid: {', '.join(LOG_LEVELS)}")
    if log_format not in LOG_FORMATS:
        raise ValueError(
            f"unknown log format {log_format!r}; valid: {', '.join(LOG_FORMATS)}"
        )
    root = logging.getLogger(_ROOT_LOGGER)
    for handler in list(root.handlers):
        if getattr(handler, "_repro_obs_handler", False):
            root.removeHandler(handler)
    handler = logging.StreamHandler(stream if stream is not None else sys.stderr)
    handler.setFormatter(JsonFormatter() if log_format == "json" else TextFormatter())
    handler._repro_obs_handler = True  # type: ignore[attr-defined]
    root.addHandler(handler)
    root.setLevel(getattr(logging, level.upper()))
    root.propagate = False  # the library owns its own sink
    os.environ[LOG_LEVEL_ENV_VAR] = level
    os.environ[LOG_FORMAT_ENV_VAR] = log_format
    return root


def configure_from_env(stream: Optional[TextIO] = None) -> Optional[logging.Logger]:
    """Configure from the daemon-exported env vars (worker processes).

    Returns ``None`` (and configures nothing) when the env carries no
    logging settings — an externally attached worker without a configured
    daemon stays quiet rather than guessing.
    """
    level = os.environ.get(LOG_LEVEL_ENV_VAR)
    log_format = os.environ.get(LOG_FORMAT_ENV_VAR)
    if not level and not log_format:
        return None
    if level not in LOG_LEVELS:
        level = "info"
    if log_format not in LOG_FORMATS:
        log_format = "json"
    return configure_logging(level=level, log_format=log_format, stream=stream)


# --------------------------------------------------------------------- #
# Rate-limited warnings
# --------------------------------------------------------------------- #
_rate_lock = threading.Lock()
_rate_state: Dict[Tuple[str, str], Tuple[float, int]] = {}  # key -> (last_emit, suppressed)


def warn_rate_limited(
    logger: logging.Logger,
    key: str,
    event: str,
    interval: float = DEFAULT_RATE_LIMIT_INTERVAL,
    level: int = logging.WARNING,
    **fields: Any,
) -> bool:
    """Emit ``event`` at most once per ``interval`` seconds per ``key``.

    Suppressed repeats are counted and reported as a ``suppressed`` field
    on the next emitted record.  Returns whether a record was emitted —
    the replacement for ``except Exception: pass`` in paths that must
    never raise but should never be invisible either.
    """
    now = time.monotonic()
    state_key = (logger.name, key)
    with _rate_lock:
        last_emit, suppressed = _rate_state.get(state_key, (None, 0))
        if last_emit is not None and (now - last_emit) < interval:
            _rate_state[state_key] = (last_emit, suppressed + 1)
            return False
        _rate_state[state_key] = (now, 0)
    if suppressed:
        fields = dict(fields, suppressed=suppressed)
    logger.log(level, event, extra=fields)
    return True


def _reset_rate_limits() -> None:
    """Test hook: forget every rate-limit key."""
    with _rate_lock:
        _rate_state.clear()


__all__ = [
    "DEFAULT_RATE_LIMIT_INTERVAL",
    "JsonFormatter",
    "LOG_FORMATS",
    "LOG_FORMAT_ENV_VAR",
    "LOG_LEVELS",
    "LOG_LEVEL_ENV_VAR",
    "TextFormatter",
    "configure_from_env",
    "configure_logging",
    "get_logger",
    "warn_rate_limited",
]
