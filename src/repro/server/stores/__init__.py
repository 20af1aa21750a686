"""The job store: one SQLite file (:class:`JobStore`) and its contract.

``base`` states the contract every part of the server relies on
(``tests/unit/test_store_contract.py`` checks it); ``sqlite`` is the
store.  The daemon, every worker and ``python -m repro.server.workers``
open it directly with ``JobStore(path)``.
"""

from __future__ import annotations

from repro.server.stores.base import (
    DEFAULT_MAX_ATTEMPTS,
    STATES,
    StoreSchemaError,
    canonical_request,
)
from repro.server.stores.sqlite import (
    REMOVED_LAYOUT_MESSAGE,
    SCHEMA_VERSION,
    JobRecord,
    JobStore,
)

__all__ = [
    "DEFAULT_MAX_ATTEMPTS",
    "JobRecord",
    "JobStore",
    "REMOVED_LAYOUT_MESSAGE",
    "SCHEMA_VERSION",
    "STATES",
    "StoreSchemaError",
    "canonical_request",
]
