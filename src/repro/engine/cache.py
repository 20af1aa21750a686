"""On-disk result cache for experiment cells.

Every completed cell (one algorithm's run on one instance) is stored as one
small JSON file named after the digest of everything that determines its
result: the resolved instance configuration (topology / disruption / demand
with the sweep value applied), the algorithm (plus, for OPT, its MILP time
limit and the heuristics seeding it), the root seed entropy and the cell's
spawn key.  Interrupted sweeps therefore resume where they stopped,
extended sweeps (more values, more runs) only compute the new instances,
and completed MILP solves are never repeated.

The format is deliberately flat and human-inspectable: one file per cell
with the task description next to the metrics, so a cache directory doubles
as a raw experiment log that can be grepped or post-processed.  Cells are
written by :func:`repro.utils.jsonio.write_json`: atomically, and a value
JSON cannot hold raises ``TypeError`` instead of landing as a string.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Union

from repro.engine.tasks import Task, TaskResult
from repro.utils.jsonio import write_json


class ResultCache:
    """A directory of per-cell JSON results keyed by task digest."""

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def get(self, task: Task) -> Optional[List[TaskResult]]:
        """The cached cells of ``task``'s instance, or ``None`` on a miss.

        A hit needs every algorithm's cell stored with its plan.  A missing,
        unreadable, truncated (e.g. from a run killed mid-write, although
        writes are atomic) or plan-less entry makes the whole instance a
        miss: it reruns, and :meth:`put` rewrites every cell.
        """
        cells = []
        for algorithm in task.spec.algorithms:
            try:
                payload = json.loads(self._path(task.cache_key(algorithm)).read_text())
                cells.append(TaskResult.from_payload(payload["result"]))
            except (OSError, KeyError, TypeError, ValueError):
                return None
        return cells

    def put(self, task: Task, cells: Sequence[TaskResult]) -> None:
        """Store every cell of ``task``'s instance, each atomically (write + rename)."""
        for cell in cells:
            key = task.cache_key(cell.algorithm)
            payload = {
                "key": key,
                "task": {
                    "spec": task.spec.name,
                    "cell": task.spec.cell_config(task.sweep_value, cell.algorithm),
                    "root_entropy": task.root_entropy,
                    "spawn_key": list(task.spawn_key),
                },
                "result": cell.to_payload(),
            }
            write_json(payload, self._path(key))

    def __len__(self) -> int:
        return sum(1 for _ in self.directory.glob("*.json"))

    def entries(self) -> Iterator[Dict[str, object]]:
        """Iterate over the raw stored payloads (for inspection/tests)."""
        for path in sorted(self.directory.glob("*.json")):
            try:
                yield json.loads(path.read_text())
            except (OSError, ValueError):
                continue
