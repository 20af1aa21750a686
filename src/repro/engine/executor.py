"""Execution layer: run instance tasks serially or across worker processes.

``jobs=1`` runs every instance in-process (no pool, no pickling — the
graceful fallback and the easiest path to debug).  ``jobs>1`` fans the
instances out to a :class:`~concurrent.futures.ProcessPoolExecutor`;
because every instance derives its RNG from its own spawn key (see
:mod:`repro.engine.tasks`), the results are identical to the serial path
regardless of scheduling order.

When a :class:`~repro.engine.cache.ResultCache` is given, cached instances
are served from disk and fresh results are written back as soon as they
complete, so an interrupted parallel sweep loses at most the instances that
were in flight.
"""

from __future__ import annotations

import os
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import Callable, List, Optional, Sequence

from repro.engine.cache import ResultCache
from repro.engine.tasks import Task, TaskResult, execute_task

#: Progress callback: (completed cells, total cells, cell just finished).
ProgressCallback = Callable[[int, int, TaskResult], None]


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalise a ``--jobs`` value: ``None``/``0`` means one per CPU."""
    if jobs is None or jobs == 0:
        return max(1, os.cpu_count() or 1)
    if jobs < 0:
        raise ValueError("jobs must be a positive integer (or 0 for auto)")
    return jobs


def run_tasks(
    tasks: Sequence[Task],
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    progress: Optional[ProgressCallback] = None,
) -> List[List[TaskResult]]:
    """Execute ``tasks`` and return each instance's cells, in task order."""
    jobs = resolve_jobs(jobs)
    total = sum(len(task.spec.algorithms) for task in tasks)
    results: List[Optional[List[TaskResult]]] = [None] * len(tasks)
    pending: List[int] = []
    completed = 0

    def report(index: int, cells: List[TaskResult]) -> None:
        nonlocal completed
        results[index] = cells
        for cell in cells:
            completed += 1
            if progress is not None:
                progress(completed, total, cell)

    for index, task in enumerate(tasks):
        cached = cache.get(task) if cache is not None else None
        if cached is not None:
            report(index, cached)
        else:
            pending.append(index)

    def finish(index: int, cells: List[TaskResult]) -> None:
        if cache is not None:
            cache.put(tasks[index], cells)
        report(index, cells)

    if jobs <= 1 or len(pending) <= 1:
        for index in pending:
            finish(index, execute_task(tasks[index]))
    else:
        with ProcessPoolExecutor(max_workers=min(jobs, len(pending))) as pool:
            futures = {pool.submit(execute_task, tasks[index]): index for index in pending}
            remaining = set(futures)
            first_error: Optional[BaseException] = None
            # Keep draining even after a failure: instances already running
            # finish and reach the cache (so --resume recomputes only the
            # failed and never-started ones); queued instances are cancelled.
            while remaining:
                done, remaining = wait(remaining, return_when=FIRST_COMPLETED)
                for future in done:
                    if future.cancelled():
                        continue
                    try:
                        cells = future.result()
                    except BaseException as error:  # noqa: BLE001 - re-raised below
                        if first_error is None:
                            first_error = error
                            for queued in remaining:
                                queued.cancel()
                        continue
                    finish(futures[future], cells)
            if first_error is not None:
                raise first_error

    return [cells for cells in results if cells is not None]
