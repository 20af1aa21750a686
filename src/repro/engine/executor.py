"""Execution layer: the one loop that runs units serially or across worker processes.

:func:`run_units` runs every unit — an engine instance task, an online
episode — in-process (``jobs=1``: no pool, no pickling, the easiest path to
debug) or in a :class:`~concurrent.futures.ProcessPoolExecutor`, and hands
each result to its caller as soon as that unit finishes.  Every unit
derives its RNG from its own spawn key (see :mod:`repro.engine.tasks`), so
the results are identical to the serial path regardless of scheduling order.

Callers persist each result as it arrives — :func:`run_tasks` to its
:class:`~repro.engine.cache.ResultCache`, ``repro.online.run_campaign`` to
its episode files — so an interrupted run loses at most the units that
were in flight.
"""

from __future__ import annotations

import os
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import Any, Callable, List, Optional, Sequence

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


def run_units(
    function: Callable[[Any], Any],
    units: Sequence[Any],
    jobs: Optional[int],
    finished: Callable[[int, Any], None],
) -> None:
    """Run ``function`` on every unit; call ``finished(index, result)`` as each one ends.

    ``finished`` runs in this process.  After a failure, of a unit or of
    ``finished``, running units still finish and reach ``finished``, queued
    ones are cancelled, and the first error is re-raised.
    """
    jobs = resolve_jobs(jobs)
    if jobs <= 1 or len(units) <= 1:
        for index, unit in enumerate(units):
            finished(index, function(unit))
        return
    with ProcessPoolExecutor(max_workers=min(jobs, len(units))) as pool:
        futures = {pool.submit(function, unit): index for index, unit in enumerate(units)}
        remaining = set(futures)
        first_error: Optional[BaseException] = None
        while remaining:
            done, remaining = wait(remaining, return_when=FIRST_COMPLETED)
            for future in done:
                if future.cancelled():
                    continue
                try:
                    finished(futures[future], future.result())
                except BaseException as error:  # noqa: BLE001 - re-raised below
                    if first_error is None:
                        first_error = error
                        for queued in remaining:
                            queued.cancel()
        if first_error is not None:
            raise first_error


def run_tasks(
    tasks: Sequence[Task],
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    progress: Optional[ProgressCallback] = None,
) -> List[List[TaskResult]]:
    """Execute ``tasks`` and return each instance's cells, in task order."""
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

    def finish(position: int, cells: List[TaskResult]) -> None:
        index = pending[position]
        if cache is not None:
            cache.put(tasks[index], cells)
        report(index, cells)

    run_units(execute_task, [tasks[index] for index in pending], jobs, finish)
    return [cells for cells in results if cells is not None]
