"""Parallel experiment engine with declarative sweeps and resumable caching.

The engine decomposes a sweep experiment into independent instances,
executes them serially or across worker processes with bit-identical
results, persists completed cells to an on-disk cache, and aggregates the
figure rows the paper plots:

* :mod:`~repro.engine.spec` — declarative :class:`ExperimentSpec` (topology,
  disruption, demand, sweep axis, algorithms) and instance materialisation;
* :mod:`~repro.engine.tasks` — ``(sweep value, run)`` instance tasks with
  ``SeedSequence.spawn``-derived streams, one result cell per algorithm;
* :mod:`~repro.engine.executor` — serial / process-pool execution;
* :mod:`~repro.engine.cache` — resumable JSON result cache, one file per cell;
* :mod:`~repro.engine.experiment` — :func:`run_experiment` + aggregation;
* :mod:`~repro.engine.registry` — the paper's figures as registered specs.
"""

from repro.engine.cache import ResultCache
from repro.engine.executor import resolve_jobs, run_tasks
from repro.engine.experiment import ScenarioResult, aggregate_results, run_experiment
from repro.engine.registry import available_specs, get_spec, register_spec
from repro.engine.spec import ExperimentSpec, SweepAxis, build_instance
from repro.engine.tasks import Task, TaskResult, execute_task, expand_tasks

__all__ = [
    "ExperimentSpec",
    "ResultCache",
    "ScenarioResult",
    "SweepAxis",
    "Task",
    "TaskResult",
    "aggregate_results",
    "available_specs",
    "build_instance",
    "execute_task",
    "expand_tasks",
    "get_spec",
    "register_spec",
    "resolve_jobs",
    "run_experiment",
    "run_tasks",
]
