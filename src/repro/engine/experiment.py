"""Top of the engine: run a declarative spec end to end.

:func:`run_experiment` expands an :class:`~repro.engine.spec.ExperimentSpec`
into instance tasks, executes them (serially, in parallel, and/or from
cache) and aggregates the per-cell metrics back into the per-(sweep value,
algorithm) averaged rows the paper's figures plot.  Rows hold raw metric
values; display rounding is the job of
:func:`repro.evaluation.reporting.format_table`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

import numpy as np

from repro.api.results import METRIC_KEYS
from repro.engine.cache import ResultCache
from repro.engine.executor import ProgressCallback, run_tasks
from repro.engine.spec import ExperimentSpec
from repro.engine.tasks import TaskResult, expand_tasks
from repro.utils.rng import SeedLike


@dataclass
class ScenarioResult:
    """Rows of one reproduced figure."""

    name: str
    figure: str
    sweep_parameter: str
    rows: List[Dict[str, object]] = field(default_factory=list)

    def series(self, value_key: str = "total_repairs") -> Dict[str, Dict[object, object]]:
        """Pivot the rows into ``{algorithm: {sweep value: metric}}``."""
        series: Dict[str, Dict[object, object]] = {}
        for row in self.rows:
            series.setdefault(str(row["algorithm"]), {})[row[self.sweep_parameter]] = row[
                value_key
            ]
        return series


def aggregate_results(
    spec: ExperimentSpec, results: List[TaskResult]
) -> ScenarioResult:
    """Average per-cell metrics into one row per (sweep value, algorithm)."""
    by_cell: Dict[tuple, List[TaskResult]] = {}
    for result in results:
        by_cell.setdefault((result.value_index, result.algorithm.upper()), []).append(result)

    scenario = ScenarioResult(
        name=spec.name, figure=spec.figure, sweep_parameter=spec.sweep.parameter
    )
    for value_index, sweep_value in enumerate(spec.sweep.values):
        for name in spec.algorithms:
            cell = by_cell.get((value_index, name.upper()), [])
            if not cell:
                continue
            cell.sort(key=lambda result: result.run_index)

            row: Dict[str, object] = {
                spec.sweep.parameter: sweep_value,
                "algorithm": name.upper(),
                "runs": len(cell),
            }
            for key in METRIC_KEYS:
                row[key] = float(np.mean([result.metrics[key] for result in cell]))
            row["broken_elements"] = float(np.mean([result.broken_elements for result in cell]))
            # Average the runs' solver effort counters; cached cells from
            # older runs may lack some keys, so average over the cells that
            # have each key.
            for key in sorted({key for result in cell for key in result.solver}):
                values = [result.solver[key] for result in cell if key in result.solver]
                row[f"solver_{key}"] = float(np.mean(values))
            scenario.rows.append(row)
    return scenario


def run_experiment(
    spec: ExperimentSpec,
    seed: SeedLike = None,
    jobs: int = 1,
    cache_dir: Optional[Union[str, Path]] = None,
    progress: Optional[ProgressCallback] = None,
) -> ScenarioResult:
    """Run ``spec``'s full sweep and return the figure rows.

    Parameters
    ----------
    seed:
        Root seed; every instance derives an independent stream from it, so
        any ``jobs`` value yields the same metrics.
    jobs:
        Worker processes; ``1`` stays in-process, ``0``/``None`` means one
        per CPU.
    cache_dir:
        When given, completed cells are persisted there and reused by later
        runs of the same (spec, seed) — interrupted or extended sweeps only
        compute the missing instances.
    """
    tasks = expand_tasks(spec, seed=seed)
    cache = ResultCache(cache_dir) if cache_dir is not None else None
    instances = run_tasks(tasks, jobs=jobs, cache=cache, progress=progress)
    return aggregate_results(spec, [cell for cells in instances for cell in cells])
