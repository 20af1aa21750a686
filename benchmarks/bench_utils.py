"""Shared helpers for the benchmark harness.

Every benchmark module regenerates one figure of the paper's evaluation
section (see DESIGN.md for the per-experiment index).  By default the
benches run at *reduced scale* — fewer repetitions, coarser sweeps, smaller
MILP time limits — so the whole harness finishes on a laptop in minutes.
Set the environment variable ``REPRO_BENCH_SCALE=full`` to run the paper's
full parameters.  Figures 3-6 then take well under a minute each; the slow
ones are Figure 7 (OPT limit 3600 s) and Figure 9 (OPT limit 1800 s),
dominated by the exact MILP.

The benches both *print* the reproduced rows (the same series the paper's
figures plot) and *assert* the qualitative claims, so a green benchmark run
doubles as a reproduction check.  Each printed table is also compared with
its tracked golden copy under ``results/``: every bench has a quick-scale
table, and Figures 3-6 also a full-scale one (CI's ``full-scale-figures``
job).  The sweep benches print their wall time (:func:`timed`).
"""

from __future__ import annotations

import difflib
import functools
import os
import re
import time
from pathlib import Path
from typing import Callable, Dict, List, Sequence, TypeVar

import numpy as np

from repro.evaluation.demand_builder import far_apart_demand
from repro.evaluation.metrics import PlanEvaluation, evaluate_plan
from repro.evaluation.reporting import format_table
from repro.failures.complete import CompleteDestruction
from repro.flows.solver.incremental import instance_scope
from repro.heuristics.base import RecoveryAlgorithm
from repro.topologies.bellcanada import bell_canada

#: Set REPRO_BENCH_SCALE=full to run the paper-scale parameters.
FULL_SCALE = os.environ.get("REPRO_BENCH_SCALE", "quick").lower() == "full"

#: Worker processes for the sweep benches (they run through the experiment
#: engine).  1 keeps everything in-process; 0 means one worker per CPU.
#: Results are bit-identical for any value — only wall-clock changes.
BENCH_JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "1"))

#: Optional result-cache directory: set REPRO_BENCH_CACHE to a path to make
#: interrupted/repeated bench runs resume from completed cells.
BENCH_CACHE = os.environ.get("REPRO_BENCH_CACHE") or None

#: Golden copies of the reproduced figure tables, one file per figure and
#: scale; they also survive pytest's output capturing.
RESULTS_DIR = Path(__file__).resolve().parent / "results"

T = TypeVar("T")


def timed(run: Callable[[], T]) -> Callable[[], T]:
    """``run``, printing its wall time when it returns.

    The wall time goes to stdout only (``pytest -s`` shows it); like every
    timing column it is never part of a golden table.
    """

    @functools.wraps(run)
    def timed_run() -> T:
        started = time.perf_counter()
        result = run()
        scale = "full" if FULL_SCALE else "quick"
        print(f"\n{run.__name__} ({scale} scale): {time.perf_counter() - started:.1f} s wall time")
        return result

    return timed_run


def print_figure(
    title: str,
    rows: Sequence[Dict[str, object]],
    columns: Sequence[str],
    timing: Sequence[str] = ("elapsed_seconds",),
) -> None:
    """Print one reproduced figure and check it against its golden table.

    Every column is printed.  The ``timing`` columns — wall-clock readings
    and other values that change from run to run — are left out of the
    golden table ``results/<slug>.<scale>.txt``.  A table that differs from
    the golden one fails with a unified diff.  The file is written only when
    it is absent: to re-record a table, delete it and re-run the bench.
    """
    print_timings(title, rows, columns)
    slug = re.sub(r"[^a-z0-9]+", "-", title.lower()).strip("-")[:60]
    scale = "full" if FULL_SCALE else "quick"
    path = RESULTS_DIR / f"{slug}.{scale}.txt"
    kept = [column for column in columns if column not in timing]
    table = format_table(rows, columns=kept, title=title)
    if not path.exists():
        RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        path.write_text(table, encoding="utf-8")
        return
    golden = path.read_text(encoding="utf-8")
    if table != golden:
        diff = difflib.unified_diff(
            golden.splitlines(keepends=True),
            table.splitlines(keepends=True),
            fromfile=f"results/{path.name}",
            tofile="this run",
        )
        raise AssertionError(
            f"the table differs from results/{path.name} (delete the file to re-record):\n"
            + "".join(diff)
        )


def print_timings(title: str, rows: Sequence[Dict[str, object]], columns: Sequence[str]) -> None:
    """Print a table of run-to-run measurements (printed only, never saved)."""
    print()
    print(format_table(rows, columns=columns, title=title))


def ablation_rows(
    algorithms: Sequence[RecoveryAlgorithm], runs: int, seed: int
) -> List[Dict[str, object]]:
    """Average every algorithm over the same ``runs`` Bell-Canada instances.

    Run ``k`` destroys Bell-Canada completely and draws 4 far-apart pairs of
    10 units from the ``k``-th child of ``SeedSequence(seed).spawn(runs)``.
    Each instance's runs share one instance scope, as in the request runner.
    One row per algorithm, keyed by ``algorithm.name``.
    """
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    evaluations: Dict[str, List[PlanEvaluation]] = {a.name: [] for a in algorithms}
    for child in np.random.SeedSequence(seed).spawn(runs):
        supply = bell_canada()
        CompleteDestruction().apply(supply)
        demand = far_apart_demand(supply, 4, 10.0, seed=np.random.default_rng(child))
        with instance_scope():
            for algorithm in algorithms:
                plan = algorithm.solve(supply, demand)
                evaluations[algorithm.name].append(evaluate_plan(supply, demand, plan))
    return [
        {
            "algorithm": name,
            "total_repairs": float(np.mean([e.total_repairs for e in runs_of])),
            "satisfied_pct": float(np.mean([e.satisfied_percentage for e in runs_of])),
            "elapsed_seconds": float(np.mean([e.elapsed_seconds for e in runs_of])),
        }
        for name, runs_of in evaluations.items()
    ]
