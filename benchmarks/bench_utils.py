"""Shared helpers for the benchmark harness.

Every benchmark module regenerates one figure of the paper's evaluation
section (README, "Reproducing the paper's figures").  By default the
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
table, and Figures 3-6 and the two ablations also a full-scale one (CI's
``full-scale-figures`` job).  The sweep benches print their wall time
(:func:`timed`).
"""

from __future__ import annotations

import difflib
import functools
import os
import re
import time
from pathlib import Path
from typing import Any, Callable, Dict, Mapping, Optional, Sequence, TypeVar

from repro.api.requests import DemandSpec, DisruptionSpec, TopologySpec
from repro.engine.spec import ExperimentSpec, SweepAxis
from repro.evaluation.reporting import format_table

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


def ablation_spec(
    algorithm: str, options: Mapping[str, Any], opt_time_limit: Optional[float] = None
) -> ExperimentSpec:
    """One ablation variant, ``algorithm`` bound to ``options``, as an engine spec.

    Bell-Canada destroyed completely, 4 routable far-apart pairs of 10 units;
    1 run at quick scale, 5 at full.  Instance seeds do not depend on the
    algorithm, so variants swept with one seed run on the same instances.
    """
    return ExperimentSpec(
        name="ablation-bell-canada",
        figure="Ablation",
        topology=TopologySpec("bell-canada"),
        disruption=DisruptionSpec("complete"),
        demand=DemandSpec("routable-far-apart", num_pairs=4, flow_per_pair=10.0),
        sweep=SweepAxis(parameter="num_pairs", values=(4,), target="demand.num_pairs"),
        algorithms=(algorithm,),
        algorithm_kwargs={algorithm: dict(options)},
        runs=5 if FULL_SCALE else 1,
        opt_time_limit=opt_time_limit,
    )
