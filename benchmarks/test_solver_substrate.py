"""Solver substrate — incremental structure reuse and per-solve effort.

Not a paper figure: this bench instruments the solver layer introduced for
the ISP inner loop.  It runs the Figure-4 quick sweep (the heaviest
LP-bound workload of the tier-1 suite) and reports, per algorithm, the
averaged solver-effort counters the engine now threads through every cell:
LP solve count, build vs solve wall time, and structure-cache hit rate.

The golden table pins the solve and structure counts, which depend on the
cell alone (the structure cache lives for one instance).  The assertions pin
the properties the substrate is for:

* the topology-structure cache is effective in the ISP loop (hits dominate
  misses — splits and prunes re-solve on an unchanged topology), and
* matrix build time is a small fraction of solve time (before the substrate
  the two were comparable; the incremental path only pays for RHS vectors).
"""

from __future__ import annotations

from bench_utils import BENCH_CACHE, BENCH_JOBS, FULL_SCALE, print_figure
from repro.api.service import RecoveryService

COLUMNS = [
    "num_pairs",
    "algorithm",
    "solver_lp_solves",
    "solver_build_seconds",
    "solver_solve_seconds",
    "solver_structure_hits",
    "solver_structure_misses",
    "elapsed_seconds",
]


def run_sweep():
    pair_counts = (1, 2, 3, 4, 5, 6, 7) if FULL_SCALE else (2, 4, 6)
    return RecoveryService().sweep(
        "figure4",
        seed=11,
        sweep_values=pair_counts,
        runs=3 if FULL_SCALE else 1,
        algorithms=("ISP", "GRD-NC", "SRT"),
        jobs=BENCH_JOBS,
        cache_dir=BENCH_CACHE,
    )


def test_solver_substrate_effort(benchmark):
    result = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    print_figure(
        "Solver substrate — per-cell solver effort on the Figure-4 sweep",
        result.rows,
        COLUMNS,
        timing=[column for column in COLUMNS if column.endswith("_seconds")],
    )

    solves = result.series("solver_lp_solves")
    hits = result.series("solver_structure_hits")
    misses = result.series("solver_structure_misses")
    build = result.series("solver_build_seconds")
    solve = result.series("solver_solve_seconds")

    for count in sorted(solves["ISP"]):
        # ISP is LP-bound: the routability test runs every iteration.
        assert solves["ISP"][count] >= 1
        # The incremental path reuses cached structure across the inner loop.
        assert hits["ISP"][count] > misses["ISP"][count]
        # Build effort (RHS-only on hits) stays well below solve effort.
        # The 50 ms floor keeps the quick-scale cells (a few ms of solve
        # time) from flaking on cold or loaded CI runners; at full scale
        # the ratio is what binds.
        assert build["ISP"][count] < max(0.5 * solve["ISP"][count], 0.05)
