"""Figure 7 — scalability on Erdős–Rényi random graphs.

Paper setting: G(100, p) with p swept from 0.05 to 0.9, five 1-unit demands,
edge capacity 1000 (a pure connectivity / Steiner-forest-like instance),
complete destruction.  Panels: (a) execution time of ISP / SRT / OPT,
(b) total repairs.

Expected shape (paper): OPT's execution time explodes as p grows (the MILP
gets denser) while ISP and SRT stay flat; the ISP/OPT repair gap is larger
than on the real (nearly planar) topologies but ISP still repairs fewer
elements than SRT on average and matches the trivial optimum at p = 1.
"""

from __future__ import annotations

import dataclasses

import pytest

from bench_utils import BENCH_CACHE, BENCH_JOBS, FULL_SCALE, print_figure, timed
from repro.api.service import RecoveryService
from repro.engine.registry import get_spec

COLUMNS = ["edge_probability", "algorithm", "total_repairs", "elapsed_seconds", "satisfied_pct"]


@timed
def run_figure7():
    if FULL_SCALE:
        num_nodes = 100
        scale = dict(sweep_values=(0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 0.9), runs=5, opt_time_limit=3600.0)
    else:
        # Reduced scale: smaller graphs and a tight MILP time limit so the bench
        # finishes quickly while still showing the widening OPT/ISP time gap.
        num_nodes = 40
        scale = dict(sweep_values=(0.08, 0.25), runs=1, opt_time_limit=60.0)
    spec = get_spec("figure7")
    topology = dataclasses.replace(
        spec.topology, kwargs={**dict(spec.topology.kwargs), "num_nodes": num_nodes}
    )
    return RecoveryService().sweep(
        spec, seed=19, topology=topology, jobs=BENCH_JOBS, cache_dir=BENCH_CACHE, **scale
    )


def test_figure7_scalability(benchmark):
    result = benchmark.pedantic(run_figure7, rounds=1, iterations=1)
    print_figure(
        "Figure 7 — Erdős–Rényi scalability (5 unit demands, capacity 1000)",
        result.rows,
        COLUMNS,
    )

    repairs = result.series("total_repairs")
    times = result.series("elapsed_seconds")
    probabilities = sorted(repairs["ISP"])

    for probability in probabilities:
        # Connectivity-only instances: nobody repairs more than SRT + slack and
        # everybody repairs at least the 10 demand endpoints.
        assert repairs["ISP"][probability] >= 10.0 - 1e-6
        assert repairs["SRT"][probability] >= 10.0 - 1e-6
        # ISP must not be dramatically worse than OPT even on non-planar graphs.
        assert repairs["ISP"][probability] <= 3.0 * max(repairs["OPT"][probability], 1.0)

    # Execution-time claim: ISP is never slower than OPT on the densest graph.
    densest = probabilities[-1]
    assert times["ISP"][densest] <= times["OPT"][densest] + 1.0
