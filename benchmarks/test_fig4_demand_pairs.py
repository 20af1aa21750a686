"""Figure 4 — Bell-Canada, varying the number of demand pairs.

Paper setting: 10 flow units per pair, 1–7 pairs, complete destruction.
Panels: (a) edge repairs, (b) node repairs, (c) total repairs, (d) percentage
of satisfied demand.

Expected shape (paper): repairs grow with the number of pairs; ISP stays
closest to OPT; GRD-COM and GRD-NC repair more; SRT repairs least but starts
losing demand once the shared shortest paths saturate, while ISP and GRD-NC
never lose demand.
"""

from __future__ import annotations

import pytest

from bench_utils import BENCH_CACHE, BENCH_JOBS, FULL_SCALE, print_figure, timed
from repro.api.service import RecoveryService

COLUMNS = [
    "num_pairs",
    "algorithm",
    "edge_repairs",
    "node_repairs",
    "total_repairs",
    "satisfied_pct",
    "elapsed_seconds",
]


@timed
def run_figure4():
    if FULL_SCALE:
        scale = dict(sweep_values=(1, 2, 3, 4, 5, 6, 7), runs=20, opt_time_limit=None)
    else:
        scale = dict(sweep_values=(1, 3, 5), runs=1, opt_time_limit=90.0)
    return RecoveryService().sweep(
        "figure4", seed=11, jobs=BENCH_JOBS, cache_dir=BENCH_CACHE, **scale
    )


def test_figure4_demand_pairs(benchmark):
    result = benchmark.pedantic(run_figure4, rounds=1, iterations=1)
    print_figure(
        "Figure 4 — Bell-Canada, varying number of demand pairs (10 units/pair)",
        result.rows,
        COLUMNS,
    )

    repairs = result.series("total_repairs")
    satisfied = result.series("satisfied_pct")
    pair_counts = sorted(repairs["ISP"])

    for count in pair_counts:
        # Panel (c): OPT is the lower bound, ALL the upper bound, and ISP may
        # exceed GRD-NC only marginally (at a single demand pair all
        # algorithms essentially repair one shortest path).
        assert repairs["OPT"][count] <= repairs["ISP"][count] + 1e-6
        assert repairs["ISP"][count] <= repairs["GRD-NC"][count] + 4.0
        assert repairs["GRD-NC"][count] <= repairs["ALL"][count] + 1e-6
        assert repairs["ISP"][count] <= repairs["ALL"][count] + 1e-6
        # Panel (d): ISP, OPT and GRD-NC never lose demand.
        assert satisfied["ISP"][count] == pytest.approx(100.0, abs=1e-3)
        assert satisfied["OPT"][count] == pytest.approx(100.0, abs=1e-3)
        assert satisfied["GRD-NC"][count] == pytest.approx(100.0, abs=1e-3)

    # Where the crossover matters (several demand pairs sharing corridors),
    # ISP repairs no more than the greedy no-commitment heuristic.
    largest = pair_counts[-1]
    assert repairs["ISP"][largest] <= repairs["GRD-NC"][largest] + 1e-6

    # Repairs are (weakly) increasing in the number of demand pairs for ISP.
    isp_series = [repairs["ISP"][count] for count in pair_counts]
    assert all(b >= a - 2.0 for a, b in zip(isp_series, isp_series[1:]))
