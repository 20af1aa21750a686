"""Figure 3 — total repairs of the multi-commodity relaxation extremes.

Paper setting: Bell-Canada topology, 4 demand pairs, complete destruction,
demand per pair swept from 2 to 18 flow units.  Lines: OPT, MCW, MCB, ALL.

Expected shape (paper): the relaxation's optimal face is wide — MCB tracks
OPT closely while MCW drifts towards the repair-everything line; ALL is the
constant 112 (48 nodes + 64 edges).
"""

from __future__ import annotations

import pytest

from bench_utils import BENCH_CACHE, BENCH_JOBS, FULL_SCALE, print_figure, timed
from repro.api.service import RecoveryService

COLUMNS = ["demand_per_pair", "algorithm", "total_repairs", "satisfied_pct", "elapsed_seconds"]


@timed
def run_figure3():
    if FULL_SCALE:
        scale = dict(sweep_values=(2, 4, 6, 8, 10, 12, 14, 16, 18), runs=20, opt_time_limit=None)
    else:
        scale = dict(sweep_values=(2, 10, 18), runs=1, opt_time_limit=60.0)
    return RecoveryService().sweep(
        "figure3", seed=7, jobs=BENCH_JOBS, cache_dir=BENCH_CACHE, **scale
    )


def test_figure3_multicommodity_extremes(benchmark):
    result = benchmark.pedantic(run_figure3, rounds=1, iterations=1)
    print_figure("Figure 3 — multi-commodity relaxation (Bell-Canada, 4 pairs)", result.rows, COLUMNS)

    repairs = result.series("total_repairs")
    for demand_value in repairs["OPT"]:
        # OPT is a lower bound; ALL (112 elements) an upper bound; the
        # relaxation's best extreme never repairs more than its worst.
        assert repairs["OPT"][demand_value] <= repairs["MCB"][demand_value] + 1e-6
        assert repairs["MCB"][demand_value] <= repairs["MCW"][demand_value] + 1e-6
        assert repairs["MCW"][demand_value] <= repairs["ALL"][demand_value] + 1e-6
        assert repairs["ALL"][demand_value] == pytest.approx(112.0)

    satisfied = result.series("satisfied_pct")
    for algorithm in ("OPT", "MCB", "MCW", "ALL"):
        for value in satisfied[algorithm].values():
            assert value == pytest.approx(100.0, abs=1e-6)
