"""Figure 5 — Bell-Canada, varying the demand intensity (4 pairs).

Paper setting: 4 demand pairs, complete destruction, demand per pair swept
from 2 to 18 flow units.  Panels: (a) total repairs, (b) percentage of
satisfied demand.

Expected shape (paper): the repair counts grow step-wise with the demand
(connectivity repairs suffice until the intensity exceeds what the already
repaired corridor can carry); ISP tracks OPT, the greedy heuristics repair
more, and SRT / GRD-COM lose demand at high intensity while ISP does not.
"""

from __future__ import annotations

import pytest

from bench_utils import BENCH_CACHE, BENCH_JOBS, FULL_SCALE, print_figure, timed
from repro.api.service import RecoveryService

COLUMNS = ["demand_per_pair", "algorithm", "total_repairs", "satisfied_pct", "elapsed_seconds"]


@timed
def run_figure5():
    if FULL_SCALE:
        scale = dict(sweep_values=(2, 4, 6, 8, 10, 12, 14, 16, 18), runs=20, opt_time_limit=None)
    else:
        scale = dict(sweep_values=(2, 10, 18), runs=1, opt_time_limit=90.0)
    return RecoveryService().sweep(
        "figure5", seed=13, jobs=BENCH_JOBS, cache_dir=BENCH_CACHE, **scale
    )


def test_figure5_demand_intensity(benchmark):
    result = benchmark.pedantic(run_figure5, rounds=1, iterations=1)
    print_figure(
        "Figure 5 — Bell-Canada, varying demand intensity (4 pairs)", result.rows, COLUMNS
    )

    repairs = result.series("total_repairs")
    satisfied = result.series("satisfied_pct")
    intensities = sorted(repairs["ISP"])

    for intensity in intensities:
        assert repairs["OPT"][intensity] <= repairs["ISP"][intensity] + 1e-6
        assert repairs["ISP"][intensity] <= repairs["ALL"][intensity] + 1e-6
        assert satisfied["ISP"][intensity] == pytest.approx(100.0, abs=1e-3)
        assert satisfied["GRD-NC"][intensity] == pytest.approx(100.0, abs=1e-3)

    # Higher intensity can only need more repairs (step-wise growth).
    isp_series = [repairs["ISP"][value] for value in intensities]
    opt_series = [repairs["OPT"][value] for value in intensities]
    assert isp_series[-1] >= isp_series[0] - 1e-6
    assert opt_series[-1] >= opt_series[0] - 1e-6
